// Span recorder for the traced run. Spans are kept in memory around each
// call the benchmark makes into a library layer and written out at exit as
// Chrome-trace JSON (chrome://tracing, Perfetto). A disabled recorder does
// nothing, so untraced runs pay one branch per call site.
//
// Span names are "<layer>.<call>" (graph.make_dataset, serve.submit, ...);
// per-layer self time groups spans by the part before the first dot.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  Clock::time_point start{};
  Clock::time_point end{};
  int parent = -1;         // index of the enclosing span, -1 at top level
  std::int64_t id = -1;    // request index or epoch number, -1 when none
  int track = 0;           // trace row: 0 driver, 1 writer
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its index, or -1 when disabled.
  int begin(const std::string& name, int parent = -1, std::int64_t id = -1, int track = 0);
  /// Closes a span opened by begin(); -1 is ignored.
  void end(int span);
  /// Records a span whose times were taken elsewhere (e.g. on a server
  /// worker thread); returns its index, or -1 when disabled.
  int add(const std::string& name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::int64_t id = -1, int track = 0);

  std::vector<Span> spans() const;
  /// Σ self time (duration minus direct children's cover) per layer.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Writes every span as a Chrome-trace "X" event; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// Runs `f` inside a span named `name` and returns its wall time (seconds).
template <typename F>
double timed(SpanRecorder& spans, const std::string& name, int parent, F&& f) {
  const int span = spans.begin(name, parent);
  const auto t0 = Clock::now();
  f();
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  spans.end(span);
  return s;
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// "graph.make_dataset" -> "graph".
std::string layer_of(const std::string& span_name);

}  // namespace perfbench
