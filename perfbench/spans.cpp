#include "spans.hpp"

#include <fstream>

#include "stats.hpp"

namespace perfbench {

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

int SpanRecorder::begin(const std::string& name, int parent, std::int64_t id, int track) {
  if (!enabled_) return -1;
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, id, track});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int span) {
  if (span < 0) return;
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end = now;
}

int SpanRecorder::add(const std::string& name, Clock::time_point start, Clock::time_point end,
                      int parent, std::int64_t id, int track) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, parent, id, track});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  const std::vector<Span> all = spans();
  std::vector<Interval> intervals;
  std::vector<int> parents;
  intervals.reserve(all.size());
  parents.reserve(all.size());
  for (const Span& s : all) {
    intervals.push_back({seconds_between(origin_, s.start), seconds_between(origin_, s.end)});
    parents.push_back(s.parent);
  }
  const std::vector<double> self = self_times(intervals, parents);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < all.size(); ++i) by_layer[layer_of(all[i].name)] += self[i];
  return by_layer;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"" << json_escape(layer_of(s.name)) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.track << ",\"ts\":" << seconds_between(origin_, s.start) * 1e6
        << ",\"dur\":" << seconds_between(s.start, s.end) * 1e6 << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
