// The benchmark's own load driver and input streams.
//
// Every input is generated here from the workload seed, with a private
// generator, so the program under test receives only the finished vertex,
// arrival and delta streams. The open loop is one thread that submits at
// scheduled instants and times each request from when it was *due*, so a
// stalled submit is charged to every request queued behind it. The closed
// loop keeps a fixed number of requests in flight.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

/// splitmix64 stream: portable and identical on every platform.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in (0, 1].
  double unit();
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// CPU time used so far by all threads of this process, in seconds. On a
/// kernel with paravirtual steal accounting it excludes the time the
/// hypervisor withheld, and it never counts time a thread spent blocked or
/// waiting to be woken.
double process_cpu_seconds();
/// The same for the calling thread only.
double this_thread_cpu_seconds();

/// Derives an independent seed for one named input stream of a workload.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream);

/// Poisson arrival offsets (seconds from 0) in [0, duration), ascending,
/// conditioned on their count: exactly round(rate * duration) arrivals,
/// placed as sorted uniform draws (the order statistics of a Poisson process
/// with that many events). Fixing the count removes the count's own noise
/// from run-to-run comparisons.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate, double duration);

/// Read popularity over vertex ids [0, n). Draw `index` of a stream depends
/// only on the stream's seed and the index, so a stream of any length is
/// read without being stored or sized in advance.
class Popularity {
 public:
  /// Every id equally likely.
  static Popularity uniform(std::int64_t n);
  /// Zipf(s): rank-r mass proportional to 1/r^s. Ranks map to ids through a
  /// permutation drawn from `perm_seed`, so popularity is unrelated to vertex
  /// id. Streams with different seeds and one `perm_seed` share a hot set.
  static Popularity zipf(std::int64_t n, double s, std::uint64_t perm_seed);

  std::int64_t draw(std::uint64_t seed, std::uint64_t index) const;
  /// Draws 0 .. count-1 of stream `seed`.
  std::vector<std::int64_t> draws(std::uint64_t seed, std::size_t count) const;

 private:
  explicit Popularity(std::int64_t n) : n_(n) {}
  std::int64_t n_;
  std::vector<double> cdf_;  // Zipf only: cumulative rank mass
  std::vector<std::int64_t> perm_;  // Zipf only: rank -> id
};

/// Submits request `index`; returns false when the program refuses it.
/// `on_done` must be called exactly once per accepted request, from any
/// thread, when its answer is available. It may submit again from inside
/// `on_done`.
using SubmitFn = std::function<bool(std::size_t index, std::function<void()> on_done)>;

struct OpenLoopResult {
  Counts counts;
  /// Per attempt, in schedule order: due time -> answer, +inf if refused.
  std::vector<double> latency_s;
  std::vector<double> lateness_s;  // per attempt: submit start - due time
  std::vector<double> submit_s;    // per attempt: time inside submit()
  std::vector<double> answered_latency_s() const;  // the finite latencies
  /// Appends another loop's attempts after this one's.
  void append(const OpenLoopResult& other);
};

/// Submits one request per entry of `due` (offsets from the start) and waits
/// for every accepted one. Requests are numbered from `first`: entry i is
/// request first + i. With `spans` enabled, each request gets a
/// driver.request span (due -> answer, id = its number) with a serve.submit
/// child.
OpenLoopResult run_open_loop(const std::vector<double>& due, std::size_t first,
                             const SubmitFn& submit, SpanRecorder& spans);

struct ClosedLoopResult {
  Counts counts;
  double rps = 0;  // requests answered per second before the deadline
  /// CPU time the whole process used from the first submit until the last
  /// answer, steal excluded; the driver thread only sleeps meanwhile.
  double cpu_s = 0;
  /// CPU time per answered request (seconds).
  double cpu_per_request_s() const {
    return counts.succeeded == 0 ? 0.0 : cpu_s / static_cast<double>(counts.succeeded);
  }
};

/// Keeps `in_flight` requests outstanding for `seconds`, then drains. Each
/// answer's callback submits the next request itself, so the driver thread
/// is never on the request path and the rate measures the program. Request
/// indices run 0, 1, 2, ...; the caller maps them to vertices.
ClosedLoopResult run_closed_loop(std::size_t in_flight, double seconds, const SubmitFn& submit);

}  // namespace perfbench
