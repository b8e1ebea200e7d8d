#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <thread>

#include <time.h>

namespace perfbench {

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeedStream::unit() { return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53; }

std::uint64_t SeedStream::below(std::uint64_t bound) {
  return static_cast<std::uint64_t>((static_cast<unsigned __int128>(next()) * bound) >> 64);
}

namespace {
double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double this_thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream) {
  SeedStream s(workload_seed * 0x100000001b3ULL + stream);
  return s.next();
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate, double duration) {
  SeedStream s(seed);
  std::vector<double> out(static_cast<std::size_t>(std::llround(rate * duration)));
  for (double& t : out) t = (1.0 - s.unit()) * duration;  // in [0, duration)
  std::sort(out.begin(), out.end());
  return out;
}

Popularity Popularity::uniform(std::int64_t n) { return Popularity(n); }

Popularity Popularity::zipf(std::int64_t n, double s, std::uint64_t perm_seed) {
  Popularity p(n);
  p.cdf_.resize(static_cast<std::size_t>(n));
  double acc = 0;
  for (std::int64_t r = 0; r < n; ++r)
    p.cdf_[static_cast<std::size_t>(r)] = acc += std::pow(r + 1.0, -s);
  p.perm_.resize(static_cast<std::size_t>(n));
  std::iota(p.perm_.begin(), p.perm_.end(), std::int64_t{0});
  SeedStream rng(perm_seed);
  for (std::size_t i = p.perm_.size() - 1; i > 0; --i)
    std::swap(p.perm_[i], p.perm_[rng.below(i + 1)]);
  return p;
}

std::int64_t Popularity::draw(std::uint64_t seed, std::uint64_t index) const {
  SeedStream s(derive_seed(seed, index));
  if (cdf_.empty()) return static_cast<std::int64_t>(s.below(static_cast<std::uint64_t>(n_)));
  const double u = s.unit() * cdf_.back();
  const auto rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return perm_[static_cast<std::size_t>(std::min<std::ptrdiff_t>(rank, n_ - 1))];
}

std::vector<std::int64_t> Popularity::draws(std::uint64_t seed, std::size_t count) const {
  std::vector<std::int64_t> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = draw(seed, i);
  return out;
}

namespace {
constexpr auto kSpin = std::chrono::microseconds(300);
}  // namespace

std::vector<double> OpenLoopResult::answered_latency_s() const {
  std::vector<double> out;
  for (const double l : latency_s)
    if (std::isfinite(l)) out.push_back(l);
  return out;
}

void OpenLoopResult::append(const OpenLoopResult& other) {
  counts += other.counts;
  latency_s.insert(latency_s.end(), other.latency_s.begin(), other.latency_s.end());
  lateness_s.insert(lateness_s.end(), other.lateness_s.begin(), other.lateness_s.end());
  submit_s.insert(submit_s.end(), other.submit_s.begin(), other.submit_s.end());
}

OpenLoopResult run_open_loop(const std::vector<double>& due, std::size_t first,
                             const SubmitFn& submit, SpanRecorder& spans) {
  const std::size_t n = due.size();
  std::vector<Clock::time_point> answered(n), submit_begin(n), submit_end(n);
  std::vector<char> accepted(n, 0);
  std::atomic<std::size_t> answers{0};
  std::size_t admitted = 0;

  OpenLoopResult r;
  r.lateness_s.reserve(n);
  r.submit_s.reserve(n);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto due_at = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due[i]));
  };
  for (std::size_t i = 0; i < n; ++i) {
    // Sleep to just short of the due time, then spin: a timed wake-up alone
    // lands tens of microseconds late, and that lateness would be charged
    // to the program.
    std::this_thread::sleep_until(due_at(i) - kSpin);
    while (Clock::now() < due_at(i)) {
    }
    submit_begin[i] = Clock::now();
    const bool ok = submit(first + i, [&answered, &answers, i] {
      answered[i] = Clock::now();
      answers.fetch_add(1, std::memory_order_release);
    });
    submit_end[i] = Clock::now();
    accepted[i] = ok;
    admitted += ok;
    r.counts.record(ok);
    r.lateness_s.push_back(std::chrono::duration<double>(submit_begin[i] - due_at(i)).count());
    r.submit_s.push_back(std::chrono::duration<double>(submit_end[i] - submit_begin[i]).count());
  }
  while (answers.load(std::memory_order_acquire) < admitted)
    std::this_thread::sleep_for(std::chrono::microseconds(200));

  r.latency_s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!accepted[i]) {
      r.latency_s.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    r.latency_s.push_back(std::chrono::duration<double>(answered[i] - due_at(i)).count());
    if (spans.enabled()) {
      const auto id = static_cast<std::int64_t>(first + i);
      const int req = spans.add("driver.request", due_at(i), answered[i], -1, id);
      spans.add("serve.submit", submit_begin[i], submit_end[i], req, id);
    }
  }
  return r;
}

namespace {

/// Shared state of one closed loop; answers run on the program's threads.
/// Each of the `in_flight` clients sends its next request as soon as its
/// last one is answered (a refused request is retried) until the deadline.
class ClosedLoop {
 public:
  ClosedLoop(const SubmitFn& submit, double seconds)
      : submit_(submit),
        seconds_(seconds),
        t_end_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds))) {}

  void start(std::size_t in_flight) {
    outstanding_.store(in_flight, std::memory_order_relaxed);
    for (std::size_t k = 0; k < in_flight; ++k) issue();
  }
  Clock::time_point deadline() const { return t_end_; }
  bool drained() const { return outstanding_.load(std::memory_order_acquire) == 0; }

  ClosedLoopResult result() const {
    ClosedLoopResult r;
    const std::uint64_t refused = refused_.load(), attempted = attempted_.load();
    r.counts = {attempted, attempted - refused, refused};
    r.rps = static_cast<double>(on_time_.load()) / seconds_;
    return r;
  }

 private:
  /// Sends one client's next request, or retires the client after the
  /// deadline.
  void issue() {
    while (Clock::now() < t_end_) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      attempted_.fetch_add(1, std::memory_order_relaxed);
      if (submit_(i, [this] { answered(); })) return;
      refused_.fetch_add(1, std::memory_order_relaxed);
    }
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  }

  void answered() {
    if (Clock::now() < t_end_) on_time_.fetch_add(1, std::memory_order_relaxed);
    issue();
  }

  const SubmitFn& submit_;
  const double seconds_;
  const Clock::time_point t_end_;
  std::atomic<std::size_t> next_{0}, outstanding_{0};
  std::atomic<std::uint64_t> attempted_{0}, refused_{0}, on_time_{0};
};

}  // namespace

ClosedLoopResult run_closed_loop(std::size_t in_flight, double seconds, const SubmitFn& submit) {
  const double cpu0 = process_cpu_seconds();
  ClosedLoop loop(submit, seconds);
  loop.start(in_flight);
  std::this_thread::sleep_until(loop.deadline());
  while (!loop.drained()) std::this_thread::sleep_for(std::chrono::microseconds(200));
  ClosedLoopResult r = loop.result();
  r.cpu_s = process_cpu_seconds() - cpu0;
  return r;
}

}  // namespace perfbench
