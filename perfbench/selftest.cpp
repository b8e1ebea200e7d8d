// Tests of the benchmark's own arithmetic and load driver. No library code
// is involved. Run through `python3 perfbench/run.py --selftest`, and before
// every benchmark run.
#include <algorithm>
#include <condition_variable>
#include <functional>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <thread>

#include "load.hpp"
#include "probe.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

using namespace perfbench;

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

/// Spins until the calling thread has used `seconds` more CPU time.
void burn_cpu(double seconds) {
  const double end = this_thread_cpu_seconds() + seconds;
  while (this_thread_cpu_seconds() < end) {
  }
}

void test_percentile_rule() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // 1..100, unsorted
  const Percentile p50 = percentile(xs, 0.50);
  CHECK(near(p50.value, 50));  // nearest rank: ceil(0.5 * 100) = 50
  CHECK(p50.samples == 100 && p50.beyond == 50);
  const Percentile p99 = percentile(xs, 0.99);
  CHECK(near(p99.value, 99) && p99.beyond == 1);
  CHECK(near(percentile(xs, 1.0).value, 100));
  CHECK(near(percentile({7.0}, 0.99).value, 7));
  CHECK(percentile({}, 0.5).samples == 0);

  // Ties: beyond counts only members strictly above the value.
  const Percentile tie = percentile({1, 2, 2, 2, 3}, 0.5);
  CHECK(near(tie.value, 2) && tie.beyond == 1);
}

void test_refusals_are_misses() {
  const double miss = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {miss};
  for (int i = 1; i <= 98; ++i) xs.push_back(i);
  xs.push_back(miss);
  // 98 answered + 2 refused: the refusals push p50 up one rank's worth and
  // p99 (rank 99 of 100) lands on a refusal, so that percentile is a miss.
  const Percentile p50 = percentile(xs, 0.50);
  CHECK(near(p50.value, 50) && p50.samples == 100 && p50.beyond == 50);
  const Percentile p99 = percentile(xs, 0.99);
  CHECK(p99.is_miss() && p99.samples == 100 && p99.beyond == 0);
  const Percentile p98 = percentile(xs, 0.98);
  CHECK(near(p98.value, 98) && p98.beyond == 2);
  // All refused: every percentile is a miss.
  CHECK(percentile({miss, miss}, 0.5).is_miss());
}

void test_median() {
  CHECK(near(median({3, 1, 2}), 2) && near(median({4, 1, 2, 3}), 2.5));
}

void test_self_time() {
  // parent [0,10]; children [1,3] and [2,5] overlap (cover 1..5), [8,12]
  // sticks out of the parent (covers 8..10). A grandchild [1,2] under the
  // first child reduces the child's self time, not the parent's.
  const std::vector<Interval> spans = {{0, 10}, {1, 3}, {2, 5}, {8, 12}, {1, 2}};
  const std::vector<int> parent = {-1, 0, 0, 0, 1};
  const std::vector<double> self = self_times(spans, parent);
  CHECK(near(self[0], 10 - 6));
  CHECK(near(self[1], 2 - 1));
  CHECK(near(self[2], 3));
  CHECK(near(self[3], 4));
  CHECK(near(self[4], 1));
  CHECK(near(covered({0, 10}, {}), 0));
}

void test_failure_accounting() {
  Counts a;
  for (int i = 0; i < 10; ++i) a.record(i % 4 != 0);
  CHECK(a.attempted == 10 && a.succeeded == 7 && a.failed == 3 && a.consistent());
  Counts b;
  b.record(false);
  a += b;
  CHECK(a.attempted == 11 && a.failed == 4 && a.consistent());
  Counts broken{5, 3, 1};
  CHECK(!broken.consistent());
}

void test_streams_repeat() {
  CHECK(poisson_schedule(42, 2000, 1.0) == poisson_schedule(42, 2000, 1.0));
  CHECK(poisson_schedule(42, 2000, 1.0) != poisson_schedule(43, 2000, 1.0));
  const Popularity uniform = Popularity::uniform(1000);
  const Popularity zipf3 = Popularity::zipf(1000, 1.0, 3);
  CHECK(uniform.draws(7, 500) == uniform.draws(7, 500));
  CHECK(uniform.draws(7, 500) != uniform.draws(8, 500));
  CHECK(zipf3.draws(7, 500) == zipf3.draws(7, 500));
  CHECK(zipf3.draws(7, 500) != zipf3.draws(8, 500));
  CHECK(zipf3.draws(7, 500) != Popularity::zipf(1000, 1.0, 4).draws(7, 500));
  // A draw depends only on its index: a longer stream extends a shorter one.
  const std::vector<std::int64_t> head = zipf3.draws(7, 500), longer = zipf3.draws(7, 2000);
  CHECK(std::equal(head.begin(), head.end(), longer.begin()));
  CHECK(zipf3.draw(7, 1999) == longer[1999]);
  CHECK(derive_seed(1, 13) == derive_seed(1, 13) && derive_seed(1, 13) != derive_seed(1, 14));

  const std::vector<double> s = poisson_schedule(3, 2000, 5.0);
  CHECK(std::is_sorted(s.begin(), s.end()) && s.front() >= 0 && s.back() < 5.0);
  CHECK(s.size() == 10000);
  // Conditioned on the count, a Poisson process puts arrivals uniformly:
  // each second holds ~2000 (4 sigma = 4 * sqrt(2000 * 0.8) ~ 160).
  for (int sec = 0; sec < 5; ++sec) {
    const auto n =
        std::count_if(s.begin(), s.end(), [&](double t) { return t >= sec && t < sec + 1; });
    CHECK(std::abs(n - 2000) < 160);
  }
  for (const std::int64_t v : Popularity::uniform(50).draws(9, 1000)) CHECK(v >= 0 && v < 50);

  // Zipf(1) over 1000 ids: the hottest id takes ~1/H(1000) ~ 13% of draws.
  // Two draw seeds over one permutation agree on the hottest id.
  const auto hottest = [](const std::vector<std::int64_t>& z) {
    std::vector<int> hist(1000);
    for (const std::int64_t v : z) ++hist[static_cast<std::size_t>(v)];
    const auto top = std::max_element(hist.begin(), hist.end());
    return std::pair<std::ptrdiff_t, int>(top - hist.begin(), *top);
  };
  const Popularity zipf5 = Popularity::zipf(1000, 1.0, 5);
  const auto [id_a, top_a] = hottest(zipf5.draws(11, 20000));
  const auto [id_b, top_b] = hottest(zipf5.draws(12, 20000));
  CHECK(top_a > 2200 && top_a < 3200 && top_b > 2200 && top_b < 3200);
  CHECK(id_a == id_b);
}

void test_open_loop_driver() {
  // A fake program that refuses every 10th request and answers the rest on
  // another thread after ~1 ms.
  std::vector<std::thread> answerers;
  const std::vector<double> due = poisson_schedule(5, 1000, 0.2);
  SpanRecorder spans(true);
  const OpenLoopResult r = run_open_loop(
      due, 100,
      [&](std::size_t i, std::function<void()> done) {
        if (i % 10 == 9) return false;
        answerers.emplace_back([done = std::move(done)] {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          done();
        });
        return true;
      },
      spans);
  for (auto& t : answerers) t.join();
  const std::uint64_t refused = due.size() / 10;
  CHECK(r.counts.attempted == due.size() && r.counts.failed == refused && r.counts.consistent());
  CHECK(r.latency_s.size() == due.size() && r.lateness_s.size() == due.size());
  CHECK(r.answered_latency_s().size() == due.size() - refused);
  for (std::size_t i = 0; i < due.size(); ++i)
    CHECK(i % 10 == 9 ? std::isinf(r.latency_s[i]) : r.latency_s[i] >= 0.001);
  // One driver.request span per answered request, each with a submit child,
  // numbered from `first`.
  CHECK(spans.spans().size() == 2 * (due.size() - refused));
  CHECK(!spans.spans().empty() && spans.spans().front().id == 100);

  // Appending concatenates attempts and adds counts.
  OpenLoopResult both = r;
  both.append(r);
  CHECK(both.counts.attempted == 2 * r.counts.attempted && both.counts.consistent());
  CHECK(both.latency_s.size() == 2 * due.size() && both.submit_s.size() == 2 * due.size());
}

/// A fake program: one worker thread answers queued requests ~50 µs apart,
/// refusing every 7th submission.
class FakeServer {
 public:
  /// Each answer first burns `burn_s` of CPU time, then sleeps `sleep_s`.
  explicit FakeServer(double burn_s = 0, double sleep_s = 50e-6)
      : burn_s_(burn_s), sleep_s_(sleep_s), worker_([this] { run(); }) {}
  ~FakeServer() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_one();
    worker_.join();
  }
  bool submit(std::function<void()> done) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (++submissions_ % 7 == 0) return false;
    queue_.push_back(std::move(done));
    max_queued_ = std::max(max_queued_, queue_.size());
    cv_.notify_one();
    return true;
  }
  std::size_t max_queued() {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_queued_;
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;
      std::function<void()> done = std::move(queue_.front());
      queue_.erase(queue_.begin());
      lock.unlock();
      burn_cpu(burn_s_);
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s_));
      done();  // may submit again
      lock.lock();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::function<void()>> queue_;
  std::size_t submissions_ = 0, max_queued_ = 0;
  bool stop_ = false;
  const double burn_s_, sleep_s_;
  std::thread worker_;
};

void test_closed_loop_driver() {
  FakeServer server;
  const ClosedLoopResult r =
      run_closed_loop(4, 0.2, [&](std::size_t, std::function<void()> done) {
        return server.submit(std::move(done));
      });
  // A refused client retries, so at most 4 ever wait, and each refusal is
  // one failed attempt. The rate counts answers before the deadline only.
  CHECK(server.max_queued() <= 4);
  CHECK(r.counts.consistent() && r.counts.attempted > 100);
  CHECK(r.counts.failed == r.counts.attempted / 7);
  CHECK(r.rps > 0 && r.rps * 0.2 <= static_cast<double>(r.counts.succeeded));
}

void test_cpu_clocks() {
  // Sleeping costs no CPU time. Work on another thread counts for the
  // process but not for the calling thread, so the process's CPU time minus
  // the driver thread's is the program's (the serve workloads' metric).
  double p0 = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  CHECK(process_cpu_seconds() - p0 < 0.005);
  p0 = process_cpu_seconds();
  const double t0 = this_thread_cpu_seconds();
  std::thread([] { burn_cpu(0.02); }).join();
  CHECK(process_cpu_seconds() - p0 >= 0.02);
  CHECK(this_thread_cpu_seconds() - t0 < 0.005);
}

void test_host_slowdown() {
  // The median pass over the fastest: 1 when no pass was slowed.
  CHECK(near(host_slowdown({0.03, 0.02, 0.05}), 1.5));
  CHECK(near(host_slowdown({0.02}), 1.0) && near(host_slowdown({}), 1.0));
  const std::vector<double> passes = probe_passes(2, 2);
  CHECK(passes.size() == 4);
  for (const double p : passes) CHECK(p > 0);
}

void test_closed_loop_cpu() {
  // Each answer burns 200 us of CPU time and then sleeps 1 ms: only the burn
  // (and the loop's own small overhead) is CPU time per request.
  FakeServer server(200e-6, 1e-3);
  const ClosedLoopResult r =
      run_closed_loop(2, 0.2, [&](std::size_t, std::function<void()> done) {
        return server.submit(std::move(done));
      });
  CHECK(r.counts.succeeded > 50);
  CHECK(r.cpu_per_request_s() >= 200e-6 && r.cpu_per_request_s() < 600e-6);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_refusals_are_misses();
  test_median();
  test_self_time();
  test_failure_accounting();
  test_streams_repeat();
  test_open_loop_driver();
  test_closed_loop_driver();
  test_cpu_clocks();
  test_closed_loop_cpu();
  test_host_slowdown();
  if (g_failures) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
