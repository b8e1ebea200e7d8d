#include "serve/traffic_gen.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace distgnn::serve {

void LatencyRecorder::record(double seconds) {
  util::MutexLock lock(mutex_);
  samples_.push_back(seconds);
}

std::size_t LatencyRecorder::count() const {
  util::MutexLock lock(mutex_);
  return samples_.size();
}

double LatencyRecorder::quantile(double q) const {
  util::MutexLock lock(mutex_);
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  const auto idx = static_cast<std::size_t>(
      std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1) + 0.5);
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(idx), sorted.end());
  return sorted[idx];
}

double LatencyRecorder::mean_seconds() const {
  util::MutexLock lock(mutex_);
  if (samples_.empty()) return 0.0;
  double total = 0;
  for (const double s : samples_) total += s;
  return total / static_cast<double>(samples_.size());
}

LatencyRecorder& LatencyRecorder::operator+=(const LatencyRecorder& other) {
  if (this == &other) return *this;
  std::vector<double> theirs;
  {
    util::MutexLock lock(other.mutex_);
    theirs = other.samples_;
  }
  util::MutexLock lock(mutex_);
  samples_.insert(samples_.end(), theirs.begin(), theirs.end());
  return *this;
}

std::vector<LatencyRecorder::Bucket> LatencyRecorder::histogram() const {
  util::MutexLock lock(mutex_);
  // Shared log2 bucket geometry (obs::latency_bucket): bucket k covers
  // [1µs·2^(k-1), 1µs·2^k), so the pass is O(samples) regardless of how wide
  // the tail spreads — and the printed buckets can never drift from the
  // scrapeable obs histograms.
  std::map<int, std::size_t> counts;
  for (const double s : samples_) ++counts[obs::latency_bucket(s)];
  std::vector<Bucket> buckets;
  buckets.reserve(counts.size());
  for (const auto& [k, count] : counts) buckets.push_back({obs::bucket_upper_seconds(k), count});
  return buckets;
}

std::vector<double> generate_arrivals(const ArrivalConfig& config, std::size_t count) {
  std::vector<double> arrivals;
  arrivals.reserve(count);
  Rng rng(config.seed);
  const auto exponential = [&rng](double mean) {
    double u = rng.next_double();
    while (u <= 1e-300) u = rng.next_double();
    return -mean * std::log(u);
  };

  if (config.process == ArrivalProcess::kPoisson) {
    if (config.rate <= 0) throw std::invalid_argument("generate_arrivals: rate must be > 0");
    double t = 0;
    for (std::size_t i = 0; i < count; ++i) {
      t += exponential(1.0 / config.rate);
      arrivals.push_back(t);
    }
    return arrivals;
  }

  // 2-state MMPP: Poisson arrivals at the current state's rate; state
  // sojourns are exponential. A candidate arrival beyond the sojourn end is
  // discarded and redrawn in the next state (memorylessness makes this
  // exact).
  if (config.mmpp_rate0 <= 0 || config.mmpp_rate1 <= 0 || config.mmpp_hold0 <= 0 ||
      config.mmpp_hold1 <= 0)
    throw std::invalid_argument("generate_arrivals: MMPP rates/holds must be > 0");
  double t = 0;
  int state = 0;
  double state_end = exponential(config.mmpp_hold0);
  while (arrivals.size() < count) {
    const double rate = state == 0 ? config.mmpp_rate0 : config.mmpp_rate1;
    const double candidate = t + exponential(1.0 / rate);
    if (candidate < state_end) {
      t = candidate;
      arrivals.push_back(t);
    } else {
      t = state_end;
      state = 1 - state;
      state_end = t + exponential(state == 0 ? config.mmpp_hold0 : config.mmpp_hold1);
    }
  }
  return arrivals;
}

double index_of_dispersion(std::span<const double> arrivals, double window_seconds) {
  if (arrivals.empty() || window_seconds <= 0) return 0.0;
  const double span = arrivals.back();
  const auto num_windows = static_cast<std::size_t>(span / window_seconds);
  if (num_windows < 2) return 0.0;
  std::vector<std::size_t> counts(num_windows, 0);
  for (const double t : arrivals) {
    const auto w = static_cast<std::size_t>(t / window_seconds);
    if (w < num_windows) ++counts[w];
  }
  double mean = 0;
  for (const std::size_t c : counts) mean += static_cast<double>(c);
  mean /= static_cast<double>(num_windows);
  if (mean == 0) return 0.0;
  double var = 0;
  for (const std::size_t c : counts) {
    const double d = static_cast<double>(c) - mean;
    var += d * d;
  }
  var /= static_cast<double>(num_windows);
  return var / mean;
}

void fill_latency_fields(LoadReport& report, const LatencyRecorder& latencies) {
  report.mean_ms = latencies.mean_seconds() * 1e3;
  report.p50_ms = latencies.quantile(0.50) * 1e3;
  report.p95_ms = latencies.quantile(0.95) * 1e3;
  report.p99_ms = latencies.quantile(0.99) * 1e3;
  report.p999_ms = latencies.quantile(0.999) * 1e3;
  report.histogram = latencies.histogram();
}

std::string render_load_reports(std::span<const LoadReport> reports, const std::string& title) {
  TextTable table({"load", "offered", "done", "rejected", "QPS", "mean ms", "p50 ms", "p95 ms",
                   "p99 ms", "p99.9 ms", "batch"});
  for (const LoadReport& r : reports)
    table.add_row({r.label, TextTable::fmt_int(static_cast<long long>(r.offered)),
                   TextTable::fmt_int(static_cast<long long>(r.completed)),
                   TextTable::fmt_int(static_cast<long long>(r.rejected)), TextTable::fmt(r.qps, 0),
                   TextTable::fmt(r.mean_ms), TextTable::fmt(r.p50_ms), TextTable::fmt(r.p95_ms),
                   TextTable::fmt(r.p99_ms), TextTable::fmt(r.p999_ms),
                   TextTable::fmt(r.mean_batch, 2)});
  return table.render(title);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s, Rng& rng) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (s <= 0) throw std::invalid_argument("ZipfSampler: s must be > 0");
  cdf_.reserve(static_cast<std::size_t>(n));
  double total = 0;
  for (std::uint64_t r = 1; r <= n; ++r) {
    total += std::pow(static_cast<double>(r), -s);
    cdf_.push_back(total);
  }
  values_.resize(static_cast<std::size_t>(n));
  for (std::uint64_t v = 0; v < n; ++v) values_[static_cast<std::size_t>(v)] = v;
  for (std::size_t i = values_.size(); i > 1; --i)
    std::swap(values_[i - 1], values_[rng.next_below(i)]);
}

std::uint64_t ZipfSampler::draw(Rng& rng) const {
  const double u = rng.next_double() * cdf_.back();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  return values_[rank];
}

EmbedWorkloadReport run_embed_cache_workload(const Dataset& dataset,
                                             std::shared_ptr<const ModelSnapshot> snapshot,
                                             const ServeConfig& base, std::uint64_t cache_bytes,
                                             double zipf_s, std::uint64_t seed, int clients,
                                             int requests_per_client) {
  ServeConfig cfg = base;
  cfg.embed_forward = true;
  cfg.embed_cache_bytes = cache_bytes;
  cfg.max_batch_delay = std::chrono::microseconds(0);  // greedy batching (see header)
  InferenceServer server(dataset, cfg);
  server.publish(std::move(snapshot));
  server.start();

  {
    TrafficGenerator warmup(server, seed, zipf_s);
    (void)warmup.run_closed_loop(clients, requests_per_client);
  }
  const CacheStats warmed = server.stats().embed_cache;

  EmbedWorkloadReport report;
  TrafficGenerator traffic(server, seed + 1, zipf_s);
  report.load = traffic.run_closed_loop(clients, requests_per_client);
  const CacheStats total = server.stats().embed_cache;
  CacheStats measured;
  measured.accesses = total.accesses - warmed.accesses;
  measured.misses = total.misses - warmed.misses;
  report.hit_rate = measured.hit_rate();
  server.stop();
  return report;
}

namespace {

LoadReport make_report(std::string label, double duration, std::uint64_t offered,
                       std::uint64_t rejected, const LatencyRecorder& latencies,
                       const BackendStats& before, const BackendStats& after) {
  LoadReport report;
  report.label = std::move(label);
  report.duration_seconds = duration;
  report.offered = offered;
  report.completed = offered - rejected;
  report.rejected = rejected;
  report.qps = duration > 0 ? static_cast<double>(report.completed) / duration : 0.0;
  fill_latency_fields(report, latencies);
  const std::uint64_t batches = after.batches - before.batches;
  report.mean_batch = batches == 0 ? 0.0
                                   : static_cast<double>(after.batched_requests -
                                                         before.batched_requests) /
                                         static_cast<double>(batches);
  return report;
}

}  // namespace

LoadReport run_open_loop_core(const ServingBackend& backend, std::span<const double> offsets,
                              ServeClock::time_point begin, const OpenLoopSubmit& submit) {
  const std::size_t n = offsets.size();
  const BackendStats before = backend.stats();
  LatencyRecorder latencies;
  util::Mutex done_mutex;
  util::CondVar done_cv;
  std::size_t accounted = 0;
  std::uint64_t rejected = 0;
  const auto account = [&](bool was_rejected) {
    util::MutexLock lock(done_mutex);
    if (was_rejected) ++rejected;
    ++accounted;
    if (accounted == n) done_cv.notify_all();
  };

  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(begin + std::chrono::duration<double>(offsets[i]));
    const bool accepted = submit(i, [&](InferResult&& result) {
      latencies.record(result.latency_seconds);
      account(false);
    });
    if (!accepted) account(true);
  }
  {
    util::MutexLock lock(done_mutex);
    while (accounted != n) done_cv.wait(lock);
  }
  const double duration = std::chrono::duration<double>(ServeClock::now() - begin).count();
  return make_report("", duration, n, rejected, latencies, before, backend.stats());
}

TrafficGenerator::TrafficGenerator(ServingBackend& server, std::uint64_t seed, double zipf_s,
                                   std::uint64_t zipf_perm_seed)
    : server_(server),
      num_vertices_(static_cast<std::uint64_t>(server.dataset().num_vertices())),
      rng_(seed) {
  if (zipf_s < 0) throw std::invalid_argument("TrafficGenerator: zipf_s must be >= 0");
  if (zipf_s > 0) {
    Rng perm_rng(zipf_perm_seed);
    zipf_.emplace(num_vertices_, zipf_s, perm_rng);
  }
}

vid_t TrafficGenerator::random_vertex() {
  if (zipf_) return static_cast<vid_t>(zipf_->draw(rng_));
  return static_cast<vid_t>(rng_.next_below(num_vertices_));
}

LoadReport TrafficGenerator::run_closed_loop(int num_clients, int requests_each) {
  if (num_clients < 1 || requests_each < 1)
    throw std::invalid_argument("run_closed_loop: clients and requests must be >= 1");
  const BackendStats before = server_.stats();

  // Hand each client its own pre-drawn vertex list so the workload is
  // deterministic regardless of thread interleaving.
  std::vector<std::vector<vid_t>> targets(static_cast<std::size_t>(num_clients));
  for (auto& list : targets) {
    list.reserve(static_cast<std::size_t>(requests_each));
    for (int i = 0; i < requests_each; ++i) list.push_back(random_vertex());
  }

  // Each client records into its own recorder; the fold at the end is the
  // only cross-thread touch, so the measurement adds no lock contention of
  // its own to the closed loop.
  std::vector<LatencyRecorder> per_client(static_cast<std::size_t>(num_clients));
  const auto begin = ServeClock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      LatencyRecorder& mine = per_client[static_cast<std::size_t>(c)];
      for (const vid_t v : targets[static_cast<std::size_t>(c)]) {
        const InferResult result = server_.infer_sync(v);
        mine.record(result.latency_seconds);
      }
    });
  }
  for (auto& t : clients) t.join();
  const double duration = std::chrono::duration<double>(ServeClock::now() - begin).count();
  LatencyRecorder latencies;
  for (const LatencyRecorder& r : per_client) latencies += r;

  const auto total = static_cast<std::uint64_t>(num_clients) *
                     static_cast<std::uint64_t>(requests_each);
  return make_report("closed(" + std::to_string(num_clients) + ")", duration, total, 0,
                     latencies, before, server_.stats());
}

LoadReport TrafficGenerator::run_open_loop(const ArrivalConfig& arrivals,
                                           std::size_t num_requests, const MetaSource& meta) {
  const std::vector<double> offsets = generate_arrivals(arrivals, num_requests);
  std::vector<vid_t> targets;
  targets.reserve(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) targets.push_back(random_vertex());

  LoadReport report = run_open_loop_core(
      server_, offsets, ServeClock::now(),
      [&](std::size_t i, std::function<void(InferResult&&)> done) {
        return server_.submit(targets[i], meta ? meta(i) : RequestMeta{}, std::move(done));
      });
  report.label = arrivals.process == ArrivalProcess::kPoisson ? "poisson" : "mmpp";
  return report;
}

LoadReport run_deadline_open_loop(ServingBackend& backend, const ArrivalConfig& arrivals,
                                  std::size_t num_requests, double deadline_seconds,
                                  double low_priority_fraction, std::uint64_t seed) {
  const std::vector<double> offsets = generate_arrivals(arrivals, num_requests);
  const auto num_vertices = static_cast<std::uint64_t>(backend.dataset().num_vertices());
  Rng rng(seed);
  std::vector<vid_t> targets;
  std::vector<Priority> priorities;
  targets.reserve(num_requests);
  priorities.reserve(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) {
    targets.push_back(static_cast<vid_t>(rng.next_below(num_vertices)));
    priorities.push_back(rng.next_double() < low_priority_fraction ? Priority::kLow
                                                                    : Priority::kHigh);
  }

  LoadReport report = run_open_loop_core(
      backend, offsets, ServeClock::now(),
      [&](std::size_t i, std::function<void(InferResult&&)> done) {
        RequestMeta meta;
        if (deadline_seconds > 0) meta.deadline = deadline_after(deadline_seconds);
        meta.priority = priorities[i];
        return backend.submit(targets[i], meta, std::move(done));
      });
  report.label = arrivals.process == ArrivalProcess::kPoisson ? "poisson" : "mmpp";
  return report;
}

}  // namespace distgnn::serve
