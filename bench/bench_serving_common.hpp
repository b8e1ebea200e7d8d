// Shared helpers for the serving benchmarks (bench_serving,
// bench_replication_serving, bench_embed_cache, bench_composed_serving):
// load-report and admission counters with one canonical key format, the
// latency-histogram emission, and the strict-flag main() body — so the
// binaries' JSON artifact schemas cannot silently diverge.
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>

#include "obs/metrics.hpp"
#include "serve/replica_group.hpp"
#include "serve/traffic_gen.hpp"
#include "util/options.hpp"

namespace distgnn::bench {

/// Log2 histogram buckets as hist_le_<upper-µs>us counters: the JSON
/// artifact keeps the whole latency distribution, not just quantiles.
inline void attach_histogram_counters(benchmark::State& state, const serve::LoadReport& report) {
  for (const serve::LatencyRecorder::Bucket& b : report.histogram)
    state.counters["hist_le_" + std::to_string(std::llround(b.upper_seconds * 1e6)) + "us"] =
        static_cast<double>(b.count);
}

/// Canonical LoadReport counter set (QPS, quantiles through p99.9, batch
/// occupancy, rejections, full histogram) — every serving bench emits this
/// one schema, so CI consumers parse one key format across artifacts.
inline void attach_load_counters(benchmark::State& state, const serve::LoadReport& report) {
  state.counters["QPS"] = report.qps;
  state.counters["p50_ms"] = report.p50_ms;
  state.counters["p95_ms"] = report.p95_ms;
  state.counters["p99_ms"] = report.p99_ms;
  state.counters["p99_9_ms"] = report.p999_ms;
  state.counters["mean_batch"] = report.mean_batch;
  state.counters["rejected"] = static_cast<double>(report.rejected);
  attach_histogram_counters(state, report);
}

/// Canonical scrape-derived stage counter set: for one layer's
/// `distgnn_<layer>_stage_seconds` histograms (layer = "server" for
/// InferenceServer leaves, "sharded" for ShardedServer ranks), folds the
/// tenant lanes per stage and emits stage_<name>_p50_ms / _p99_ms / _count.
/// Every serving bench scrapes its backend once after the measured run and
/// attaches this set, so the JSON artifact carries the per-stage breakdown
/// alongside the end-to-end quantiles.
inline void attach_stage_counters(benchmark::State& state, const obs::MetricsSnapshot& scrape,
                                  const std::string& layer) {
  const std::string name = "distgnn_" + layer + "_stage_seconds";
  std::map<std::string, obs::HistogramData> by_stage;
  for (const obs::MetricPoint& point : scrape.points) {
    if (point.name != name || !point.is_histogram) continue;
    for (const auto& [key, value] : point.labels)
      if (key == "stage") by_stage[value] += point.histogram;
  }
  for (const auto& [stage, hist] : by_stage) {
    if (hist.empty()) continue;
    state.counters["stage_" + stage + "_p50_ms"] = hist.quantile(0.5) * 1e3;
    state.counters["stage_" + stage + "_p99_ms"] = hist.quantile(0.99) * 1e3;
    state.counters["stage_" + stage + "_count"] = static_cast<double>(hist.count);
  }
}

/// Canonical admission-control counter set for replica-group tiers.
inline void attach_admission_counters(benchmark::State& state,
                                      const serve::AdmissionStats& stats) {
  state.counters["shed_rate"] = stats.shed_rate();
  state.counters["shed_deadline"] = static_cast<double>(stats.shed_deadline);
  state.counters["shed_priority"] = static_cast<double>(stats.shed_priority);
  state.counters["shed_queue_full"] = static_cast<double>(stats.shed_queue_full);
  state.counters["shed_budget"] = static_cast<double>(stats.shed_budget);
  state.counters["admitted"] = static_cast<double>(stats.admitted);
}

/// Canonical per-tenant counter set: tenant_<id>_qps / _p99_ms from the
/// tenant's LoadReport plus tenant_<id>_shed_rate from its stats lane. Every
/// multi-tenant bench emits this one key format, so the CI asserts parse a
/// single schema.
inline void attach_tenant_counters(benchmark::State& state, serve::tenant_t tenant,
                                   const serve::LoadReport& report,
                                   const serve::TenantCounters& lane) {
  const std::string prefix = "tenant_" + std::to_string(tenant) + "_";
  state.counters[prefix + "qps"] = report.qps;
  state.counters[prefix + "p99_ms"] = report.p99_ms;
  state.counters[prefix + "shed_rate"] = lane.shed_rate();
}

/// BENCHMARK_MAIN body with strict flag validation: benchmark::Initialize
/// consumes every --benchmark_* flag, so whatever survives must be in
/// `known` (read back through `apply`) or the binary exits 2 instead of
/// silently benchmarking defaults.
inline int run_strict_benchmark_main(int argc, char** argv, const char* binary_name,
                                     std::initializer_list<const char*> known,
                                     const std::function<void(const Options&)>& apply = {}) {
  benchmark::Initialize(&argc, argv);
  try {
    const Options opts(argc, argv);
    opts.require_known(known);
    if (apply) apply(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", binary_name, e.what());
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace distgnn::bench
