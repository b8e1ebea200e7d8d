// Composed-tier benchmarks: a ReplicaGroup of R ShardedServer replicas x P
// shards, swept over (R, P) in {1,2} x {1,2} under open-loop 2-state MMPP
// load. QPS / p99 / p99.9 / shed-rate land in the CI JSON artifact next to
// the single-server and flat-replicated trajectories, so the serving story
// covers the full grid; the headline is QPS increasing with R at fixed P.
// Every run also checks a fixed request batch bitwise against a single
// InferenceServer over the same snapshot and exports the verdict as the
// `match` counter (CI asserts it), pinning the composed tier's equality
// contract where the numbers are produced.
//
// Custom flags (strict — typos fail loudly):
//   --rate=N         offered MMPP long-run mean rate, requests/s. 0 (the
//                    default) self-calibrates the burst state to several
//                    times one replica's measured capacity, so the R=1 grids
//                    shed under bursts and the R scaling is visible in
//                    completed QPS on any host.
//   --requests=N     requests per measured run (default 400)
//   --deadline-ms=N  per-request deadline for admission control. 0 (the
//                    default) self-calibrates to 40x the measured service
//                    time (host-independent shedding pressure).
//   --seed=N         arrival/vertex stream seed (default 5)
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_serving_common.hpp"
#include "graph/datasets.hpp"
#include "partition/libra.hpp"
#include "serve/replica_group.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_snapshot.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;

double g_rate = 0.0;        // 0 = self-calibrate (see header comment)
std::size_t g_requests = 400;
double g_deadline_ms = 0.0; // 0 = self-calibrate (see header comment)
std::uint64_t g_seed = 5;

struct ComposedFixture {
  Dataset dataset;
  std::shared_ptr<const ModelSnapshot> snapshot;
  std::vector<vid_t> probe;  // fixed batch for the bitwise-match check
  std::vector<std::vector<real_t>> expected;
  /// Per-request service time of the single-server reference — the one
  /// calibration constant every (R, P) run shares, so offered load at fixed
  /// P is identical across R (the comparison the bench exists for).
  double svc = 100e-6;

  static ComposedFixture& get() {
    static ComposedFixture f = make();
    return f;
  }

  static ComposedFixture make() {
    LearnableSbmParams params;
    params.num_vertices = 4096;
    params.num_classes = 8;
    params.avg_degree = 16;
    params.feature_dim = 64;
    params.seed = 9;
    ComposedFixture f{make_learnable_sbm(params), nullptr, {}, {}, 100e-6};
    ModelSpec spec;
    spec.feature_dim = f.dataset.feature_dim();
    spec.hidden_dim = 64;
    spec.num_classes = f.dataset.num_classes;
    spec.num_layers = 2;
    f.snapshot = ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1);
    (void)f.dataset.graph.in_csr();

    for (vid_t v = 0; v < 24; ++v)
      f.probe.push_back((v * 131) % f.dataset.num_vertices());
    InferenceServer single(f.dataset, f.serve_config());
    single.publish(f.snapshot);
    single.start();
    for (const vid_t v : f.probe) f.expected.push_back(single.infer_sync(v).logits);
    if (single.mean_service_seconds() > 0) f.svc = single.mean_service_seconds();
    single.stop();
    return f;
  }

  /// The single-server reference shares sample_seed/fanouts with the
  /// composed tier below — the whole point of the bitwise check.
  ServeConfig serve_config() const {
    ServeConfig cfg;
    cfg.num_workers = 1;
    cfg.max_batch = 16;
    cfg.fanouts = {10, 10};
    return cfg;
  }
};

/// One measured run of an R x P grid: bitwise probe first, then MMPP
/// open-loop through the tier with per-request deadlines.
void run_composed(benchmark::State& state, int replicas, int shards) {
  ComposedFixture& f = ComposedFixture::get();
  const EdgePartition partition =
      partition_libra(f.dataset.graph.coo(), static_cast<part_t>(shards));

  LoadReport last;
  AdmissionStats last_stats;
  obs::MetricsSnapshot scrape;
  bool match = true;
  for (auto _ : state) {
    ComposedConfig cfg;
    cfg.replicas = replicas;
    cfg.shard.max_batch = 16;
    cfg.shard.fanouts = {10, 10};
    cfg.shard.queue_capacity = 512;
    cfg.shard.prefetch_depth = 2;
    ReplicaGroup tier(f.dataset, partition, cfg, RoutePolicy::kPowerOfTwo);
    tier.publish(f.snapshot);
    tier.start();

    // Bitwise probe doubles as the warmup that primes the service-rate
    // estimate the deadline controller divides queue depth by.
    const auto probed = tier.infer_batch(f.probe);
    for (std::size_t i = 0; i < f.probe.size(); ++i)
      match = match && probed[i].has_value() && probed[i]->logits == f.expected[i];
    const AdmissionStats warmed = tier.admission_stats();

    // Self-calibrated MMPP overload (the Admission.SheddingLowersAdmittedTail
    // recipe): one replica's capacity is P serving ranks over the reference
    // server's per-request service time — a fixture constant, so at fixed P
    // the arrival schedule is byte-identical across R and the R=1 grid
    // sheds under bursts while completed QPS exposes the replication win.
    const double svc = f.svc;
    const double capacity = static_cast<double>(shards) / svc;

    ArrivalConfig arrivals;
    arrivals.process = ArrivalProcess::kMmpp;
    if (g_rate > 0) {
      arrivals.rate = g_rate;
      arrivals.mmpp_rate0 = g_rate / 4;
      arrivals.mmpp_rate1 = g_rate * 4;
    } else {
      // Burst at 3x one replica: R=1 sheds through every burst while R=2
      // has the headroom to absorb it — the regime where replication pays.
      arrivals.mmpp_rate0 = 0.5 * capacity;
      arrivals.mmpp_rate1 = 3.0 * capacity;
      arrivals.mmpp_hold0 = 0.005;
      arrivals.mmpp_hold1 = 0.004;
    }
    arrivals.seed = g_seed;
    const double deadline = g_deadline_ms > 0 ? g_deadline_ms * 1e-3 : 40 * svc;
    last = run_deadline_open_loop(tier, arrivals, g_requests, deadline,
                                  /*low_priority_fraction=*/0, g_seed);
    last_stats = tier.admission_stats().since(warmed);
    scrape = obs::MetricsSnapshot{};
    tier.scrape(scrape);
    tier.stop();
  }

  state.SetLabel("R" + std::to_string(replicas) + "xP" + std::to_string(shards));
  bench::attach_load_counters(state, last);
  bench::attach_admission_counters(state, last_stats);
  bench::attach_stage_counters(state, scrape, "sharded");
  state.counters["replicas"] = replicas;
  state.counters["shards"] = shards;
  state.counters["match"] = match ? 1.0 : 0.0;
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(g_requests));
}

void BM_Composed_R1P1(benchmark::State& state) { run_composed(state, 1, 1); }
BENCHMARK(BM_Composed_R1P1)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Composed_R2P1(benchmark::State& state) { run_composed(state, 2, 1); }
BENCHMARK(BM_Composed_R2P1)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Composed_R1P2(benchmark::State& state) { run_composed(state, 1, 2); }
BENCHMARK(BM_Composed_R1P2)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Composed_R2P2(benchmark::State& state) { run_composed(state, 2, 2); }
BENCHMARK(BM_Composed_R2P2)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace distgnn

int main(int argc, char** argv) {
  return distgnn::bench::run_strict_benchmark_main(
      argc, argv, "bench_composed_serving", {"rate", "requests", "deadline-ms", "seed"},
      [](const distgnn::Options& opts) {
        distgnn::g_rate = opts.get_double("rate", distgnn::g_rate);
        distgnn::g_requests = static_cast<std::size_t>(
            opts.get_int("requests", static_cast<long long>(distgnn::g_requests)));
        distgnn::g_deadline_ms = opts.get_double("deadline-ms", distgnn::g_deadline_ms);
        distgnn::g_seed = static_cast<std::uint64_t>(
            opts.get_int("seed", static_cast<long long>(distgnn::g_seed)));
      });
}
