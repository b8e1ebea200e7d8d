// Workload train-cd0: the paper's own experiment. Full-batch 2-layer
// GraphSAGE (hidden 64) on proteins-sim at scale 0.5, Libra vertex-cut into
// 4 parts, trained by train_distributed with the exact cd-0 algorithm on
// 4 ranks x 1 thread. The unit of work is one epoch; its end-to-end cost is
// the CPU time of all ranks per epoch.
#include <cmath>
#include <memory>

#include "core/distributed_trainer.hpp"
#include "core/single_socket_trainer.hpp"
#include "graph/datasets.hpp"
#include "kernels/aggregate.hpp"
#include "load.hpp"
#include "nn/gemm.hpp"
#include "partition/halo_plan.hpp"
#include "partition/libra.hpp"
#include "partition/partition_setup.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

using namespace distgnn;

constexpr double kScale = 0.5;
constexpr part_t kRanks = 4;
constexpr int kSetupReps = 9;
constexpr int kWarmupEpochs = 2;
constexpr int kCalibrationEpochs = 3;
constexpr int kKernelReps = 5;
constexpr int kProbePasses = 5;  // per rank, before and after the measured call

struct Setup {
  Dataset dataset;
  EdgePartition edge_partition;
  PartitionedGraph partitioned;
};

struct SetupTimes {
  std::vector<double> total, cpu, make_dataset, libra, build;
};

std::unique_ptr<Setup> build_setup(SpanRecorder& spans, int rep,
                                   SetupTimes& times) {
  // The dataset and its partitioning are fixed (the registry's generator
  // seed); --seed varies the model's initialization.
  const DatasetSpec& spec = dataset_spec("proteins-sim");
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_seconds();
  const int root = spans.begin("bench.setup", -1, rep);
  times.make_dataset.push_back(
      timed(spans, "graph.make_dataset", root, [&] { s->dataset = make_dataset(spec, kScale); }));
  times.libra.push_back(timed(spans, "partition.libra", root, [&] {
    s->edge_partition = partition_libra(s->dataset.graph.coo(), kRanks);
  }));
  times.build.push_back(timed(spans, "partition.build", root, [&] {
    s->partitioned = build_partitions(s->dataset.graph.coo(), s->edge_partition);
  }));
  spans.end(root);
  times.total.push_back(seconds_since(t0));
  times.cpu.push_back(process_cpu_seconds() - cpu0);
  return s;
}

TrainConfig train_config(const Args& args, int epochs) {
  TrainConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden_dim = 64;
  cfg.lr = 0.1;  // the examples' rate; the default 0.01 barely moves in tens of epochs
  cfg.algorithm = Algorithm::kCd0;
  cfg.threads_per_rank = 1;
  cfg.seed = derive_seed(args.seed, 3);
  cfg.epochs = epochs;
  return cfg;
}

struct TimedRun {
  DistTrainResult result;
  double wall_s = 0;
  double cpu_s = 0;  // process CPU time of the call
};

TimedRun train(const Setup& s, const TrainConfig& cfg, SpanRecorder& spans) {
  TimedRun run;
  const double cpu0 = process_cpu_seconds();
  run.wall_s = timed(spans, "core.train_distributed", -1,
                     [&] { run.result = train_distributed(s.dataset, s.partitioned, cfg); });
  run.cpu_s = process_cpu_seconds() - cpu0;
  return run;
}

/// Epoch records after warm-up.
std::vector<DistEpochRecord> measured(const DistTrainResult& r) {
  return {r.epochs.begin() + std::min<std::size_t>(kWarmupEpochs, r.epochs.size()),
          r.epochs.end()};
}

template <typename Field>
double median_of(const std::vector<DistEpochRecord>& recs, Field field) {
  std::vector<double> v;
  for (const DistEpochRecord& e : recs) v.push_back(e.*field);
  return median(v);
}

/// Median wall time of `kKernelReps` calls of `f` on one OpenMP thread.
template <typename F>
double single_thread_median(SpanRecorder& spans, const std::string& name, F&& f) {
  const int threads = par::max_threads();
  par::set_num_threads(1);
  std::vector<double> t;
  for (int i = 0; i < kKernelReps; ++i) t.push_back(timed(spans, name, -1, f));
  par::set_num_threads(threads);
  return median(t);
}

}  // namespace

WorkloadResult run_train_cd0(const Args& args, SpanRecorder& spans) {
  WorkloadResult out;
  SpanRecorder untraced(false);

  SetupTimes setup_times;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    setup = build_setup(spans, rep, setup_times);
  }
  const Setup& s = *setup;

  // Calibration: a short run sizes the measured run to --seconds and is the
  // reference trajectory for the determinism check.
  const TimedRun calib = train(s, train_config(args, kCalibrationEpochs), untraced);
  const double est_epoch =
      std::max(1e-3, median_of(calib.result.epochs, &DistEpochRecord::total_seconds));
  // A traced run measures twice, untraced then traced, each for half the time.
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const int epochs = kWarmupEpochs + std::clamp(static_cast<int>(budget / est_epoch), 5, 5000);
  std::vector<double> probe = probe_passes(kProbePasses, kRanks);
  reset_peak_rss();
  const TimedRun run = train(s, train_config(args, epochs), untraced);
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  const std::vector<double> after = probe_passes(kProbePasses, kRanks);
  probe.insert(probe.end(), after.begin(), after.end());
  const std::vector<DistEpochRecord> recs = measured(run.result);

  Phase phase{"epochs", {}};
  std::vector<double> epoch_s;
  for (const DistEpochRecord& e : run.result.epochs) phase.counts.record(std::isfinite(e.loss));
  for (const DistEpochRecord& e : recs) epoch_s.push_back(e.total_seconds);
  out.phases.push_back(phase);

  // --- correctness -------------------------------------------------------
  for (int e = 0; e < kCalibrationEpochs; ++e)
    out.check(calib.result.epochs[e].loss == run.result.epochs[e].loss,
              "loss trajectory differs between two runs at epoch " + std::to_string(e));
  SingleSocketTrainer single(s.dataset, train_config(args, 1));
  const EpochStats first = single.train_epoch();
  const double loss0 = run.result.epochs[0].loss;
  out.check(std::abs(loss0 - first.loss) <= 1e-5 * std::abs(first.loss),
            "epoch-0 loss " + std::to_string(loss0) + " != single-socket " +
                std::to_string(first.loss));
  const double chance = 1.0 / s.dataset.num_classes;
  out.check(run.result.train_accuracy > chance,
            "train accuracy " + std::to_string(run.result.train_accuracy) + " not above chance");
  out.check(phase.counts.failed == 0, "non-finite training loss");
  out.facts["epoch0_loss"] = loss0;
  out.facts["single_socket_epoch0_loss"] = first.loss;
  out.facts["train_accuracy"] = run.result.train_accuracy;
  out.facts["chance_accuracy"] = chance;
  out.facts["epochs"] = epochs;
  out.facts["warmup_epochs"] = kWarmupEpochs;

  // --- end-to-end --------------------------------------------------------
  const Percentile p50 = percentile(epoch_s, 0.50);
  const Percentile p99 = percentile(epoch_s, 0.99);
  out.percentiles = {{"epoch_p50", p50}, {"epoch_p99", p99}};
  // CPU time per epoch of all ranks. Both calls pay the same rank set-up and
  // final evaluation, so their difference holds epochs only.
  out.metrics["cpu_ms_per_op"] =
      (run.cpu_s - calib.cpu_s) / (epochs - kCalibrationEpochs) * 1e3;
  out.metrics["setup_s"] = median(setup_times.cpu);
  out.facts["setup_wall_s"] = median(setup_times.total);
  out.facts["host_slowdown"] = host_slowdown(probe);
  out.metrics["driver.p50_ms"] = p50.value * 1e3;
  out.metrics["driver.p99_ms"] = p99.value * 1e3;
  std::vector<double> window_rate;  // epochs per second, per window
  // The rate is a median over consecutive groups of epochs, so one host
  // stall moves one group rather than the result.
  constexpr int kWindows = 5;
  for (int w = 0; w < kWindows; ++w) {
    const std::size_t b = epoch_s.size() * w / kWindows, e = epoch_s.size() * (w + 1) / kWindows;
    double sum = 0;
    for (std::size_t i = b; i < e; ++i) sum += epoch_s[i];
    if (e > b) window_rate.push_back((e - b) / sum);
  }
  out.metrics["driver.max_rps"] = median(window_rate);
  if (!args.trace) return out;

  // --- per-layer (traced run) -------------------------------------------
  const TimedRun traced = train(s, train_config(args, epochs), spans);
  const std::vector<DistEpochRecord> trecs = measured(traced.result);
  const double epoch = median_of(trecs, &DistEpochRecord::total_seconds);
  const double lat = median_of(trecs, &DistEpochRecord::local_agg_seconds);
  const double rat = median_of(trecs, &DistEpochRecord::remote_agg_seconds);
  double traced_sum = 0;
  for (const DistEpochRecord& e : traced.result.epochs) traced_sum += e.total_seconds;
  auto& m = out.metrics;
  m["trace_overhead"] = epoch / median_of(recs, &DistEpochRecord::total_seconds) - 1.0;
  m["core.epoch_s"] = epoch;
  m["kernels.lat_s"] = lat;
  m["comm.rat_s"] = rat;
  m["core.unattributed_s"] = epoch - lat - rat;
  m["core.lat_share"] = lat / epoch;
  m["core.rat_share"] = rat / epoch;
  m["core.unattributed_share"] = (epoch - lat - rat) / epoch;
  m["core.in_call_s"] = traced.wall_s - traced_sum;
  // Halo volume: every epoch's forward plus the final exact evaluation
  // forward, which sends one more epoch's worth.
  m["comm.halo_bytes_per_epoch"] =
      static_cast<double>(traced.result.total_bytes_sent) / (traced.result.epochs.size() + 1);
  m["comm.allreduce_bytes_per_epoch"] =
      static_cast<double>(traced.result.allreduce_bytes) / traced.result.epochs.size();

  m["graph.make_dataset_s"] = median(setup_times.make_dataset);
  m["partition.libra_s"] = median(setup_times.libra);
  m["partition.build_s"] = median(setup_times.build);
  m["partition.halo_plan_s"] =
      timed(spans, "partition.halo_plan", -1, [&] { (void)build_halo_plans(s.partitioned, 1); });
  double replicas = 0;
  for (const LocalPartition& p : s.partitioned.parts) replicas += p.num_vertices;
  m["partition.replication_factor"] = replicas / s.dataset.num_vertices();

  // One layer-0 aggregation and GEMM at rank 0's shapes, on one thread.
  const LocalPartition& p0 = s.partitioned.parts[0];
  const BlockedCsr blocks(CsrMatrix::from_coo(p0.edges),
                          auto_num_blocks(p0.num_vertices, s.dataset.feature_dim()));
  const DenseMatrix h0 = gather_local_features(p0, s.dataset.features.cview());
  DenseMatrix agg(h0.rows(), h0.cols());
  m["kernels.aggregate_s"] = single_thread_median(spans, "kernels.aggregate", [&] {
    agg.resize_discard(h0.rows(), h0.cols(), 0);
    aggregate_prepartitioned(blocks, h0.cview(), {}, agg.view(), ApConfig{});
  });
  DenseMatrix w(h0.cols(), 64, 0.01f), y(h0.rows(), 64);
  m["nn.gemm_s"] = single_thread_median(spans, "nn.gemm",
                                        [&] { gemm(h0.cview(), w.cview(), y.view()); });

  std::vector<double> single_epochs;
  for (int i = 0; i < 3; ++i)
    single_epochs.push_back(timed(spans, "core.single_socket_epoch", -1,
                                  [&] { (void)single.train_epoch(); }));
  m["core.single_socket_epoch_s"] = median(single_epochs);
  m["core.speedup_vs_single_socket"] = median(single_epochs) / epoch;
  return out;
}

}  // namespace perfbench
