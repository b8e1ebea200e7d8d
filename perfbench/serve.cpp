// Workloads serve-uniform and serve-stream: one InferenceServer (2 workers,
// 2-layer SAGE hidden 64, fanouts {10,10}) over a learnable SBM of 65,536
// vertices x 64 features, driven by the benchmark's single-thread driver.
//
//   serve-uniform  classic path, uniform reads. Rounds of an open-loop
//                  Poisson phase at 2,000 rps, then a closed loop holding
//                  32 in flight.
//   serve-stream   embed_forward path, Zipf(1.0) reads in the same rounds;
//                  during each open loop a writer thread publishes a delta
//                  stream through DeltaPublisher at 5 deltas/s.
//
// The end-to-end cost is the CPU time per open-loop read of every thread
// but the driver's: the workers, and on serve-stream the writer.
//
// Only the knobs that define the workload are set; batching, cache sizes
// and block counts stay at the program's defaults.
#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <thread>

#include "graph/datasets.hpp"
#include "load.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "sampling/minibatch.hpp"
#include "serve/feature_cache.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_snapshot.hpp"
#include "stream/delta_publisher.hpp"
#include "stream/graph_delta.hpp"

namespace perfbench {

namespace {

using namespace distgnn;
using namespace distgnn::serve;
using namespace distgnn::stream;

constexpr vid_t kVertices = 65536;
constexpr int kFeatureDim = 64;
constexpr int kClasses = 16;
constexpr int kHidden = 64;
constexpr double kReadRate = 2000;
constexpr std::size_t kInFlight = 32;
constexpr double kWriteRate = 5;
constexpr double kZipfS = 1.0;
constexpr int kRounds = 10;
constexpr int kSetupReps = 9;
constexpr int kProbePasses = 3;  // per thread and round
constexpr std::size_t kProbes = 64;
constexpr std::size_t kReplayRequests = 2000;

ServeConfig serve_config(bool stream) {
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.fanouts = {10, 10};
  cfg.embed_forward = stream;
  return cfg;
}

/// Everything the program builds before the first timed request. Members are
/// destroyed in reverse order, so the server and publisher go before the
/// dataset they reference.
struct Live {
  std::unique_ptr<Dataset> data;
  std::shared_ptr<const ModelSnapshot> snapshot;
  std::unique_ptr<InferenceServer> server;
  std::unique_ptr<DeltaPublisher> publisher;
  std::vector<GraphDelta> deltas;
};

/// The graph is fixed (the generator's default seed); --seed varies the
/// model weights, the read draws and every arrival time.
LearnableSbmParams graph_params() {
  LearnableSbmParams params;
  params.num_vertices = kVertices;
  params.num_classes = kClasses;
  params.feature_dim = kFeatureDim;
  return params;
}

std::unique_ptr<Live> build_live(const Args& args, bool stream, std::size_t num_deltas,
                                 SpanRecorder& spans, int rep, std::vector<double>& make_s) {
  ModelSpec spec;
  spec.kind = ModelKind::kSage;
  spec.feature_dim = kFeatureDim;
  spec.hidden_dim = kHidden;
  spec.num_classes = kClasses;
  spec.num_layers = 2;

  auto live = std::make_unique<Live>();
  const int root = spans.begin("bench.setup", -1, rep);
  make_s.push_back(timed(spans, "graph.make_dataset", root, [&] {
    live->data = std::make_unique<Dataset>(make_learnable_sbm(graph_params()));
  }));
  timed(spans, "serve.construct", root, [&] {
    live->snapshot = ModelSnapshot::random(spec, derive_seed(args.seed, 12), 1);
    live->server = std::make_unique<InferenceServer>(*live->data, serve_config(stream));
    live->server->publish(live->snapshot);
    live->server->start();
  });
  if (stream) {
    timed(spans, "stream.make_delta_stream", root, [&] {
      // The update log is fixed, like the graph; --seed drives when each
      // delta arrives.
      DeltaStreamConfig cfg;
      cfg.num_deltas = static_cast<int>(num_deltas);
      live->deltas = make_delta_stream(*live->data, cfg);
      live->publisher = std::make_unique<DeltaPublisher>(*live->data, *live->server);
    });
  }
  spans.end(root);
  return live;
}

/// Which vertices are popular is part of the workload, like the graph: the
/// Zipf permutation is fixed and the stream seeds only drive the draws.
Popularity popularity(bool stream) {
  constexpr std::uint64_t kPopularitySeed = 71;
  return stream ? Popularity::zipf(kVertices, kZipfS, kPopularitySeed)
                : Popularity::uniform(kVertices);
}

/// Σ and count per stage label of one stage-seconds histogram family.
struct StageSum {
  double sum = 0;
  std::uint64_t count = 0;
};
using StageTable = std::map<std::string, StageSum>;

StageTable stage_table(const obs::ScrapeSource& source, const std::string& metric) {
  StageTable table;
  for (const obs::MetricPoint& p : source.scrape_snapshot().points) {
    if (p.name != metric || !p.is_histogram) continue;
    for (const auto& [key, value] : p.labels) {
      if (key != "stage") continue;
      table[value].sum += p.histogram.sum_seconds;
      table[value].count += p.histogram.count;
    }
  }
  return table;
}

/// Adds what each stage saw between two scrapes to `acc`.
void add_between(StageTable& acc, const StageTable& before, const StageTable& after) {
  for (const auto& [name, a] : after) {
    StageSum b;
    if (const auto it = before.find(name); it != before.end()) b = it->second;
    acc[name].sum += a.sum - b.sum;
    acc[name].count += a.count - b.count;
  }
}

/// Exact mean (ms) of one stage; 0 when it saw nothing.
double stage_mean_ms(const StageTable& table, obs::Stage stage) {
  const auto it = table.find(obs::stage_name(stage));
  if (it == table.end() || it->second.count == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.count) * 1e3;
}

/// Re-runs the classic path's three steps for `vertices` outside the server,
/// `batch` requests at a time, and returns the per-request cost of each (µs)
/// plus the logits, so the server's lumped sample stage can be split.
struct Replay {
  double sample_us = 0, gather_us = 0, forward_us = 0;
  DenseMatrix logits;  // one row per replayed request
};

Replay replay(const Dataset& data, const ModelSnapshot& snapshot,
              const std::vector<std::int64_t>& vertices, std::size_t batch, SpanRecorder& spans) {
  const ServeConfig cfg = serve_config(false);
  const CsrMatrix& csr = data.graph.in_csr();
  const std::size_t f = static_cast<std::size_t>(data.feature_dim());
  ShardedFeatureCache cache(cfg.cache_bytes, f, cfg.cache_shards);
  const std::size_t n = std::min(kReplayRequests, vertices.size());
  Replay r;
  r.logits.resize_discard(n, static_cast<std::size_t>(snapshot.spec().num_classes));
  std::vector<MiniBatch> mbs;
  ForwardScratch scratch;
  DenseMatrix inputs, logits;
  for (std::size_t begin = 0; begin < n; begin += batch) {
    const std::size_t end = std::min(n, begin + batch);
    mbs.clear();
    r.sample_us += timed(spans, "sampling.sample", -1, [&] {
      for (std::size_t i = begin; i < end; ++i) {
        const vid_t seed[1] = {static_cast<vid_t>(vertices[i])};
        Rng rng = request_rng(cfg.sample_seed, seed[0]);
        mbs.push_back(sample_minibatch(csr, seed, cfg.fanouts, rng));
      }
    });
    std::size_t rows = 0;
    for (const MiniBatch& mb : mbs) rows += mb.input_vertices.size();
    inputs.resize_discard(rows, f);
    r.gather_us += timed(spans, "serve.gather", -1, [&] {
      std::size_t row = 0;
      for (const MiniBatch& mb : mbs)
        for (const vid_t v : mb.input_vertices)
          cache.get_or_fill(0, static_cast<std::uint64_t>(v), inputs.row(row++), [&](real_t* dst) {
            const real_t* src = data.features.row(static_cast<std::size_t>(v));
            std::copy(src, src + f, dst);
          });
    });
    r.forward_us += timed(spans, "serve.forward_batch", -1, [&] {
      snapshot.forward_batch(mbs, inputs.cview(), scratch, logits);
    });
    for (std::size_t i = begin; i < end; ++i)
      std::copy(logits.row(i - begin), logits.row(i - begin) + logits.cols(), r.logits.row(i));
  }
  r.sample_us *= 1e6 / static_cast<double>(n);
  r.gather_us *= 1e6 / static_cast<double>(n);
  r.forward_us *= 1e6 / static_cast<double>(n);
  return r;
}

}  // namespace

WorkloadResult run_serve(const Args& args, SpanRecorder& spans, bool stream) {
  WorkloadResult out;
  SpanRecorder untraced(false);

  // --- inputs: every stream comes from the workload seed --------------------
  // After a warm-up closed loop, the run alternates kRounds rounds of an
  // open loop and a closed loop a third as long, so both phases sample the
  // host across the whole run. A traced run splits each round's open loop
  // into an untraced half, then a traced half.
  const double closed_s = args.seconds / (kRounds * 4 + 1);
  const double open_s = 3 * closed_s;
  const int halves = args.trace ? 2 : 1;
  struct OpenPart {
    std::vector<double> due;
    std::size_t first = 0;  // number of its first request
    bool traced = false;
  };
  std::vector<OpenPart> parts;  // round r's parts are [r * halves, (r + 1) * halves)
  std::size_t open_requests = 0;
  for (int k = 0; k < kRounds * halves; ++k) {
    OpenPart part{poisson_schedule(derive_seed(derive_seed(args.seed, 13), k), kReadRate,
                                   open_s / halves),
                  open_requests, k % halves == 1};
    open_requests += part.due.size();
    parts.push_back(std::move(part));
  }
  const Popularity reads = popularity(stream);
  const std::vector<std::int64_t> open_reads =
      reads.draws(derive_seed(args.seed, 14), open_requests);
  // The closed loops' lengths are unknown in advance: each request draws its
  // vertex from its own index.
  const std::uint64_t closed_seed = derive_seed(args.seed, 15);
  // Writes run beside each round's open loop; the closed loops measure read
  // capacity between them.
  std::vector<std::vector<double>> writes(kRounds);
  std::size_t num_deltas = 0;
  if (stream)
    for (int r = 0; r < kRounds; ++r) {
      writes[r] = poisson_schedule(derive_seed(derive_seed(args.seed, 16), r), kWriteRate, open_s);
      num_deltas += writes[r].size();
    }

  // --- set-up, repeated; the last one is kept -------------------------------
  std::vector<double> setup_s, setup_cpu_s, make_s;
  std::unique_ptr<Live> live;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    live.reset();
    const auto t0 = Clock::now();
    const double c0 = process_cpu_seconds();
    live = build_live(args, stream, num_deltas, spans, rep, make_s);
    setup_s.push_back(seconds_since(t0));
    setup_cpu_s.push_back(process_cpu_seconds() - c0);
  }
  InferenceServer& server = *live->server;
  const auto closed_submit = [&](std::uint64_t seed) -> SubmitFn {
    return [&server, &reads, seed](std::size_t i, std::function<void()> done) {
      const vid_t v = static_cast<vid_t>(reads.draw(seed, i));
      return server.submit(v, [done = std::move(done)](InferResult&&) { done(); });
    };
  };
  // The warm-up fills the caches, so every round measures a warm server.
  const ClosedLoopResult warmup =
      run_closed_loop(kInFlight, closed_s, closed_submit(derive_seed(closed_seed, kRounds)));

  // --- rounds ---------------------------------------------------------------
  std::vector<std::vector<real_t>> probe_logits(kProbes);
  const SubmitFn open_submit = [&](std::size_t i, std::function<void()> done) {
    const bool probe = i < kProbes;
    return server.submit(static_cast<vid_t>(open_reads[i]),
                         [&probe_logits, probe, i, done = std::move(done)](InferResult&& r) {
                           if (probe) probe_logits[i] = std::move(r.logits);
                           done();
                         });
  };
  OpenLoopResult open_a, open_b;  // untraced and traced parts, in order
  StageTable traced_stages;
  double traced_batches = 0, traced_batched = 0;
  std::vector<double> round_rps, round_rss, round_open_cpu, round_closed_cpu;
  Counts closed_counts;
  Phase write_phase{"writes", {}};
  std::vector<double> publish_s;
  std::size_t next_delta = 0;
  std::vector<double> probe;  // host-probe passes, between rounds
  for (int r = 0; r < kRounds; ++r) {
    const std::vector<double> passes = probe_passes(kProbePasses, serve_config(stream).num_workers);
    probe.insert(probe.end(), passes.begin(), passes.end());
    // Each round's peak memory counts from what is resident at its start.
    reset_peak_rss();
    // The open phase's cost is the CPU time of every thread but the
    // driver's, which spins to submit on time: the workers, and on
    // serve-stream the writer, which is joined before the count ends.
    const double cpu0 = process_cpu_seconds(), driver_cpu0 = this_thread_cpu_seconds();
    std::uint64_t round_reads = 0;
    // The writer publishes on its own schedule beside the open loop.
    std::exception_ptr writer_error;
    std::jthread writer;
    if (stream) {
      const auto w0 = Clock::now();
      writer = std::jthread([&, r, w0] {
        try {
          for (const double at : writes[r]) {
            std::this_thread::sleep_until(w0 + std::chrono::duration_cast<Clock::duration>(
                                                   std::chrono::duration<double>(at)));
            const auto t = Clock::now();
            live->publisher->publish(live->deltas[next_delta]);
            publish_s.push_back(seconds_since(t));
            write_phase.counts.record(true);
            spans.add("stream.publish", t, Clock::now(), -1,
                      static_cast<std::int64_t>(next_delta++), 1);
          }
        } catch (...) {
          write_phase.counts.record(false);
          writer_error = std::current_exception();
        }
      });
    }
    for (int h = 0; h < halves; ++h) {
      const OpenPart& part = parts[static_cast<std::size_t>(r * halves + h)];
      if (!part.traced) {
        const OpenLoopResult o = run_open_loop(part.due, part.first, open_submit, untraced);
        round_reads += o.counts.succeeded;
        open_a.append(o);
        continue;
      }
      const BackendStats b0 = server.stats();
      const StageTable s0 = stage_table(server, "distgnn_server_stage_seconds");
      const OpenLoopResult o = run_open_loop(part.due, part.first, open_submit, spans);
      round_reads += o.counts.succeeded;
      open_b.append(o);
      const BackendStats b1 = server.stats();
      add_between(traced_stages, s0, stage_table(server, "distgnn_server_stage_seconds"));
      traced_batches += static_cast<double>(b1.batches - b0.batches);
      traced_batched += static_cast<double>(b1.batched_requests - b0.batched_requests);
    }
    if (writer.joinable()) writer.join();
    if (writer_error) std::rethrow_exception(writer_error);
    const double program_cpu =
        (process_cpu_seconds() - cpu0) - (this_thread_cpu_seconds() - driver_cpu0);
    round_open_cpu.push_back(program_cpu /
                             static_cast<double>(std::max<std::uint64_t>(1, round_reads)));

    const std::uint64_t seed = derive_seed(closed_seed, static_cast<std::uint64_t>(r));
    const ClosedLoopResult closed = run_closed_loop(kInFlight, closed_s, closed_submit(seed));
    round_rps.push_back(closed.rps);
    round_closed_cpu.push_back(closed.cpu_per_request_s());
    closed_counts += closed.counts;
    round_rss.push_back(peak_rss_mb());
  }

  out.phases.push_back({"warmup", warmup.counts});
  out.phases.push_back({"open", open_a.counts});
  if (args.trace) out.phases.push_back({"open_traced", open_b.counts});
  out.phases.push_back({"closed", closed_counts});
  if (stream) out.phases.push_back(write_phase);

  // --- correctness ----------------------------------------------------------
  for (const Phase& p : out.phases)
    out.check(p.counts.consistent() && p.counts.failed == 0,
              p.name + ": " + std::to_string(p.counts.failed) + " of " +
                  std::to_string(p.counts.attempted) + " refused or failed");
  const std::size_t probes = std::min(kProbes, parts.front().due.size());
  if (!stream) {
    // Served logits are bitwise those of a fresh server answering one by one.
    InferenceServer fresh(*live->data, serve_config(false));
    fresh.publish(live->snapshot);
    fresh.start();
    for (std::size_t i = 0; i < probes; ++i)
      out.check(fresh.infer_sync(static_cast<vid_t>(open_reads[i])).logits == probe_logits[i],
                "served logits of request " + std::to_string(i) + " differ from a fresh server");
    fresh.stop();
  } else {
    // After the stream, the live server answers exactly like a cold server
    // built over the final graph.
    Dataset final_graph = make_learnable_sbm(graph_params());
    for (const GraphDelta& d : live->deltas) apply_delta(final_graph, d);
    InferenceServer cold(final_graph, serve_config(true));
    cold.publish(live->snapshot);
    cold.start();
    std::vector<vid_t> probe_vertices;
    for (std::size_t i = 0; i < probes; ++i)
      probe_vertices.push_back(static_cast<vid_t>(open_reads[i]));
    for (vid_t i = 0; i < static_cast<vid_t>(kProbes); ++i)
      probe_vertices.push_back((i * 1021) % kVertices);
    for (const vid_t v : probe_vertices)
      out.check(server.infer_sync(v).logits == cold.infer_sync(v).logits,
                "vertex " + std::to_string(v) + " differs from a cold rebuild after the stream");
    cold.stop();
    out.facts["deltas_published"] = static_cast<double>(live->publisher->stats().deltas_published);
    out.facts["final_epoch"] = static_cast<double>(live->publisher->epoch());
    out.facts["publish_median_ms"] = median(publish_s) * 1e3;
  }

  // --- end-to-end -------------------------------------------------------------
  const Percentile p50 = percentile(open_a.latency_s, 0.50);
  const Percentile p99 = percentile(open_a.latency_s, 0.99);
  out.percentiles = {{"open_p50", p50}, {"open_p99", p99}};
  out.metrics["setup_s"] = median(setup_cpu_s);
  out.metrics["cpu_ms_per_op"] = median(round_open_cpu) * 1e3;
  out.metrics["peak_rss_mb"] = median(round_rss);
  out.metrics["driver.p50_ms"] = p50.value * 1e3;
  out.metrics["driver.p99_ms"] = p99.value * 1e3;
  out.metrics["driver.max_rps"] = median(round_rps);
  out.metrics["serve.closed_cpu_ms"] = median(round_closed_cpu) * 1e3;
  out.facts["setup_wall_s"] = median(setup_s);
  out.facts["host_slowdown"] = host_slowdown(probe);
  out.facts["open_requests"] = static_cast<double>(open_a.counts.attempted);
  out.facts["closed_requests"] = static_cast<double>(closed_counts.attempted);
  out.facts["open_mean_ms"] = mean(open_a.answered_latency_s()) * 1e3;
  out.facts["driver_late_mean_ms"] = mean(open_a.lateness_s) * 1e3;
  if (!args.trace) {
    server.stop();
    return out;
  }

  // --- per-layer (traced run) -------------------------------------------------
  auto& m = out.metrics;
  const Percentile p50_b = percentile(open_b.latency_s, 0.50);
  out.percentiles.push_back({"open_traced_p50", p50_b});
  m["trace_overhead"] = p50_b.value / p50.value - 1.0;
  m["graph.make_dataset_s"] = median(make_s);
  m["serve.submit_us"] = mean(open_b.submit_s) * 1e6;
  m["driver.late_mean_ms"] = mean(open_b.lateness_s) * 1e3;
  m["driver.late_max_ms"] =
      *std::max_element(open_b.lateness_s.begin(), open_b.lateness_s.end()) * 1e3;
  double stage_sum = 0;
  const auto stage = [&](const char* metric, obs::Stage s) {
    const double v = stage_mean_ms(traced_stages, s);
    if (metric) m[metric] = v;
    stage_sum += v;
  };
  stage("serve.queue_ms", obs::Stage::kQueue);
  stage("sampling.stage_ms", obs::Stage::kSample);
  stage(nullptr, obs::Stage::kHaloWait);
  stage("serve.embed_lookup_ms", obs::Stage::kEmbedLookup);
  stage("serve.forward_ms", obs::Stage::kForward);
  stage("serve.reply_ms", obs::Stage::kReply);
  // Stage means plus the driver's lateness should account for the mean
  // latency measured from due times.
  m["serve.accounted_share"] =
      (stage_sum + m["driver.late_mean_ms"]) / (mean(open_b.answered_latency_s()) * 1e3);
  if (!stream)
    out.check(std::abs(m["serve.accounted_share"] - 1.0) <= 0.05,
              "stage means plus driver lateness account for " +
                  std::to_string(m["serve.accounted_share"]) +
                  " of the mean latency, outside [0.95, 1.05]");
  m["serve.mean_batch"] = traced_batches == 0 ? 0.0 : traced_batched / traced_batches;
  const BackendStats final_stats = server.stats();
  m["serve.feature_cache_hit_rate"] = final_stats.feature_cache.hit_rate();
  m["serve.embed_cache_hit_rate"] = final_stats.embed_cache.hit_rate();
  server.stop();

  if (!stream) {
    const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(m["serve.mean_batch"])));
    const Replay r = replay(*live->data, *live->snapshot, open_reads, batch, spans);
    m["sampling.sample_us"] = r.sample_us;
    m["serve.gather_us"] = r.gather_us;
    m["serve.forward_batch_us"] = r.forward_us;
    for (std::size_t i = 0; i < probes; ++i)
      out.check(std::equal(probe_logits[i].begin(), probe_logits[i].end(), r.logits.row(i)),
                "replayed logits of request " + std::to_string(i) + " differ from served ones");
  } else {
    const StageTable st = stage_table(*live->publisher, "distgnn_stream_stage_seconds");
    m["stream.publish_ms"] = median(publish_s) * 1e3;
    m["stream.repartition_ms"] = stage_mean_ms(st, obs::Stage::kRepartition);
    m["stream.apply_ms"] = stage_mean_ms(st, obs::Stage::kApply);
    m["stream.invalidate_ms"] = stage_mean_ms(st, obs::Stage::kInvalidate);
    const StreamStats ss = live->publisher->stats();
    m["stream.dirty_entries_per_delta"] =
        ss.deltas_published == 0 ? 0.0
                                 : static_cast<double>(ss.dirty_entries) / ss.deltas_published;
  }
  return out;
}

}  // namespace perfbench
