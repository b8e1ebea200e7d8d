#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/expose.hpp"
#include "obs/metrics.hpp"
#include "obs/scrape.hpp"
#include "obs/trace.hpp"
#include "partition/libra.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/replica_group.hpp"
#include "serve/sharded_server.hpp"
#include "serve/traffic_gen.hpp"
#include "stream/delta_publisher.hpp"
#include "stream/graph_delta.hpp"
#include "util/rng.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;

// ---------------------------------------------------------------------------
// Histogram bucket geometry

TEST(ObsMetrics, BucketEdges) {
  // Bucket 0 holds everything below 1µs (and junk inputs).
  EXPECT_EQ(obs::latency_bucket(0.0), 0);
  EXPECT_EQ(obs::latency_bucket(-1.0), 0);
  EXPECT_EQ(obs::latency_bucket(5e-7), 0);
  // Bucket k covers [1µs·2^(k-1), 1µs·2^k): edges land in the upper bucket.
  EXPECT_EQ(obs::latency_bucket(1e-6), 1);
  EXPECT_EQ(obs::latency_bucket(1.5e-6), 1);
  EXPECT_EQ(obs::latency_bucket(2e-6), 2);
  EXPECT_EQ(obs::latency_bucket(1e-3), 10);      // 1000µs in [512µs, 1024µs)
  EXPECT_EQ(obs::latency_bucket(1.024e-3), 11);  // the edge opens bucket 11
  EXPECT_EQ(obs::latency_bucket(1.1e-3), 11);
  // Every bucket's upper bound maps back to the next bucket, and anything
  // just below stays put — the bidirectional rounding guard.
  for (int k = 1; k < obs::kNumBuckets - 1; ++k) {
    const double upper = obs::bucket_upper_seconds(k);
    EXPECT_EQ(obs::latency_bucket(upper), k + 1) << "k=" << k;
    EXPECT_EQ(obs::latency_bucket(upper * 0.999), k) << "k=" << k;
  }
  // Clamped at the top.
  EXPECT_EQ(obs::latency_bucket(1e9), obs::kNumBuckets - 1);
}

TEST(ObsMetrics, HistogramQuantileWithinBucketFactor) {
  obs::MetricsRegistry registry(2);
  obs::Histogram& h = registry.histogram("h");
  for (int i = 0; i < 1000; ++i) h.observe(1e-3);  // all in one bucket
  const obs::HistogramData data = h.snapshot();
  EXPECT_EQ(data.count, 1000u);
  // Log2 buckets: the estimate is within sqrt(2) of the true value.
  EXPECT_GE(data.quantile(0.5), 1e-3 / std::sqrt(2.0) * 0.99);
  EXPECT_LE(data.quantile(0.5), 1e-3 * std::sqrt(2.0) * 1.01);
  EXPECT_NEAR(data.mean_seconds(), 1e-3, 1e-5);
}

// ---------------------------------------------------------------------------
// Sharded registry: wait-free writers, fold on scrape

TEST(ObsMetrics, ConcurrentShardFoldMatchesSerialCount) {
  obs::MetricsRegistry registry(8);
  obs::Counter& counter = registry.counter("distgnn_test_total");
  obs::Histogram& hist = registry.histogram("distgnn_test_seconds");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add();
        hist.observe(1e-4);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const obs::HistogramData data = hist.snapshot();
  EXPECT_EQ(data.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t b : data.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, data.count);
}

TEST(ObsMetrics, SnapshotFoldsDuplicateSeries) {
  obs::MetricsSnapshot snap;
  snap.add_counter("c", {{"tenant", "0"}}, 3);
  snap.add_counter("c", {{"tenant", "0"}}, 4);  // same series: folds
  snap.add_counter("c", {{"tenant", "1"}}, 5);  // different labels: new point
  EXPECT_EQ(snap.points.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.find("c", {{"tenant", "0"}})->value, 7);
  EXPECT_DOUBLE_EQ(snap.counter_total("c"), 12);
}

// ---------------------------------------------------------------------------
// Trace sampling + span structure

TEST(ObsTrace, SamplingRateHonored) {
  EXPECT_FALSE(obs::trace_sampled(123, 0, 0.0));
  EXPECT_TRUE(obs::trace_sampled(123, 0, 1.0));
  // Deterministic: the same (id, tenant) always answers the same.
  for (std::uint64_t id = 0; id < 64; ++id)
    EXPECT_EQ(obs::trace_sampled(id, 3, 0.5), obs::trace_sampled(id, 3, 0.5));
  // Statistically honest: a rate-r fraction of ids is sampled (splitmix64
  // mixes well, so 20k ids land within a few percent).
  for (const double rate : {0.1, 0.5, 0.9}) {
    int hits = 0;
    constexpr int kIds = 20000;
    for (std::uint64_t id = 0; id < kIds; ++id)
      if (obs::trace_sampled(id, 1, rate)) ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / kIds, rate, 0.02) << "rate=" << rate;
  }
}

TEST(ObsTrace, SinkRingBoundedAndTopK) {
  obs::TraceSink sink(/*ring_capacity=*/8, /*top_k=*/2);
  for (int i = 0; i < 32; ++i) {
    obs::Trace t;
    t.request_id = static_cast<std::uint64_t>(i);
    t.begin_seconds = 0;
    t.end_seconds = 1e-3 * (i % 7 + 1);  // ids 5,6,12,13,... are slowest
    sink.publish(t);
  }
  EXPECT_EQ(sink.published(), 32u);
  EXPECT_LE(sink.ring_snapshot().size(), 8u);
  const std::vector<obs::Trace> slow = sink.slowest();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_DOUBLE_EQ(slow[0].total_seconds(), 7e-3);
  EXPECT_GE(slow[0].total_seconds(), slow[1].total_seconds());
  // collect = ring + non-resident exemplars, deduplicated.
  std::vector<obs::Trace> all;
  sink.collect(all);
  EXPECT_GE(all.size(), 8u);
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = i + 1; j < all.size(); ++j)
      EXPECT_FALSE(all[i].request_id == all[j].request_id);
}

// Drives real servers at 100% sampling — one InferenceServer and one
// ShardedServer over two ranks — and checks every collected trace: stages
// are ordered admit -> queue -> sample -> [halo_wait] -> forward -> reply,
// nested inside [begin, end], and the spans cover >= 90% of the measured
// end-to-end latency (the "stamped where the work happens" acceptance bar —
// a reconstructed-at-the-edge trace could not pass it).
TEST(ObsTrace, ServerTracesOrderedAndCoverLatency) {
  LearnableSbmParams params;
  params.num_vertices = 256;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = 5;
  const Dataset dataset = make_learnable_sbm(params);
  ModelSpec spec;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 16;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;

  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 8;
  cfg.fanouts = {4, 4};
  cfg.trace_sample_rate = 1.0;
  InferenceServer server(dataset, cfg);
  ShardedServeConfig sharded_cfg;
  sharded_cfg.max_batch = 8;
  sharded_cfg.fanouts = {4, 4};
  sharded_cfg.trace_sample_rate = 1.0;
  ShardedServer sharded(dataset, partition_libra(dataset.graph.coo(), /*num_parts=*/2),
                        sharded_cfg);

  // Only the sharded path waits on halo rows; neither runs embed lookups.
  const std::pair<ServingBackend*, bool> backends[] = {{&server, false}, {&sharded, true}};
  for (const auto& [backend, halo] : backends) {
    SCOPED_TRACE(halo ? "ShardedServer" : "InferenceServer");
    backend->publish(ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1));
    backend->start();
    TrafficGenerator traffic(*backend, /*seed=*/3);
    (void)traffic.run_closed_loop(/*num_clients=*/4, /*requests_each=*/25);
    backend->drain();

    std::vector<obs::Trace> traces;
    backend->collect_traces(traces);
    ASSERT_FALSE(traces.empty());
    constexpr double kEps = 1e-9;
    for (const obs::Trace& t : traces) {
      std::vector<obs::Stage> order = {obs::Stage::kAdmit, obs::Stage::kQueue,
                                       obs::Stage::kSample};
      if (halo) order.push_back(obs::Stage::kHaloWait);
      order.push_back(obs::Stage::kForward);
      order.push_back(obs::Stage::kReply);
      // Ordered and contiguous by construction: admit ends where queue
      // begins, queue ends at the pop where the batch sample window begins,
      // and each batch window starts where the previous one ended.
      EXPECT_GE(t.span(obs::Stage::kAdmit).begin_seconds, t.begin_seconds - kEps);
      for (std::size_t i = 0; i < order.size(); ++i) {
        const obs::Span& span = t.span(order[i]);
        ASSERT_TRUE(span.valid()) << obs::stage_name(order[i]);
        EXPECT_GE(span.end_seconds, span.begin_seconds - kEps) << obs::stage_name(order[i]);
        if (i > 0)
          EXPECT_GE(span.begin_seconds, t.span(order[i - 1]).end_seconds - kEps)
              << obs::stage_name(order[i]);
      }
      EXPECT_LE(t.span(obs::Stage::kReply).end_seconds, t.end_seconds + kEps);
      EXPECT_EQ(t.span(obs::Stage::kHaloWait).valid(), halo);
      EXPECT_FALSE(t.span(obs::Stage::kEmbedLookup).valid());
      EXPECT_GE(t.coverage(), 0.9) << "request " << t.request_id;
    }
  }
  sharded.stop();

  // Sub-sampling: a 30% rate traces roughly (deterministically, not exactly)
  // 30% of requests, and never more than all of them.
  cfg.trace_sample_rate = 0.3;
  InferenceServer sampled(dataset, cfg);
  sampled.publish(ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1));
  sampled.start();
  TrafficGenerator traffic2(sampled, /*seed=*/4);
  (void)traffic2.run_closed_loop(/*num_clients=*/4, /*requests_each=*/50);
  sampled.drain();
  const double frac =
      static_cast<double>(sampled.trace_sink().published()) / 200.0;
  EXPECT_GT(frac, 0.1);
  EXPECT_LT(frac, 0.6);
  sampled.stop();
  server.stop();
}

// ---------------------------------------------------------------------------
// Exposition round-trip

TEST(ObsExpose, PrometheusRoundTrip) {
  obs::MetricsRegistry registry(4);
  registry.counter("distgnn_test_requests_total", {{"tenant", "0"}}).add(41);
  registry.counter("distgnn_test_requests_total", {{"tenant", "1"}}).add(7);
  obs::Histogram& h =
      registry.histogram("distgnn_test_latency_seconds", {{"stage", "forward"}});
  h.observe(1e-4);
  h.observe(2.5e-4);
  h.observe(3e-3);

  obs::MetricsSnapshot snap;
  registry.scrape(snap);
  const std::string text = obs::render_prometheus(snap);
  EXPECT_NE(text.find("# TYPE distgnn_test_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("distgnn_test_requests_total{tenant=\"0\"} 41"), std::string::npos);
  EXPECT_NE(text.find("_bucket{stage=\"forward\",le=\"+Inf\"} 3"), std::string::npos);

  const obs::MetricsSnapshot parsed = obs::parse_prometheus(text);
  const obs::MetricPoint* c0 = parsed.find("distgnn_test_requests_total", {{"tenant", "0"}});
  ASSERT_NE(c0, nullptr);
  EXPECT_DOUBLE_EQ(c0->value, 41);
  EXPECT_DOUBLE_EQ(parsed.counter_total("distgnn_test_requests_total"), 48);
  const obs::MetricPoint* ph =
      parsed.find("distgnn_test_latency_seconds", {{"stage", "forward"}});
  ASSERT_NE(ph, nullptr);
  ASSERT_TRUE(ph->is_histogram);
  const obs::HistogramData& original =
      snap.find("distgnn_test_latency_seconds", {{"stage", "forward"}})->histogram;
  EXPECT_EQ(ph->histogram.count, original.count);
  EXPECT_EQ(ph->histogram.buckets, original.buckets);
  EXPECT_NEAR(ph->histogram.sum_seconds, original.sum_seconds, 1e-12);

  // JSON rendering sanity: every series name appears.
  const std::string json = obs::render_json(snap);
  EXPECT_NE(json.find("distgnn_test_requests_total"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
}

TEST(ObsExpose, ChromeTraceContainsStageEvents) {
  obs::Trace t;
  t.request_id = 9;
  t.tenant = 2;
  t.begin_seconds = 10.0;
  t.end_seconds = 10.01;
  t.spans[static_cast<std::size_t>(obs::Stage::kQueue)] = obs::Span{10.0, 10.004};
  t.spans[static_cast<std::size_t>(obs::Stage::kForward)] = obs::Span{10.004, 10.009};
  const obs::Trace traces[] = {t};
  const std::string json = obs::render_chrome_trace(traces);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"forward\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"admit\""), std::string::npos);  // span never ran
}

TEST(ObsExpose, ChromeTraceStreamTrack) {
  // A delta-publication trace rides the kStreamTrack pseudo-tenant: its own
  // process track named "stream", cat "stream", and args keyed by epoch.
  obs::Trace t;
  t.request_id = 7;  // the epoch
  t.tenant = obs::kStreamTrack;
  t.begin_seconds = 5.0;
  t.end_seconds = 5.02;
  t.spans[static_cast<std::size_t>(obs::Stage::kRepartition)] = obs::Span{5.0, 5.012};
  t.spans[static_cast<std::size_t>(obs::Stage::kApply)] = obs::Span{5.012, 5.015};
  t.spans[static_cast<std::size_t>(obs::Stage::kInvalidate)] = obs::Span{5.015, 5.02};
  const obs::Trace traces[] = {t};
  const std::string json = obs::render_chrome_trace(traces);
  EXPECT_NE(json.find("\"args\":{\"name\":\"stream\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"repartition\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"apply\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"invalidate\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"stream\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":7"), std::string::npos);
  EXPECT_EQ(json.find("\"vertex\""), std::string::npos);
  EXPECT_EQ(json.find("tenant -1"), std::string::npos);
}

TEST(ObsExpose, ChromeTraceMixedServeAndStreamTracks) {
  obs::Trace request;
  request.request_id = 3;
  request.tenant = 0;
  request.vertex = 42;
  request.begin_seconds = 1.0;
  request.end_seconds = 1.01;
  request.spans[static_cast<std::size_t>(obs::Stage::kForward)] = obs::Span{1.0, 1.01};
  obs::Trace delta;
  delta.request_id = 2;
  delta.tenant = obs::kStreamTrack;
  delta.begin_seconds = 1.002;
  delta.end_seconds = 1.008;
  delta.spans[static_cast<std::size_t>(obs::Stage::kApply)] = obs::Span{1.002, 1.008};
  const obs::Trace traces[] = {request, delta};
  const std::string json = obs::render_chrome_trace(traces);
  EXPECT_NE(json.find("\"args\":{\"name\":\"tenant 0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"stream\"}"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"serve\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"stream\""), std::string::npos);
  EXPECT_NE(json.find("\"vertex\":42"), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Quantile edge cases (empty / all-zero histograms stay defined)

TEST(ObsMetrics, QuantileDefinedOnDegenerateHistograms) {
  // Empty histogram: no samples at all.
  obs::HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);
  // All-zero durations land in bucket 0 and must not walk off the table.
  obs::MetricsRegistry registry(2);
  obs::Histogram& h = registry.histogram("distgnn_test_zero_seconds", {});
  h.observe(0.0);
  h.observe(0.0);
  h.observe(-1.0);  // junk input also folds into bucket 0
  obs::MetricsSnapshot snap;
  registry.scrape(snap);
  const obs::MetricPoint* p = snap.find("distgnn_test_zero_seconds", {});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->histogram.count, 3u);
  const double q99 = p->histogram.quantile(0.99);
  EXPECT_GE(q99, 0.0);
  EXPECT_LE(q99, obs::bucket_upper_seconds(0));
  // Count inflated beyond the bucket sum (possible when merging partially
  // scraped shards) must clamp to the last populated bucket, not run off
  // the end of the table.
  obs::HistogramData skewed;
  skewed.buckets[3] = 1;
  skewed.count = 100;
  EXPECT_LE(skewed.quantile(0.999), obs::bucket_upper_seconds(3));
  EXPECT_GT(skewed.quantile(0.999), 0.0);
}

TEST(ObsMetrics, SnapshotQuantileLookup) {
  obs::MetricsRegistry registry(2);
  obs::Histogram& h = registry.histogram("distgnn_test_lat_seconds", {{"stage", "forward"}});
  for (int i = 0; i < 100; ++i) h.observe(1e-3);
  obs::MetricsSnapshot snap;
  registry.scrape(snap);
  const double q = snap.quantile("distgnn_test_lat_seconds", 0.5, {{"stage", "forward"}});
  EXPECT_GT(q, 0.5e-3 / std::sqrt(2.0));
  EXPECT_LE(q, 1.024e-3);
  // Empty labels folds every series of that name.
  const double qall = snap.quantile("distgnn_test_lat_seconds", 0.5);
  EXPECT_DOUBLE_EQ(qall, q);
  // Unknown series: defined zero, not a throw.
  EXPECT_DOUBLE_EQ(snap.quantile("distgnn_test_absent_seconds", 0.99), 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile("distgnn_test_lat_seconds", 0.5, {{"stage", "nope"}}), 0.0);
}

// ---------------------------------------------------------------------------
// parse_prometheus rejection paths

TEST(ObsExpose, ParseRejectsBadLabelEscaping) {
  // Dangling backslash at end of a label value.
  EXPECT_THROW(obs::parse_prometheus("m{l=\"a\\"), std::runtime_error);
  // Unsupported escape sequence.
  EXPECT_THROW(obs::parse_prometheus("m{l=\"a\\t\"} 1\n"), std::runtime_error);
  // Empty label name.
  EXPECT_THROW(obs::parse_prometheus("m{=\"v\"} 1\n"), std::runtime_error);
  // Unterminated label block.
  EXPECT_THROW(obs::parse_prometheus("m{l=\"v\" 1\n"), std::runtime_error);
}

TEST(ObsExpose, ParseRejectsNonNumericValue) {
  EXPECT_THROW(obs::parse_prometheus("distgnn_x_total 12abc\n"), std::runtime_error);
  EXPECT_THROW(obs::parse_prometheus("distgnn_x_total notanumber\n"), std::runtime_error);
  EXPECT_THROW(obs::parse_prometheus("distgnn_x_total\n"), std::runtime_error);
  // Valid exotic numerics must still pass.
  const obs::MetricsSnapshot inf_ok = obs::parse_prometheus("distgnn_x_total +Inf\n");
  const obs::MetricPoint* p = inf_ok.find("distgnn_x_total", {});
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(std::isinf(p->value));
}

TEST(ObsExpose, ParseRejectsTruncatedComments) {
  EXPECT_THROW(obs::parse_prometheus("# TYPE\n"), std::runtime_error);
  EXPECT_THROW(obs::parse_prometheus("# TYPE distgnn_x_total\n"), std::runtime_error);
  EXPECT_THROW(obs::parse_prometheus("# TYPE distgnn_x_total bogus\n"), std::runtime_error);
  EXPECT_THROW(obs::parse_prometheus("# HELP\n"), std::runtime_error);
  // Non-directive comments stay ignorable.
  const obs::MetricsSnapshot ok = obs::parse_prometheus("# scraped by distgnn\nm_total 1\n");
  EXPECT_NE(ok.find("m_total", {}), nullptr);
}

// ---------------------------------------------------------------------------
// LatencyRecorder folding

TEST(ObsLatencyRecorder, FoldMergesSamples) {
  LatencyRecorder a, b;
  a.record(1e-3);
  a.record(2e-3);
  b.record(3e-3);
  b.record(4e-3);
  a += b;
  EXPECT_EQ(a.count(), 4u);
  EXPECT_NEAR(a.mean_seconds(), 2.5e-3, 1e-9);
  EXPECT_EQ(b.count(), 2u);  // source unchanged
  a += a;                    // self-fold is a no-op, not a double
  EXPECT_EQ(a.count(), 4u);
  // Histogram buckets share the obs geometry.
  const auto buckets = a.histogram();
  ASSERT_FALSE(buckets.empty());
  std::size_t total = 0;
  for (const auto& bucket : buckets) {
    EXPECT_DOUBLE_EQ(bucket.upper_seconds,
                     obs::bucket_upper_seconds(obs::latency_bucket(bucket.upper_seconds * 0.99)));
    total += bucket.count;
  }
  EXPECT_EQ(total, 4u);
}

// ---------------------------------------------------------------------------
// One counter truth: every serving event is counted once, in the owning
// component's metrics registry, and stats() / admission_stats() /
// StreamStats read those counters back. So after drain() every count a tier
// reports equals the series its own scrape emits, at every tier.

Dataset truth_dataset() {
  LearnableSbmParams params;
  params.num_vertices = 256;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = 5;
  return make_learnable_sbm(params);
}

std::shared_ptr<const ModelSnapshot> truth_snapshot(const Dataset& dataset) {
  ModelSpec spec;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 16;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;
  return ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1);
}

/// The seeded request stream every tier below serves.
std::vector<vid_t> truth_vertices(const Dataset& dataset) {
  Rng rng(17);
  std::vector<vid_t> vertices;
  for (int i = 0; i < 40; ++i)
    vertices.push_back(static_cast<vid_t>(
        rng.next_below(static_cast<std::uint64_t>(dataset.num_vertices()))));
  return vertices;
}

/// Tenant 0 asks for the first 20 vertices and tenant 1 for all 40; once
/// drained and stopped, the tier sheds one more tenant-0 request.
void drive(ServingBackend& tier, const std::vector<vid_t>& vertices) {
  tier.start();
  RequestMeta meta;
  meta.tenant = 0;
  (void)tier.infer_batch(std::span<const vid_t>(vertices).first(20), meta);
  meta.tenant = 1;
  (void)tier.infer_batch(vertices, meta);
  tier.drain();
  tier.stop();
  meta.tenant = 0;
  (void)tier.submit(vertices.front(), meta, [](InferResult&&) {});
}

/// One series' value; -1 when the scrape lacks it, so a missing series fails
/// the comparison instead of reading as zero.
double series(const obs::MetricsSnapshot& snap, const std::string& name,
              const obs::Labels& labels = {}) {
  const obs::MetricPoint* point = snap.find(name, labels);
  return point != nullptr ? point->value : -1.0;
}

/// Every tenant lane equals its {tenant="t"} series under `prefix`, and
/// every such series belongs to a lane. A counter family registers a
/// tenant's series at that tenant's first event, so an absent series is 0.
void expect_lanes_match(const std::vector<TenantCounters>& lanes,
                        const obs::MetricsSnapshot& snap, const std::string& prefix) {
  const auto value = [&](const std::string& field, tenant_t tenant) {
    const obs::MetricPoint* point =
        snap.find(prefix + field + "_total", {{"tenant", std::to_string(tenant)}});
    return point != nullptr ? point->value : 0.0;
  };
  for (const TenantCounters& lane : lanes) {
    EXPECT_EQ(value("submitted", lane.tenant), lane.submitted) << prefix << lane.tenant;
    EXPECT_EQ(value("completed", lane.tenant), lane.completed) << prefix << lane.tenant;
    EXPECT_EQ(value("shed", lane.tenant), lane.shed) << prefix << lane.tenant;
  }
  for (const char* field : {"submitted", "completed", "shed"})
    for (const obs::MetricPoint& p : snap.points) {
      if (p.name != prefix + field + "_total") continue;
      ASSERT_EQ(p.labels.size(), 1u);
      const bool has_lane = std::any_of(lanes.begin(), lanes.end(), [&](const TenantCounters& l) {
        return std::to_string(l.tenant) == p.labels.front().second;
      });
      EXPECT_TRUE(has_lane) << p.name << " tenant=" << p.labels.front().second;
    }
}

/// The batch, halo and latency counts of `s` against its leaves' `layer`
/// series (summed over lanes, ranks and replicas).
void expect_leaf_counts_match(const BackendStats& s, const obs::MetricsSnapshot& snap,
                              const std::string& layer) {
  const std::string p = "distgnn_" + layer + "_";
  EXPECT_EQ(snap.counter_total(p + "completed_total"), s.completed);
  EXPECT_EQ(snap.counter_total(p + "completed_total"), s.batched_requests);
  EXPECT_EQ(snap.counter_total(p + "batches_total"), s.batches);
  EXPECT_EQ(snap.counter_total(p + "halo_rows_total"), s.halo_rows_fetched);
  EXPECT_EQ(snap.counter_total(p + "halo_bytes_total"), s.halo_bytes);
  EXPECT_NEAR(snap.counter_total(p + "service_nanoseconds_total") * 1e-9, s.service_seconds,
              1e-9);
  EXPECT_NEAR(snap.counter_total(p + "halo_wait_nanoseconds_total") * 1e-9,
              s.halo_wait_seconds, 1e-9);
  EXPECT_EQ(snap.histogram_total(p + "request_seconds").count, s.latency.count);
  EXPECT_GT(s.batches, 0u);
}

/// A leaf: counts, rejections and tenant lanes all come from its own scrape.
void expect_leaf_matches(const ServingBackend& leaf, const std::string& layer) {
  const BackendStats s = leaf.stats();
  const obs::MetricsSnapshot snap = leaf.scrape_snapshot();
  expect_leaf_counts_match(s, snap, layer);
  EXPECT_EQ(snap.counter_total("distgnn_" + layer + "_shed_total"), s.rejected);
  EXPECT_GE(s.rejected, 1u);  // the request to the stopped tier
  expect_lanes_match(s.tenants, snap, "distgnn_" + layer + "_");
}

/// A group: admission counters, the publish count, the rejected fold and
/// the group's own tenant lanes against the group's scrape; each member
/// against its own.
void expect_group_matches(const ReplicaGroup& group, const std::string& layer) {
  const obs::MetricsSnapshot snap = group.scrape_snapshot();
  const AdmissionStats a = group.admission_stats();
  EXPECT_EQ(series(snap, "distgnn_router_submitted_total"), a.submitted);
  EXPECT_EQ(series(snap, "distgnn_router_admitted_total"), a.admitted);
  EXPECT_EQ(series(snap, "distgnn_router_completed_total"), a.completed);
  EXPECT_EQ(series(snap, "distgnn_router_shed_total", {{"reason", "deadline"}}), a.shed_deadline);
  EXPECT_EQ(series(snap, "distgnn_router_shed_total", {{"reason", "priority"}}), a.shed_priority);
  EXPECT_EQ(series(snap, "distgnn_router_shed_total", {{"reason", "queue_full"}}),
            a.shed_queue_full);
  EXPECT_EQ(series(snap, "distgnn_router_shed_total", {{"reason", "budget"}}), a.shed_budget);
  ASSERT_EQ(a.admitted_per_replica.size(), static_cast<std::size_t>(group.num_replicas()));
  for (std::size_t r = 0; r < a.admitted_per_replica.size(); ++r)
    EXPECT_EQ(series(snap, "distgnn_router_replica_admitted_total",
                     {{"replica", std::to_string(r)}}),
              a.admitted_per_replica[r]);
  EXPECT_EQ(a.submitted, a.admitted + a.shed());

  const BackendStats s = group.stats();
  EXPECT_EQ(series(snap, "distgnn_group_publishes_total"), s.publishes);
  expect_leaf_counts_match(s, snap, layer);
  EXPECT_EQ(snap.counter_total("distgnn_" + layer + "_shed_total") +
                static_cast<double>(a.shed_deadline + a.shed_priority + a.shed_budget),
            s.rejected);
  expect_lanes_match(s.tenants, snap, "distgnn_router_tenant_");
  expect_lanes_match(a.tenants, snap, "distgnn_router_tenant_");
  for (int r = 0; r < group.num_replicas(); ++r) {
    const ServingBackend& member = group.replica(r);
    const BackendStats ms = member.stats();
    const obs::MetricsSnapshot msnap = member.scrape_snapshot();
    expect_leaf_counts_match(ms, msnap, layer);
    expect_lanes_match(ms.tenants, msnap, "distgnn_" + layer + "_");
  }
}

ServeConfig truth_serve_config() {
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.fanouts = {4, 4};
  return cfg;
}

TEST(ObsCounterTruth, InferenceServerStatsAreItsScrape) {
  const Dataset dataset = truth_dataset();
  InferenceServer server(dataset, truth_serve_config());
  server.publish(truth_snapshot(dataset));
  drive(server, truth_vertices(dataset));
  expect_leaf_matches(server, "server");
  const BackendStats s = server.stats();
  EXPECT_EQ(s.completed, 60u);
  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.tenants[0].tenant, 0);
  EXPECT_EQ(s.tenants[0].shed, 1u);
}

TEST(ObsCounterTruth, ShardedServerStatsAreItsScrapePerRank) {
  const Dataset dataset = truth_dataset();
  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);
  ShardedServeConfig cfg;
  cfg.max_batch = 4;
  cfg.fanouts = {4, 4};
  ShardedServer server(dataset, partition, cfg);
  server.publish(truth_snapshot(dataset));
  drive(server, truth_vertices(dataset));
  expect_leaf_matches(server, "sharded");
  const BackendStats s = server.stats();
  const obs::MetricsSnapshot snap = server.scrape_snapshot();
  ASSERT_EQ(s.children.size(), 2u);
  for (std::size_t p = 0; p < s.children.size(); ++p) {
    const obs::Labels lane{{"lane", std::to_string(p)}};
    EXPECT_EQ(series(snap, "distgnn_sharded_batches_total", lane), s.children[p].batches);
    EXPECT_EQ(series(snap, "distgnn_sharded_halo_rows_total", lane),
              s.children[p].halo_rows_fetched);
  }
  EXPECT_GT(s.halo_rows_fetched, 0u);
  EXPECT_EQ(s.completed, 60u);
}

TEST(ObsCounterTruth, PlainGroupStatsAreItsScrape) {
  const Dataset dataset = truth_dataset();
  ReplicaGroup group(dataset, truth_serve_config(), /*replicas=*/2);
  group.publish(truth_snapshot(dataset));
  drive(group, truth_vertices(dataset));
  expect_group_matches(group, "server");
  // A plain group fronts no tenant lanes of its own; its members' lanes
  // merge in its scrape.
  const BackendStats s = group.stats();
  EXPECT_TRUE(s.tenants.empty());
  const obs::MetricsSnapshot snap = group.scrape_snapshot();
  EXPECT_EQ(series(snap, "distgnn_server_completed_total", {{"tenant", "1"}}), 40.0);
  EXPECT_EQ(s.completed, 60u);
  EXPECT_EQ(s.publishes, 1u);
}

TEST(ObsCounterTruth, TenantGroupLanesAreItsEdgeSeries) {
  // Tenant 1's budget sheds most of its 40-request batch before any replica
  // sees it, so its edge lane differs from its members' lanes while
  // completed + shed still accounts for every request.
  const Dataset dataset = truth_dataset();
  AdmissionConfig admission;
  TenantSlo open;
  open.name = "open";
  TenantSlo capped;
  capped.name = "capped";
  capped.rate_limit = 1.0;  // one token a second: the burst is all it gets
  capped.burst = 10;
  admission.tenants = {open, capped};
  ReplicaGroup group(dataset, truth_serve_config(), /*replicas=*/2, RoutePolicy::kRoundRobin,
                     std::move(admission));
  group.publish(truth_snapshot(dataset));
  drive(group, truth_vertices(dataset));
  expect_group_matches(group, "server");
  const BackendStats s = group.stats();
  ASSERT_EQ(s.tenants.size(), 2u);
  const TenantCounters& lane = s.tenants[1];
  EXPECT_EQ(lane.tenant, 1);
  EXPECT_EQ(lane.submitted, 40u);
  EXPECT_GT(lane.shed, 0u);
  EXPECT_GT(lane.completed, 0u);
  EXPECT_EQ(lane.completed + lane.shed, 40u);
  EXPECT_EQ(group.admission_stats().shed_budget, lane.shed);
}

TEST(ObsCounterTruth, ComposedGroupStatsAreItsScrape) {
  const Dataset dataset = truth_dataset();
  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);
  ComposedConfig cfg;
  cfg.replicas = 2;
  cfg.shard.max_batch = 4;
  cfg.shard.fanouts = {4, 4};
  ReplicaGroup group(dataset, partition, cfg, RoutePolicy::kPowerOfTwo);
  group.publish(truth_snapshot(dataset));
  drive(group, truth_vertices(dataset));
  expect_group_matches(group, "sharded");
  EXPECT_EQ(group.stats().completed, 60u);
}

TEST(ObsCounterTruth, RegistryLanesAreItsEdgeSeries) {
  const Dataset dataset = truth_dataset();
  const auto snapshot = truth_snapshot(dataset);
  const std::vector<vid_t> vertices = truth_vertices(dataset);
  ModelRegistry registry;
  TenantSlo open;
  open.name = "open";
  TenantSlo capped;
  capped.name = "capped";
  capped.rate_limit = 1.0;
  capped.burst = 10;
  const tenant_t a = registry.add_server(open, dataset, truth_serve_config());
  const tenant_t b = registry.add_server(capped, dataset, truth_serve_config());
  registry.publish(a, snapshot);
  registry.publish(b, snapshot);
  registry.start();
  (void)registry.infer_batch(a, std::span<const vid_t>(vertices).first(20));
  (void)registry.infer_batch(b, vertices);
  registry.backend(a).drain();
  registry.backend(b).drain();
  registry.stop();
  EXPECT_FALSE(registry.submit(a, vertices.front(), [](InferResult&&) {}));

  const BackendStats s = registry.stats();
  const obs::MetricsSnapshot snap = registry.scrape_snapshot();
  expect_lanes_match(s.tenants, snap, "distgnn_registry_");
  for (const TenantCounters& lane : s.tenants)
    EXPECT_EQ(series(snap, "distgnn_registry_admitted_total",
                     {{"tenant", std::to_string(lane.tenant)}}),
              lane.submitted - lane.shed);
  expect_leaf_counts_match(s, snap, "server");
  EXPECT_EQ(snap.counter_total("distgnn_server_shed_total"), s.rejected);
  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.tenants[0].submitted, 21u);
  EXPECT_EQ(s.tenants[0].completed, 20u);
  EXPECT_EQ(s.tenants[0].shed, 1u);
  EXPECT_EQ(s.tenants[1].submitted, 40u);
  EXPECT_GT(s.tenants[1].shed, 0u);
  EXPECT_EQ(s.tenants[1].completed + s.tenants[1].shed, 40u);
}

TEST(ObsCounterTruth, DeltaPublisherStatsAreItsScrape) {
  const Dataset base = truth_dataset();
  stream::DeltaStreamConfig stream_cfg;
  stream_cfg.num_deltas = 3;
  const auto deltas = stream::make_delta_stream(base, stream_cfg);
  Dataset live = base;
  InferenceServer server(live, truth_serve_config());
  server.publish(truth_snapshot(live));
  server.start();
  stream::DeltaPublisher publisher(live, server);
  for (const auto& delta : deltas) publisher.publish(delta);
  server.stop();

  const stream::StreamStats s = publisher.stats();
  const obs::MetricsSnapshot snap = publisher.scrape_snapshot();
  EXPECT_EQ(s.deltas_published, 3u);
  EXPECT_EQ(series(snap, "distgnn_stream_deltas_total"), s.deltas_published);
  EXPECT_EQ(series(snap, "distgnn_stream_edges_inserted_total"), s.edges_inserted);
  EXPECT_EQ(series(snap, "distgnn_stream_edges_deleted_total"), s.edges_deleted);
  EXPECT_EQ(series(snap, "distgnn_stream_features_updated_total"), s.features_updated);
  EXPECT_EQ(series(snap, "distgnn_stream_dirty_entries_total"), s.dirty_entries);
  EXPECT_EQ(series(snap, "distgnn_stream_full_flush_equivalent_total"), s.full_flush_equivalent);
  EXPECT_GT(s.edges_inserted, 0u);
}

// ---------------------------------------------------------------------------
// The acceptance walk: one scrape of a ModelRegistry whose tenants sit on an
// R x P composed ReplicaGroup yields per-tenant stage histograms — admit, queue,
// sample, halo_wait, forward — in valid Prometheus text.

TEST(ObsScrape, RegistryOverComposedTierExposesAllStages) {
  LearnableSbmParams params;
  params.num_vertices = 256;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = 5;
  const Dataset dataset = make_learnable_sbm(params);
  ModelSpec spec;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 16;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;
  const auto snapshot = ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1);
  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);

  ModelRegistry registry;
  std::vector<tenant_t> tenants;
  for (const char* name : {"alpha", "bravo"}) {
    ComposedConfig cfg;
    cfg.replicas = 2;
    cfg.shard.max_batch = 4;
    cfg.shard.fanouts = {4, 4};
    cfg.shard.trace_sample_rate = 1.0;
    TenantSlo slo;
    slo.name = name;
    tenants.push_back(
        registry.add(slo, std::make_unique<ReplicaGroup>(dataset, partition, cfg,
                                                         RoutePolicy::kPowerOfTwo)));
  }
  for (const tenant_t t : tenants) registry.publish(t, snapshot);
  registry.start();

  std::vector<vid_t> vertices;
  for (vid_t v = 0; v < 32; ++v) vertices.push_back((v * 7) % 256);
  for (const tenant_t t : tenants) {
    const auto results = registry.infer_batch(t, vertices);
    for (const auto& r : results) EXPECT_TRUE(r.has_value());
  }
  for (const tenant_t t : tenants) registry.backend(t).drain();

  // One scrape walks every tenant's tower down to the sharded ranks.
  obs::MetricsSnapshot snap;
  registry.scrape(snap);
  registry.stop();

  for (const tenant_t t : tenants) {
    const std::string id = std::to_string(t);
    EXPECT_GE(snap.find("distgnn_registry_completed_total", {{"tenant", id}})->value, 32.0);
    for (const char* stage : {"admit", "queue", "sample", "halo_wait", "forward"}) {
      const obs::MetricPoint* point =
          snap.find("distgnn_sharded_stage_seconds", {{"stage", stage}, {"tenant", id}});
      ASSERT_NE(point, nullptr) << "stage=" << stage << " tenant=" << id;
      EXPECT_FALSE(point->histogram.empty()) << "stage=" << stage << " tenant=" << id;
    }
  }
  EXPECT_GE(snap.counter_total("distgnn_router_completed_total"), 64.0);

  // Valid Prometheus text: the round-trip parser accepts every line and
  // preserves the per-tenant stage histograms.
  const obs::MetricsSnapshot parsed = obs::parse_prometheus(obs::render_prometheus(snap));
  for (const tenant_t t : tenants) {
    const obs::MetricPoint* halo = parsed.find(
        "distgnn_sharded_stage_seconds", {{"stage", "halo_wait"}, {"tenant", std::to_string(t)}});
    ASSERT_NE(halo, nullptr);
    EXPECT_FALSE(halo->histogram.empty());
  }

  // The sampled traces from the grid are collectable through the registry.
  std::vector<obs::Trace> traces;
  registry.collect_traces(traces);
  EXPECT_FALSE(traces.empty());
}

}  // namespace
}  // namespace distgnn
