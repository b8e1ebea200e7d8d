// Health & SLO engine determinism tests. Every rule is driven through a
// synthetic ScrapeSource with scripted counter/histogram sequences and a
// ManualClock — tick() by hand, no background thread, no sleeps — so the
// exact fire/resolve transition instants are pinned, not raced. The final
// group exercises the real tower: a ModelRegistry over a composed
// ReplicaGroup (R=2 x P=2) plus a DeltaPublisher, checking burn-rate, wedged-barrier and
// epoch-lag alerts end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/expose.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/scrape.hpp"
#include "obs/timeseries.hpp"
#include "partition/libra.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/replica_group.hpp"
#include "stream/delta_publisher.hpp"
#include "stream/graph_delta.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;

// ---------------------------------------------------------------------------
// Scripted scrape source: the test mutates the cumulative counters and the
// tenant-0 request histogram between ticks.

void observe_n(obs::HistogramData& h, double seconds, std::uint64_t n) {
  h.buckets[static_cast<std::size_t>(obs::latency_bucket(seconds))] += n;
  h.count += n;
  h.sum_seconds += seconds * static_cast<double>(n);
}

struct ScriptedSource : obs::ScrapeSource {
  obs::HistogramData tenant_hist;  // cumulative, like a real scrape
  double submitted = 0;
  double completed = 0;
  double shed = 0;

  void scrape(obs::MetricsSnapshot& out) const override {
    out.add_histogram("distgnn_scripted_request_seconds", {{"tenant", "0"}}, tenant_hist);
    out.add_counter("distgnn_scripted_submitted_total", {}, submitted);
    out.add_counter("distgnn_scripted_completed_total", {}, completed);
    out.add_counter("distgnn_scripted_shed_total", {}, shed);
  }
};

std::vector<obs::HealthEvent> events_of(const std::vector<obs::HealthEvent>& events,
                                        obs::HealthRule rule) {
  std::vector<obs::HealthEvent> out;
  for (const obs::HealthEvent& e : events)
    if (e.rule == rule) out.push_back(e);
  return out;
}

// ---------------------------------------------------------------------------
// Burn rate: SRE dual-window — fires only when both windows overspend, with
// the exact transition instants pinned by the manual clock.

TEST(HealthBurnRate, FiresAndResolvesAtExactTicks) {
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  ScriptedSource source;
  monitor.add_source("scripted", source);
  // Deadline on the log2 grid (bucket 10 upper edge = 1.024ms) so the
  // bucket-resolution deadline count is exact.
  monitor.set_slo(/*tenant=*/0, /*deadline_seconds=*/obs::bucket_upper_seconds(10),
                  /*target=*/0.999);

  std::vector<obs::HealthEvent> seen;
  monitor.on_event([&](const obs::HealthEvent& e) { seen.push_back(e); });

  monitor.tick();  // t=0: baseline sample, zero traffic, nothing can fire
  EXPECT_TRUE(monitor.active().empty());

  // 100 good requests (well under deadline): burn stays zero.
  observe_n(source.tenant_hist, 1e-4, 100);
  source.submitted = source.completed = 100;
  clock->set(0.25);
  monitor.tick();
  EXPECT_TRUE(events_of(monitor.history(), obs::HealthRule::kBurnRate).empty());

  // 32 requests blow the deadline: fast-window bad fraction 32/132 against a
  // 0.1% budget -> burn ~242x, way past the 2x threshold in both windows.
  observe_n(source.tenant_hist, 5e-3, 32);
  source.submitted = source.completed = 132;
  clock->set(0.5);
  monitor.tick();
  {
    const auto burn = events_of(monitor.history(), obs::HealthRule::kBurnRate);
    ASSERT_EQ(burn.size(), 1u);
    EXPECT_TRUE(burn[0].firing);
    EXPECT_EQ(burn[0].subject, "scripted");
    EXPECT_EQ(burn[0].tenant, 0);
    EXPECT_EQ(burn[0].severity, obs::Severity::kCritical);
    EXPECT_DOUBLE_EQ(burn[0].t, 0.5);
    EXPECT_GT(burn[0].value, 2.0);
    EXPECT_DOUBLE_EQ(burn[0].threshold, 2.0);
  }
  ASSERT_EQ(monitor.active().size(), 1u);

  // Still inside the fast window: the alert stays up, no duplicate event.
  clock->set(1.2);
  monitor.tick();
  EXPECT_EQ(events_of(monitor.history(), obs::HealthRule::kBurnRate).size(), 1u);
  EXPECT_EQ(monitor.active().size(), 1u);

  // Fast window slides past the burst (baseline sample t=1.2, no new bad
  // requests): resolve at exactly t=2.5.
  clock->set(2.5);
  monitor.tick();
  {
    const auto burn = events_of(monitor.history(), obs::HealthRule::kBurnRate);
    ASSERT_EQ(burn.size(), 2u);
    EXPECT_FALSE(burn[1].firing);
    EXPECT_DOUBLE_EQ(burn[1].t, 2.5);
    EXPECT_NE(burn[1].detail.find("resolved"), std::string::npos);
  }
  EXPECT_TRUE(monitor.active().empty());

  // The callback saw the same two transitions, in order.
  const auto cb_burn = events_of(seen, obs::HealthRule::kBurnRate);
  ASSERT_EQ(cb_burn.size(), 2u);
  EXPECT_TRUE(cb_burn[0].firing);
  EXPECT_FALSE(cb_burn[1].firing);
}

TEST(HealthBurnRate, BlipBelowMinRequestsCannotFire) {
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  ScriptedSource source;
  monitor.add_source("scripted", source);
  monitor.set_slo(0, obs::bucket_upper_seconds(10), 0.999);

  monitor.tick();
  // 8 terrible requests: burn is enormous but the fast window is under
  // burn_min_requests (16) — a blip must not page.
  observe_n(source.tenant_hist, 5e-2, 8);
  clock->set(0.5);
  monitor.tick();
  clock->set(1.0);
  monitor.tick();
  EXPECT_TRUE(monitor.history().empty());
}

// ---------------------------------------------------------------------------
// Stall watchdog: completed counters freeze while work is in flight.

TEST(HealthStall, FiresAfterTimeoutAndResolvesOnAdvance) {
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  ScriptedSource source;
  monitor.add_source("scripted", source);

  source.submitted = source.completed = 10;
  monitor.tick();  // t=0: drained, primes the watchdog

  source.submitted = 20;  // 10 in flight, completed frozen
  clock->set(0.5);
  monitor.tick();
  EXPECT_TRUE(monitor.active().empty());  // 0.5s < 1.0s timeout

  clock->set(1.2);
  monitor.tick();  // frozen for 1.2s with work in flight -> fire
  {
    const auto stall = events_of(monitor.history(), obs::HealthRule::kStall);
    ASSERT_EQ(stall.size(), 1u);
    EXPECT_TRUE(stall[0].firing);
    EXPECT_EQ(stall[0].severity, obs::Severity::kCritical);
    EXPECT_DOUBLE_EQ(stall[0].t, 1.2);
    EXPECT_GE(stall[0].value, 1.2);
  }

  source.completed = 20;  // the tower drains
  clock->set(1.5);
  monitor.tick();
  const auto stall = events_of(monitor.history(), obs::HealthRule::kStall);
  ASSERT_EQ(stall.size(), 2u);
  EXPECT_FALSE(stall[1].firing);
  EXPECT_TRUE(monitor.active().empty());
}

TEST(HealthStall, DrainedTowerNeverFires) {
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  ScriptedSource source;
  monitor.add_source("scripted", source);
  source.submitted = 50;
  source.completed = 40;
  source.shed = 10;  // submitted - completed - shed == 0: nothing in flight
  for (double t = 0; t < 5.0; t += 0.5) {
    clock->set(t);
    monitor.tick();
  }
  EXPECT_TRUE(events_of(monitor.history(), obs::HealthRule::kStall).empty());
}

// ---------------------------------------------------------------------------
// Epoch lag: sealed head runs ahead of the served epoch past the grace
// period.

TEST(HealthEpochLag, GracePeriodThenFireThenResolve) {
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  std::uint64_t served = 5, sealed = 5;
  monitor.add_epoch_probe(
      "stream", [&] { return served; }, [&] { return sealed; });

  monitor.tick();  // lag 0
  sealed = 9;      // lag 4 > max_epoch_lag (2): grace starts now
  clock->set(0.1);
  monitor.tick();
  EXPECT_TRUE(monitor.active().empty());  // inside the 0.5s grace

  clock->set(0.7);
  monitor.tick();  // lagged for 0.6s >= grace -> fire
  {
    const auto lag = events_of(monitor.history(), obs::HealthRule::kEpochLag);
    ASSERT_EQ(lag.size(), 1u);
    EXPECT_TRUE(lag[0].firing);
    EXPECT_EQ(lag[0].subject, "stream");
    EXPECT_DOUBLE_EQ(lag[0].value, 4.0);
    EXPECT_DOUBLE_EQ(lag[0].threshold, 2.0);
    EXPECT_DOUBLE_EQ(lag[0].t, 0.7);
  }

  served = 9;  // the publisher catches up
  clock->set(0.8);
  monitor.tick();
  const auto lag = events_of(monitor.history(), obs::HealthRule::kEpochLag);
  ASSERT_EQ(lag.size(), 2u);
  EXPECT_FALSE(lag[1].firing);

  // A lag that recovers within the grace period never fires.
  sealed = 13;
  clock->set(1.0);
  monitor.tick();
  served = 13;
  clock->set(1.2);
  monitor.tick();
  clock->set(2.0);
  monitor.tick();
  EXPECT_EQ(events_of(monitor.history(), obs::HealthRule::kEpochLag).size(), 2u);
}

// ---------------------------------------------------------------------------
// Barrier watchdog + queue saturation probes.

TEST(HealthBarrier, StuckPastTimeoutFiresCritical) {
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  bool closed = false;
  monitor.add_barrier_probe("tier", [&] { return closed; });

  monitor.tick();
  closed = true;
  clock->set(0.1);
  monitor.tick();  // closed_for starts counting here
  EXPECT_TRUE(monitor.active().empty());

  clock->set(0.7);
  monitor.tick();  // closed for 0.6s >= 0.5s -> fire
  {
    const auto stuck = events_of(monitor.history(), obs::HealthRule::kBarrierStuck);
    ASSERT_EQ(stuck.size(), 1u);
    EXPECT_TRUE(stuck[0].firing);
    EXPECT_EQ(stuck[0].severity, obs::Severity::kCritical);
  }

  closed = false;
  clock->set(0.8);
  monitor.tick();
  EXPECT_TRUE(monitor.active().empty());
  ASSERT_EQ(events_of(monitor.history(), obs::HealthRule::kBarrierStuck).size(), 2u);

  // A normal (short) publish barrier never trips the watchdog.
  closed = true;
  clock->set(1.0);
  monitor.tick();
  closed = false;
  clock->set(1.2);
  monitor.tick();
  EXPECT_EQ(events_of(monitor.history(), obs::HealthRule::kBarrierStuck).size(), 2u);
}

TEST(HealthQueue, SaturationThresholdExact) {
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  std::size_t depth = 0;
  monitor.add_queue_probe("tier", [&] { return depth; }, /*capacity=*/100);

  depth = 89;  // 0.89 < 0.9: below
  monitor.tick();
  EXPECT_TRUE(monitor.active().empty());

  depth = 90;  // exactly the 0.9 fraction: >= fires
  clock->set(0.1);
  monitor.tick();
  {
    const auto sat = events_of(monitor.history(), obs::HealthRule::kQueueSaturation);
    ASSERT_EQ(sat.size(), 1u);
    EXPECT_TRUE(sat[0].firing);
    EXPECT_DOUBLE_EQ(sat[0].value, 0.9);
  }

  depth = 10;
  clock->set(0.2);
  monitor.tick();
  EXPECT_TRUE(monitor.active().empty());
  // The depth gauge is exposed through the monitor's own scrape.
  obs::MetricsSnapshot snap;
  monitor.scrape(snap);
  const obs::MetricPoint* gauge =
      snap.find("distgnn_health_queue_depth", {{"queue", "tier"}});
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value, 10.0);
}

// ---------------------------------------------------------------------------
// p99 drift + shed anomaly vs trailing baselines.

TEST(HealthDrift, RecentP99AgainstTrailingBaseline) {
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  ScriptedSource source;
  monitor.add_source("scripted", source);

  monitor.tick();  // t=0 baseline
  // A long healthy history: 10000 requests at ~100µs.
  observe_n(source.tenant_hist, 1e-4, 10000);
  clock->set(1.0);
  monitor.tick();
  EXPECT_TRUE(events_of(monitor.history(), obs::HealthRule::kP99Drift).empty());

  // The recent window turns 100x slower; the trailing baseline still sees
  // mostly-healthy traffic (64/10064 < 1%), so its p99 stays at ~100µs.
  observe_n(source.tenant_hist, 1e-2, 64);
  clock->set(2.0);
  monitor.tick();
  {
    const auto drift = events_of(monitor.history(), obs::HealthRule::kP99Drift);
    ASSERT_EQ(drift.size(), 1u);
    EXPECT_TRUE(drift[0].firing);
    EXPECT_EQ(drift[0].severity, obs::Severity::kWarn);
    EXPECT_GT(drift[0].value, 3.0);  // the observed ratio
  }

  // Healthy traffic returns; once the recent window no longer covers the
  // regression, the alert resolves.
  observe_n(source.tenant_hist, 1e-4, 500);
  clock->set(2.5);
  monitor.tick();
  clock->set(3.6);
  monitor.tick();
  EXPECT_TRUE(monitor.active().empty());
  EXPECT_EQ(events_of(monitor.history(), obs::HealthRule::kP99Drift).size(), 2u);
}

TEST(HealthShed, AnomalyAgainstBaselineFraction) {
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  ScriptedSource source;
  monitor.add_source("scripted", source);

  monitor.tick();
  source.submitted = 1000;  // healthy: no sheds at all
  source.completed = 1000;
  clock->set(1.0);
  monitor.tick();
  EXPECT_TRUE(events_of(monitor.history(), obs::HealthRule::kShedAnomaly).empty());

  // 40% of the recent window shed vs a ~3.6% baseline fraction.
  source.submitted = 1100;
  source.completed = 1160 - 100;  // keep inflight 0: completed + shed == submitted
  source.shed = 40;
  source.completed = 1060;
  clock->set(2.0);
  monitor.tick();
  {
    const auto shed = events_of(monitor.history(), obs::HealthRule::kShedAnomaly);
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_TRUE(shed[0].firing);
    EXPECT_NEAR(shed[0].value, 0.4, 1e-9);
  }

  source.submitted = 1200;
  source.completed = 1160;
  clock->set(3.0);
  monitor.tick();  // recent window is shed-free again
  EXPECT_TRUE(monitor.active().empty());
}

// ---------------------------------------------------------------------------
// The sampling path does not allocate in steady state, and the monitor's own
// exposition carries the rule states.

TEST(HealthMonitorCore, SteadyStateTicksDoNotAllocateSeries) {
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  ScriptedSource source;
  monitor.add_source("scripted", source);
  monitor.set_slo(0, 1e-3, 0.999);
  std::size_t depth = 3;
  monitor.add_queue_probe("q", [&] { return depth; }, 100);
  std::uint64_t served = 0, sealed = 0;
  monitor.add_epoch_probe(
      "e", [&] { return served; }, [&] { return sealed; });

  // Warm-up: the first ticks create every series.
  for (int i = 0; i < 3; ++i) {
    clock->advance(0.05);
    monitor.tick();
  }
  const std::uint64_t warmed = monitor.series_allocations();
  const std::size_t series = monitor.num_series();
  EXPECT_GT(warmed, 0u);

  // Steady state: values keep changing, series set does not — the ingest
  // path reuses the rings with zero series allocations.
  for (int i = 0; i < 50; ++i) {
    observe_n(source.tenant_hist, 2e-4, 5);
    source.submitted += 5;
    source.completed += 5;
    depth = static_cast<std::size_t>(10 + i % 7);
    sealed = served = static_cast<std::uint64_t>(i);
    clock->advance(0.05);
    monitor.tick();
  }
  EXPECT_EQ(monitor.series_allocations(), warmed);
  EXPECT_EQ(monitor.num_series(), series);
  EXPECT_EQ(monitor.ticks(), 53u);
}

TEST(HealthMonitorCore, ScrapeAndJsonExposeRuleStates) {
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  ScriptedSource source;
  monitor.add_source("scripted", source);

  source.submitted = 10;  // wedge: 10 in flight, frozen
  monitor.tick();
  clock->set(1.5);
  monitor.tick();  // stall fires

  obs::MetricsSnapshot snap;
  monitor.scrape(snap);
  EXPECT_DOUBLE_EQ(snap.find("distgnn_health_ticks_total", {})->value, 2.0);
  EXPECT_DOUBLE_EQ(snap.find("distgnn_health_active", {{"rule", "stall"}})->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.find("distgnn_health_events_total", {{"rule", "stall"}})->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.find("distgnn_health_active", {{"rule", "burn_rate"}})->value, 0.0);
  // The monitor is itself a ScrapeSource: its exposition renders and parses.
  const obs::MetricsSnapshot parsed =
      obs::parse_prometheus(obs::render_prometheus(snap));
  EXPECT_NE(parsed.find("distgnn_health_ticks_total", {}), nullptr);

  const std::string json = obs::render_health_json(monitor);
  EXPECT_NE(json.find("\"rule\":\"stall\""), std::string::npos);
  EXPECT_NE(json.find("\"firing\":true"), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"critical\""), std::string::npos);
  EXPECT_NE(json.find("\"subject\":\"scripted\""), std::string::npos);

  const std::string line = monitor.summary_line();
  EXPECT_NE(line.find("firing=1"), std::string::npos);
  EXPECT_NE(line.find("stall:scripted"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End to end over the real tower: ModelRegistry over a composed ReplicaGroup
// R=2 x P=2, plus a DeltaPublisher for the freshness probe.

struct TowerFixture {
  Dataset dataset;
  EdgePartition partition;
  ModelRegistry registry;
  ReplicaGroup* tier = nullptr;  // owned by the registry
  tenant_t tenant = 0;

  explicit TowerFixture(double deadline_seconds) {
    LearnableSbmParams params;
    params.num_vertices = 128;
    params.num_classes = 4;
    params.avg_degree = 6;
    params.feature_dim = 8;
    params.seed = 21;
    dataset = make_learnable_sbm(params);
    partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);

    ModelSpec spec;
    spec.feature_dim = dataset.feature_dim();
    spec.hidden_dim = 8;
    spec.num_classes = dataset.num_classes;
    spec.num_layers = 2;

    ComposedConfig cfg;
    cfg.replicas = 2;
    cfg.shard.max_batch = 4;
    cfg.shard.fanouts = {4, 4};
    TenantSlo slo;
    slo.name = "alpha";
    slo.deadline_seconds = deadline_seconds;
    slo.slo_target = 0.999;
    // The burn-rate test wants completions that *violate* the deadline, not
    // sheds — so the tower must keep serving late requests.
    AdmissionConfig admission;
    admission.shed_deadlines = false;
    auto backend = std::make_unique<ReplicaGroup>(dataset, partition, cfg,
                                                  RoutePolicy::kPowerOfTwo, admission);
    tier = backend.get();
    tenant = registry.add(slo, std::move(backend));
    registry.publish(tenant, ModelSnapshot::random(spec, /*seed=*/3, /*version=*/1));
    registry.start();
  }
  ~TowerFixture() { registry.stop(); }
};

TEST(HealthTower, BurnRateFiresOnRealTrafficAndResolves) {
  // 1µs deadline: every completed request violates it.
  TowerFixture fx(/*deadline_seconds=*/1e-6);
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  fx.registry.configure_health(monitor);

  monitor.tick();  // baseline

  // Two traffic rounds with a tick in between: the per-tenant latency series
  // is created on the first round's scrape, and the window delta measures
  // increments from that first sample — so the second round is what the
  // fast window sees.
  std::vector<vid_t> vertices;
  for (vid_t v = 0; v < 32; ++v) vertices.push_back((v * 5) % 128);
  for (double t : {0.25, 0.5}) {
    const auto results = fx.registry.infer_batch(fx.tenant, vertices);
    for (const auto& r : results) ASSERT_TRUE(r.has_value());
    fx.registry.backend(fx.tenant).drain();
    clock->set(t);
    monitor.tick();
  }
  const auto burn = events_of(monitor.history(), obs::HealthRule::kBurnRate);
  ASSERT_GE(burn.size(), 1u);
  EXPECT_TRUE(burn[0].firing);
  EXPECT_EQ(burn[0].tenant, 0);
  EXPECT_EQ(burn[0].subject, "registry");

  // No further traffic: once the fast window slides past the burst the
  // alert resolves.
  clock->set(2.0);
  monitor.tick();
  clock->set(3.5);
  monitor.tick();
  EXPECT_TRUE(events_of(monitor.active(), obs::HealthRule::kBurnRate).empty());
}

TEST(HealthTower, WedgedBarrierTripsWatchdog) {
  TowerFixture fx(/*deadline_seconds=*/0.5);
  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  fx.tier->configure_health(monitor, "tier");

  monitor.tick();
  EXPECT_TRUE(monitor.active().empty());

  // Wedge the publish barrier: hold an admission slot open (a request whose
  // reply callback parks until released), then publish from another
  // thread — the barrier closes and parks waiting for us.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ASSERT_TRUE(fx.tier->submit(0, [released](InferResult&&) { released.wait(); }));
  ModelSpec spec;
  spec.feature_dim = fx.dataset.feature_dim();
  spec.hidden_dim = 8;
  spec.num_classes = fx.dataset.num_classes;
  spec.num_layers = 2;
  auto snapshot = ModelSnapshot::random(spec, /*seed=*/4, /*version=*/2);
  std::thread publisher([&] { fx.tier->publish(std::move(snapshot)); });
  while (!fx.tier->publishing()) std::this_thread::yield();

  clock->set(0.1);
  monitor.tick();  // barrier observed closed; watchdog timer starts
  clock->set(0.8);
  monitor.tick();  // closed for 0.7s >= 0.5s -> critical
  {
    const auto stuck = events_of(monitor.history(), obs::HealthRule::kBarrierStuck);
    ASSERT_EQ(stuck.size(), 1u);
    EXPECT_TRUE(stuck[0].firing);
    EXPECT_EQ(stuck[0].subject, "tier");
    EXPECT_EQ(stuck[0].severity, obs::Severity::kCritical);
  }

  release.set_value();  // release the wedge
  publisher.join();
  clock->set(1.0);
  monitor.tick();
  EXPECT_TRUE(events_of(monitor.active(), obs::HealthRule::kBarrierStuck).empty());
}

TEST(HealthTower, EpochLagOverLiveDeltaLog) {
  LearnableSbmParams params;
  params.num_vertices = 128;
  params.num_classes = 4;
  params.avg_degree = 6;
  params.feature_dim = 8;
  params.seed = 22;
  Dataset dataset = make_learnable_sbm(params);
  ModelSpec spec;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 8;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;
  ServeConfig serve_cfg;
  InferenceServer server(dataset, serve_cfg);
  server.publish(ModelSnapshot::random(spec, /*seed=*/5, /*version=*/1));
  server.start();

  stream::DeltaLog log;
  stream::DeltaPublisher publisher(dataset, server);

  auto clock = std::make_shared<obs::ManualClock>(0.0);
  obs::HealthMonitor monitor(obs::HealthConfig{}, clock);
  publisher.configure_health(monitor, log, "stream");

  monitor.tick();
  // Seal 4 epochs without publishing any: the sealed head runs 4 ahead.
  std::vector<stream::GraphDelta> pending;
  for (int i = 0; i < 4; ++i) {
    log.insert_edge(static_cast<vid_t>(i), static_cast<vid_t>((i + 1) % 128));
    pending.push_back(log.seal());
  }
  ASSERT_EQ(log.sealed_epochs(), 4u);
  clock->set(0.1);
  monitor.tick();  // lag 4 > 2: grace starts
  clock->set(0.8);
  monitor.tick();  // 0.7s >= 0.5s grace -> fire
  {
    const auto lag = events_of(monitor.history(), obs::HealthRule::kEpochLag);
    ASSERT_EQ(lag.size(), 1u);
    EXPECT_TRUE(lag[0].firing);
    EXPECT_DOUBLE_EQ(lag[0].value, 4.0);
  }

  // Publishing the backlog closes the gap and resolves the alert.
  for (const stream::GraphDelta& delta : pending) publisher.publish(delta);
  EXPECT_EQ(publisher.epoch(), 4u);
  clock->set(1.0);
  monitor.tick();
  EXPECT_TRUE(events_of(monitor.active(), obs::HealthRule::kEpochLag).empty());

  // The publisher left stream-track traces behind (kRepartition/kApply/
  // kInvalidate spans on the kStreamTrack pseudo-tenant).
  std::vector<obs::Trace> traces;
  publisher.collect_traces(traces);
  ASSERT_FALSE(traces.empty());
  EXPECT_EQ(traces.back().tenant, obs::kStreamTrack);
  const std::string json = obs::render_chrome_trace(traces);
  EXPECT_NE(json.find("\"cat\":\"stream\""), std::string::npos);

  server.stop();
}

}  // namespace
}  // namespace distgnn
