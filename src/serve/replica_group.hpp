// Replicated serving tier: one logical shard served by N replica backends,
// with placement, admission control and tenant lanes in front of them.
//
// A ReplicaGroup owns N ServingBackends over the same dataset. The
// ServeConfig constructor builds N InferenceServers from one config
// (critically: the same sample_seed), so every replica answers every
// request bitwise-identically to a single server and placement is free to
// put a request anywhere. The ComposedConfig constructor replicates whole
// sharded deployments — R ShardedServers of P ranks each, the composed tier
// — and the factory constructor takes any members (tests mix heterogeneous
// backends).
//
// Each request is decided twice. *Where* it runs: round-robin,
// least-outstanding, or power-of-two-choices over per-replica queue depth;
// the policies only consult the ServingBackend contract (queue_depth,
// mean_service_seconds, concurrency), so they work unchanged over any mix
// of members. *Whether* it runs: admission sheds a request whose deadline
// cannot be met — the target's outstanding count over its concurrency,
// times its observed per-request service time — and drops low-priority
// work first once the target's queue crosses the low-priority watermark.
// Shedding happens before any queue, so an admitted request is always
// answered (bitwise-identically to a single server) and a shed one costs
// nothing downstream. With the default AdmissionConfig a request without a
// deadline and at high priority is never shed.
//
// Multi-tenant mode (AdmissionConfig::tenants non-empty): one staged lane
// per tenant, dispatched through smooth weighted round-robin, so under
// saturation each tenant's served share converges to its SLO weight and
// one tenant's burst cannot starve another's lane. Per-tenant token
// buckets bound each tenant's admitted rate (budget shedding), and the
// tenant's SLO deadline applies to requests that carry none.
//
// Publication is a group operation with a *version barrier*: publish()
// waits for every admitted request to complete, hands every replica the
// same immutable snapshot, and only then does admission re-open. Every
// request holds an admission slot until it answers, and infer_batch
// reserves a whole batch's slots before the first submit, so no batch ever
// mixes snapshot versions.
//
// The group counts each admission event once, in its own metrics registry
// (distgnn_router_*, distgnn_group_publishes_total); admission_stats(),
// stats() and scrape() all read those counters back.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/metrics.hpp"
#include "partition/libra.hpp"
#include "serve/backend.hpp"
#include "serve/inference_server.hpp"
#include "serve/sharded_server.hpp"
#include "serve/tenant.hpp"
#include "util/sync.hpp"

namespace distgnn::obs {
class HealthMonitor;
}  // namespace distgnn::obs

namespace distgnn::serve {

enum class RoutePolicy { kRoundRobin, kLeastOutstanding, kPowerOfTwo };

/// "round-robin" | "least-outstanding" | "p2c" (anything else throws — the
/// bench/demo flag parsers rely on loud failure).
RoutePolicy parse_route_policy(const std::string& name);
std::string route_policy_name(RoutePolicy policy);

struct AdmissionConfig {
  /// Master switch for deadline shedding (the bench's on/off comparison).
  bool shed_deadlines = true;
  /// Per-replica queue depth beyond which low-priority requests shed.
  /// 0 disables the priority lane.
  std::size_t low_priority_depth = 64;
  /// Pessimism multiplier on the estimated wait (> 1 sheds earlier).
  double estimate_margin = 1.0;
  /// Seed of the power-of-two-choices sampling stream.
  std::uint64_t seed = 99;

  /// Multi-tenant lanes: tenant id i gets tenants[i]'s SLO (weight, budget,
  /// deadline, stage capacity). Empty = single-tenant path (requests go
  /// straight to the picked replica, no staging).
  std::vector<TenantSlo> tenants;
  /// Max requests dispatched to replicas but not yet completed in tenant
  /// mode; staged requests beyond it wait their weighted-fair turn.
  /// 0 = 2 x the group's total concurrency.
  std::size_t dispatch_window = 0;
};

/// The group's placement and admission counters.
struct AdmissionStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed_deadline = 0;    // deadline unmeetable at admission time
  std::uint64_t shed_priority = 0;    // low-priority lane over the watermark
  std::uint64_t shed_queue_full = 0;  // bounced off a bounded queue / stage cap
  std::uint64_t shed_budget = 0;      // tenant token bucket empty
  std::vector<std::uint64_t> admitted_per_replica;
  /// Per-tenant submitted/completed/shed (tenant mode only).
  std::vector<TenantCounters> tenants;

  std::uint64_t shed() const {
    return shed_deadline + shed_priority + shed_queue_full + shed_budget;
  }
  double shed_rate() const {
    return submitted == 0 ? 0.0 : static_cast<double>(shed()) / static_cast<double>(submitted);
  }
  /// Counters accrued since `base` (an earlier snapshot) — keeps warmup
  /// traffic out of measured-run shed rates.
  AdmissionStats since(const AdmissionStats& base) const;
};

/// The composed tier's shape: R identical ShardedServer replicas, each over
/// P = partition.num_parts shards.
struct ComposedConfig {
  int replicas = 2;             // R: identical sharded deployments
  ShardedServeConfig shard;     // per-replica sharded config
};

class ReplicaGroup : public ServingBackend {
 public:
  /// Builds any backend; called once per replica index at construction.
  using ReplicaFactory = std::function<std::unique_ptr<ServingBackend>(int replica)>;

  /// Homogeneous group: every replica is an InferenceServer sharing
  /// `dataset` (features are not copied) with an identical ServeConfig —
  /// the source of the bitwise-equality guarantee.
  ReplicaGroup(const Dataset& dataset, const ServeConfig& config, int num_replicas,
               RoutePolicy policy = RoutePolicy::kRoundRobin, AdmissionConfig admission = {});
  /// The composed tier: config.replicas ShardedServers over `partition`.
  /// The partition is only read at construction.
  ReplicaGroup(const Dataset& dataset, const EdgePartition& partition,
               const ComposedConfig& config, RoutePolicy policy = RoutePolicy::kRoundRobin,
               AdmissionConfig admission = {});
  /// Generic group: replicas come from `factory`. All members must serve
  /// `dataset` (answers are expected interchangeable; the factory owns that
  /// contract).
  ReplicaGroup(const Dataset& dataset, int num_replicas, const ReplicaFactory& factory,
               RoutePolicy policy = RoutePolicy::kRoundRobin, AdmissionConfig admission = {});
  /// Stops the members first, so no completion callback outlives the
  /// counters it writes.
  ~ReplicaGroup() override;

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  /// Version-barriered group publish (see the file comment). After it
  /// returns every replica serves `snapshot` itself and no in-flight answer
  /// mixes versions with anything admitted afterwards.
  void publish(std::shared_ptr<const ModelSnapshot> snapshot) override;
  std::shared_ptr<const ModelSnapshot> snapshot() const override;

  void start() override;
  void stop() override;

  using ServingBackend::submit;
  /// Placed and admission-controlled submission. Returns false when the
  /// request was shed (budget empty, deadline unmeetable, priority lane
  /// over its watermark, or queue full) — `done` is then never invoked. In
  /// tenant mode true means the request entered its tenant's staged lane; it
  /// dispatches in weighted-fair order and `done` runs on completion.
  bool submit(vid_t vertex, const RequestMeta& meta,
              std::function<void(InferResult&&)> done) override;
  using ServingBackend::infer_batch;
  /// Whole batch under ONE admission epoch: every admitted answer carries
  /// the same snapshot version. Shed requests come back as nullopt.
  std::vector<std::optional<InferResult>> infer_batch(std::span<const vid_t> vertices,
                                                      const RequestMeta& meta) override;

  /// Graph mutation under the group's version barrier: drains every admitted
  /// request, runs the real apply on replica 0 only (all replicas share the
  /// dataset, so it must be mutated exactly once), then delivers an
  /// apply-less notice to the siblings so each invalidates its own caches.
  /// Replica 0 goes first — the mutation happens-before every invalidation.
  void apply_graph_update(const std::function<void()>& apply,
                          const GraphUpdateNotice& notice) override;
  std::uint64_t graph_epoch() const override { return members_.front().backend->graph_epoch(); }

  std::size_t queue_depth() const override;
  void drain() override;
  bool accepting() const override;
  double mean_service_seconds() const override;
  int concurrency() const override;
  const Dataset& dataset() const override { return dataset_; }
  /// The members' fold (children[r] is replica r), with admission sheds
  /// folded into `rejected`. The tenant lanes are the group's own edge
  /// lanes (tenant mode only): the members only ever see admitted traffic.
  BackendStats stats() const override;
  /// ScrapeSource: the group's registry (admission counters
  /// distgnn_router_*, the publish counter) and every replica's scrape —
  /// sibling replicas emit the same series, which merge by (name, labels)
  /// into group-wide totals.
  void scrape(obs::MetricsSnapshot& out) const override;
  void collect_traces(std::vector<obs::Trace>& out) const override;

  AdmissionStats admission_stats() const;
  bool tenant_mode() const { return num_lanes_ != 0; }

  int num_replicas() const { return static_cast<int>(members_.size()); }
  ServingBackend& replica(int i) { return *members_[static_cast<std::size_t>(i)].backend; }
  const ServingBackend& replica(int i) const {
    return *members_[static_cast<std::size_t>(i)].backend;
  }

  /// Version currently served by every replica (0 before the first publish).
  std::uint64_t version() const;
  std::uint64_t publishes() const;

  /// True while a publish / graph-update barrier is closed. The health
  /// monitor's barrier-stuck watchdog polls this: a wedged barrier parks
  /// inside the cv wait (mutex released), so the read never blocks on it.
  bool publishing() const {
    util::MutexLock lock(mutex_);
    return publishing_;
  }

  /// Wires the group into a HealthMonitor: the group as a scrape source, a
  /// queue-saturation probe over the members' aggregate queue capacity (when
  /// the group built its members), a barrier-stuck probe over the publish
  /// barrier, and one SLO per admission tenant with a deadline (burn-rate
  /// rule). The group must outlive the monitor's last tick.
  void configure_health(obs::HealthMonitor& monitor, const std::string& name = "tier") const;

 private:
  using Done = std::function<void(InferResult&&)>;

  /// One replica and its placement signal.
  struct Member {
    std::unique_ptr<ServingBackend> backend;
    std::atomic<std::uint64_t> outstanding{0};  // admitted, not yet completed
  };
  /// A staged request waiting for its weighted-fair dispatch turn.
  struct Staged {
    vid_t vertex = kInvalidVertex;
    RequestMeta meta;
    Done done;
  };
  /// One tenant's lane: SLO, rate budget, staged queue, and the smooth-WRR
  /// accumulator. All fields are guarded by stage_mutex_; the lane's
  /// submitted/completed/shed counts are the tenant_* counter families.
  struct TenantLane {
    TenantSlo slo;
    TokenBucket bucket{0, 0};
    std::deque<Staged> staged;
    double wrr_current = 0;
  };

  ReplicaGroup(const Dataset& dataset, int num_replicas, const ReplicaFactory& factory,
               RoutePolicy policy, AdmissionConfig admission, std::size_t queue_capacity);

  /// Throws before any admission slot is taken: a throw after reserve()
  /// would leak the slot and wedge every later publish().
  void check_request(vid_t vertex, tenant_t tenant) const;
  /// Admission epoch gate: reserve(n) takes n slots atomically, blocking
  /// while a barrier is closed. Every slot is released by exactly one
  /// release(), on completion for an admitted request, at once for a shed
  /// one.
  void reserve(std::size_t n);
  void release();
  /// Runs `mutate` under the barrier: one mutator at a time, every admitted
  /// request drained first. A non-null `version` marks a publish.
  void under_barrier(const std::function<void()>& mutate, const std::uint64_t* version);

  /// Places one request that already holds a slot: releases the slot on
  /// shed, hands it to the completion callback on admit.
  bool admit(vid_t vertex, const RequestMeta& meta, Done done);
  /// Single-tenant path: deadline and priority checks against the picked
  /// replica, then dispatch.
  bool route(vid_t vertex, const RequestMeta& meta, Done done);
  /// Tenant path: budget, deadline, priority and stage-capacity checks
  /// under stage_mutex_, then stage + pump.
  bool stage(vid_t vertex, RequestMeta meta, Done done);
  /// Dispatches staged requests while the window has room, picking the next
  /// tenant by smooth weighted round-robin.
  void pump_locked() REQUIRES(stage_mutex_);
  /// Submits to replica `r` with the bookkeeping every admitted request
  /// shares; on completion runs `done`, then releases the slot. False when
  /// the replica's queue bounced it.
  bool dispatch(int r, vid_t vertex, const RequestMeta& meta, Done done);
  int pick_replica();
  /// Whether `deadline` is already past, or lands before the estimated
  /// completion of `depth` queued requests over `workers` service loops.
  bool deadline_unmeetable(ServeClock::time_point deadline, ServeClock::time_point now,
                           double mean_service, double depth, double workers) const;

  const Dataset& dataset_;
  /// Immutable mirror of dataset_.num_vertices(): the range check must not
  /// read the graph a concurrent apply_graph_update may be move-assigning.
  const vid_t num_vertices_;

  /// The group's one set of books. Declared before members_, so it outlives
  /// every completion callback that writes it.
  obs::MetricsRegistry metrics_;
  obs::Counter& submitted_ = metrics_.counter("distgnn_router_submitted_total");
  obs::Counter& admitted_ = metrics_.counter("distgnn_router_admitted_total");
  obs::Counter& completed_ = metrics_.counter("distgnn_router_completed_total");
  obs::Counter& shed_deadline_ =
      metrics_.counter("distgnn_router_shed_total", {{"reason", "deadline"}});
  obs::Counter& shed_priority_ =
      metrics_.counter("distgnn_router_shed_total", {{"reason", "priority"}});
  obs::Counter& shed_queue_full_ =  // bounced off a bounded queue / stage cap
      metrics_.counter("distgnn_router_shed_total", {{"reason", "queue_full"}});
  obs::Counter& shed_budget_ =
      metrics_.counter("distgnn_router_shed_total", {{"reason", "budget"}});
  obs::Counter& publishes_ = metrics_.counter("distgnn_group_publishes_total");
  obs::CounterFamily replica_admitted_{metrics_, "distgnn_router_replica_admitted_total",
                                       "replica"};
  /// Tenant mode only: one series per AdmissionConfig::tenants entry.
  obs::CounterFamily tenant_submitted_{metrics_, "distgnn_router_tenant_submitted_total"};
  obs::CounterFamily tenant_completed_{metrics_, "distgnn_router_tenant_completed_total"};
  obs::CounterFamily tenant_shed_{metrics_, "distgnn_router_tenant_shed_total"};

  std::vector<Member> members_;  // sized once; Member is not movable
  const RoutePolicy policy_;
  const AdmissionConfig admission_;
  const std::size_t queue_capacity_;  // Σ member queue bounds (0 = unknown)

  mutable util::Mutex mutex_;
  util::CondVar cv_;
  std::size_t slots_ GUARDED_BY(mutex_) = 0;  // admission slots handed out, not yet released
  bool publishing_ GUARDED_BY(mutex_) = false;
  std::uint64_t version_ GUARDED_BY(mutex_) = 0;

  std::atomic<std::uint64_t> rr_next_{0};
  std::atomic<std::uint64_t> p2c_draws_{0};

  // Tenant mode. Lock order: stage_mutex_ may be held while taking mutex_
  // (release() from pump_locked), never the reverse.
  mutable util::Mutex stage_mutex_;
  std::vector<TenantLane> lanes_ GUARDED_BY(stage_mutex_);
  const std::size_t num_lanes_;  // immutable mirror of lanes_.size()
  std::size_t inflight_ GUARDED_BY(stage_mutex_) = 0;      // dispatched, not yet completed
  std::size_t total_staged_ GUARDED_BY(stage_mutex_) = 0;  // waiting in some lane
  std::size_t window_ = 0;  // immutable after construction
};

}  // namespace distgnn::serve
