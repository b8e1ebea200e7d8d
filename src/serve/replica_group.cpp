#include "serve/replica_group.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/health.hpp"
#include "util/rng.hpp"

namespace distgnn::serve {

RoutePolicy parse_route_policy(const std::string& name) {
  if (name == "round-robin" || name == "rr") return RoutePolicy::kRoundRobin;
  if (name == "least-outstanding" || name == "lo") return RoutePolicy::kLeastOutstanding;
  if (name == "p2c" || name == "power-of-two") return RoutePolicy::kPowerOfTwo;
  throw std::invalid_argument("unknown routing policy '" + name +
                              "' (round-robin | least-outstanding | p2c)");
}

std::string route_policy_name(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kRoundRobin: return "round-robin";
    case RoutePolicy::kLeastOutstanding: return "least-outstanding";
    case RoutePolicy::kPowerOfTwo: return "p2c";
  }
  return "?";
}

AdmissionStats AdmissionStats::since(const AdmissionStats& base) const {
  AdmissionStats d;
  d.submitted = submitted - base.submitted;
  d.admitted = admitted - base.admitted;
  d.completed = completed - base.completed;
  d.shed_deadline = shed_deadline - base.shed_deadline;
  d.shed_priority = shed_priority - base.shed_priority;
  d.shed_queue_full = shed_queue_full - base.shed_queue_full;
  d.shed_budget = shed_budget - base.shed_budget;
  d.admitted_per_replica.resize(admitted_per_replica.size());
  for (std::size_t r = 0; r < admitted_per_replica.size(); ++r)
    d.admitted_per_replica[r] =
        admitted_per_replica[r] - (r < base.admitted_per_replica.size()
                                       ? base.admitted_per_replica[r]
                                       : 0);
  for (const TenantCounters& lane : tenants) {
    TenantCounters delta = lane;
    for (const TenantCounters& b : base.tenants) {
      if (b.tenant != lane.tenant) continue;
      delta.submitted -= b.submitted;
      delta.completed -= b.completed;
      delta.shed -= b.shed;
      break;
    }
    d.tenants.push_back(delta);
  }
  return d;
}

ReplicaGroup::ReplicaGroup(const Dataset& dataset, const ServeConfig& config, int num_replicas,
                           RoutePolicy policy, AdmissionConfig admission)
    : ReplicaGroup(
          dataset, num_replicas,
          [&](int) { return std::make_unique<InferenceServer>(dataset, config); }, policy,
          std::move(admission),
          static_cast<std::size_t>(std::max(num_replicas, 0)) * config.queue_capacity) {}

ReplicaGroup::ReplicaGroup(const Dataset& dataset, const EdgePartition& partition,
                           const ComposedConfig& config, RoutePolicy policy,
                           AdmissionConfig admission)
    : ReplicaGroup(
          dataset, config.replicas,
          [&](int) { return std::make_unique<ShardedServer>(dataset, partition, config.shard); },
          policy, std::move(admission),
          static_cast<std::size_t>(std::max(config.replicas, 0)) *
              static_cast<std::size_t>(partition.num_parts) * config.shard.queue_capacity) {}

ReplicaGroup::ReplicaGroup(const Dataset& dataset, int num_replicas,
                           const ReplicaFactory& factory, RoutePolicy policy,
                           AdmissionConfig admission)
    : ReplicaGroup(dataset, num_replicas, factory, policy, std::move(admission),
                   /*queue_capacity=*/0) {}

ReplicaGroup::ReplicaGroup(const Dataset& dataset, int num_replicas,
                           const ReplicaFactory& factory, RoutePolicy policy,
                           AdmissionConfig admission, std::size_t queue_capacity)
    : dataset_(dataset),
      num_vertices_(dataset.num_vertices()),
      members_(static_cast<std::size_t>(std::max(num_replicas, 0))),
      policy_(policy),
      admission_(std::move(admission)),
      queue_capacity_(queue_capacity),
      num_lanes_(admission_.tenants.size()) {
  if (num_replicas < 1) throw std::invalid_argument("ReplicaGroup: need >= 1 replica");
  if (!factory) throw std::invalid_argument("ReplicaGroup: null replica factory");
  for (std::size_t r = 0; r < members_.size(); ++r) {
    members_[r].backend = factory(static_cast<int>(r));
    if (!members_[r].backend) throw std::invalid_argument("ReplicaGroup: factory returned null");
    replica_admitted_.with(static_cast<int>(r));  // series in replica order
  }
  {
    // Construction-time population still takes the lane lock: nothing can
    // contend yet, and it keeps the guarded-member accesses provable.
    util::MutexLock lock(stage_mutex_);
    for (const TenantSlo& slo : admission_.tenants) {
      // Every lane's series exist from the start, in tenant-id order.
      for (obs::CounterFamily* family : {&tenant_submitted_, &tenant_completed_, &tenant_shed_})
        family->with(static_cast<int>(lanes_.size()));
      TenantLane lane;
      lane.slo = slo;
      lane.bucket = TokenBucket(slo.rate_limit, slo.burst);
      lanes_.push_back(std::move(lane));
    }
  }
  window_ = admission_.dispatch_window != 0
                ? admission_.dispatch_window
                : 2 * static_cast<std::size_t>(std::max(1, concurrency()));
}

ReplicaGroup::~ReplicaGroup() { stop(); }

void ReplicaGroup::under_barrier(const std::function<void()>& mutate,
                                 const std::uint64_t* version) {
  util::MutexLock lock(mutex_);
  while (publishing_) cv_.wait(lock);  // one mutator at a time
  publishing_ = true;
  // Drain every admitted request first: member queues are empty once the
  // last slot is released, so nothing in flight straddles the mutation.
  while (slots_ != 0) cv_.wait(lock);
  // The closed barrier alone keeps admission out, so the members mutate
  // without the barrier lock held: a member's own locks are taken by its
  // workers before they release slots here, and holding mutex_ across the
  // member calls would invert that order.
  lock.unlock();
  mutate();
  lock.lock();
  if (version) {
    version_ = *version;
    publishes_.add();
  }
  publishing_ = false;
  cv_.notify_all();
}

void ReplicaGroup::publish(std::shared_ptr<const ModelSnapshot> snapshot) {
  if (!snapshot) throw std::invalid_argument("ReplicaGroup: null snapshot");
  const std::uint64_t version = snapshot->version();
  // The snapshot is immutable, so every replica serves the one copy.
  under_barrier(
      [&] {
        for (Member& m : members_) m.backend->publish(snapshot);
      },
      &version);
}

void ReplicaGroup::apply_graph_update(const std::function<void()>& apply,
                                      const GraphUpdateNotice& notice) {
  // The publish barrier, but version_ stays untouched — graph epochs are
  // orthogonal to snapshot versions. Sequential delivery, replica 0 with the
  // real apply.
  under_barrier(
      [&] {
        for (std::size_t r = 0; r < members_.size(); ++r)
          members_[r].backend->apply_graph_update(r == 0 ? apply : std::function<void()>{},
                                                  notice);
      },
      /*version=*/nullptr);
}

std::shared_ptr<const ModelSnapshot> ReplicaGroup::snapshot() const {
  return members_.front().backend->snapshot();
}

void ReplicaGroup::start() {
  for (Member& m : members_) m.backend->start();
}

void ReplicaGroup::stop() {
  for (Member& m : members_) m.backend->stop();
}

void ReplicaGroup::check_request(vid_t vertex, tenant_t tenant) const {
  if (vertex < 0 || vertex >= num_vertices_)
    throw std::out_of_range("ReplicaGroup: vertex id out of range");
  if (num_lanes_ != 0 && (tenant < 0 || static_cast<std::size_t>(tenant) >= num_lanes_))
    throw std::out_of_range("ReplicaGroup: unknown tenant id");
}

bool ReplicaGroup::submit(vid_t vertex, const RequestMeta& meta, Done done) {
  check_request(vertex, meta.tenant);
  reserve(1);
  return admit(vertex, meta, std::move(done));
}

std::vector<std::optional<InferResult>> ReplicaGroup::infer_batch(
    std::span<const vid_t> vertices, const RequestMeta& meta) {
  for (const vid_t v : vertices) check_request(v, meta.tenant);
  // Reserve the whole batch's slots atomically: a publish has to wait until
  // every request below completes, so all admitted answers come from one
  // snapshot version.
  reserve(vertices.size());
  return submit_all(vertices, meta, [this](vid_t v, const RequestMeta& m, Done done) {
    return admit(v, m, std::move(done));
  });
}

bool ReplicaGroup::admit(vid_t vertex, const RequestMeta& meta, Done done) {
  submitted_.add();
  return tenant_mode() ? stage(vertex, meta, std::move(done))
                       : route(vertex, meta, std::move(done));
}

bool ReplicaGroup::deadline_unmeetable(ServeClock::time_point deadline,
                                       ServeClock::time_point now, double mean_service,
                                       double depth, double workers) const {
  if (deadline <= now) return true;
  // No service estimate yet (nothing completed): nothing to shed on.
  if (mean_service <= 0) return false;
  // Queued work ahead of us spread over the service loops, plus our own
  // service. Estimates come from the observed service rate, so the
  // controller self-calibrates to the model and host.
  const double estimate = mean_service * (depth / workers + 1.0) * admission_.estimate_margin;
  return now + std::chrono::duration_cast<ServeClock::duration>(
                   std::chrono::duration<double>(estimate)) >
         deadline;
}

bool ReplicaGroup::route(vid_t vertex, const RequestMeta& meta, Done done) {
  const int r = pick_replica();
  Member& target = members_[static_cast<std::size_t>(r)];
  obs::Counter* shed_reason = nullptr;
  if (admission_.shed_deadlines && meta.deadline != ServeClock::time_point::max() &&
      deadline_unmeetable(meta.deadline, ServeClock::now(), target.backend->mean_service_seconds(),
                          static_cast<double>(target.outstanding.load(std::memory_order_relaxed)),
                          static_cast<double>(target.backend->concurrency()))) {
    shed_reason = &shed_deadline_;
  } else if (meta.priority == Priority::kLow && admission_.low_priority_depth > 0 &&
             target.backend->queue_depth() >= admission_.low_priority_depth) {
    // Priority lane: past the watermark, low-priority work sheds so the
    // burst headroom goes to the high lane.
    shed_reason = &shed_priority_;
  } else {
    bool ok = false;
    try {
      ok = dispatch(r, vertex, meta, std::move(done));
    } catch (...) {
      release();  // an exotic throw must not leave publish() waiting on this slot
      throw;
    }
    if (ok) return true;
    shed_reason = &shed_queue_full_;
  }
  shed_reason->add();
  release();
  return false;
}

bool ReplicaGroup::stage(vid_t vertex, RequestMeta meta, Done done) {
  // The first shed reason that fires wins; the slot is released after the
  // lock is dropped.
  obs::Counter* shed_reason = nullptr;
  {
    util::MutexLock lock(stage_mutex_);
    TenantLane& lane = lanes_[static_cast<std::size_t>(meta.tenant)];
    tenant_submitted_.with(meta.tenant).add();

    // Token-bucket budget first: an over-budget tenant sheds regardless of
    // system load — that is what keeps its overload out of everyone's queues.
    const auto now = ServeClock::now();
    if (!lane.bucket.try_take(now)) shed_reason = &shed_budget_;

    // The tenant's SLO deadline applies when the caller did not set one.
    if (meta.deadline == ServeClock::time_point::max() && lane.slo.deadline_seconds > 0)
      meta.deadline = deadline_after(lane.slo.deadline_seconds, now);

    // Deadline admission against the whole tier: work ahead of us is
    // everything staged or in flight, spread over the group's workers.
    const std::size_t ahead = inflight_ + total_staged_;
    if (!shed_reason && admission_.shed_deadlines &&
        meta.deadline != ServeClock::time_point::max() &&
        deadline_unmeetable(meta.deadline, now, mean_service_seconds(),
                            static_cast<double>(ahead),
                            static_cast<double>(std::max(1, concurrency()))))
      shed_reason = &shed_deadline_;

    if (!shed_reason && meta.priority == Priority::kLow && admission_.low_priority_depth > 0 &&
        ahead >= admission_.low_priority_depth)
      shed_reason = &shed_priority_;

    if (!shed_reason && lane.staged.size() >= lane.slo.stage_capacity)
      shed_reason = &shed_queue_full_;

    if (shed_reason) {
      shed_reason->add();
      tenant_shed_.with(meta.tenant).add();
    } else {
      lane.staged.push_back(Staged{vertex, meta, std::move(done)});
      ++total_staged_;
      pump_locked();
    }
  }
  if (shed_reason) {
    release();
    return false;
  }
  return true;
}

void ReplicaGroup::pump_locked() {
  while (inflight_ < window_ && total_staged_ > 0) {
    // Smooth weighted round-robin over the non-empty lanes: every candidate
    // gains its weight, the highest accumulator dispatches and pays back the
    // round's total — served shares converge to the weight ratio without
    // bursts (nginx's smooth-WRR).
    TenantLane* best = nullptr;
    double total = 0;
    for (TenantLane& lane : lanes_) {
      if (lane.staged.empty()) continue;
      lane.wrr_current += lane.slo.weight;
      total += lane.slo.weight;
      if (!best || lane.wrr_current > best->wrr_current) best = &lane;
    }
    if (!best) return;
    best->wrr_current -= total;

    Staged st = std::move(best->staged.front());
    best->staged.pop_front();
    --total_staged_;
    const tenant_t tenant = st.meta.tenant;
    ++inflight_;

    // The callback is recoverable on a bounce (shared_ptr), because submit()
    // consumes the std::function even when it returns false.
    auto done_ptr = std::make_shared<Done>(std::move(st.done));
    bool ok = false;
    try {
      ok = dispatch(pick_replica(), st.vertex, st.meta,
                    [this, tenant, done_ptr](InferResult&& result) {
                      if (*done_ptr) (*done_ptr)(std::move(result));
                      util::MutexLock relock(stage_mutex_);
                      tenant_completed_.with(tenant).add();
                      --inflight_;
                      pump_locked();
                    });
    } catch (...) {
      ok = false;
    }
    if (!ok) {
      --inflight_;
      if (inflight_ > 0) {
        // A completion will re-pump; park the request back at the front so
        // its lane keeps its weighted-fair position.
        st.done = std::move(*done_ptr);
        best->staged.push_front(std::move(st));
        ++total_staged_;
      } else {
        // Progress guarantee: with nothing in flight nobody would re-pump,
        // so the request sheds. Only reachable when a replica queue is
        // smaller than the dispatch window.
        shed_queue_full_.add();
        tenant_shed_.with(tenant).add();
        release();
      }
      return;
    }
  }
}

bool ReplicaGroup::dispatch(int r, vid_t vertex, const RequestMeta& meta, Done done) {
  Member& m = members_[static_cast<std::size_t>(r)];
  m.outstanding.fetch_add(1, std::memory_order_relaxed);
  bool ok = false;
  try {
    ok = m.backend->submit(vertex, meta,
                           [this, &m, done = std::move(done)](InferResult&& result) mutable {
                             m.outstanding.fetch_sub(1, std::memory_order_relaxed);
                             completed_.add();
                             if (done) done(std::move(result));
                             release();
                           });
  } catch (...) {
    m.outstanding.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
  if (!ok) {
    m.outstanding.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  admitted_.add();
  replica_admitted_.with(r).add();
  return true;
}

int ReplicaGroup::pick_replica() {
  const auto n = members_.size();
  if (n == 1) return 0;
  switch (policy_) {
    case RoutePolicy::kRoundRobin:
      return static_cast<int>(rr_next_.fetch_add(1, std::memory_order_relaxed) % n);
    case RoutePolicy::kLeastOutstanding: {
      std::size_t best = 0;
      std::uint64_t best_out = members_[0].outstanding.load(std::memory_order_relaxed);
      for (std::size_t r = 1; r < n; ++r) {
        const std::uint64_t out = members_[r].outstanding.load(std::memory_order_relaxed);
        if (out < best_out) {
          best = r;
          best_out = out;
        }
      }
      return static_cast<int>(best);
    }
    case RoutePolicy::kPowerOfTwo: {
      // Two independent draws from a lock-free splitmix stream, then the
      // replica with the shallower queue wins (first draw on ties).
      const std::uint64_t d = p2c_draws_.fetch_add(2, std::memory_order_relaxed);
      const auto a = static_cast<std::size_t>(splitmix64(admission_.seed ^ d) % n);
      const auto b = static_cast<std::size_t>(splitmix64(admission_.seed ^ (d + 1)) % n);
      return static_cast<int>(
          members_[b].backend->queue_depth() < members_[a].backend->queue_depth() ? b : a);
    }
  }
  return 0;
}

std::size_t ReplicaGroup::queue_depth() const {
  std::size_t depth = 0;
  for (const Member& m : members_) depth += m.backend->queue_depth();
  return depth;
}

void ReplicaGroup::drain() {
  for (Member& m : members_) m.backend->drain();
}

bool ReplicaGroup::accepting() const {
  for (const Member& m : members_)
    if (!m.backend->accepting()) return false;
  return true;
}

double ReplicaGroup::mean_service_seconds() const {
  // Unweighted mean of the members' own (cheap-by-contract) estimates: this
  // sits on the tenant admission path, so it must not materialize full
  // stats() snapshots per request.
  double total = 0;
  int observed = 0;
  for (const Member& m : members_) {
    const double mean = m.backend->mean_service_seconds();
    if (mean > 0) {
      total += mean;
      ++observed;
    }
  }
  return observed == 0 ? 0.0 : total / static_cast<double>(observed);
}

int ReplicaGroup::concurrency() const {
  int total = 0;
  for (const Member& m : members_) total += m.backend->concurrency();
  return total;
}

std::uint64_t ReplicaGroup::version() const {
  util::MutexLock lock(mutex_);
  return version_;
}

std::uint64_t ReplicaGroup::publishes() const { return publishes_.value(); }

AdmissionStats ReplicaGroup::admission_stats() const {
  AdmissionStats s;
  s.submitted = submitted_.value();
  s.admitted = admitted_.value();
  s.completed = completed_.value();
  s.shed_deadline = shed_deadline_.value();
  s.shed_priority = shed_priority_.value();
  s.shed_queue_full = shed_queue_full_.value();
  s.shed_budget = shed_budget_.value();
  replica_admitted_.for_each(
      [&](int, const obs::Counter& c) { s.admitted_per_replica.push_back(c.value()); });
  s.tenants = tenant_lanes(tenant_submitted_, tenant_completed_, tenant_shed_);
  return s;
}

BackendStats ReplicaGroup::stats() const {
  BackendStats g;
  for (const Member& m : members_) g.absorb(m.backend->stats());
  g.publishes = publishes();
  // Admission sheds happen before any member queue sees the request; fold
  // them into the one rejected counter (queue bounces the members count
  // themselves). The tenant lanes are the group's own edge lanes — none in
  // plain mode.
  g.rejected += shed_deadline_.value() + shed_priority_.value() + shed_budget_.value();
  g.tenants = tenant_lanes(tenant_submitted_, tenant_completed_, tenant_shed_);
  return g;
}

void ReplicaGroup::scrape(obs::MetricsSnapshot& out) const {
  metrics_.scrape(out);
  for (const Member& m : members_) m.backend->scrape(out);
}

void ReplicaGroup::collect_traces(std::vector<obs::Trace>& out) const {
  for (const Member& m : members_) m.backend->collect_traces(out);
}

void ReplicaGroup::configure_health(obs::HealthMonitor& monitor, const std::string& name) const {
  monitor.add_source(name, *this);
  if (queue_capacity_ > 0)
    monitor.add_queue_probe(name, [this] { return queue_depth(); }, queue_capacity_);
  monitor.add_barrier_probe(name, [this] { return publishing(); });
  for (std::size_t t = 0; t < admission_.tenants.size(); ++t) {
    const TenantSlo& slo = admission_.tenants[t];
    if (slo.deadline_seconds > 0)
      monitor.set_slo(static_cast<int>(t), slo.deadline_seconds, slo.slo_target);
  }
}

void ReplicaGroup::reserve(std::size_t n) {
  util::MutexLock lock(mutex_);
  while (publishing_) cv_.wait(lock);
  slots_ += n;
}

void ReplicaGroup::release() {
  util::MutexLock lock(mutex_);
  --slots_;
  if (slots_ == 0) cv_.notify_all();
}

}  // namespace distgnn::serve
