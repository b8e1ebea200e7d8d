#include "serve/model_registry.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/health.hpp"
#include "util/rng.hpp"

namespace distgnn::serve {

ModelRegistry::Entry& ModelRegistry::entry(tenant_t tenant) {
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= entries_.size())
    throw std::out_of_range("ModelRegistry: unknown tenant id");
  return *entries_[static_cast<std::size_t>(tenant)];
}

const ModelRegistry::Entry& ModelRegistry::entry(tenant_t tenant) const {
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= entries_.size())
    throw std::out_of_range("ModelRegistry: unknown tenant id");
  return *entries_[static_cast<std::size_t>(tenant)];
}

tenant_t ModelRegistry::add(TenantSlo slo, std::unique_ptr<ServingBackend> backend) {
  if (!backend) throw std::invalid_argument("ModelRegistry: null backend");
  if (slo.name.empty()) throw std::invalid_argument("ModelRegistry: tenant needs a name");
  if (find(slo.name)) throw std::invalid_argument("ModelRegistry: duplicate name " + slo.name);
  auto e = std::make_unique<Entry>();
  e->bucket = TokenBucket(slo.rate_limit, slo.burst);
  // The tenant's series exist from registration on, zero until it serves.
  for (obs::CounterFamily* family : {&submitted_, &admitted_, &completed_, &shed_})
    family->with(static_cast<int>(entries_.size()));
  e->slo = std::move(slo);
  e->backend = std::move(backend);
  if (started_) e->backend->start();
  entries_.push_back(std::move(e));
  return static_cast<tenant_t>(entries_.size() - 1);
}

tenant_t ModelRegistry::add_server(TenantSlo slo, const Dataset& dataset,
                                   const ServeConfig& config) {
  return add(std::move(slo), std::make_unique<InferenceServer>(dataset, config));
}

std::optional<tenant_t> ModelRegistry::find(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i]->slo.name == name) return static_cast<tenant_t>(i);
  return std::nullopt;
}

void ModelRegistry::publish(tenant_t tenant, std::shared_ptr<const ModelSnapshot> snapshot) {
  entry(tenant).backend->publish(std::move(snapshot));
}

void ModelRegistry::start() {
  if (started_) return;
  for (auto& e : entries_) e->backend->start();
  started_ = true;
}

void ModelRegistry::stop() {
  if (!started_) return;
  for (auto& e : entries_) e->backend->stop();
  started_ = false;
}

RequestMeta ModelRegistry::make_meta(const Entry& e, tenant_t tenant) const {
  RequestMeta meta;
  if (e.slo.deadline_seconds > 0) meta.deadline = deadline_after(e.slo.deadline_seconds);
  meta.priority = e.slo.priority;
  meta.tenant = tenant;
  return meta;
}

bool ModelRegistry::submit(tenant_t tenant, vid_t vertex,
                           std::function<void(InferResult&&)> done) {
  Entry& e = entry(tenant);
  bool ok = false;
  {
    util::MutexLock lock(e.admission_mutex);
    ok = e.bucket.try_take(ServeClock::now());  // false: budget shed
  }
  if (ok) {
    ok = e.backend->submit(
        vertex, make_meta(e, tenant),
        [this, tenant, user_done = std::move(done)](InferResult&& result) mutable {
          // Count before the user callback so a blocking caller that wakes
          // inside it observes its own completion in stats().
          completed_.with(tenant).add();
          if (user_done) user_done(std::move(result));
        });
  }
  // Counted once the outcome is known, so every submitted request is
  // admitted or shed (a call that throws is not a request).
  submitted_.with(tenant).add();
  (ok ? admitted_ : shed_).with(tenant).add();
  return ok;
}

InferResult ModelRegistry::infer_sync(tenant_t tenant, vid_t vertex) {
  util::Mutex mutex;
  util::CondVar cv;
  bool ready = false;
  InferResult out;
  for (;;) {
    const bool ok = submit(tenant, vertex, [&](InferResult&& result) {
      util::MutexLock lock(mutex);
      out = std::move(result);
      ready = true;
      cv.notify_all();
    });
    if (ok) break;
    if (!entry(tenant).backend->accepting())
      throw std::runtime_error("ModelRegistry: backend stopped while inferring");
    // Closed-loop backpressure: a budget shed or full queue means wait, not
    // fail (the bucket refills continuously).
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  util::MutexLock lock(mutex);
  while (!ready) cv.wait(lock);
  return out;
}

std::vector<std::optional<InferResult>> ModelRegistry::infer_batch(
    tenant_t tenant, std::span<const vid_t> vertices) {
  Entry& e = entry(tenant);
  const std::size_t n = vertices.size();
  // Charge the budget up front; the admitted prefix proceeds as one batch
  // under the backend's admission epoch.
  std::size_t affordable = 0;
  {
    util::MutexLock lock(e.admission_mutex);
    const auto now = ServeClock::now();
    while (affordable < n && e.bucket.try_take(now)) ++affordable;
  }
  std::vector<std::optional<InferResult>> results(n);
  std::uint64_t got = 0;
  if (affordable > 0) {
    auto answered = e.backend->infer_batch(vertices.first(affordable), make_meta(e, tenant));
    for (std::size_t i = 0; i < answered.size(); ++i) {
      if (!answered[i]) continue;
      results[i] = std::move(answered[i]);
      ++got;
    }
  }
  submitted_.with(tenant).add(n);
  admitted_.with(tenant).add(got);
  completed_.with(tenant).add(got);
  shed_.with(tenant).add(n - got);
  return results;
}

BackendStats ModelRegistry::stats() const {
  BackendStats s;
  s.label = "registry";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    BackendStats child = entries_[i]->backend->stats();
    child.label = entries_[i]->slo.name;
    s.absorb(std::move(child));
  }
  // The registry edge is the authoritative per-tenant accounting: backends
  // only ever see admitted traffic, so their lanes undercount sheds.
  s.tenants = tenant_lanes(submitted_, completed_, shed_);
  return s;
}

void ModelRegistry::scrape(obs::MetricsSnapshot& out) const {
  metrics_.scrape(out);
  for (const auto& e : entries_) e->backend->scrape(out);
}

void ModelRegistry::collect_traces(std::vector<obs::Trace>& out) const {
  for (const auto& e : entries_) e->backend->collect_traces(out);
}

void ModelRegistry::configure_health(obs::HealthMonitor& monitor,
                                     const std::string& name) const {
  monitor.add_source(name, *this);
  for (std::size_t t = 0; t < entries_.size(); ++t) {
    const TenantSlo& slo = entries_[t]->slo;
    if (slo.deadline_seconds > 0)
      monitor.set_slo(static_cast<int>(t), slo.deadline_seconds, slo.slo_target);
  }
}

obs::HealthConfig make_health_config(const TierConfig& config) {
  obs::HealthConfig health;
  health.scrape_period_seconds = config.health_scrape_period_seconds;
  health.burn_fast_window_seconds = config.health_fast_window_seconds;
  health.burn_slow_window_seconds = config.health_slow_window_seconds;
  return health;
}

std::vector<LoadReport> run_registry_open_loop(ModelRegistry& registry,
                                               std::span<const TenantStream> streams) {
  // Draw every stream's schedule and targets up front, then run one thread
  // per stream from one shared t=0 so the K arrival processes genuinely
  // overlap.
  std::vector<std::vector<double>> offsets;
  std::vector<std::vector<vid_t>> targets;
  for (const TenantStream& stream : streams) {
    offsets.push_back(generate_arrivals(stream.arrivals, stream.num_requests));
    const auto num_vertices = static_cast<std::uint64_t>(
        registry.backend(stream.tenant).dataset().num_vertices());
    Rng rng(stream.seed);
    std::vector<vid_t>& mine = targets.emplace_back();
    mine.reserve(stream.num_requests);
    for (std::size_t i = 0; i < stream.num_requests; ++i)
      mine.push_back(static_cast<vid_t>(rng.next_below(num_vertices)));
  }

  std::vector<LoadReport> reports(streams.size());
  const auto begin = ServeClock::now();
  std::vector<std::thread> threads;
  for (std::size_t si = 0; si < streams.size(); ++si) {
    threads.emplace_back([&, si] {
      const tenant_t tenant = streams[si].tenant;
      reports[si] = run_open_loop_core(
          registry.backend(tenant), offsets[si], begin,
          [&](std::size_t i, std::function<void(InferResult&&)> done) {
            return registry.submit(tenant, targets[si][i], std::move(done));
          });
      reports[si].label = registry.slo(tenant).name;
    });
  }
  for (std::thread& t : threads) t.join();
  return reports;
}

}  // namespace distgnn::serve
