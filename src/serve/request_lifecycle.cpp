#include "serve/request_lifecycle.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "serve/prefetch.hpp"

namespace distgnn::serve {

namespace {

double seconds_between(ServeClock::time_point begin, ServeClock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

}  // namespace

Rng request_rng(std::uint64_t sample_seed, vid_t vertex) {
  // splitmix64 over the vertex id, xored into the base seed: adjacent vertex
  // ids get uncorrelated streams, and the stream depends only on (seed,
  // vertex) — never on batch composition, worker id, or serving mode.
  return Rng(sample_seed ^ splitmix64(static_cast<std::uint64_t>(vertex)));
}

RequestLifecycle::RequestLifecycle(const Dataset& dataset, const TierConfig& config,
                                   int num_lanes, std::string name, const std::string& layer)
    : dataset_(dataset),
      config_(config),
      name_(std::move(name)),
      num_vertices_(dataset.num_vertices()),
      stage_metrics_(metrics_, layer) {
  if (config_.max_batch < 1) throw std::invalid_argument(name_ + ": max_batch must be >= 1");
  if (config_.fanouts.empty()) throw std::invalid_argument(name_ + ": fanouts empty");
  const std::size_t f = static_cast<std::size_t>(dataset_.feature_dim());
  const auto lane_counter = [&](const std::string& name, int l) {
    return &metrics_.counter("distgnn_" + layer + "_" + name + "_total",
                             {{"lane", std::to_string(l)}});
  };
  for (int l = 0; l < num_lanes; ++l) {
    Lane& lane = *lanes_.emplace_back(std::make_unique<Lane>(
        config_.queue_capacity, config_.cache_bytes, f, config_.cache_shards));
    lane.batches = lane_counter("batches", l);
    lane.service_ns = lane_counter("service_nanoseconds", l);
    lane.halo_rows = lane_counter("halo_rows", l);
    lane.halo_bytes = lane_counter("halo_bytes", l);
    lane.halo_wait_ns = lane_counter("halo_wait_nanoseconds", l);
  }
  {
    util::MutexLock lock(embed_mutex_);
    embed_caches_.resize(lanes_.size());
  }
  // Hot-swap hygiene for the layer-output caches: entries are version-keyed
  // (stale rows can never match), so a publish only frees the dead version's
  // slots immediately.
  holder_.set_on_publish([this](std::uint64_t) {
    util::MutexLock lock(embed_mutex_);
    for (auto& cache : embed_caches_)
      if (cache) cache->invalidate();
  });
  // Build the CSR once, before any serving thread shares it.
  (void)dataset_.graph.in_csr();
}

void RequestLifecycle::publish(std::shared_ptr<const ModelSnapshot> snapshot) {
  const auto invalid = [&](const char* what) { return std::invalid_argument(name_ + ": " + what); };
  if (!snapshot) throw invalid("null snapshot");
  const ModelSpec& spec = snapshot->spec();
  if (spec.num_layers != static_cast<int>(config_.fanouts.size()))
    throw invalid("fanouts depth != model layers");
  if (spec.feature_dim != dataset_.feature_dim())
    throw invalid("snapshot feature_dim != dataset");
  if (spec.kind == ModelKind::kRgcn) {
    // Relational models need typed edges: the dataset must carry a per-edge
    // relation label matching the snapshot's relation count, and RGCN has no
    // layer-cached embed-forward path.
    if (dataset_.num_edge_types != spec.num_relations)
      throw invalid("snapshot num_relations != dataset edge types");
    if (config_.embed_forward) throw invalid("embed_forward does not support RGCN");
  }
  if (config_.embed_forward && config_.embed_cache_bytes > 0) {
    util::MutexLock lock(embed_mutex_);
    if (!embed_caches_.front()) {
      // The first publish fixes the cached row widths. The budget is split
      // across lanes, so a sharded tier holds what one server would; entries
      // per layer are capped at the vertex count — the whole key population,
      // since publish invalidation keeps a single version resident.
      const std::uint64_t per_lane =
          std::max<std::uint64_t>(1, config_.embed_cache_bytes / embed_caches_.size());
      for (auto& cache : embed_caches_)
        cache = std::make_unique<EmbedCache>(spec, per_lane, config_.embed_cache_shards,
                                             static_cast<std::uint64_t>(num_vertices_));
    } else {
      for (int l = 1; l <= spec.num_layers; ++l)
        if (embed_caches_.front()->dim(l) != spec.out_dim(l - 1))
          throw invalid("snapshot dims != embed cache dims");
    }
  }
  holder_.publish(std::move(snapshot));
}

void RequestLifecycle::open() {
  if (!holder_.get()) throw std::logic_error(name_ + ": start() before publish()");
  for (auto& lane : lanes_) lane->queue.reopen();
}

void RequestLifecycle::close() {
  for (auto& lane : lanes_) lane->queue.close();
}

InferRequest RequestLifecycle::make_request(vid_t vertex, const RequestMeta& meta,
                                            std::function<void(InferResult&&)> done) {
  if (vertex < 0 || vertex >= num_vertices_)
    throw std::out_of_range(name_ + ": vertex id out of range");
  InferRequest request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.vertex = vertex;
  request.enqueue = ServeClock::now();
  request.deadline = meta.deadline;
  request.priority = meta.priority;
  request.tenant = meta.tenant;
  request.done = std::move(done);
  if (meta.trace) {
    request.trace = meta.trace;
  } else if (config_.trace_sample_rate > 0 &&
             obs::trace_sampled(request.id, meta.tenant, config_.trace_sample_rate)) {
    request.trace = std::make_shared<obs::TraceContext>(
        request.id, meta.tenant, static_cast<std::int64_t>(vertex), request.enqueue);
  }
  return request;
}

bool RequestLifecycle::admit(int lane, InferRequest request, bool blocking) {
  const tenant_t tenant = request.tenant;
  const auto enqueue = request.enqueue;
  // Trace stamping happens entirely before the push: the request is moved
  // into the queue, and a post-push write would race the popping thread.
  const auto pre_push = ServeClock::now();
  if (request.trace) {
    request.trace->set_stage(obs::Stage::kAdmit, enqueue, pre_push);
    request.trace->begin_stage(obs::Stage::kQueue, pre_push);
  }
  // Admitted is counted before the push so a drain() that starts after this
  // call returns can never miss the request (the rejection path undoes it).
  admitted_.fetch_add(1, std::memory_order_release);
  BoundedRequestQueue& queue = lane_at(lane).queue;
  stage_metrics_.submitted.with(tenant).add();
  if (blocking ? queue.push(std::move(request)) : queue.try_push(std::move(request))) {
    stage_metrics_.observe_stage(obs::Stage::kAdmit, tenant, seconds_between(enqueue, pre_push));
    return true;
  }
  admitted_.fetch_sub(1, std::memory_order_release);
  stage_metrics_.shed.with(tenant).add();
  return false;
}

std::size_t RequestLifecycle::sample(const std::vector<InferRequest>& batch,
                                     const ModelSnapshot& snapshot,
                                     std::vector<MiniBatch>& out) const {
  // Read the CSR per batch: a graph delta swaps dataset_.graph while every
  // reader is held off, so a reference kept across batches would dangle.
  const CsrMatrix& in_csr = dataset_.graph.in_csr();
  // Relational snapshots need each sampled edge's relation label; the typed
  // sampler draws the identical RNG stream, so SAGE/GAT answers are
  // unaffected by the dataset carrying edge types.
  const std::vector<int>* edge_types =
      snapshot.spec().kind == ModelKind::kRgcn ? &dataset_.edge_types : nullptr;
  // Independent per-request plans: a batch is a stacking of single-request
  // plans, so its answers are bitwise those of per-request serving.
  out.clear();
  std::size_t input_rows = 0;
  for (const InferRequest& request : batch) {
    Rng rng = request_rng(config_.sample_seed, request.vertex);
    const vid_t seed[1] = {request.vertex};
    out.push_back(sample_minibatch(in_csr, seed, config_.fanouts, rng, edge_types));
    input_rows += out.back().input_vertices.size();
  }
  return input_rows;
}

RequestLifecycle::EmbedWorker RequestLifecycle::embed_worker(int lane) {
  // A server starts only after a publish, so the lane's embed cache pointer
  // is stable for the whole life of the serving loop.
  return EmbedWorker{EmbedForward(dataset_, config_.fanouts, config_.sample_seed,
                                  embed_cache(lane), &feature_cache(lane)),
                     {},
                     {}};
}

void RequestLifecycle::serve_embed(int lane, std::vector<InferRequest>& batch,
                                   EmbedWorker& worker) {
  const auto service_begin = ServeClock::now();
  const std::shared_ptr<const ModelSnapshot> snapshot = holder_.get();
  worker.seeds.clear();
  for (const InferRequest& request : batch) worker.seeds.push_back(request.vertex);
  worker.evaluator.infer(*snapshot, worker.seeds, worker.logits, graph_epoch());
  // EmbedForward samples and computes per (vertex, layer) internally, so the
  // whole evaluation is one embed_lookup window.
  obs::BatchStageTimes stages;
  stages.embed_lookup = obs::make_span(service_begin, ServeClock::now());
  finish(lane, batch, worker.logits, snapshot->version(), service_begin, stages);
}

void RequestLifecycle::finish(int lane, std::vector<InferRequest>& batch,
                              const DenseMatrix& logits, std::uint64_t snapshot_version,
                              ServeClock::time_point service_begin,
                              const obs::BatchStageTimes& stages, const HaloFetchStats* halo) {
  const std::pair<obs::Stage, const obs::Span*> windows[] = {
      {obs::Stage::kSample, &stages.sample},
      {obs::Stage::kHaloWait, &stages.halo_wait},
      {obs::Stage::kEmbedLookup, &stages.embed_lookup},
      {obs::Stage::kForward, &stages.forward}};
  const auto now = ServeClock::now();
  auto reply_begin = now;  // each request's reply window starts where the previous ended
  for (std::size_t r = 0; r < batch.size(); ++r) {
    InferRequest& request = batch[r];
    InferResult result;
    result.request_id = request.id;
    result.vertex = request.vertex;
    result.logits.assign(logits.row(r), logits.row(r) + logits.cols());
    result.latency_seconds = seconds_between(request.enqueue, now);
    result.snapshot_version = snapshot_version;
    result.tenant = request.tenant;

    // Batch-level stage windows, stamped per request: the queue ended when
    // the batch was popped; sample / halo_wait / forward (or embed_lookup)
    // are the batch windows every rider shares.
    stage_metrics_.observe_stage(obs::Stage::kQueue, request.tenant,
                                 seconds_between(request.enqueue, service_begin));
    for (const auto& [stage, span] : windows)
      if (span->valid())
        stage_metrics_.observe_stage(stage, request.tenant, span->duration_seconds());
    if (request.trace) {
      obs::TraceContext& trace = *request.trace;
      trace.end_stage(obs::Stage::kQueue, service_begin);
      for (const auto& [stage, span] : windows)
        if (span->valid()) trace.set_stage(stage, *span);
      // The trace's reply span starts at batch finish, not at the chained
      // window: for a later rider the wait on its predecessors' callbacks is
      // part of its end-to-end reply latency, and the spans must cover the
      // measured total. The histogram below keeps the chained (marginal)
      // window so per-request reply costs still sum to the batch's.
      trace.begin_stage(obs::Stage::kReply, now);
    }

    if (request.done) request.done(std::move(result));
    const auto reply_end = ServeClock::now();
    stage_metrics_.observe_stage(obs::Stage::kReply, request.tenant,
                                 seconds_between(reply_begin, reply_end));
    stage_metrics_.request_seconds.with(request.tenant)
        .observe(seconds_between(request.enqueue, reply_end));
    stage_metrics_.completed.with(request.tenant).add();
    if (request.trace) {
      request.trace->end_stage(obs::Stage::kReply, reply_end);
      trace_sink_.publish(request.trace->finish(reply_end));
    }
    reply_begin = reply_end;
  }

  Lane& counters = lane_at(lane);
  counters.service_ns->add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(ServeClock::now() - service_begin)
          .count()));
  counters.batches->add();
  std::uint64_t seen = counters.max_batch_seen.load(std::memory_order_relaxed);
  while (batch.size() > seen && !counters.max_batch_seen.compare_exchange_weak(
                                    seen, batch.size(), std::memory_order_relaxed)) {
  }
  if (halo) {
    counters.halo_rows->add(halo->halo_rows_fetched);
    counters.halo_bytes->add(halo->halo_bytes);
    counters.halo_wait_ns->add(static_cast<std::uint64_t>(halo->wait_seconds * 1e9));
  }
  // The drain() signal goes last, with release, after every callback ran.
  counters.completed.fetch_add(batch.size(), std::memory_order_release);
}

void RequestLifecycle::drain() const {
  // Quiesce: everything admitted so far has completed. Polling keeps the
  // completion path free of extra synchronization; drains are rare (publish
  // barriers, shutdown) while completions are the hot path. The acquire
  // loads pair with finish()'s release, ordering the callbacks' writes
  // before drain() returns.
  const auto completed = [this] {
    std::uint64_t sum = 0;
    for (const auto& lane : lanes_) sum += lane->completed.load(std::memory_order_acquire);
    return sum;
  };
  while (completed() < admitted_.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::microseconds(50));
}

double RequestLifecycle::mean_service_seconds() const {
  // Cached counter handles only — this sits on the per-request admission
  // path, so it must not take the cache-stats locks a full stats() call
  // would, nor the registry's scrape lock.
  std::uint64_t completed = 0, service_ns = 0;
  for (const auto& lane : lanes_) {
    completed += lane->completed.load(std::memory_order_relaxed);
    service_ns += lane->service_ns->value();
  }
  return completed == 0 ? 0.0
                        : static_cast<double>(service_ns) * 1e-9 / static_cast<double>(completed);
}

std::size_t RequestLifecycle::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& lane : lanes_) depth += lane->queue.size();
  return depth;
}

EmbedCache* RequestLifecycle::embed_cache(int lane) const {
  util::MutexLock lock(embed_mutex_);
  return embed_caches_[static_cast<std::size_t>(lane)].get();
}

void RequestLifecycle::apply_notice(const GraphUpdateNotice& notice) {
  // Feature rows rewritten by the delta leave both cache spaces (a stale
  // halo copy is as wrong as a stale owned one), so the next gather refills
  // from the updated store; the layer-output caches take the targeted epoch
  // advance unless the notice asks for a full flush.
  for (int l = 0; l < static_cast<int>(lanes_.size()); ++l) {
    ShardedFeatureCache& cache = feature_cache(l);
    for (const vid_t v : notice.features) {
      cache.erase(/*space=*/0, static_cast<std::uint64_t>(v));
      cache.erase(/*space=*/1, static_cast<std::uint64_t>(v));
    }
    if (EmbedCache* embed = embed_cache(l)) {
      if (notice.full_flush)
        embed->invalidate();
      else
        embed->advance_epoch(notice.epoch, notice.dirty_layers);
    }
  }
  graph_epoch_.store(notice.epoch, std::memory_order_release);
}

BackendStats RequestLifecycle::lane_stats(int lane) const {
  const Lane& counters = lane_at(lane);
  BackendStats s;
  s.completed = counters.completed.load(std::memory_order_relaxed);
  s.batches = counters.batches->value();
  s.batched_requests = s.completed;  // every completion rode exactly one batch
  s.max_batch_seen = counters.max_batch_seen.load(std::memory_order_relaxed);
  s.service_seconds = static_cast<double>(counters.service_ns->value()) * 1e-9;
  s.halo_rows_fetched = counters.halo_rows->value();
  s.halo_bytes = counters.halo_bytes->value();
  s.halo_wait_seconds = static_cast<double>(counters.halo_wait_ns->value()) * 1e-9;
  s.queue_depth = counters.queue.size();
  s.feature_cache = counters.features.stats(/*space=*/0);
  s.halo_cache = counters.features.stats(/*space=*/1);
  if (const EmbedCache* cache = embed_cache(lane)) s.embed_cache = cache->combined_stats();
  return s;
}

BackendStats RequestLifecycle::stats(bool per_lane_children) const {
  BackendStats s;
  for (int l = 0; l < static_cast<int>(lanes_.size()); ++l) s.absorb(lane_stats(l));
  if (!per_lane_children) s.children.clear();
  s.publishes = holder_.num_publishes();
  // Tenant lanes, rejections and the latency histogram fold out of the
  // sharded metrics (acquire loads) — the lifecycle keeps no second set of
  // books. A rejection is a tenant shed.
  s.tenants =
      tenant_lanes(stage_metrics_.submitted, stage_metrics_.completed, stage_metrics_.shed);
  for (const TenantCounters& lane : s.tenants) s.rejected += lane.shed;
  stage_metrics_.request_seconds.for_each(
      [&](int, const obs::Histogram& h) { s.latency += h.snapshot(); });
  return s;
}

}  // namespace distgnn::serve
