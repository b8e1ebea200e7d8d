#include "serve/sharded_server.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <thread>

#include "partition/partition_setup.hpp"
#include "serve/prefetch.hpp"

namespace distgnn::serve {

namespace {

/// Idle-poll interval: long enough not to burn a core per idle rank, short
/// enough that a peer's halo request never stalls meaningfully behind it.
constexpr auto kIdlePoll = std::chrono::microseconds(20);

}  // namespace

std::vector<part_t> vertex_owners(const EdgeList& edges, const EdgePartition& partition,
                                  vid_t num_vertices) {
  const PartitionedGraph pg = build_partitions(edges, partition);
  std::vector<part_t> owners(static_cast<std::size_t>(num_vertices), kInvalidPart);
  for (const LocalPartition& part : pg.parts)
    for (std::size_t li = 0; li < part.global_ids.size(); ++li)
      if (part.owns_label[li]) owners[static_cast<std::size_t>(part.global_ids[li])] = part.id;
  for (std::size_t v = 0; v < owners.size(); ++v)
    if (owners[v] == kInvalidPart)
      owners[v] = static_cast<part_t>(v % static_cast<std::size_t>(partition.num_parts));
  return owners;
}

ShardedServer::ShardedServer(const Dataset& dataset, const EdgePartition& partition,
                             ShardedServeConfig config)
    : dataset_(dataset),
      config_(std::move(config)),
      num_parts_(partition.num_parts),
      life_(dataset, config_, partition.num_parts, "ShardedServer", "sharded"),
      world_(partition.num_parts) {
  if (num_parts_ < 1) throw std::invalid_argument("ShardedServer: need >= 1 partition part");
  if (config_.prefetch_depth < 1)
    throw std::invalid_argument("ShardedServer: prefetch_depth must be >= 1");

  owner_ = vertex_owners(dataset_.graph.coo(), partition, dataset_.num_vertices());

  // Materialize each rank's feature shard: only owned rows — the rest of the
  // feature store is reachable solely through the halo protocol.
  const std::size_t f = static_cast<std::size_t>(dataset_.feature_dim());
  local_index_.resize(static_cast<std::size_t>(num_parts_));
  local_feats_.resize(static_cast<std::size_t>(num_parts_));
  std::vector<std::vector<vid_t>> owned(static_cast<std::size_t>(num_parts_));
  for (vid_t v = 0; v < dataset_.num_vertices(); ++v)
    owned[static_cast<std::size_t>(owner_[static_cast<std::size_t>(v)])].push_back(v);
  for (part_t p = 0; p < num_parts_; ++p) {
    auto& ids = owned[static_cast<std::size_t>(p)];
    DenseMatrix& rows = local_feats_[static_cast<std::size_t>(p)];
    rows.resize_discard(ids.size(), f);
    for (std::size_t li = 0; li < ids.size(); ++li) {
      const real_t* src = dataset_.features.row(static_cast<std::size_t>(ids[li]));
      std::copy(src, src + f, rows.row(li));
      local_index_[static_cast<std::size_t>(p)].emplace(ids[li], li);
    }
  }
}

ShardedServer::~ShardedServer() { stop(); }

void ShardedServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  life_.open();
  done_ranks_.store(0, std::memory_order_release);
  driver_ = std::thread([this] { world_.run([this](Communicator& comm) { rank_loop(comm); }); });
  running_.store(true, std::memory_order_release);
}

void ShardedServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  life_.close();  // no new admissions; drain the rest
  driver_.join();
  running_.store(false, std::memory_order_release);
}

bool ShardedServer::submit(vid_t vertex, const RequestMeta& meta,
                           std::function<void(InferResult&&)> done) {
  InferRequest request = life_.make_request(vertex, meta, std::move(done));  // range-checks
  return life_.admit(owner_[static_cast<std::size_t>(vertex)], std::move(request));
}

void ShardedServer::apply_graph_update(const std::function<void()>& apply,
                                       const GraphUpdateNotice& notice) {
  // Pause rendezvous (live server only): raise the flag, wait until every
  // rank has drained its ring and parked. Classic ranks keep answering halo
  // requests while parked, so slower ranks can always finish draining.
  const bool live = running_.load(std::memory_order_acquire);
  if (live) {
    pause_flag_.store(true, std::memory_order_release);
    util::MutexLock lock(pause_mutex_);
    while (paused_ranks_ != num_parts_) pause_cv_.wait(lock);
  }

  if (apply) apply();

  // Re-materialize updated feature rows into their owners' local shards.
  // Ownership is structural (vertex-cut of the edge set) and we do not
  // re-home vertices on delta, so every updated row already has a slot.
  const std::size_t f = static_cast<std::size_t>(dataset_.feature_dim());
  for (const vid_t v : notice.features) {
    const part_t p = owner_[static_cast<std::size_t>(v)];
    const auto& index = local_index_[static_cast<std::size_t>(p)];
    const auto it = index.find(v);
    if (it == index.end()) continue;  // vertex added after construction: served via halo/cache
    const real_t* src = dataset_.features.row(static_cast<std::size_t>(v));
    std::copy(src, src + f, local_feats_[static_cast<std::size_t>(p)].row(it->second));
  }

  life_.apply_notice(notice);  // per-rank caches, then the new epoch

  if (live) {
    pause_flag_.store(false, std::memory_order_release);
    util::MutexLock lock(pause_mutex_);
    while (paused_ranks_ != 0) pause_cv_.wait(lock);
  }
}

void ShardedServer::park_for_update(HaloFetcher* fetcher) {
  util::MutexLock lock(pause_mutex_);
  ++paused_ranks_;
  pause_cv_.notify_all();
  while (pause_flag_.load(std::memory_order_acquire)) {
    lock.unlock();
    if (fetcher) fetcher->service_peers();
    std::this_thread::sleep_for(kIdlePoll);
    lock.lock();
  }
  --paused_ranks_;
  pause_cv_.notify_all();
}

void ShardedServer::leave_together(HaloFetcher* fetcher) {
  done_ranks_.fetch_add(1, std::memory_order_acq_rel);
  while (done_ranks_.load(std::memory_order_acquire) < num_parts_) {
    if (fetcher) fetcher->service_peers();
    std::this_thread::sleep_for(kIdlePoll);
  }
}

void ShardedServer::rank_loop(Communicator& comm) {
  const part_t me = static_cast<part_t>(comm.rank());
  if (config_.embed_forward)
    run_embed_rank(me);
  else
    run_classic_rank(comm, me);
}

void ShardedServer::run_classic_rank(Communicator& comm, part_t me) {
  BoundedRequestQueue& queue = life_.queue(me);
  HaloFetcher fetcher(comm, owner_, local_feats_[static_cast<std::size_t>(me)],
                      local_index_[static_cast<std::size_t>(me)], life_.feature_cache(me));
  ForwardScratch scratch;
  DenseMatrix logits;

  // Ring of in-flight halo batches. A slot holds everything a batch needs
  // between begin_fetch and its forward; slots recycle so steady state never
  // allocates. The snapshot is pinned at admission, so a hot-swap never
  // tears a batch.
  struct Slot {
    HaloBatch halo;
    std::vector<InferRequest> requests;
    std::shared_ptr<const ModelSnapshot> snapshot;
    ServeClock::time_point service_begin;
    ServeClock::time_point sample_end;  // sampling done; halo_wait starts here
  };
  const int depth = config_.prefetch_depth;
  std::vector<Slot> slots(static_cast<std::size_t>(depth));
  std::vector<Slot*> free_slots;
  for (Slot& slot : slots) free_slots.push_back(&slot);
  std::deque<Slot*> in_flight;

  const auto admit_next = [&]() -> bool {
    if (free_slots.empty()) return false;
    std::vector<InferRequest> batch = queue.try_pop_batch(config_.max_batch);
    if (batch.empty()) return false;
    Slot* slot = free_slots.back();
    free_slots.pop_back();
    slot->requests = std::move(batch);
    slot->snapshot = life_.snapshot();
    slot->service_begin = ServeClock::now();
    life_.sample(slot->requests, *slot->snapshot, slot->halo.minibatches);
    slot->sample_end = ServeClock::now();
    fetcher.begin_fetch(slot->halo);
    in_flight.push_back(slot);
    return true;
  };

  while (true) {
    fetcher.service_peers();
    const bool pausing = pause_flag_.load(std::memory_order_acquire);
    // Keep the ring full: batches N+1..N+depth-1 have their halo requests
    // riding the wire (and the peers' service loops) while batch N's
    // forward runs below. A pending pause stops admission so the ring
    // drains to the rendezvous at a batch boundary, where no halo message
    // is in flight and the updater can mutate local_feats_.
    while (!pausing && static_cast<int>(in_flight.size()) < depth && admit_next()) {
    }
    if (in_flight.empty()) {
      if (pausing) {
        park_for_update(&fetcher);
        continue;
      }
      // Exit only once the queue is closed AND drained: a stop flag alone
      // would race a producer whose try_push lands between our emptiness
      // check and stop()'s close(), stranding an admitted request forever.
      if (queue.closed() && queue.size() == 0) break;
      std::this_thread::sleep_for(kIdlePoll);
      continue;
    }
    Slot* slot = in_flight.front();
    in_flight.pop_front();
    fetcher.finish_fetch(slot->halo);  // FIFO channels: finish in begin order
    // halo_wait spans begin_fetch -> finish_fetch return: ring residency
    // while peers reply (the time prefetch overlaps away) plus any blocked
    // tail — exactly the window a request spends waiting on remote rows.
    const auto halo_end = ServeClock::now();
    slot->snapshot->forward_batch(slot->halo.minibatches, slot->halo.inputs.cview(), scratch,
                                  logits);
    const auto forward_end = ServeClock::now();
    obs::BatchStageTimes stages;
    stages.sample = obs::make_span(slot->service_begin, slot->sample_end);
    stages.halo_wait = obs::make_span(slot->sample_end, halo_end);
    stages.forward = obs::make_span(halo_end, forward_end);
    const HaloFetchStats halo = fetcher.take_stats();
    life_.finish(me, slot->requests, logits, slot->snapshot->version(), slot->service_begin,
                 stages, &halo);
    slot->snapshot.reset();
    free_slots.push_back(slot);
  }
  leave_together(&fetcher);
}

void ShardedServer::run_embed_rank(part_t me) {
  // Embed mode exchanges no halo messages — layer-0 rows come through the
  // shared in-process feature store via the rank's feature cache — so the
  // loop is a plain poll over the queue.
  BoundedRequestQueue& queue = life_.queue(me);
  RequestLifecycle::EmbedWorker worker = life_.embed_worker(me);
  while (true) {
    if (pause_flag_.load(std::memory_order_acquire)) {
      park_for_update(nullptr);
      continue;
    }
    std::vector<InferRequest> batch = queue.try_pop_batch(config_.max_batch);
    if (batch.empty()) {
      if (queue.closed() && queue.size() == 0) break;  // see run_classic_rank
      std::this_thread::sleep_for(kIdlePoll);
      continue;
    }
    life_.serve_embed(me, batch, worker);
  }
  leave_together(nullptr);
}

}  // namespace distgnn::serve
