// Single-process online inference server.
//
// A pool of worker threads pulls micro-batches off a bounded request queue,
// samples each request's k-hop neighbourhood (deterministically, seeded per
// vertex so a request's answer does not depend on which batch it landed in),
// gathers input features through the sharded LRU feature cache, and runs the
// stacked batch through the live ModelSnapshot in one pass. Snapshots are
// published through SnapshotHolder, so a new checkpoint can go live between
// batches while in-flight batches finish on the model they started with.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "graph/datasets.hpp"
#include "serve/backend.hpp"
#include "serve/request_lifecycle.hpp"
#include "serve/tier_config.hpp"
#include "util/sync.hpp"

namespace distgnn::serve {

/// Single-process server config: the shared tier knobs (batching, fanouts,
/// caches, sampling seed, embed mode — see serve/tier_config.hpp) plus the
/// worker-pool width.
struct ServeConfig : TierConfig {
  int num_workers = 2;
};

class InferenceServer : public ServingBackend {
 public:
  /// The dataset provides graph structure and the feature store; the model
  /// comes in via publish(). The server keeps references only — the dataset
  /// must outlive it.
  InferenceServer(const Dataset& dataset, ServeConfig config);
  ~InferenceServer() override;

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Atomically swaps the served model. Callable before start() and at any
  /// point under live traffic.
  void publish(std::shared_ptr<const ModelSnapshot> snapshot) override {
    life_.publish(std::move(snapshot));
  }
  std::shared_ptr<const ModelSnapshot> snapshot() const override { return life_.snapshot(); }

  /// Spawns the worker pool. Requires a published snapshot.
  void start() override;
  /// Closes the queue, drains pending requests, joins the workers. Idempotent.
  void stop() override;

  using ServingBackend::submit;
  /// Submission with admission-control metadata (router path). Returns false
  /// (and counts a rejection) when the bounded queue is full. The server
  /// itself never drops on deadline — that decision belongs to the router.
  /// The request's tenant id rides along into the InferResult and the
  /// per-tenant stats lanes.
  bool submit(vid_t vertex, const RequestMeta& meta,
              std::function<void(InferResult&&)> done) override;
  /// Blocking convenience wrapper for closed-loop clients and tests; blocks
  /// on the bounded queue (backpressure) and throws on a stopped server.
  InferResult infer_sync(vid_t vertex) override;

  /// Requests currently waiting in the bounded queue (excludes in-service
  /// batches); the signal power-of-two-choices routing compares.
  std::size_t queue_depth() const override { return life_.queue_depth(); }
  /// Blocks until every admitted request has completed.
  void drain() override { life_.drain(); }
  bool accepting() const override { return running_.load(std::memory_order_acquire); }
  /// Amortized per-request service time observed so far (0 until the first
  /// batch completes).
  double mean_service_seconds() const override { return life_.mean_service_seconds(); }
  int concurrency() const override { return config_.num_workers; }

  /// Version-barriered graph mutation: workers hold graph_gate_ shared per
  /// batch, so the exclusive acquisition here waits out in-service batches
  /// and blocks new ones for exactly the apply + invalidate window. The
  /// queue stays open — readers outside the window wait, they are never
  /// rejected — and targeted invalidation drops only the notice's dirty
  /// (vertex, layer) entries, promoting everything else to the new epoch.
  void apply_graph_update(const std::function<void()>& apply,
                          const GraphUpdateNotice& notice) override;
  std::uint64_t graph_epoch() const override { return life_.graph_epoch(); }

  BackendStats stats() const override { return life_.stats(/*per_lane_children=*/false); }
  /// ScrapeSource: fold this server's stage histograms and tenant counters
  /// into `out` (acquire-load fold of the per-worker metric shards).
  void scrape(obs::MetricsSnapshot& out) const override { life_.scrape(out); }
  /// Completed sampled stage traces (ring + slow-request exemplars).
  void collect_traces(std::vector<obs::Trace>& out) const override { life_.collect_traces(out); }
  const obs::TraceSink& trace_sink() const { return life_.trace_sink(); }

  const ServeConfig& config() const { return config_; }
  const Dataset& dataset() const override { return dataset_; }
  /// Layer-output cache (null unless embed_forward with embed_cache_bytes >
  /// 0 and a snapshot has been published).
  const EmbedCache* embed_cache() const { return life_.embed_cache(0); }

 private:
  void worker_loop();
  void process_batch(std::vector<InferRequest>& batch, ForwardScratch& scratch,
                     std::vector<MiniBatch>& minibatches, DenseMatrix& inputs,
                     DenseMatrix& logits);

  const Dataset& dataset_;
  ServeConfig config_;
  /// Admission, reply and stats: one lane, shared by every worker.
  RequestLifecycle life_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};

  /// Graph-update barrier: workers shared per batch, delta apply exclusive.
  util::SharedMutex graph_gate_;
};

}  // namespace distgnn::serve
