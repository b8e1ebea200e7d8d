// The request lifecycle shared by the two serving leaves.
//
// InferenceServer (a worker pool over one queue) and ShardedServer (P rank
// poll loops over per-rank queues) differ in how they pick up and compute a
// batch, not in what happens to a request around that computation. Both
// build and trace-stamp the request at submit, admit it into a bounded queue
// with the same accounting, sample it from the same per-request stream,
// reply through the same finish loop (stage histograms, trace spans,
// completion counters) and fold the same stats. RequestLifecycle is that
// common part, written once.
//
// It is organised in lanes, one per queue: the single server has one lane
// that all its workers share, a sharded server one lane per rank. Each lane
// owns its queue, its feature cache, its (lazily created) embed cache and
// its batch counters in the metrics registry; the embed budget is split
// across lanes, so the single server is the one-lane case of the per-rank
// split.
//
// Completion is published with release order after a batch's last callback,
// and drain() acquires it: once drain() returns, every callback's writes are
// visible to the caller.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/metrics.hpp"
#include "obs/scrape.hpp"
#include "obs/trace.hpp"
#include "sampling/minibatch.hpp"
#include "serve/backend.hpp"
#include "serve/embed_cache.hpp"
#include "serve/feature_cache.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/request_queue.hpp"
#include "serve/tier_config.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace distgnn::serve {

struct HaloFetchStats;

/// Deterministic per-request sampling stream shared by every serving mode.
Rng request_rng(std::uint64_t sample_seed, vid_t vertex);

class RequestLifecycle {
 public:
  /// `config` must outlive the lifecycle (servers pass their own member).
  /// `name` prefixes error messages; `layer` names the metric families
  /// (distgnn_<layer>_...). Throws std::invalid_argument on a config no
  /// server can run.
  RequestLifecycle(const Dataset& dataset, const TierConfig& config, int num_lanes,
                   std::string name, const std::string& layer);

  RequestLifecycle(const RequestLifecycle&) = delete;
  RequestLifecycle& operator=(const RequestLifecycle&) = delete;

  /// Validates the snapshot against the dataset and the config, creates the
  /// per-lane embed caches at the first publish (later snapshots must keep
  /// their geometry), then swaps it in.
  void publish(std::shared_ptr<const ModelSnapshot> snapshot);
  std::shared_ptr<const ModelSnapshot> snapshot() const { return holder_.get(); }

  /// Reopens every lane's queue for a (re)start; throws std::logic_error
  /// before the first publish.
  void open();
  /// Closes every lane's queue: no new admissions, pending ones still drain.
  void close();

  /// A new request for `vertex` (range-checked against the construction-time
  /// vertex count), carrying `meta` and a trace context when sampled.
  InferRequest make_request(vid_t vertex, const RequestMeta& meta,
                            std::function<void(InferResult&&)> done);
  /// Stamps the admit stage and pushes `request` into `lane`'s queue —
  /// try_push, or the blocking push when `blocking`. Counts a shed and
  /// returns false when the queue refuses it.
  bool admit(int lane, InferRequest request, bool blocking = false);

  /// Samples each request's k-hop plan from its request_rng stream into
  /// `out` (typed for RGCN snapshots) and returns the number of input rows.
  std::size_t sample(const std::vector<InferRequest>& batch, const ModelSnapshot& snapshot,
                     std::vector<MiniBatch>& out) const;

  /// Per-thread state of an embed-forward serving loop over one lane.
  struct EmbedWorker {
    EmbedForward evaluator;
    std::vector<vid_t> seeds;
    DenseMatrix logits;
  };
  EmbedWorker embed_worker(int lane);
  /// Serves `batch` through the worker's EmbedForward and finishes it.
  void serve_embed(int lane, std::vector<InferRequest>& batch, EmbedWorker& worker);

  /// Replies to every request of a computed batch (logits row r answers
  /// batch[r]), stamps stage histograms and traces, and counts the batch on
  /// `lane` — with the halo traffic it caused, if any.
  void finish(int lane, std::vector<InferRequest>& batch, const DenseMatrix& logits,
              std::uint64_t snapshot_version, ServeClock::time_point service_begin,
              const obs::BatchStageTimes& stages, const HaloFetchStats* halo = nullptr);

  /// Blocks until every admitted request has completed.
  void drain() const;
  double mean_service_seconds() const;
  std::size_t queue_depth() const;

  /// Drops the notice's feature rows from every lane's feature cache (both
  /// spaces), advances or flushes the embed caches, then publishes the new
  /// graph epoch. Callers hold their readers off for the duration.
  void apply_notice(const GraphUpdateNotice& notice);
  std::uint64_t graph_epoch() const { return graph_epoch_.load(std::memory_order_acquire); }

  /// The lanes' batch, service-time and halo counters, queue depths and
  /// caches, summed (each lane also kept as a child when
  /// `per_lane_children`), plus what is counted where requests enter and
  /// leave: rejections (the tenant sheds), publishes, tenant lanes and the
  /// end-to-end latency histogram.
  BackendStats stats(bool per_lane_children) const;

  void scrape(obs::MetricsSnapshot& out) const { metrics_.scrape(out); }
  void collect_traces(std::vector<obs::Trace>& out) const { trace_sink_.collect(out); }
  const obs::TraceSink& trace_sink() const { return trace_sink_; }

  BoundedRequestQueue& queue(int lane) { return lane_at(lane).queue; }
  ShardedFeatureCache& feature_cache(int lane) { return lane_at(lane).features; }
  EmbedCache* embed_cache(int lane) const;

 private:
  struct Lane {
    Lane(std::size_t queue_capacity, std::uint64_t cache_bytes, std::size_t dim, int shards)
        : queue(queue_capacity), features(cache_bytes, dim, shards) {}
    BoundedRequestQueue queue;
    ShardedFeatureCache features;  // space 0: owned rows, space 1: halo rows
    // Written by finish(). `completed` is bumped last, with release, and is
    // what drain() waits on; `max_batch_seen` is a high-water mark.
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> max_batch_seen{0};
    // This lane's batch and halo counters in the lifecycle's registry,
    // cached at construction.
    obs::Counter* batches = nullptr;
    obs::Counter* service_ns = nullptr;
    obs::Counter* halo_rows = nullptr;
    obs::Counter* halo_bytes = nullptr;
    obs::Counter* halo_wait_ns = nullptr;
  };
  BackendStats lane_stats(int lane) const;
  Lane& lane_at(int lane) { return *lanes_[static_cast<std::size_t>(lane)]; }
  const Lane& lane_at(int lane) const { return *lanes_[static_cast<std::size_t>(lane)]; }

  const Dataset& dataset_;
  const TierConfig& config_;
  const std::string name_;
  /// Immutable mirror of dataset_.num_vertices(): the streamed-update
  /// contract fixes the vertex set at construction, and submit() must not
  /// read through dataset_.graph while a barrier is move-assigning it.
  const vid_t num_vertices_;
  /// Wait-free telemetry and the lifecycle's one set of books: per-tenant
  /// submitted/completed/shed counters, per-stage and end-to-end latency
  /// histograms, and per-lane batch and halo counters
  /// (distgnn_<layer>_*_total{lane="i"}), folded on read.
  obs::MetricsRegistry metrics_;
  obs::StageMetrics stage_metrics_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // fixed at construction
  SnapshotHolder holder_;
  /// Created at the first publish (the spec fixes their geometry); guarded
  /// so concurrent publishers and stats readers never race the pointers.
  /// The caches themselves are internally thread-safe.
  mutable util::Mutex embed_mutex_;
  std::vector<std::unique_ptr<EmbedCache>> embed_caches_ GUARDED_BY(embed_mutex_);
  std::atomic<std::uint64_t> graph_epoch_{0};

  obs::TraceSink trace_sink_;

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> admitted_{0};  // successful queue pushes (drain target)
};

}  // namespace distgnn::serve
