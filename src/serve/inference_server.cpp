#include "serve/inference_server.hpp"

#include <future>
#include <stdexcept>

namespace distgnn::serve {

InferenceServer::InferenceServer(const Dataset& dataset, ServeConfig config)
    : dataset_(dataset),
      config_(std::move(config)),
      life_(dataset, config_, /*num_lanes=*/1, "InferenceServer", "server") {
  if (config_.num_workers < 1) throw std::invalid_argument("InferenceServer: need >= 1 worker");
}

InferenceServer::~InferenceServer() { stop(); }

void InferenceServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  life_.open();  // stop() closed the queue; a restarted server must admit again
  running_.store(true, std::memory_order_release);
  workers_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int w = 0; w < config_.num_workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

void InferenceServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  life_.close();
  for (auto& t : workers_) t.join();
  workers_.clear();
  running_.store(false, std::memory_order_release);
}

bool InferenceServer::submit(vid_t vertex, const RequestMeta& meta,
                             std::function<void(InferResult&&)> done) {
  return life_.admit(0, life_.make_request(vertex, meta, std::move(done)));
}

InferResult InferenceServer::infer_sync(vid_t vertex) {
  std::promise<InferResult> promise;
  auto future = promise.get_future();
  // Closed-loop requests trace and count like submitted ones; the blocking
  // push orders the hand-off the same way try_push does.
  InferRequest request = life_.make_request(
      vertex, RequestMeta{}, [&promise](InferResult&& r) { promise.set_value(std::move(r)); });
  if (!life_.admit(0, std::move(request), /*blocking=*/true))
    throw std::runtime_error("InferenceServer: infer_sync on a stopped server");
  return future.get();
}

void InferenceServer::apply_graph_update(const std::function<void()>& apply,
                                         const GraphUpdateNotice& notice) {
  // Exclusive acquisition = the barrier: every in-service batch holds the
  // gate shared, so this waits them out, then mutates while later batches
  // park on the shared acquisition. Queued requests are not drained — the
  // window is the apply + invalidate below, nothing more.
  util::WriterLock gate(graph_gate_);
  if (apply) apply();
  life_.apply_notice(notice);
}

void InferenceServer::worker_loop() {
  // The gate is shared per batch: a delta apply's exclusive acquisition
  // waits out in-service batches and parks new ones for the barrier window;
  // a batch popped just before the apply completes on the new graph at the
  // new epoch (reads see epoch e or e+1, never a mix).
  if (config_.embed_forward) {
    RequestLifecycle::EmbedWorker worker = life_.embed_worker(0);
    while (true) {
      std::vector<InferRequest> batch =
          life_.queue(0).pop_batch(config_.max_batch, config_.max_batch_delay);
      if (batch.empty()) return;  // closed and drained
      util::ReaderLock gate(graph_gate_);
      life_.serve_embed(0, batch, worker);
    }
  }
  ForwardScratch scratch;
  std::vector<MiniBatch> minibatches;
  DenseMatrix inputs, logits;
  while (true) {
    std::vector<InferRequest> batch =
        life_.queue(0).pop_batch(config_.max_batch, config_.max_batch_delay);
    if (batch.empty()) return;  // closed and drained
    util::ReaderLock gate(graph_gate_);
    process_batch(batch, scratch, minibatches, inputs, logits);
  }
}

void InferenceServer::process_batch(std::vector<InferRequest>& batch, ForwardScratch& scratch,
                                    std::vector<MiniBatch>& minibatches, DenseMatrix& inputs,
                                    DenseMatrix& logits) {
  const auto service_begin = ServeClock::now();
  const std::shared_ptr<const ModelSnapshot> snapshot = life_.snapshot();
  const std::size_t f = static_cast<std::size_t>(dataset_.feature_dim());
  ShardedFeatureCache& cache = life_.feature_cache(0);

  // The GEMMs and the feature gather run once per batch over the stacked
  // per-request plans.
  inputs.resize_discard(life_.sample(batch, *snapshot, minibatches), f);
  std::size_t row = 0;
  for (const MiniBatch& mb : minibatches) {
    for (const vid_t v : mb.input_vertices) {
      cache.get_or_fill(/*space=*/0, static_cast<std::uint64_t>(v), inputs.row(row),
                        [&](real_t* dst) {
                          const real_t* src = dataset_.features.row(static_cast<std::size_t>(v));
                          std::copy(src, src + f, dst);
                        });
      ++row;
    }
  }

  // Stage windows: `sample` covers plan + input-feature gather (minibatch
  // preparation on the single-process path), `forward` the GEMM stack.
  const auto forward_begin = ServeClock::now();
  snapshot->forward_batch(minibatches, inputs.cview(), scratch, logits);
  const auto forward_end = ServeClock::now();

  obs::BatchStageTimes stages;
  stages.sample = obs::make_span(service_begin, forward_begin);
  stages.forward = obs::make_span(forward_begin, forward_end);
  life_.finish(0, batch, logits, snapshot->version(), service_begin, stages);
}

}  // namespace distgnn::serve
