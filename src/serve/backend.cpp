#include "serve/backend.hpp"

#include <chrono>
#include <exception>
#include <future>
#include <stdexcept>
#include <thread>

namespace distgnn::serve {

std::vector<TenantCounters> tenant_lanes(const obs::CounterFamily& submitted,
                                         const obs::CounterFamily& completed,
                                         const obs::CounterFamily& shed) {
  std::vector<TenantCounters> lanes;
  const auto lane = [&](int tenant) -> TenantCounters& {
    for (TenantCounters& l : lanes)
      if (l.tenant == tenant) return l;
    return lanes.emplace_back(TenantCounters{tenant, 0, 0, 0});
  };
  submitted.for_each([&](int t, const obs::Counter& c) { lane(t).submitted = c.value(); });
  completed.for_each([&](int t, const obs::Counter& c) { lane(t).completed = c.value(); });
  shed.for_each([&](int t, const obs::Counter& c) { lane(t).shed = c.value(); });
  return lanes;
}

std::vector<std::optional<InferResult>> ServingBackend::infer_batch(
    std::span<const vid_t> vertices, const RequestMeta& meta) {
  return submit_all(vertices, meta,
                    [this](vid_t v, const RequestMeta& m, std::function<void(InferResult&&)> done) {
                      return submit(v, m, std::move(done));
                    });
}

std::vector<std::optional<InferResult>> ServingBackend::submit_all(
    std::span<const vid_t> vertices, const RequestMeta& meta, const SubmitFn& submit_one) {
  const std::size_t n = vertices.size();
  std::vector<std::optional<InferResult>> results(n);
  if (n == 0) return results;

  util::Mutex mutex;
  util::CondVar cv;
  std::size_t pending = 0;
  // A submit that throws (say, an out-of-range vertex) ends the loop, but the
  // requests already queued still reply into `results` and `pending`: wait
  // for them before the exception leaves this frame.
  std::exception_ptr error;
  for (std::size_t i = 0; i < n && !error; ++i) {
    {
      util::MutexLock lock(mutex);
      ++pending;
    }
    bool ok = false;
    try {
      ok = submit_one(vertices[i], meta, [&, i](InferResult&& result) {
        util::MutexLock lock(mutex);
        results[i] = std::move(result);
        if (--pending == 0) cv.notify_all();
      });
    } catch (...) {
      error = std::current_exception();
    }
    if (!ok) {
      util::MutexLock lock(mutex);
      if (--pending == 0) cv.notify_all();
    }
  }
  {
    util::MutexLock lock(mutex);
    while (pending != 0) cv.wait(lock);
  }
  if (error) std::rethrow_exception(error);
  return results;
}

void ServingBackend::apply_graph_update(const std::function<void()>& apply,
                                        const GraphUpdateNotice& notice) {
  // Default: quiesce, then mutate. Backends with worker loops override with
  // a real barrier (readers parked, caches invalidated per the notice).
  (void)notice;
  drain();
  if (apply) apply();
}

InferResult ServingBackend::infer_sync(vid_t vertex) {
  // Closed-loop callers want backpressure: a full bounded queue means "wait
  // your turn", not "drop". Retry with a short sleep so a burst of blocking
  // clients does not spin the admission path — but a backend that stopped
  // accepting will reject forever, so that case must throw, not wait.
  std::promise<InferResult> promise;
  auto future = promise.get_future();
  while (!submit(vertex, [&promise](InferResult&& r) { promise.set_value(std::move(r)); })) {
    if (!accepting()) throw std::runtime_error("ServingBackend: infer_sync on a stopped backend");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return future.get();
}

}  // namespace distgnn::serve
