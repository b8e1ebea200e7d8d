#include "serve/backend.hpp"

#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>

namespace distgnn::serve {

TenantFoldReport check_tenant_fold(const BackendStats& stats, bool edge_authoritative) {
  TenantFoldReport report;
  if (stats.children.empty()) return report;

  // Does any child carry tenant lanes at all? A ShardedServer's ranks don't
  // (lanes live at the server edge) — nothing to check against.
  bool children_have_lanes = false;
  for (const BackendStats& child : stats.children)
    if (!child.tenants.empty()) children_have_lanes = true;
  if (!children_have_lanes) return report;

  const auto fail = [&](tenant_t tenant, const char* field, std::uint64_t parent,
                        std::uint64_t fold) {
    report.consistent = false;
    report.detail = "tenant " + std::to_string(tenant) + ": parent " + field + "=" +
                    std::to_string(parent) + " vs children fold=" + std::to_string(fold);
  };

  // Union of tenant ids across parent and children (a lane present below but
  // missing above is exactly the silent under-count this helper exists for).
  std::vector<tenant_t> ids;
  const auto note = [&](tenant_t t) {
    for (const tenant_t id : ids)
      if (id == t) return;
    ids.push_back(t);
  };
  for (const TenantCounters& lane : stats.tenants) note(lane.tenant);
  for (const BackendStats& child : stats.children)
    for (const TenantCounters& lane : child.tenants) note(lane.tenant);

  for (const tenant_t id : ids) {
    TenantCounters fold{id, 0, 0, 0};
    for (const BackendStats& child : stats.children) {
      if (const TenantCounters* lane = child.find_tenant(id)) {
        fold.submitted += lane->submitted;
        fold.completed += lane->completed;
        fold.shed += lane->shed;
      }
    }
    const TenantCounters* parent = stats.find_tenant(id);
    const TenantCounters zero{id, 0, 0, 0};
    if (!parent) parent = &zero;
    if (parent->completed != fold.completed) {
      fail(id, "completed", parent->completed, fold.completed);
      return report;
    }
    if (edge_authoritative) {
      // The edge admits before children see anything, so its submitted/shed
      // dominate the fold.
      if (parent->submitted < fold.submitted) {
        fail(id, "submitted(edge >=)", parent->submitted, fold.submitted);
        return report;
      }
      if (parent->shed < fold.shed) {
        fail(id, "shed(edge >=)", parent->shed, fold.shed);
        return report;
      }
    } else {
      if (parent->submitted != fold.submitted) {
        fail(id, "submitted", parent->submitted, fold.submitted);
        return report;
      }
      if (parent->shed != fold.shed) {
        fail(id, "shed", parent->shed, fold.shed);
        return report;
      }
    }
  }
  return report;
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
  for (std::size_t i = 0; i < n; ++i) {
    {
      util::MutexLock lock(mutex);
      ++pending;
    }
    const bool ok = submit_one(vertices[i], meta, [&, i](InferResult&& result) {
      util::MutexLock lock(mutex);
      results[i] = std::move(result);
      if (--pending == 0) cv.notify_all();
    });
    if (!ok) {
      util::MutexLock lock(mutex);
      if (--pending == 0) cv.notify_all();
    }
  }
  util::MutexLock lock(mutex);
  while (pending != 0) cv.wait(lock);
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
