// Tenancy primitives for the multi-model serving tier.
//
// A tenant is one named traffic stream with its own SLO: per-request
// deadline, priority lane, weighted-fair share, and an admission budget.
// Tenants exist because real serving traffic is K independent MMPP streams,
// not one merged Poisson process — the overdispersion result (squared
// coefficient of variation > 1 for MMPP, Asanjarani & Nazarathy,
// arXiv:1802.08400) means one tenant's burst cannot be averaged away by
// aggregate load, so isolation has to be enforced where requests enter:
// token-bucket budgets shed a bursting tenant's excess from its *own* lane,
// and deficit-weighted round-robin keeps the dispatch share proportional to
// configured weights under saturation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

namespace distgnn::obs {
class TraceContext;
}  // namespace distgnn::obs

namespace distgnn::serve {

using ServeClock = std::chrono::steady_clock;

/// `seconds` from `now` on ServeClock — how a relative deadline (a tenant
/// SLO, a driver's per-request budget) becomes a RequestMeta deadline.
inline ServeClock::time_point deadline_after(double seconds,
                                             ServeClock::time_point now = ServeClock::now()) {
  return now + std::chrono::duration_cast<ServeClock::duration>(
                   std::chrono::duration<double>(seconds));
}

/// Two-lane request priority for the admission controller: under pressure
/// a replica group sheds kLow work first, so paying (kHigh) traffic keeps
/// its tail latency through an MMPP burst.
enum class Priority : std::uint8_t { kHigh = 0, kLow = 1 };

/// Tenant identifier carried end-to-end through the request API. In a
/// ModelRegistry it is the entry index; in a tenant-mode ReplicaGroup it
/// indexes AdmissionConfig::tenants. Requests default to tenant 0.
using tenant_t = std::int32_t;
inline constexpr tenant_t kDefaultTenant = 0;

/// Per-request admission metadata — the one bundle every
/// ServingBackend::submit/infer_batch carries end-to-end.
struct RequestMeta {
  ServeClock::time_point deadline = ServeClock::time_point::max();
  Priority priority = Priority::kHigh;
  tenant_t tenant = kDefaultTenant;
  /// Stage trace being assembled for this request, set by whichever layer
  /// made the sampling decision first (null = untraced). Leaves honor a
  /// pre-attached context instead of re-deciding.
  std::shared_ptr<obs::TraceContext> trace;
};

/// Per-tenant service-level objective and fairness knobs.
struct TenantSlo {
  std::string name;
  /// Default deadline applied at submit time when the request carries none
  /// (0 = no deadline).
  double deadline_seconds = 0;
  Priority priority = Priority::kHigh;
  /// Weighted-fair dispatch share relative to the other tenants.
  double weight = 1.0;
  /// Token-bucket admission budget in requests/second (0 = unlimited). A
  /// tenant over budget sheds its own traffic before touching another
  /// tenant's lane.
  double rate_limit = 0;
  /// Token-bucket capacity: the burst the budget forgives.
  double burst = 16;
  /// Per-tenant staging-queue bound in a tenant-mode ReplicaGroup.
  std::size_t stage_capacity = 1024;
  /// Success-rate objective for the health engine's burn-rate rule: the
  /// fraction of requests expected to finish within deadline_seconds, so the
  /// error budget is (1 - slo_target). Admission ignores it; configure_health
  /// registers it with the HealthMonitor.
  double slo_target = 0.999;
};

/// Leaky token bucket over ServeClock. NOT internally synchronized: callers
/// (a replica group's stage lock, a registry entry's admission lock) already
/// serialize the admission path, and keeping the bucket a plain value type
/// keeps tenant state movable.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate, double burst) : rate_(rate), burst_(burst) {}

  /// Takes one token if available; always succeeds when rate <= 0
  /// (unlimited). Refill accrues continuously at `rate` tokens/second up to
  /// `burst`.
  bool try_take(ServeClock::time_point now) {
    if (rate_ <= 0) return true;
    if (!primed_) {
      tokens_ = burst_;
      last_ = now;
      primed_ = true;
    }
    const double dt = std::chrono::duration<double>(now - last_).count();
    last_ = now;
    tokens_ = std::min(burst_, tokens_ + dt * rate_);
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double rate() const { return rate_; }

 private:
  double rate_ = 0;
  double burst_ = 16;
  double tokens_ = 0;
  bool primed_ = false;
  ServeClock::time_point last_{};
};

}  // namespace distgnn::serve
