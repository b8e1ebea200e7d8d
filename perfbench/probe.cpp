#include "probe.hpp"

#include <algorithm>
#include <cstdint>
#include <thread>

#include "load.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr int kN = 32;
constexpr int kMatmuls = 1200;
constexpr std::size_t kRows = 1024;  // x 64 floats = 256 KiB: stays in L2
constexpr std::size_t kDim = 64;
constexpr std::size_t kReads = 60000;

/// One pass: small dense matrix products, then random row reads from a
/// table that fits in the core's L2 cache. Both halves run inside the core,
/// so the pass sees what slows the core (its clock, a busy sibling
/// hyperthread, cache sharing) and not where memory happens to be placed.
double one_pass(const std::vector<float>& table, const std::vector<std::uint32_t>& order) {
  alignas(64) float a[kN * kN], b[kN * kN], c[kN * kN];
  for (int i = 0; i < kN * kN; ++i) {
    a[i] = 0.5f + static_cast<float>(i % 7) * 0.01f;
    b[i] = 0.25f;
    c[i] = 0.0f;
  }
  alignas(64) float acc[kDim] = {};
  const double t0 = this_thread_cpu_seconds();
  for (int m = 0; m < kMatmuls; ++m)
    for (int i = 0; i < kN; ++i)
      for (int k = 0; k < kN; ++k) {
        const float aik = a[i * kN + k];
        for (int j = 0; j < kN; ++j) c[i * kN + j] += aik * b[k * kN + j];
      }
  for (const std::uint32_t r : order) {
    const float* row = &table[r * kDim];
    for (std::size_t j = 0; j < kDim; ++j) acc[j] += row[j];
  }
  const double t = this_thread_cpu_seconds() - t0;
  // Keep the results observable so the pass is not optimized away.
  volatile float sink = c[kN + 1] + acc[1];
  (void)sink;
  return t;
}

}  // namespace

std::vector<double> probe_passes(int passes, int threads) {
  std::vector<std::vector<double>> per_thread(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < per_thread.size(); ++t)
    pool.emplace_back([passes, t, &out = per_thread[t]] {
      const std::vector<float> table(kRows * kDim, 1.0f);
      std::vector<std::uint32_t> order(kReads);
      SeedStream rng(0x5eed + t);
      for (std::uint32_t& r : order) r = static_cast<std::uint32_t>(rng.below(kRows));
      one_pass(table, order);  // warms the table into the cache
      for (int p = 0; p < passes; ++p) out.push_back(one_pass(table, order));
    });
  for (std::thread& t : pool) t.join();
  std::vector<double> out;
  for (const std::vector<double>& v : per_thread) out.insert(out.end(), v.begin(), v.end());
  return out;
}

double host_slowdown(const std::vector<double>& pass_seconds) {
  if (pass_seconds.empty()) return 1.0;
  return median(pass_seconds) / *std::min_element(pass_seconds.begin(), pass_seconds.end());
}

}  // namespace perfbench
