// google-benchmark microbenchmarks of the Aggregation Primitive variants:
// the kernel-level view behind Figures 2-4, plus the MLP's three GEMM
// products at train-cd0's rank-0 shapes. Run with --benchmark_filter=...
// to drill into one variant.
#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "kernels/aggregate.hpp"
#include "nn/gemm.hpp"
#include "util/rng.hpp"

namespace distgnn {
namespace {

struct Fixture {
  CsrMatrix csr;
  DenseMatrix features;
  DenseMatrix out;

  static Fixture& dense() {
    static Fixture f = make(1 << 14, 64, 256, 1);
    return f;
  }
  static Fixture& sparse() {
    static Fixture f = make(1 << 16, 12, 100, 2);
    return f;
  }

  static Fixture make(vid_t n, double deg, std::size_t d, std::uint64_t seed) {
    Fixture f;
    RmatParams p;
    p.num_vertices = n;
    p.num_edges = static_cast<eid_t>(deg * static_cast<double>(n) / 2);
    p.seed = seed;
    f.csr = CsrMatrix::from_coo(generate_rmat(p));
    Rng rng(seed);
    f.features = DenseMatrix(static_cast<std::size_t>(n), d);
    for (std::size_t i = 0; i < f.features.size(); ++i)
      f.features.data()[i] = rng.uniform(-1.0f, 1.0f);
    f.out = DenseMatrix(static_cast<std::size_t>(n), d, 0);
    return f;
  }
};

void BM_Baseline_Dense(benchmark::State& state) {
  Fixture& f = Fixture::dense();
  for (auto _ : state) {
    f.out.zero();
    aggregate_baseline(f.csr, f.features.cview(), {}, f.out.view(), BinaryOp::kCopyLhs,
                       ReduceOp::kSum);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.num_entries());
}
BENCHMARK(BM_Baseline_Dense)->Unit(benchmark::kMillisecond);

void BM_Optimized_Dense(benchmark::State& state) {
  Fixture& f = Fixture::dense();
  ApConfig cfg;
  cfg.num_blocks = static_cast<int>(state.range(0));
  const BlockedCsr blocks(f.csr, cfg.num_blocks);
  for (auto _ : state) {
    f.out.zero();
    aggregate_prepartitioned(blocks, f.features.cview(), {}, f.out.view(), cfg);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.num_entries());
}
BENCHMARK(BM_Optimized_Dense)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_Baseline_Sparse(benchmark::State& state) {
  Fixture& f = Fixture::sparse();
  for (auto _ : state) {
    f.out.zero();
    aggregate_baseline(f.csr, f.features.cview(), {}, f.out.view(), BinaryOp::kCopyLhs,
                       ReduceOp::kSum);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.num_entries());
}
BENCHMARK(BM_Baseline_Sparse)->Unit(benchmark::kMillisecond);

void BM_Optimized_Sparse(benchmark::State& state) {
  Fixture& f = Fixture::sparse();
  ApConfig cfg;
  cfg.num_blocks = static_cast<int>(state.range(0));
  const BlockedCsr blocks(f.csr, cfg.num_blocks);
  for (auto _ : state) {
    f.out.zero();
    aggregate_prepartitioned(blocks, f.features.cview(), {}, f.out.view(), cfg);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.num_entries());
}
BENCHMARK(BM_Optimized_Sparse)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_MicrokernelToggle(benchmark::State& state) {
  Fixture& f = Fixture::dense();
  ApConfig cfg;
  cfg.num_blocks = 16;
  cfg.use_microkernel = state.range(0) != 0;
  const BlockedCsr blocks(f.csr, cfg.num_blocks);
  for (auto _ : state) {
    f.out.zero();
    aggregate_prepartitioned(blocks, f.features.cview(), {}, f.out.view(), cfg);
    benchmark::DoNotOptimize(f.out.data());
  }
}
BENCHMARK(BM_MicrokernelToggle)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The trainer's GEMMs at train-cd0's rank-0 shape (22,889 local vertices,
// 128 features, hidden 64, 32 classes). Args: product (0 = X·W forward,
// 1 = Xᵀ·dY weight gradient, 2 = dY·Wᵀ input gradient), in, out.
void BM_Gemm(benchmark::State& state) {
  constexpr std::size_t kRows = 22889;
  const auto product = state.range(0);
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out = static_cast<std::size_t>(state.range(2));
  Rng rng(7);
  const auto random = [&](std::size_t rows, std::size_t cols) {
    DenseMatrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0f, 1.0f);
    return m;
  };
  const DenseMatrix x = random(kRows, in), w = random(in, out), dy = random(kRows, out);
  DenseMatrix c(product == 0 ? kRows : product == 1 ? in : kRows, product == 2 ? in : out);
  for (auto _ : state) {
    switch (product) {
      case 0: gemm(x.cview(), w.cview(), c.view()); break;
      case 1: gemm_at_b(x.cview(), dy.cview(), c.view()); break;
      default: gemm_a_bt(dy.cview(), w.cview(), c.view()); break;
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  // One item is one multiply-add.
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kRows * in * out));
}
BENCHMARK(BM_Gemm)
    ->ArgNames({"product", "in", "out"})
    ->ArgsProduct({{0, 1, 2}, {128}, {64}})
    ->ArgsProduct({{0, 1, 2}, {64}, {32}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace distgnn

BENCHMARK_MAIN();
