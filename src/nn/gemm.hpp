// Dense matrix products for the GNN's MLP stages. All three products run on
// one packed, register-tiled kernel: operands are read through strides (a
// transpose is other strides), B is packed one kGemmKC-row block at a time
// into kGemmNR-wide panels, each thread packs the kGemmMR-row A panel of the
// tiles it owns, and a kGemmMR x kGemmNR accumulator tile is loaded from C,
// updated for p = k0 … k0+kc-1 in ascending order and stored back.
//
// Bitwise contract: every output element sees `c += a*b` in ascending k from
// +0 (or from C when accumulating) — the order of a scalar i-k-j loop — so
// the results equal that loop's bit for bit, do not depend on the OpenMP
// thread count, and match the serving forward (ModelSnapshot's dense_affine)
// as long as both sides are compiled for the same ISA and contraction.
//
// The MLP GEMMs, not the aggregation, are the largest share of a full-batch
// epoch. On perfbench's train-cd0 (4 ranks x 1 thread, 4-core x86-64 host)
// the time outside LAT and RAT, mostly these products, was 0.30 s of a
// 0.38 s epoch with per-product i-k-j loops and 0.15 s of 0.23-0.24 s with
// this kernel (with the trainers skipping layer 0's input
// gradient). Without FMA or wider vectors the forward is bound by its
// multiplies and adds, so it gains least: 22,889 x 128 -> 64 on one thread
// went from ~23 to ~20 ms, the two backward products from ~32 to ~22 ms.
#pragma once

#include <cstddef>

#include "util/matrix.hpp"

namespace distgnn {

/// Register tile (rows x columns of C) and k-block depth of the kernel.
inline constexpr std::size_t kGemmMR = 4;
inline constexpr std::size_t kGemmNR = 8;
inline constexpr std::size_t kGemmKC = 256;

/// C = A (m x k) * B (k x n). If accumulate is false, C is overwritten.
void gemm(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate = false);

/// C = A^T (k x m -> m x k viewed transposed) * B. A is stored (k x m);
/// result C is (m x n): C[i][j] = sum_k A[k][i] * B[k][j].
void gemm_at_b(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate = false);

/// C = A (m x k) * B^T where B is stored (n x k): C[i][j] = sum_k A[i][k]*B[j][k].
void gemm_a_bt(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate = false);

/// row-broadcast add: each row of M += bias (bias is 1 x n).
void add_row_bias(MatrixView M, ConstMatrixView bias);

/// bias_grad[j] = sum_i M[i][j] (accumulates into out, 1 x n).
void column_sums(ConstMatrixView M, MatrixView out, bool accumulate = false);

}  // namespace distgnn
