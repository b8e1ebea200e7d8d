#include "nn/gemm.hpp"

#include "util/parallel.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace distgnn {

namespace {

/// A matrix operand read through strides: element (r, c) is
/// data[r * row_stride + c * col_stride], so a transpose is just swapped strides.
struct Strided {
  const real_t* data;
  std::size_t row_stride, col_stride;
  real_t at(std::size_t r, std::size_t c) const { return data[r * row_stride + c * col_stride]; }
};

/// One MR x NR tile of C += A·B over kc packed steps. `a` holds kc groups of
/// MR values and `b` kc groups of NR values (zero-padded past the matrix
/// edge). The accumulators start from C (or +0) and take `acc += a*b` for
/// p = 0 … kc-1 in order, so each element sees the same k-sequence as a
/// scalar i-k-j loop.
void micro_tile(std::size_t kc, const real_t* a, const real_t* b, real_t* c, std::size_t ldc,
                std::size_t mr, std::size_t nr, bool load_c) {
  real_t acc[kGemmMR][kGemmNR] = {};
  if (load_c)
    for (std::size_t r = 0; r < mr; ++r)
      for (std::size_t j = 0; j < nr; ++j) acc[r][j] = c[r * ldc + j];
  for (std::size_t p = 0; p < kc; ++p, a += kGemmMR, b += kGemmNR)
    for (std::size_t r = 0; r < kGemmMR; ++r)
#pragma omp simd
      for (std::size_t j = 0; j < kGemmNR; ++j) acc[r][j] += a[r] * b[j];
  for (std::size_t r = 0; r < mr; ++r)
    for (std::size_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
}

/// C (m x n) = A (m x k) · B (k x n) [+ C]. Each thread owns a contiguous
/// range of MR-row panels of C and walks k in KC-row blocks: it packs the
/// block of B into NR-wide column panels, then for each of its row panels
/// packs the MR x kc panel of A and runs the tiles across the row. No
/// element is split across threads and threads never wait on each other, so
/// the result does not depend on the thread count.
void tiled_gemm(Strided A, Strided B, MatrixView C, std::size_t k, bool accumulate) {
  const std::size_t m = C.rows, n = C.cols;
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(C.data, C.data + C.size(), real_t{0});
    return;
  }
  const std::size_t m_panels = (m + kGemmMR - 1) / kGemmMR;
  const std::size_t n_panels = (n + kGemmNR - 1) / kGemmNR;
  const std::size_t kc_max = std::min(kGemmKC, k);

#pragma omp parallel
  {
    const auto threads = static_cast<std::size_t>(par::num_threads());
    const auto t = static_cast<std::size_t>(par::thread_id());
    const std::size_t ip_begin = m_panels * t / threads, ip_end = m_panels * (t + 1) / threads;
    if (ip_begin < ip_end) {
      std::vector<real_t> packed_b(n_panels * kc_max * kGemmNR);
      alignas(64) real_t packed_a[kGemmKC * kGemmMR];
      for (std::size_t p0 = 0; p0 < k; p0 += kGemmKC) {
        const std::size_t kc = std::min(kGemmKC, k - p0);
        for (std::size_t jp = 0; jp < n_panels; ++jp) {
          const std::size_t j0 = jp * kGemmNR, nr = std::min(kGemmNR, n - j0);
          real_t* dst = packed_b.data() + jp * kc_max * kGemmNR;
          for (std::size_t p = 0; p < kc; ++p, dst += kGemmNR)
            for (std::size_t j = 0; j < kGemmNR; ++j) dst[j] = j < nr ? B.at(p0 + p, j0 + j) : 0;
        }
        for (std::size_t ip = ip_begin; ip < ip_end; ++ip) {
          const std::size_t i0 = ip * kGemmMR, mr = std::min(kGemmMR, m - i0);
          for (std::size_t p = 0; p < kc; ++p)
            for (std::size_t r = 0; r < kGemmMR; ++r)
              packed_a[p * kGemmMR + r] = r < mr ? A.at(i0 + r, p0 + p) : 0;
          for (std::size_t jp = 0; jp < n_panels; ++jp) {
            const std::size_t j0 = jp * kGemmNR;
            micro_tile(kc, packed_a, packed_b.data() + jp * kc_max * kGemmNR, C.row(i0) + j0,
                       C.cols, mr, std::min(kGemmNR, n - j0), accumulate || p0 > 0);
          }
        }
      }
    }
  }
}

}  // namespace

void gemm(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate) {
  if (A.cols != B.rows || C.rows != A.rows || C.cols != B.cols)
    throw std::invalid_argument("gemm: shape mismatch");
  tiled_gemm({A.data, A.cols, 1}, {B.data, B.cols, 1}, C, A.cols, accumulate);
}

void gemm_at_b(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate) {
  // A stored (k x m), B (k x n), C (m x n).
  if (A.rows != B.rows || C.rows != A.cols || C.cols != B.cols)
    throw std::invalid_argument("gemm_at_b: shape mismatch");
  tiled_gemm({A.data, 1, A.cols}, {B.data, B.cols, 1}, C, A.rows, accumulate);
}

void gemm_a_bt(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate) {
  // A (m x k), B stored (n x k), C (m x n).
  if (A.cols != B.cols || C.rows != A.rows || C.cols != B.rows)
    throw std::invalid_argument("gemm_a_bt: shape mismatch");
  tiled_gemm({A.data, A.cols, 1}, {B.data, 1, B.cols}, C, A.cols, accumulate);
}

void add_row_bias(MatrixView M, ConstMatrixView bias) {
  if (bias.rows != 1 || bias.cols != M.cols)
    throw std::invalid_argument("add_row_bias: bias must be 1 x cols");
  const real_t* b = bias.row(0);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < M.rows; ++i) {
    real_t* r = M.row(i);
#pragma omp simd
    for (std::size_t j = 0; j < M.cols; ++j) r[j] += b[j];
  }
}

void column_sums(ConstMatrixView M, MatrixView out, bool accumulate) {
  if (out.rows != 1 || out.cols != M.cols)
    throw std::invalid_argument("column_sums: out must be 1 x cols");
  real_t* o = out.row(0);
  if (!accumulate)
    for (std::size_t j = 0; j < M.cols; ++j) o[j] = 0;
  for (std::size_t i = 0; i < M.rows; ++i) {
    const real_t* r = M.row(i);
#pragma omp simd
    for (std::size_t j = 0; j < M.cols; ++j) o[j] += r[j];
  }
}

}  // namespace distgnn
