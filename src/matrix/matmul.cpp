#include "matrix/matmul.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "common/cpu_features.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "matrix/matmul_kernels.h"

namespace jpmm {
namespace {

// ---- Blocking parameters -------------------------------------------------
//
// Classic three-level GEMM blocking (Goto/BLIS structure):
//   NC splits C's columns into panels whose packed B slab (KC x NC floats,
//      4 MiB) stays resident in last-level cache across every row block of
//      the panel;
//   KC is the inner-dimension slice; one packed A panel (MC x KC, 256 KiB)
//      plus the B stripe a micro-kernel touches (KC x NR, 64 KiB) stay in
//      L2 across the register-tile sweep;
//   MC rows of A are packed once and reused across the whole NC-wide panel;
//   MR x NR is the register tile: the accumulator lives in vector registers
//      (8 x 32 floats = 16 AVX-512 zmm). NR spanning two full vectors is
//      what keeps both the hand-intrinsics micro-kernels and the
//      auto-vectorized portable one on the fast side of the 20x tile-shape
//      cliff — see docs/kernels.md for the measured sweep and how to
//      re-tune.
//
// The constants live in matrix/matmul_kernels.h, shared with the per-ISA
// micro-kernel TUs; the micro-kernel itself is selected per call on
// ActiveIsa() (common/cpu_features.h).
using internal::kKC;
using internal::kMC;
using internal::kMR;
using internal::kNC;
using internal::kNR;
using internal::MicroKernelFn;

// Packs A[ic..ic+mc) x [pc..pc+kc) into kMR-row panels: panel p (rows
// p*kMR..) holds ap[p*kMR*kc + k*kMR + r] = A[ic + p*kMR + r][pc + k].
// Rows past mc are zero-filled so the micro-kernel never branches on the
// row edge; the padding contributes 0 to every product.
void PackA(const Matrix& a, size_t ic, size_t mc, size_t pc, size_t kc,
           float* ap) {
  const size_t v = a.cols();
  for (size_t p0 = 0; p0 < mc; p0 += kMR) {
    const size_t rows = std::min(kMR, mc - p0);
    float* panel = ap + p0 * kc;
    for (size_t r = 0; r < rows; ++r) {
      const float* src = a.data() + (ic + p0 + r) * v + pc;
      for (size_t k = 0; k < kc; ++k) panel[k * kMR + r] = src[k];
    }
    for (size_t r = rows; r < kMR; ++r) {
      for (size_t k = 0; k < kc; ++k) panel[k * kMR + r] = 0.0f;
    }
  }
}

// Packs the single kNR-column sub-panel starting at B column j of the
// [pc, pc+kc) inner slice: dst[k * kNR + c] = B[pc + k][j + c], zero-padded
// past the matrix edge. The unit of parallel packing.
void PackBSub(const Matrix& b, size_t pc, size_t kc, size_t j, float* dst) {
  const size_t w = b.cols();
  const size_t cols = std::min(kNR, w - j);
  for (size_t k = 0; k < kc; ++k) {
    const float* src = b.data() + (pc + k) * w + j;
    float* row = dst + k * kNR;
    size_t c = 0;
    for (; c < cols; ++c) row[c] = src[c];
    for (; c < kNR; ++c) row[c] = 0.0f;
  }
}

// Packs B[pc..pc+kc) x [jc..jc+nc) into kNR-column panels: panel q holds
// bp[q*kNR*kc + k*kNR + c] = B[pc + k][jc + q*kNR + c], zero-padded past nc.
void PackB(const Matrix& b, size_t pc, size_t kc, size_t jc, size_t nc,
           float* bp) {
  for (size_t j0 = 0; j0 < nc; j0 += kNR) {
    PackBSub(b, pc, kc, jc + j0, bp + j0 * kc);
  }
}

// B pre-packed into the kernel's (NC x KC) panel layout, all panels at
// once: Multiply's shared slab. Built once, then every worker streams its
// row range against it concurrently (read-only after construction), so no
// worker re-packs B. Memory: about one padded copy of B.
class PackedB {
 public:
  // Packs every panel of b; the packing itself fans out over `threads`
  // (each kNR-column sub-panel is an independent task).
  PackedB(const Matrix& b, int threads) {
    JPMM_FAIL_POINT("matmul.pack");
    rows_ = b.rows();
    cols_ = b.cols();
    if (empty()) return;
    const size_t v = rows_;
    const size_t w = cols_;
    num_pc_ = (v + kKC - 1) / kKC;
    const size_t num_jc = (w + kNC - 1) / kNC;
    offsets_.resize(num_jc * num_pc_);

    // One task per kNR-column sub-panel: fine enough grain that the packing
    // itself saturates the pool even when the panel count is small.
    struct Sub {
      size_t dst, pc, kc, col;
    };
    std::vector<Sub> subs;
    size_t total = 0;
    size_t jc_idx = 0;
    for (size_t jc = 0; jc < w; jc += kNC, ++jc_idx) {
      const size_t nc = std::min(kNC, w - jc);
      const size_t ncp = (nc + kNR - 1) / kNR * kNR;
      size_t pc_idx = 0;
      for (size_t pc = 0; pc < v; pc += kKC, ++pc_idx) {
        const size_t kc = std::min(kKC, v - pc);
        offsets_[jc_idx * num_pc_ + pc_idx] = total;
        for (size_t j0 = 0; j0 < nc; j0 += kNR) {
          subs.push_back(Sub{total + j0 * kc, pc, kc, jc + j0});
        }
        total += ncp * kc;
      }
    }
    data_.resize(total);
    ParallelForDynamic(threads, subs.size(), /*grain=*/8,
                       [&](size_t s0, size_t s1, int) {
                         for (size_t s = s0; s < s1; ++s) {
                           const Sub& sub = subs[s];
                           PackBSub(b, sub.pc, sub.kc, sub.col,
                                    data_.data() + sub.dst);
                         }
                       });
  }

  size_t rows() const { return rows_; }  // inner dimension v
  size_t cols() const { return cols_; }  // output columns w
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  // Packed panel for the (column panel jc_idx, inner slice pc_idx) pair,
  // laid out exactly as the kernel's per-call packing buffer.
  const float* Panel(size_t jc_idx, size_t pc_idx) const {
    return data_.data() + offsets_[jc_idx * num_pc_ + pc_idx];
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t num_pc_ = 0;            // inner-dimension slice count
  std::vector<size_t> offsets_;  // panel offsets, jc-major
  // 64-byte base + kNR-float-multiple panel offsets = every panel row is
  // 64-byte aligned, which the AVX-512 micro-kernel's aligned loads assume.
  AlignedVector<float> data_;
};

// Per-thread packing scratch, sized for the largest panels. thread_local so
// repeated block-streamed calls (mm_join's row blocks) reuse the
// allocation — and, now that ParallelFor runs on the persistent pool, the
// scratch survives across queries instead of dying with per-call threads.
// 64-byte slabs: the B scratch is read by the aligned vector loads of the
// intrinsic micro-kernels.
struct PackScratch {
  AlignedVector<float> a = AlignedVector<float>(kMC * kKC);
  AlignedVector<float> b = AlignedVector<float>(kKC * kNC);
};

PackScratch& Scratch() {
  static thread_local PackScratch scratch;
  return scratch;
}

// Sweeps the register tiles of one packed (jc-panel, pc-slice) pair over
// row range [r0, r1) and the panel's nc columns: packs A per MC block,
// consumes an already-packed B panel (shared or thread-local — the kernel
// cannot tell). `out` points at the panel's first column in the first
// output row. `mk` is the ISA-selected micro-kernel, chosen once per
// row-range call.
void SweepPanel(const Matrix& a, const float* bp, size_t r0, size_t r1,
                size_t pc, size_t kc, size_t nc, float* out, size_t ldc,
                MicroKernelFn mk) {
  PackScratch& scratch = Scratch();
  float* ap = scratch.a.data();
  for (size_t ic = r0; ic < r1; ic += kMC) {
    const size_t mc = std::min(kMC, r1 - ic);
    PackA(a, ic, mc, pc, kc, ap);
    for (size_t jr = 0; jr < nc; jr += kNR) {
      const size_t cols = std::min(kNR, nc - jr);
      for (size_t ir = 0; ir < mc; ir += kMR) {
        const size_t rows = std::min(kMR, mc - ir);
        mk(ap + ir * kc, bp + jr * kc, kc, out + (ic - r0 + ir) * ldc + jr,
           ldc, rows, cols);
      }
    }
  }
}

// out[(i - r0) * ldc + j] += (A * B)(i, j) for rows [r0, r1). B panels are
// packed once per (jc, pc) into thread-local scratch and reused across
// every MC row block in the range; A panels are packed per row block.
void KernelRowRange(const Matrix& a, const Matrix& b, size_t r0, size_t r1,
                    float* out, size_t ldc) {
  const size_t v = a.cols();
  const size_t w = b.cols();
  const MicroKernelFn mk = internal::SelectMicroKernel(ActiveIsa());
  float* bp = Scratch().b.data();
  for (size_t jc = 0; jc < w; jc += kNC) {
    const size_t nc = std::min(kNC, w - jc);
    for (size_t pc = 0; pc < v; pc += kKC) {
      const size_t kc = std::min(kKC, v - pc);
      PackB(b, pc, kc, jc, nc, bp);
      SweepPanel(a, bp, r0, r1, pc, kc, nc, out + jc, ldc, mk);
    }
  }
}

// Same sweep against a shared PackedB: no packing of B at all — every
// worker reads the one slab read-only.
void KernelRowRangePacked(const Matrix& a, const PackedB& b, size_t r0,
                          size_t r1, float* out, size_t ldc) {
  const size_t v = a.cols();
  const size_t w = b.cols();
  const MicroKernelFn mk = internal::SelectMicroKernel(ActiveIsa());
  for (size_t jc = 0; jc < w; jc += kNC) {
    const size_t nc = std::min(kNC, w - jc);
    size_t pc_idx = 0;
    for (size_t pc = 0; pc < v; pc += kKC, ++pc_idx) {
      const size_t kc = std::min(kKC, v - pc);
      SweepPanel(a, b.Panel(jc / kNC, pc_idx), r0, r1, pc, kc, nc, out + jc,
                 ldc, mk);
    }
  }
}

// The seed kernel: ikj saxpy with an inner-dimension tile. Kept as the
// microbenchmark baseline the blocked kernel is measured against.
void ScalarKernelRowRange(const Matrix& a, const Matrix& b, size_t r0,
                          size_t r1, float* out) {
  constexpr size_t kKTile = 256;
  const size_t v = a.cols();
  const size_t w = b.cols();
  for (size_t k0 = 0; k0 < v; k0 += kKTile) {
    const size_t k1 = std::min(v, k0 + kKTile);
    for (size_t i = r0; i < r1; ++i) {
      const float* arow = a.data() + i * v;
      float* crow = out + (i - r0) * w;
      for (size_t k = k0; k < k1; ++k) {
        const float aik = arow[k];
        if (aik == 0.0f) continue;
        const float* brow = b.data() + k * w;
        for (size_t j = 0; j < w; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

}  // namespace

namespace internal {

// C[0..rows) x [0..cols) += Ap panel * Bp panel over kc inner steps. The
// kMR x kNR accumulator is a local array the compiler keeps in vector
// registers; rows/cols only bound the final write-back, so edge tiles pay
// nothing in the hot loop. This is the reference implementation every
// intrinsic variant must match element-for-element.
void MicroKernelPortable(const float* ap, const float* bp, size_t kc,
                         float* c, size_t ldc, size_t rows, size_t cols) {
  float acc[kMR * kNR] = {};
  for (size_t k = 0; k < kc; ++k) {
    const float* arow = ap + k * kMR;
    const float* brow = bp + k * kNR;
    for (size_t r = 0; r < kMR; ++r) {
      const float av = arow[r];
      for (size_t j = 0; j < kNR; ++j) acc[r * kNR + j] += av * brow[j];
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc + r * kNR;
    for (size_t j = 0; j < cols; ++j) crow[j] += arow[j];
  }
}

MicroKernelFn SelectMicroKernel(KernelIsa isa) {
  if (isa == KernelIsa::kAvx512) {
    if (MicroKernelFn fn = Avx512MicroKernel()) return fn;
    isa = KernelIsa::kAvx2;
  }
  if (isa == KernelIsa::kAvx2) {
    if (MicroKernelFn fn = Avx2MicroKernel()) return fn;
  }
  return &MicroKernelPortable;
}

}  // namespace internal

void MultiplyRowRange(const Matrix& a, const Matrix& b, size_t row_begin,
                      size_t row_end, std::span<float> out) {
  JPMM_CHECK(a.cols() == b.rows());
  JPMM_CHECK(row_begin <= row_end && row_end <= a.rows());
  JPMM_CHECK(out.size() >= (row_end - row_begin) * b.cols());
  std::memset(out.data(), 0, (row_end - row_begin) * b.cols() * sizeof(float));
  KernelRowRange(a, b, row_begin, row_end, out.data(), b.cols());
}

void Multiply(const Matrix& a, const Matrix& b, Matrix* c, int threads) {
  JPMM_CHECK_MSG(a.cols() == b.rows(), "dimension mismatch");
  *c = Matrix(a.rows(), b.cols());
  if (a.rows() == 0 || b.cols() == 0) return;
  float* cdata = c->mutable_data();
  const size_t w = b.cols();
  if (threads <= 1) {
    KernelRowRange(a, b, 0, a.rows(), cdata, w);
    return;
  }
  // Shared slab: B is packed once (in parallel) and read by every worker.
  // Static row partitioning: per-row arithmetic is identical to the
  // single-threaded kernel (same jc/pc/k order), so results are
  // bit-identical at any thread count.
  const PackedB packed(b, threads);
  ParallelFor(threads, a.rows(), [&](size_t r0, size_t r1, int) {
    KernelRowRangePacked(a, packed, r0, r1, cdata + r0 * w, w);
  });
}

Matrix Multiply(const Matrix& a, const Matrix& b, int threads) {
  Matrix c;
  Multiply(a, b, &c, threads);
  return c;
}

Matrix MultiplyScalarReference(const Matrix& a, const Matrix& b) {
  JPMM_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  if (a.rows() == 0 || b.cols() == 0) return c;
  ScalarKernelRowRange(a, b, 0, a.rows(), c.mutable_data());
  return c;
}

Matrix MultiplyNaive(const Matrix& a, const Matrix& b) {
  JPMM_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (size_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      c.Set(i, j, acc);
    }
  }
  return c;
}

}  // namespace jpmm
