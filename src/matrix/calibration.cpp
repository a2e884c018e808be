#include "matrix/calibration.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <mutex>
#include <span>

#include "common/check.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "matrix/bit_rows.h"
#include "matrix/cost_model.h"
#include "matrix/dense_matrix.h"
#include "matrix/random.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {

SystemConstants SystemConstants::Measure() {
  SystemConstants c;
  constexpr size_t kN = 1 << 20;

  {  // sequential access
    std::vector<uint32_t> v(kN, 1);
    WallTimer t;
    uint64_t acc = 0;
    for (size_t i = 0; i < kN; ++i) acc += v[i];
    double sec = t.Seconds();
    if (acc == 0) sec += 1e-12;  // keep acc alive
    c.ts = std::max(sec / kN, 1e-11);
  }
  {  // random access + insert
    std::vector<uint32_t> v(kN, 0);
    Rng rng(7);
    WallTimer t;
    for (size_t i = 0; i < kN / 4; ++i) {
      v[rng.NextBounded(kN)] += 1;
    }
    c.ti = std::max(t.Seconds() / (kN / 4), 1e-11);
  }
  {  // allocation of small blocks
    constexpr size_t kAllocs = 1 << 16;
    std::vector<std::unique_ptr<uint8_t[]>> blocks;
    blocks.reserve(kAllocs);
    WallTimer t;
    for (size_t i = 0; i < kAllocs; ++i) {
      blocks.emplace_back(new uint8_t[32]);
    }
    c.tm = std::max(t.Seconds() / kAllocs, 1e-11);
  }
  return c;
}

namespace {

// Times fn() repeatedly until the accumulated wall clock passes min_sec
// (tiny sparse products at low density finish in microseconds; a single
// sample would be all noise). Returns seconds per call.
template <typename Fn>
double TimePerCall(const Fn& fn, double min_sec = 5e-3, int max_reps = 256) {
  WallTimer t;
  int reps = 0;
  do {
    fn();
    ++reps;
  } while (t.Seconds() < min_sec && reps < max_reps);
  return std::max(t.Seconds(), 1e-9) / reps;
}

// The inner dimension in whole 64-bit words, the unit of the bit-count
// kernel's cost: a 70-wide inner dimension costs what a 128-wide one does.
double WordBits(uint64_t v) { return static_cast<double>((v + 63) / 64 * 64); }

double InterpolateRate(const std::vector<SparseKernelRates::Anchor>& anchors,
                       double density,
                       double SparseKernelRates::Anchor::*field) {
  JPMM_CHECK(!anchors.empty());
  density = std::clamp(density, 1e-12, 1.0);
  if (density <= anchors.front().density) return anchors.front().*field;
  if (density >= anchors.back().density) return anchors.back().*field;
  for (size_t i = 1; i < anchors.size(); ++i) {
    if (density <= anchors[i].density) {
      const auto& lo = anchors[i - 1];
      const auto& hi = anchors[i];
      const double t = (std::log(density) - std::log(lo.density)) /
                       (std::log(hi.density) - std::log(lo.density));
      return lo.*field + t * (hi.*field - lo.*field);
    }
  }
  return anchors.back().*field;
}

}  // namespace

SparseKernelRates SparseKernelRates::Measure(
    uint32_t dim, const std::vector<double>& densities) {
  JPMM_CHECK(dim > 0 && !densities.empty());
  JPMM_CHECK(std::is_sorted(densities.begin(), densities.end()));
  SparseKernelRates rates;
  for (double d : densities) {
    JPMM_CHECK(d > 0.0 && d <= 1.0);
    const Matrix bd = RandomDenseMatrix(dim, dim, d, 31 + dim);
    const CsrMatrix a =
        CsrMatrix::FromDense(RandomDenseMatrix(dim, dim, d, 37 + dim));
    const CsrMatrix bcsr = CsrMatrix::FromDense(bd);
    Anchor anchor;
    anchor.density = d;
    {
      const double ops = SparseProductOps(a.nnz(), dim, dim);
      const double sec = TimePerCall([&] {
        Matrix c = CsrDenseProduct(a, bd, 1);
        (void)c;
      });
      anchor.csr_dense_ops_per_sec = std::max(ops, 1.0) / sec;
    }
    {
      const double ops = CsrCsrExpandOps(a, bcsr, 0, a.rows());
      const double sec = TimePerCall([&] {
        Matrix c = CsrCsrProduct(a, bcsr, 1);
        (void)c;
      });
      anchor.csr_csr_ops_per_sec = std::max(ops, 1.0) / sec;
    }
    rates.anchors.push_back(anchor);
  }
  // The dense anchor is M̂'s 1-core 512^3 timing, not a second
  // measurement, so the dispatcher and the optimizer price the bit count
  // at one rate.
  constexpr uint32_t p = 512;
  rates.dense_flops_per_sec =
      2.0 * std::pow(static_cast<double>(p), 3.0) /
      MatMulCalibration::Default().EstimateSeconds(p, p, p, 1);
  return rates;
}

SparseKernelRates SparseKernelRates::FromRates(double csr_dense_ops_per_sec,
                                               double csr_csr_ops_per_sec,
                                               double dense_flops_per_sec) {
  JPMM_CHECK(csr_dense_ops_per_sec > 0 && csr_csr_ops_per_sec > 0 &&
             dense_flops_per_sec > 0);
  SparseKernelRates rates;
  rates.anchors.push_back(
      Anchor{1e-4, csr_dense_ops_per_sec, csr_csr_ops_per_sec});
  rates.anchors.push_back(
      Anchor{1.0, csr_dense_ops_per_sec, csr_csr_ops_per_sec});
  rates.dense_flops_per_sec = dense_flops_per_sec;
  return rates;
}

const SparseKernelRates& SparseKernelRates::Default() {
  // Keyed by the active dispatch level: a JPMM_ISA override (or a test's
  // ScopedIsaOverride) must re-measure rather than reuse rates measured
  // under a different instruction set. Measurement happens under the lock,
  // once per level; returned references stay valid for the process.
  static std::mutex mu;
  static std::array<std::unique_ptr<SparseKernelRates>, 3> per_isa;
  const auto key = static_cast<size_t>(ActiveIsa());
  std::lock_guard<std::mutex> lock(mu);
  if (!per_isa[key]) {
    per_isa[key] = std::make_unique<SparseKernelRates>(Measure(1024));
  }
  return *per_isa[key];
}

double SparseKernelRates::CsrDenseRate(double density) const {
  return InterpolateRate(anchors, density, &Anchor::csr_dense_ops_per_sec);
}

double SparseKernelRates::CsrCsrRate(double density) const {
  return InterpolateRate(anchors, density, &Anchor::csr_csr_ops_per_sec);
}

double SparseKernelRates::DenseSeconds(uint64_t rows, uint64_t v,
                                       uint64_t w) const {
  return 2.0 * static_cast<double>(rows) * WordBits(v) *
         static_cast<double>(w) / dense_flops_per_sec;
}

MatMulCalibration MatMulCalibration::Measure(
    const std::vector<uint32_t>& dims, const std::vector<int>& cores) {
  JPMM_CHECK(!dims.empty() && !cores.empty());
  JPMM_CHECK(std::is_sorted(dims.begin(), dims.end()));
  // EstimateSeconds' speedup interpolation brackets core counts by order.
  JPMM_CHECK(std::is_sorted(cores.begin(), cores.end()));
  MatMulCalibration cal;
  cal.cores_ = cores;
  cal.entries_.resize(cores.size());
  for (uint32_t p : dims) {
    // Whole words, so the timed product is the p x p x p it is filed under.
    JPMM_CHECK(p > 0 && p % 64 == 0);
    // The dense blocks' operands, built once per dim: random 0/1 p x p
    // matrices at density 0.5, as A's bit rows and B^T's.
    const BitRows a = BitRows::FromRows(
        CsrMatrix::FromDense(RandomDenseMatrix(p, p, 0.5, 41 + p)));
    const BitRows bt = BitRows::FromColumns(
        CsrMatrix::FromDense(RandomDenseMatrix(p, p, 0.5, 43 + p)));
    std::vector<float> c(static_cast<size_t>(p) * p);
    const std::span<float> out(c);
    for (size_t ci = 0; ci < cores.size(); ++ci) {
      // The rows split into cores[ci] row bands the way the executor's
      // chunks split a heavy product.
      const double sec = TimePerCall([&] {
        ParallelFor(cores[ci], p, [&](size_t r0, size_t r1, int) {
          BitCountRowRange(a, bt, r0, r1, 0, p,
                           out.subspan(r0 * p, (r1 - r0) * p));
        });
      });
      cal.entries_[ci].push_back(Entry{p, sec});
    }
  }
  return cal;
}

MatMulCalibration MatMulCalibration::FromFlopsRate(
    double flops_per_second, const std::vector<int>& cores) {
  JPMM_CHECK(flops_per_second > 0 && !cores.empty());
  JPMM_CHECK(std::is_sorted(cores.begin(), cores.end()));
  MatMulCalibration cal;
  cal.cores_ = cores;
  cal.entries_.resize(cores.size());
  for (size_t ci = 0; ci < cores.size(); ++ci) {
    for (uint32_t p : {256u, 512u, 1024u, 2048u}) {
      const double ops = 2.0 * std::pow(static_cast<double>(p), 3.0);
      cal.entries_[ci].push_back(
          Entry{p, ops / (flops_per_second * cores[ci])});
    }
  }
  return cal;
}

double MatMulCalibration::EstimateForCore(double effective_dim,
                                          size_t core_idx) const {
  const auto& table = entries_[core_idx];
  // Log-log linear interpolation between the two bracketing grid points;
  // cubic extrapolation beyond the ends (classical kernel growth).
  if (effective_dim <= table.front().dim) {
    const auto& e = table.front();
    return e.seconds * std::pow(effective_dim / e.dim, 3.0);
  }
  if (effective_dim >= table.back().dim) {
    const auto& e = table.back();
    return e.seconds * std::pow(effective_dim / e.dim, 3.0);
  }
  for (size_t i = 1; i < table.size(); ++i) {
    if (effective_dim <= table[i].dim) {
      const auto& lo = table[i - 1];
      const auto& hi = table[i];
      const double t = (std::log(effective_dim) - std::log(lo.dim)) /
                       (std::log(hi.dim) - std::log(lo.dim));
      return std::exp(std::log(lo.seconds) +
                      t * (std::log(hi.seconds) - std::log(lo.seconds)));
    }
  }
  return table.back().seconds;
}

double MatMulCalibration::EstimateSeconds(uint64_t u, uint64_t v, uint64_t w,
                                          int co) const {
  if (u == 0 || v == 0 || w == 0) return 0.0;
  co = std::max(1, co);
  const double effective_dim = std::cbrt(
      static_cast<double>(u) * WordBits(v) * static_cast<double>(w));

  // Per-anchor estimates at this problem size, then interpolate the
  // MEASURED speedup curve across core counts. The old model assumed
  // perfect linear scaling beyond the grid; real speedup flattens with
  // memory-bandwidth pressure, so extrapolation now continues the marginal
  // per-core efficiency of the last measured segment instead.
  const size_t nc = cores_.size();
  std::vector<double> secs(nc);
  for (size_t ci = 0; ci < nc; ++ci) {
    secs[ci] = std::max(EstimateForCore(effective_dim, ci), 1e-12);
  }
  const double base = secs.front();       // seconds at the smallest anchor
  const int c0 = cores_.front();

  if (co <= c0) {
    // Below the grid: scale linearly down from the smallest anchor (only
    // reachable with grids that omit 1 core).
    return base * static_cast<double>(c0) / static_cast<double>(co);
  }
  // speedup(c) relative to the smallest anchor; s(c0) = 1 by construction.
  auto speedup_at = [&](size_t ci) { return base / secs[ci]; };
  for (size_t ci = 1; ci < nc; ++ci) {
    if (co <= cores_[ci]) {
      // Piecewise-linear speedup between the bracketing anchors.
      const double s_lo = speedup_at(ci - 1);
      const double s_hi = speedup_at(ci);
      const double f = static_cast<double>(co - cores_[ci - 1]) /
                       static_cast<double>(cores_[ci] - cores_[ci - 1]);
      const double s = s_lo + f * (s_hi - s_lo);
      return base / std::max(s, 1e-9);
    }
  }
  // Beyond the grid. With >= 2 anchors, continue the last segment's
  // marginal efficiency (clamped non-negative: extra cores never help less
  // than nothing). With a single anchor there is no measured efficiency —
  // fall back to the linear assumption, as before.
  double s_last = speedup_at(nc - 1);
  double marginal;
  if (nc >= 2) {
    marginal = (s_last - speedup_at(nc - 2)) /
               static_cast<double>(cores_[nc - 1] - cores_[nc - 2]);
    marginal = std::max(0.0, marginal);
  } else {
    marginal = s_last / static_cast<double>(cores_[nc - 1]);
  }
  const double s = s_last + marginal * static_cast<double>(co - cores_[nc - 1]);
  return base / std::max(s, 1e-9);
}

double MatMulCalibration::single_core_flops() const {
  size_t one = 0;
  for (size_t ci = 0; ci < cores_.size(); ++ci) {
    if (cores_[ci] == 1) one = ci;
  }
  const Entry& e = entries_[one].back();
  return 2.0 * std::pow(static_cast<double>(e.dim), 3.0) / e.seconds;
}

const MatMulCalibration& MatMulCalibration::Default() {
  // Per-ISA cache; see SparseKernelRates::Default(). Before the kernels
  // dispatched on KernelIsa this was a single call_once singleton, which
  // silently served avx512-measured rates to a portable-forced run.
  static std::mutex mu;
  static std::array<std::unique_ptr<MatMulCalibration>, 3> per_isa;
  const auto key = static_cast<size_t>(ActiveIsa());
  std::lock_guard<std::mutex> lock(mu);
  if (!per_isa[key]) {
    // Anchor the parallel efficiency with real measurements at 2 cores and
    // the full machine (row bands on the pool), so EstimateSeconds stops
    // assuming linear scaling it can't deliver. On a single-core host
    // the grid collapses to {1} and behavior is unchanged.
    std::vector<int> cores{1};
    const int hw = HardwareThreads();
    if (hw >= 2) cores.push_back(2);
    if (hw > 2) cores.push_back(hw);
    per_isa[key] = std::make_unique<MatMulCalibration>(
        Measure({128, 256, 512, 1024}, cores));
  }
  return *per_isa[key];
}

}  // namespace jpmm
