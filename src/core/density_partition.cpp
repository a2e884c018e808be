#include "core/density_partition.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/metrics.h"
#include "matrix/cost_model.h"

namespace jpmm {

TwoPathPartition::TwoPathPartition(const IndexedRelation& r,
                                   const IndexedRelation& s, Thresholds t)
    : r_(&r), s_(&s), t_(t) {
  // Candidate heavy y: deg_S(b) > Delta1 and b present in R (otherwise no
  // R+ tuple references it).
  const Value ny = std::max(r.num_y(), s.num_y());
  std::vector<uint8_t> y_candidate(ny, 0);
  for (Value b = 0; b < ny; ++b) {
    y_candidate[b] = (s.DegY(b) > t.delta1 && r.DegY(b) > 0) ? 1 : 0;
  }

  // Heavy x = heavy-degree x values adjacent to >= 1 candidate heavy y.
  heavy_x_id_.assign(r.num_x(), kInvalidValue);
  for (Value a = 0; a < r.num_x(); ++a) {
    if (r.DegX(a) <= t.delta2) continue;
    for (Value b : r.YsOf(a)) {
      if (y_candidate[b]) {
        heavy_x_id_[a] = static_cast<Value>(heavy_x_.size());
        heavy_x_.push_back(a);
        break;
      }
    }
  }

  // Heavy z = heavy-degree z values adjacent to >= 1 candidate heavy y.
  heavy_z_id_.assign(s.num_x(), kInvalidValue);
  for (Value c = 0; c < s.num_x(); ++c) {
    if (s.DegX(c) <= t.delta2) continue;
    for (Value b : s.YsOf(c)) {
      if (b < ny && y_candidate[b]) {
        heavy_z_id_[c] = static_cast<Value>(heavy_z_.size());
        heavy_z_.push_back(c);
        break;
      }
    }
  }

  // Keep a candidate y only if it touches >= 1 heavy x in R and >= 1 heavy z
  // in S; all-zero matrix columns/rows would otherwise inflate the product.
  heavy_y_id_.assign(ny, kInvalidValue);
  for (Value b = 0; b < ny; ++b) {
    if (!y_candidate[b]) continue;
    bool has_heavy_x = false;
    for (Value a : r.XsOf(b)) {
      if (heavy_x_id_[a] != kInvalidValue) {
        has_heavy_x = true;
        break;
      }
    }
    if (!has_heavy_x) continue;
    bool has_heavy_z = false;
    for (Value c : s.XsOf(b)) {
      if (heavy_z_id_[c] != kInvalidValue) {
        has_heavy_z = true;
        break;
      }
    }
    if (!has_heavy_z) continue;
    heavy_y_id_[b] = static_cast<Value>(heavy_y_.size());
    heavy_y_.push_back(b);
  }
}

BinaryRelation TwoPathPartition::RMinus() const {
  BinaryRelation out;
  for (Value a = 0; a < r_->num_x(); ++a) {
    for (Value b : r_->YsOf(a)) {
      if (XLight(a) || YLight(b)) out.Add(a, b);
    }
  }
  out.Finalize();
  return out;
}

BinaryRelation TwoPathPartition::RPlus() const {
  BinaryRelation out;
  for (Value a = 0; a < r_->num_x(); ++a) {
    for (Value b : r_->YsOf(a)) {
      if (!XLight(a) && !YLight(b)) out.Add(a, b);
    }
  }
  out.Finalize();
  return out;
}

BinaryRelation TwoPathPartition::SMinus() const {
  BinaryRelation out;
  for (Value c = 0; c < s_->num_x(); ++c) {
    for (Value b : s_->YsOf(c)) {
      if (ZLight(c) || YLight(b)) out.Add(c, b);
    }
  }
  out.Finalize();
  return out;
}

BinaryRelation TwoPathPartition::SPlus() const {
  BinaryRelation out;
  for (Value c = 0; c < s_->num_x(); ++c) {
    for (Value b : s_->YsOf(c)) {
      if (!ZLight(c) && !YLight(b)) out.Add(c, b);
    }
  }
  out.Finalize();
  return out;
}

const char* PartitionModeName(PartitionMode m) {
  switch (m) {
    case PartitionMode::kAuto:
      return "auto";
    case PartitionMode::kOff:
      return "off";
    case PartitionMode::kForce:
      return "force";
  }
  return "?";
}

namespace {

// Priced seconds of one rows x v by v x w block on the given kernel —
// the same formulas ChooseProductKernel compares (heavy_dispatch.cpp),
// reused here so grid shapes and the uniform baseline are priced on one
// scale.
double BlockSeconds(uint64_t rows, uint64_t v, uint64_t w, uint64_t block_nnz,
                    double expand_ops, const SparseKernelRates& rates,
                    ProductKernel kernel) {
  const double cells =
      static_cast<double>(rows) * static_cast<double>(std::max<uint64_t>(1, v));
  const double density = static_cast<double>(block_nnz) / std::max(1.0, cells);
  const double sd_rate = rates.CsrDenseRate(density);
  const double scan = static_cast<double>(rows) * static_cast<double>(w);
  switch (kernel) {
    case ProductKernel::kDenseGemm:
      return rates.DenseSeconds(rows, v, w) +
             SparseProductSeconds(scan, sd_rate);
    case ProductKernel::kCsrDense:
      return SparseProductSeconds(SparseProductOps(block_nnz, rows, w) + scan,
                                  sd_rate);
    case ProductKernel::kCsrCsr:
      return SparseProductSeconds(expand_ops, rates.CsrCsrRate(density));
  }
  return 0.0;
}

ProductKernel PickKernel(uint64_t rows, uint64_t v, uint64_t w,
                         uint64_t block_nnz, double expand_ops,
                         const SparseKernelRates& rates, HeavyPathMode mode,
                         bool allow_dense, bool allow_csr_dense) {
  switch (mode) {
    case HeavyPathMode::kForceDense:
      return ProductKernel::kDenseGemm;
    case HeavyPathMode::kForceCsrDense:
      return ProductKernel::kCsrDense;
    case HeavyPathMode::kForceCsrCsr:
      return ProductKernel::kCsrCsr;
    case HeavyPathMode::kAuto:
      break;
  }
  return ChooseProductKernel(rows, v, w, block_nnz, expand_ops, rates,
                             allow_dense, allow_csr_dense);
}

// Equal-weight band boundaries over `weights`, at most `bands` bands, every
// band non-empty. Returns boundary indices (size #bands + 1, first 0, last
// weights.size()).
std::vector<size_t> EquiWeightBands(const std::vector<uint64_t>& weights,
                                    size_t bands) {
  const size_t n = weights.size();
  bands = std::max<size_t>(1, std::min(bands, n));
  uint64_t total = 0;
  for (uint64_t w : weights) total += w;
  std::vector<size_t> bounds;
  bounds.push_back(0);
  uint64_t cum = 0;
  size_t i = 0;
  for (size_t band = 0; band + 1 < bands; ++band) {
    // Leave at least one element per remaining band.
    const size_t max_end = n - (bands - band - 1);
    const uint64_t target = (total * (band + 1) + bands - 1) / bands;
    while (i < max_end && (cum < target || i <= bounds.back())) {
      cum += weights[i];
      ++i;
    }
    if (i <= bounds.back()) i = bounds.back() + 1;
    bounds.push_back(i);
  }
  while (i < n) {
    cum += weights[i];
    ++i;
  }
  bounds.push_back(n);
  return bounds;
}

}  // namespace

std::string DensityGrid::Signature() const {
  return std::to_string(num_row_bands()) + "x" +
         std::to_string(num_col_bands()) + "/s" +
         std::to_string(blocks.size()) + "/p" + std::to_string(pruned_blocks);
}

DensityGrid BuildDensityGrid(const CsrMatrix& a, const CsrMatrix& b,
                             const DensityGridOptions& opts) {
  JPMM_CHECK(a.cols() == b.rows());
  static Counter& grids_built =
      MetricsRegistry::Global().GetCounter("jpmm_partition_grids_built_total");
  grids_built.Add();
  DensityGrid g;
  const size_t rows = a.rows();
  const size_t inner = a.cols();
  const size_t cols = b.cols();
  const size_t rb = std::max<size_t>(1, opts.row_block);
  const SparseKernelRates* rates = opts.rates;
  if (rates == nullptr) rates = &SparseKernelRates::Default();

  g.row_perm.resize(rows);
  std::iota(g.row_perm.begin(), g.row_perm.end(), 0u);
  g.col_perm.resize(cols);
  std::iota(g.col_perm.begin(), g.col_perm.end(), 0u);
  g.row_bands = {0, static_cast<uint32_t>(rows)};
  g.col_bands = {0, static_cast<uint32_t>(cols)};
  if (rows == 0 || cols == 0 || inner == 0) {
    g.grid_blocks = 0;
    return g;
  }

  // Degree-sorted remaps: rows by descending nnz, output columns by
  // descending incidence count (stable, index tie-break — the remap must be
  // a deterministic bijection).
  std::stable_sort(g.row_perm.begin(), g.row_perm.end(),
                   [&](uint32_t x, uint32_t y) {
                     return a.RowRangeNnz(x, x + 1) > a.RowRangeNnz(y, y + 1);
                   });
  std::vector<uint64_t> col_cnt(cols, 0);
  for (size_t y = 0; y < inner; ++y) {
    for (uint32_t c : b.Row(y)) ++col_cnt[c];
  }
  std::stable_sort(
      g.col_perm.begin(), g.col_perm.end(),
      [&](uint32_t x, uint32_t y) { return col_cnt[x] > col_cnt[y]; });

  // Per-chunk nnz in remapped row order; row bands are unions of chunks so
  // the executing join's work units never straddle a band.
  const size_t chunks = (rows + rb - 1) / rb;
  std::vector<uint64_t> chunk_nnz(chunks, 0);
  for (size_t ci = 0; ci < chunks; ++ci) {
    const size_t r1 = std::min(rows, (ci + 1) * rb);
    for (size_t r = ci * rb; r < r1; ++r) {
      const uint32_t orig = g.row_perm[r];
      chunk_nnz[ci] += a.RowRangeNnz(orig, orig + 1);
    }
  }

  // Uniform baseline: the unpermuted row-block plan, priced per chunk with
  // the same per-block kernel choice PlanProductBlocks would make.
  double uniform = 0.0;
  for (size_t ci = 0; ci < chunks; ++ci) {
    const size_t r0 = ci * rb;
    const size_t r1 = std::min(rows, r0 + rb);
    const uint64_t nnz = a.RowRangeNnz(r0, r1);
    const double expand = CsrCsrExpandOps(a, b, r0, r1);
    const ProductKernel k =
        PickKernel(r1 - r0, inner, cols, nnz, expand, *rates, opts.mode,
                   opts.allow_dense, opts.allow_csr_dense);
    uniform += BlockSeconds(r1 - r0, inner, cols, nnz, expand, *rates, k);
  }
  g.est_uniform_seconds = uniform;

  // Shape search: powers-of-two band counts, equal-nnz splits, exact
  // per-cell witness bounds, priced per scheduled cell. The remap + band
  // slice builds cost a few streaming passes over both operands; price them
  // so a shape only wins when the kernel savings pay for the setup.
  struct Shape {
    std::vector<size_t> row_bounds;  // chunk indices
    std::vector<size_t> col_bounds;  // remapped column offsets
    std::vector<double> expand;      // per grid cell, row-band-major
    std::vector<uint64_t> band_nnz;  // per row band
    size_t nr = 0, nc = 0;
    uint64_t pruned = 0;
    double seconds = 0.0;
  };
  Shape best;
  bool have_best = false;
  std::vector<size_t> col_band_of(cols);
  std::vector<uint32_t> bandcnt;
  for (size_t nc = 1; nc <= std::min(opts.max_col_bands, cols); nc *= 2) {
    // Column bands: equal incidence weight over the remapped columns.
    std::vector<uint64_t> perm_col_cnt(cols);
    for (size_t k = 0; k < cols; ++k) perm_col_cnt[k] = col_cnt[g.col_perm[k]];
    const std::vector<size_t> col_bounds = EquiWeightBands(perm_col_cnt, nc);
    const size_t ncb = col_bounds.size() - 1;
    for (size_t j = 0; j < ncb; ++j) {
      for (size_t k = col_bounds[j]; k < col_bounds[j + 1]; ++k) {
        col_band_of[g.col_perm[k]] = j;
      }
    }
    // Per-inner-value incidence per column band, then per (chunk, band)
    // exact expansion bound: sum over A entries of the matching B row's
    // band-restricted nnz. Zero bound == provably empty cell.
    bandcnt.assign(inner * ncb, 0);
    for (size_t y = 0; y < inner; ++y) {
      uint32_t* row = bandcnt.data() + y * ncb;
      for (uint32_t c : b.Row(y)) ++row[col_band_of[c]];
    }
    std::vector<double> chunk_expand(chunks * ncb, 0.0);
    for (size_t ci = 0; ci < chunks; ++ci) {
      double* cell = chunk_expand.data() + ci * ncb;
      const size_t r1 = std::min(rows, (ci + 1) * rb);
      for (size_t r = ci * rb; r < r1; ++r) {
        for (uint32_t y : a.Row(g.row_perm[r])) {
          const uint32_t* row = bandcnt.data() + static_cast<size_t>(y) * ncb;
          for (size_t j = 0; j < ncb; ++j) cell[j] += row[j];
        }
      }
    }

    for (size_t nr = 1; nr <= std::min(opts.max_row_bands, chunks); nr *= 2) {
      Shape s;
      s.row_bounds = EquiWeightBands(chunk_nnz, nr);
      s.col_bounds = col_bounds;
      s.nr = s.row_bounds.size() - 1;
      s.nc = ncb;
      s.expand.assign(s.nr * s.nc, 0.0);
      s.band_nnz.assign(s.nr, 0);
      double cost = 0.0;
      for (size_t i = 0; i < s.nr; ++i) {
        const size_t c0 = s.row_bounds[i];
        const size_t c1 = s.row_bounds[i + 1];
        const size_t band_rows =
            std::min(rows, c1 * rb) - c0 * rb;
        uint64_t nnz = 0;
        for (size_t ci = c0; ci < c1; ++ci) nnz += chunk_nnz[ci];
        s.band_nnz[i] = nnz;
        for (size_t j = 0; j < s.nc; ++j) {
          double expand = 0.0;
          for (size_t ci = c0; ci < c1; ++ci) {
            expand += chunk_expand[ci * s.nc + j];
          }
          s.expand[i * s.nc + j] = expand;
          if (expand <= 0.0) {
            ++s.pruned;
            continue;
          }
          const uint64_t w = s.col_bounds[j + 1] - s.col_bounds[j];
          const ProductKernel k =
              PickKernel(band_rows, inner, w, nnz, expand, *rates, opts.mode,
                         opts.allow_dense, opts.allow_csr_dense);
          cost += BlockSeconds(band_rows, inner, w, nnz, expand, *rates, k);
        }
      }
      const double overhead_ops =
          2.0 * (static_cast<double>(a.nnz()) + static_cast<double>(b.nnz())) +
          static_cast<double>(rows) + static_cast<double>(cols) +
          static_cast<double>(inner) * static_cast<double>(s.nc);
      s.seconds = cost + SparseProductSeconds(overhead_ops,
                                              rates->CsrDenseRate(1.0));
      if (!have_best || s.seconds < best.seconds) {
        best = std::move(s);
        have_best = true;
      }
    }
  }

  // Materialize the winning shape.
  g.row_bands.clear();
  for (size_t bound : best.row_bounds) {
    g.row_bands.push_back(
        static_cast<uint32_t>(std::min(rows, bound * rb)));
  }
  g.col_bands.assign(best.col_bounds.begin(), best.col_bounds.end());
  g.grid_blocks = static_cast<uint64_t>(best.nr) * best.nc;
  g.pruned_blocks = best.pruned;
  g.est_seconds = best.seconds;
  for (size_t i = 0; i < best.nr; ++i) {
    const uint32_t r0 = g.row_bands[i];
    const uint32_t r1 = g.row_bands[i + 1];
    for (size_t j = 0; j < best.nc; ++j) {
      if (best.expand[i * best.nc + j] <= 0.0) continue;
      BlockKernelChoice c;
      c.row_begin = r0;
      c.row_end = r1;
      c.col_begin = static_cast<uint32_t>(best.col_bounds[j]);
      c.col_end = static_cast<uint32_t>(best.col_bounds[j + 1]);
      c.nnz = best.band_nnz[i];
      const double cells = static_cast<double>(r1 - r0) *
                           static_cast<double>(std::max<size_t>(1, inner));
      c.density = cells > 0.0 ? static_cast<double>(c.nnz) / cells : 0.0;
      c.kernel = PickKernel(r1 - r0, inner, c.col_end - c.col_begin, c.nnz,
                            best.expand[i * best.nc + j], *rates, opts.mode,
                            opts.allow_dense, opts.allow_csr_dense);
      g.blocks.push_back(c);
    }
  }
  // The grid must save enough to pay for the remap with margin, or prune
  // real work; a 1x1 grid with nothing pruned is the uniform plan plus
  // overhead and is never beneficial.
  g.beneficial =
      g.est_seconds < 0.95 * g.est_uniform_seconds &&
      (g.num_row_bands() > 1 || g.num_col_bands() > 1 || g.pruned_blocks > 0);
  return g;
}

}  // namespace jpmm
