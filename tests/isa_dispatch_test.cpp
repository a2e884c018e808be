// Tests for the runtime kernel-ISA dispatch layer (common/cpu_features.h):
// detection sanity, override/restore semantics, kernel selector fallback,
// the jpmm_isa gauge, and the regression that calibration re-measures per
// dispatch level instead of serving one global rate set.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/metrics.h"
#include "matrix/bit_rows.h"
#include "matrix/calibration.h"
#include "matrix/random.h"
#include "matrix/sparse_kernels.h"

namespace jpmm {
namespace {

TEST(IsaDispatch, DetectionIsSaneAndMonotone) {
  const KernelIsa best = DetectBestIsa();
  EXPECT_EQ(best, DetectBestIsa());  // cached, stable
  EXPECT_TRUE(IsaSupported(KernelIsa::kPortable));
  // A supported level implies every lower one.
  if (IsaSupported(KernelIsa::kAvx512)) {
    EXPECT_TRUE(IsaSupported(KernelIsa::kAvx2));
  }
  // VPOPCNTDQ is an AVX-512 extension.
  if (HasAvx512Vpopcntdq()) {
    EXPECT_EQ(best, KernelIsa::kAvx512);
  }
  // The active level never exceeds what the host supports.
  EXPECT_LE(static_cast<int>(ActiveIsa()), static_cast<int>(best));
}

TEST(IsaDispatch, ParseKernelIsaRoundTripsAndRejects) {
  for (KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2,
                        KernelIsa::kAvx512}) {
    KernelIsa parsed;
    ASSERT_TRUE(ParseKernelIsa(KernelIsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  KernelIsa out = KernelIsa::kAvx2;
  EXPECT_FALSE(ParseKernelIsa("", &out));
  EXPECT_FALSE(ParseKernelIsa("AVX2", &out));  // case-sensitive
  EXPECT_FALSE(ParseKernelIsa("sse", &out));
  EXPECT_EQ(out, KernelIsa::kAvx2);  // untouched on failure
}

TEST(IsaDispatch, ScopedOverrideForcesAndRestores) {
  const KernelIsa ambient = ActiveIsa();
  {
    ScopedIsaOverride force(KernelIsa::kPortable);
    EXPECT_EQ(ActiveIsa(), KernelIsa::kPortable);
    {
      // Nested overrides restore the OUTER override, not no-override.
      ScopedIsaOverride inner(DetectBestIsa());
      EXPECT_EQ(ActiveIsa(), DetectBestIsa());
    }
    EXPECT_EQ(ActiveIsa(), KernelIsa::kPortable);
  }
  EXPECT_EQ(ActiveIsa(), ambient);
}

TEST(IsaDispatch, OverrideAboveHostCapabilityClampsDown) {
  ScopedIsaOverride force(KernelIsa::kAvx512);
  // On an avx512 host this forces avx512; anywhere else it must clamp to
  // the detected best rather than dispatch an illegal kernel.
  EXPECT_EQ(ActiveIsa(), IsaSupported(KernelIsa::kAvx512)
                             ? KernelIsa::kAvx512
                             : DetectBestIsa());
}

TEST(IsaDispatch, SelectorsNeverReturnNullAndHonorPortable) {
  for (KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2,
                        KernelIsa::kAvx512}) {
    EXPECT_NE(internal::SelectExpandRow(isa), nullptr);
    EXPECT_NE(internal::SelectBitCount(isa), nullptr);
  }
  EXPECT_EQ(internal::SelectBitCount(KernelIsa::kPortable),
            &internal::BitCountPortable);
  // No AVX2 vector popcount: kAvx2 runs the scalar POPCNT loop.
  const internal::BitCountFn popcnt =
      internal::PopcntBitCount() != nullptr ? internal::PopcntBitCount()
                                            : &internal::BitCountPortable;
  EXPECT_EQ(internal::SelectBitCount(KernelIsa::kAvx2), popcnt);
  EXPECT_EQ(internal::SelectExpandRow(KernelIsa::kPortable),
            &internal::ExpandRowPortable);
  // kAvx2 has no sparse-expansion variant: shares portable.
  EXPECT_EQ(internal::SelectExpandRow(KernelIsa::kAvx2),
            &internal::ExpandRowPortable);
  // When the binary carries the AVX-512 TUs, the avx512 selectors must
  // return them, not the portable fallback.
  if (internal::Avx512ExpandRow() != nullptr) {
    EXPECT_EQ(internal::SelectExpandRow(KernelIsa::kAvx512),
              internal::Avx512ExpandRow());
  }
  // The bit count's avx512 variant also needs the host's VPOPCNTDQ;
  // without it the level falls back to the POPCNT loop.
  EXPECT_EQ(internal::SelectBitCount(KernelIsa::kAvx512),
            HasAvx512Vpopcntdq() && internal::Avx512BitCount() != nullptr
                ? internal::Avx512BitCount()
                : popcnt);
}

// The POPCNT and VPOPCNTDQ bit counts write the same bytes as the portable
// one: inner dimensions from 1 bit to 19 words (a 1200-wide inner
// dimension) and past one 256-word panel (16448 bits = 257 words), and
// column counts around the 4-column POPCNT tile, the 8-column group, the
// 32-column tile and the 64-column panel. A variant runs only where the
// build carries it and the host supports it.
TEST(IsaDispatch, BitCountVariantsWriteIdenticalBytes) {
  std::vector<std::pair<const char*, internal::BitCountFn>> variants;
  if (IsaSupported(KernelIsa::kAvx2) && internal::PopcntBitCount()) {
    variants.emplace_back("popcnt", internal::PopcntBitCount());
  }
  if (HasAvx512Vpopcntdq() && internal::Avx512BitCount()) {
    variants.emplace_back("avx512-vpopcntdq", internal::Avx512BitCount());
  }
  if (variants.empty()) {
    GTEST_SKIP() << "host or build lacks POPCNT and AVX-512 VPOPCNTDQ";
  }
  uint64_t seed = 7700;
  for (size_t inner :
       {1u, 64u, 70u, 200u, 512u, 513u, 1088u, 1200u, 16448u}) {
    for (size_t cols : {1u, 5u, 8u, 15u, 33u, 70u}) {
      const BitRows a = BitRows::FromRows(
          CsrMatrix::FromDense(RandomDenseMatrix(9, inner, 0.4, seed++)));
      const BitRows bt = BitRows::FromColumns(
          CsrMatrix::FromDense(RandomDenseMatrix(inner, cols, 0.4, seed++)));
      std::vector<float> want(9 * cols, -1.0f);
      internal::BitCountPortable(a.Row(0), 9, bt.Row(0), cols, a.words(),
                                 want.data());
      for (const auto& [name, fn] : variants) {
        std::vector<float> got(9 * cols, -2.0f);
        fn(a.Row(0), 9, bt.Row(0), cols, a.words(), got.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << name << " inner=" << inner << " cols=" << cols;
      }
    }
  }
}

TEST(IsaDispatch, GaugeTracksActiveIsa) {
  Gauge& gauge = MetricsRegistry::Global().GetGauge("jpmm_isa");
  {
    ScopedIsaOverride force(KernelIsa::kPortable);
    (void)ActiveIsa();
    EXPECT_EQ(gauge.value(), 0);
  }
  if (IsaSupported(KernelIsa::kAvx2)) {
    ScopedIsaOverride force(KernelIsa::kAvx2);
    (void)ActiveIsa();
    EXPECT_EQ(gauge.value(), 1);
  }
  (void)ActiveIsa();
  EXPECT_EQ(gauge.value(), static_cast<int64_t>(ActiveIsa()));
}

// Regression: MatMulCalibration::Default() used to be one process-wide
// singleton measured under whatever ISA ran first; a later JPMM_ISA
// override silently reused those foreign rates. Now the cache keys by
// ActiveIsa(): same level -> same instance, different level -> a separate
// re-measured instance.
TEST(IsaDispatch, CalibrationRemeasuresPerForcedIsa) {
  const MatMulCalibration* portable_cal;
  const SparseKernelRates* portable_sparse;
  {
    ScopedIsaOverride force(KernelIsa::kPortable);
    portable_cal = &MatMulCalibration::Default();
    portable_sparse = &SparseKernelRates::Default();
    // Same level: cached, no re-measure.
    EXPECT_EQ(&MatMulCalibration::Default(), portable_cal);
    EXPECT_EQ(&SparseKernelRates::Default(), portable_sparse);
  }
  const KernelIsa best = DetectBestIsa();
  if (best == KernelIsa::kPortable) {
    GTEST_SKIP() << "host has a single dispatch level";
  }
  ScopedIsaOverride force(best);
  EXPECT_NE(&MatMulCalibration::Default(), portable_cal);
  EXPECT_NE(&SparseKernelRates::Default(), portable_sparse);
  EXPECT_EQ(&MatMulCalibration::Default(), &MatMulCalibration::Default());
}

}  // namespace
}  // namespace jpmm
