// Tests for the runtime kernel-ISA dispatch layer (common/cpu_features.h):
// detection sanity, override/restore semantics, kernel selector fallback,
// the jpmm_isa gauge, and the regression that calibration re-measures per
// dispatch level instead of serving one global rate set.

#include <gtest/gtest.h>

#include <string>

#include "common/cpu_features.h"
#include "common/metrics.h"
#include "matrix/calibration.h"
#include "matrix/matmul_kernels.h"
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
    EXPECT_NE(internal::SelectMicroKernel(isa), nullptr);
    EXPECT_NE(internal::SelectExpandRow(isa), nullptr);
  }
  EXPECT_EQ(internal::SelectMicroKernel(KernelIsa::kPortable),
            &internal::MicroKernelPortable);
  EXPECT_EQ(internal::SelectExpandRow(KernelIsa::kPortable),
            &internal::ExpandRowPortable);
  // kAvx2 has no sparse-expansion variant: shares portable.
  EXPECT_EQ(internal::SelectExpandRow(KernelIsa::kAvx2),
            &internal::ExpandRowPortable);
  // When the binary carries the AVX-512 TUs, the avx512 selectors must
  // return them, not the portable fallback.
  if (internal::Avx512MicroKernel() != nullptr) {
    EXPECT_EQ(internal::SelectMicroKernel(KernelIsa::kAvx512),
              internal::Avx512MicroKernel());
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
