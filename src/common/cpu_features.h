// Runtime ISA detection and kernel-dispatch selection.
//
// The hot kernels (matrix/bit_rows, sparse_matrix, row_compact) each carry
// explicit SIMD variants compiled into per-ISA translation units with
// per-file -m flags, so ONE binary holds every path regardless of -march
// flags (JPMM_NATIVE on or off). Which variant runs is decided at runtime
// from CPUID — never from compile-time macros — through this module:
//
//   DetectBestIsa()   what the hardware + OS actually support (cached;
//                     AVX-512 requires the OS to have enabled zmm state,
//                     checked via xgetbv, not just the CPUID feature bits)
//   ActiveIsa()       the level kernels dispatch on: the JPMM_ISA override
//                     (env or SetKernelIsaOverride) clamped to what the
//                     host supports, else DetectBestIsa()
//
// Selection order: SetKernelIsaOverride (CLI --isa / tests) > JPMM_ISA
// env > CPUID. Overrides above the host's capability clamp DOWN to the
// detected level — forcing avx512 on an SSE-only box must degrade safely,
// not fault. Calibration (matrix/calibration.h) keys its measured kernel
// rates by ActiveIsa(), so an override re-measures instead of reusing
// anchors measured under a different instruction set.
//
// The selected level is exported as the `jpmm_isa` gauge (0 portable,
// 1 avx2, 2 avx512) and surfaced by jpmm_cli --explain.

#ifndef JPMM_COMMON_CPU_FEATURES_H_
#define JPMM_COMMON_CPU_FEATURES_H_

#include <string>

namespace jpmm {

/// Kernel dispatch levels, ordered: a level implies every lower one.
enum class KernelIsa {
  kPortable = 0,  // the auto-vectorized C++ kernels (always available)
  kAvx2 = 1,      // AVX2 + FMA + POPCNT
  kAvx512 = 2,    // AVX-512 F/BW/DQ/VL/CD
};

/// "portable" / "avx2" / "avx512".
const char* KernelIsaName(KernelIsa isa);

/// Parses a KernelIsaName string (case-sensitive). Returns false on
/// anything else; *out is untouched.
bool ParseKernelIsa(const std::string& s, KernelIsa* out);

/// Best level the hardware AND the OS support, detected once via CPUID +
/// xgetbv and cached. kPortable on non-x86 builds.
KernelIsa DetectBestIsa();

/// True iff `isa` can run on this host (portable always can).
bool IsaSupported(KernelIsa isa);

/// True iff the host supports AVX-512 VPOPCNTDQ (the bit-count kernel's
/// vector popcount). Detected with DetectBestIsa; false unless
/// DetectBestIsa() is kAvx512.
bool HasAvx512Vpopcntdq();

/// The level every kernel dispatches on: override (clamped to the host's
/// capability) if one is set, else DetectBestIsa(). The JPMM_ISA
/// environment variable is read once, on first call. Cheap (one relaxed
/// atomic load after initialization) — kernels call it once per
/// row-range / product invocation.
KernelIsa ActiveIsa();

/// Sets (or with has_value=false clears) the process-wide override.
/// Unsupported levels are accepted but clamp to DetectBestIsa() at
/// ActiveIsa() time. Updates the jpmm_isa gauge.
void SetKernelIsaOverride(KernelIsa isa);
void ClearKernelIsaOverride();

/// RAII override for tests: forces `isa` for the scope, restores the
/// previous override (or no-override) on destruction.
class ScopedIsaOverride {
 public:
  explicit ScopedIsaOverride(KernelIsa isa);
  ~ScopedIsaOverride();
  ScopedIsaOverride(const ScopedIsaOverride&) = delete;
  ScopedIsaOverride& operator=(const ScopedIsaOverride&) = delete;

 private:
  int prev_;  // encoded override state at construction
};

}  // namespace jpmm

#endif  // JPMM_COMMON_CPU_FEATURES_H_
