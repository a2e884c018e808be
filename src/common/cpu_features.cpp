#include "common/cpu_features.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "common/metrics.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#include <immintrin.h>
#define JPMM_X86_64 1
#endif

namespace jpmm {
namespace {

// Override encoding in one atomic int: -1 = no override, else the
// KernelIsa value. Lets ScopedIsaOverride snapshot/restore the full state.
constexpr int kNoOverride = -1;
std::atomic<int> g_override{kNoOverride};

#ifdef JPMM_X86_64
// The _xgetbv intrinsic requires compiling the TU with -mxsave, but this
// file must build under the baseline (JPMM_NATIVE=OFF) flags — detection
// runs before we know anything about the host. The instruction itself is
// safe to execute whenever CPUID reports OSXSAVE, so issue it directly.
unsigned long long ReadXcr0() {
#if defined(_MSC_VER)
  return _xgetbv(0);
#else
  unsigned int lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0u));
  return (static_cast<unsigned long long>(hi) << 32) | lo;
#endif
}
#endif  // JPMM_X86_64

struct Detected {
  KernelIsa best = KernelIsa::kPortable;
  bool vpopcntdq = false;
};

Detected DetectOnce() {
  Detected d;
#ifdef JPMM_X86_64
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return d;
  const bool osxsave = (ecx >> 27) & 1;
  const bool avx = (ecx >> 28) & 1;
  const bool fma = (ecx >> 12) & 1;
  const bool popcnt = (ecx >> 23) & 1;
  if (!osxsave || !avx) return d;
  // xgetbv: the OS must have enabled xmm+ymm state saving (bits 1|2), and
  // for AVX-512 additionally the opmask + zmm state (bits 5|6|7).
  const unsigned long long xcr0 = ReadXcr0();
  const bool ymm_enabled = (xcr0 & 0x6) == 0x6;
  const bool zmm_enabled = (xcr0 & 0xE6) == 0xE6;
  if (!ymm_enabled) return d;

  unsigned int eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
  if (!__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7)) return d;
  const bool avx2 = (ebx7 >> 5) & 1;
  // POPCNT is on every AVX2 part; the level requires it for the bit-count
  // kernel (matrix/bit_kernels_popcnt.cpp).
  if (avx2 && fma && popcnt) d.best = KernelIsa::kAvx2;

  const bool avx512f = (ebx7 >> 16) & 1;
  const bool avx512dq = (ebx7 >> 17) & 1;
  const bool avx512cd = (ebx7 >> 28) & 1;
  const bool avx512bw = (ebx7 >> 30) & 1;
  const bool avx512vl = (ebx7 >> 31) & 1;
  if (zmm_enabled && avx512f && avx512dq && avx512cd && avx512bw &&
      avx512vl && d.best == KernelIsa::kAvx2) {
    d.best = KernelIsa::kAvx512;
    d.vpopcntdq = (ecx7 >> 14) & 1;
  }
#endif
  return d;
}

const Detected& Detection() {
  static const Detected d = DetectOnce();
  return d;
}

KernelIsa ClampToHost(KernelIsa isa) {
  const KernelIsa best = DetectBestIsa();
  return static_cast<int>(isa) <= static_cast<int>(best) ? isa : best;
}

void PublishIsaGauge(KernelIsa isa) {
  static Gauge& gauge = MetricsRegistry::Global().GetGauge("jpmm_isa");
  gauge.Set(static_cast<int64_t>(isa));
}

// Reads JPMM_ISA exactly once, installing it as the initial override if it
// parses. An unparseable value is ignored (the CLI rejects bad --isa values
// loudly; env typos fall back to detection rather than aborting a server).
void InitFromEnvOnce() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    const char* v = std::getenv("JPMM_ISA");
    if (v == nullptr || *v == '\0') return;
    KernelIsa isa;
    if (ParseKernelIsa(v, &isa)) {
      g_override.store(static_cast<int>(isa), std::memory_order_relaxed);
    }
  });
}

}  // namespace

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable:
      return "portable";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kAvx512:
      return "avx512";
  }
  return "portable";
}

bool ParseKernelIsa(const std::string& s, KernelIsa* out) {
  if (s == "portable") {
    *out = KernelIsa::kPortable;
    return true;
  }
  if (s == "avx2") {
    *out = KernelIsa::kAvx2;
    return true;
  }
  if (s == "avx512") {
    *out = KernelIsa::kAvx512;
    return true;
  }
  return false;
}

KernelIsa DetectBestIsa() { return Detection().best; }

bool HasAvx512Vpopcntdq() { return Detection().vpopcntdq; }

bool IsaSupported(KernelIsa isa) {
  return static_cast<int>(isa) <= static_cast<int>(DetectBestIsa());
}

KernelIsa ActiveIsa() {
  InitFromEnvOnce();
  const int ov = g_override.load(std::memory_order_relaxed);
  const KernelIsa isa =
      ov == kNoOverride ? DetectBestIsa()
                        : ClampToHost(static_cast<KernelIsa>(ov));
  PublishIsaGauge(isa);
  return isa;
}

void SetKernelIsaOverride(KernelIsa isa) {
  InitFromEnvOnce();
  g_override.store(static_cast<int>(isa), std::memory_order_relaxed);
  PublishIsaGauge(ClampToHost(isa));
}

void ClearKernelIsaOverride() {
  InitFromEnvOnce();
  g_override.store(kNoOverride, std::memory_order_relaxed);
  PublishIsaGauge(DetectBestIsa());
}

ScopedIsaOverride::ScopedIsaOverride(KernelIsa isa) {
  InitFromEnvOnce();
  prev_ = g_override.load(std::memory_order_relaxed);
  SetKernelIsaOverride(isa);
}

ScopedIsaOverride::~ScopedIsaOverride() {
  if (prev_ == kNoOverride) {
    ClearKernelIsaOverride();
  } else {
    SetKernelIsaOverride(static_cast<KernelIsa>(prev_));
  }
}

}  // namespace jpmm
