// Aligned allocation for the big kernel slabs.
//
// The explicit SIMD kernels want their operands on vector-register and
// cache-line boundaries: a 64-byte base keeps the bit rows, the AVX-512
// bit-count panels and the CSR index arrays from straddling lines.
// std::vector's default allocator only guarantees
// alignof(std::max_align_t) (16 on glibc), so the slabs route through:
//
//   AlignedAllocator<T, Align>  - std-compatible allocator; AlignedVector
//       is the drop-in vector type the slab owners (BitRows, CsrMatrix,
//       kernel scratch) use — full vector API, aligned base.
//   vmalloc<T, Align>(n, pattern) - RAII buffer for fixed-size scratch,
//       modeled on the SPP2377 vmalloc<T, align>(n, AccessPattern) idiom:
//       the access-pattern hint is advisory (LINEAR slabs above the
//       huge-page threshold request MADV_HUGEPAGE on Linux).
//
// Alignment must be a power of two and at least alignof(T). Allocation
// failures throw std::bad_alloc like the default allocator.

#ifndef JPMM_COMMON_ALIGNED_BUFFER_H_
#define JPMM_COMMON_ALIGNED_BUFFER_H_

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace jpmm {

inline constexpr size_t kDefaultSlabAlign = 64;

/// Minimal std-allocator with a compile-time alignment guarantee.
template <typename T, size_t Align = kDefaultSlabAlign>
class AlignedAllocator {
 public:
  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of 2");
  static_assert(Align >= alignof(T), "alignment below the type's own");

  using value_type = T;
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) {}  // NOLINT

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Align});
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// std::vector whose data() is Align-byte aligned.
template <typename T, size_t Align = kDefaultSlabAlign>
using AlignedVector = std::vector<T, AlignedAllocator<T, Align>>;

/// Advisory hint for how a slab will be walked.
enum class AccessPattern {
  kLinear,  // streamed: worth huge pages when big
  kRandom,  // pointer-chased / gathered: no paging hint
};

/// Fixed-size RAII slab: Align-byte base, value-initialized elements.
/// Movable, not copyable. For scratch that outlives no one (per-thread
/// packing buffers); growable slabs use AlignedVector instead.
template <typename T, size_t Align = kDefaultSlabAlign>
class AlignedBuf {
 public:
  AlignedBuf() = default;
  explicit AlignedBuf(size_t n, AccessPattern pattern = AccessPattern::kLinear)
      : size_(n) {
    if (n == 0) return;
    data_ = static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Align}));
    for (size_t i = 0; i < n; ++i) new (data_ + i) T();
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    // Streamed slabs of 2 MiB+ benefit from fewer TLB walks; the kernel is
    // free to ignore the hint (and does on unaligned interior ranges).
    if (pattern == AccessPattern::kLinear && n * sizeof(T) >= (1u << 21)) {
      madvise(data_, n * sizeof(T), MADV_HUGEPAGE);
    }
#else
    (void)pattern;
#endif
  }
  ~AlignedBuf() { Reset(); }

  AlignedBuf(AlignedBuf&& o) noexcept : data_(o.data_), size_(o.size_) {
    o.data_ = nullptr;
    o.size_ = 0;
  }
  AlignedBuf& operator=(AlignedBuf&& o) noexcept {
    if (this != &o) {
      Reset();
      data_ = o.data_;
      size_ = o.size_;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  AlignedBuf(const AlignedBuf&) = delete;
  AlignedBuf& operator=(const AlignedBuf&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  void Reset() {
    if (data_ == nullptr) return;
    for (size_t i = size_; i > 0; --i) data_[i - 1].~T();
    ::operator delete(data_, size_ * sizeof(T), std::align_val_t{Align});
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

/// The SPP2377-style spelling: vmalloc<float, 64>(n, AccessPattern::kLinear).
template <typename T, size_t Align = kDefaultSlabAlign>
AlignedBuf<T, Align> vmalloc(size_t n,
                             AccessPattern pattern = AccessPattern::kLinear) {
  return AlignedBuf<T, Align>(n, pattern);
}

}  // namespace jpmm

#endif  // JPMM_COMMON_ALIGNED_BUFFER_H_
