// Cache-line-aligned storage for the released flat buffers.
//
// Every hot released structure (packed Euler-tour LCA sparse table, dyadic
// block arrays, CSR adjacency, the bounded-weight Z x Z table) is a flat
// array streamed by the DistanceInto kernels. Default std::vector storage
// only guarantees alignof(T); these buffers start on their own cache line,
// so a kernel's first load never straddles a line boundary.
// AlignedVector is std::vector with a 64-byte aligned allocator, so every
// call site keeps vector semantics — the alignment is a property of the
// type, checked statically in tests.

#ifndef DPSP_COMMON_ALIGNED_H_
#define DPSP_COMMON_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

namespace dpsp {

/// One cache line: the alignment of every released flat buffer.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal C++17 aligned allocator (operator new with align_val_t).
template <typename T, std::size_t Alignment = kCacheLineBytes>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert(Alignment >= alignof(T),
                "alignment must not weaken the type's own requirement");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  bool operator==(const AlignedAllocator&) const noexcept { return true; }
  bool operator!=(const AlignedAllocator&) const noexcept { return false; }
};

/// std::vector whose data() is 64-byte aligned. Drop-in for the flat
/// released buffers; spans and raw pointers into it are unchanged.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// True iff `p` sits on a cache-line boundary — the tests' static check.
inline bool IsCacheAligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes == 0;
}

}  // namespace dpsp

#endif  // DPSP_COMMON_ALIGNED_H_
