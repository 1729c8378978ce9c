// Lazily zeroed host memory for the simulator's large, mostly untouched
// arrays: DRAM modules, cache line arrays, storage blocks and snapshot
// images. The bytes live in a private anonymous mapping, so the host
// supplies zero pages on first touch and an array costs only the pages that
// are written. Mapping-backed arrays have no ASan redzones; their owners'
// bounds checks are the only guard.
#ifndef SRC_MEM_ZERO_PAGES_H_
#define SRC_MEM_ZERO_PAGES_H_

#include <cstddef>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace guillotine {

inline constexpr size_t kHostPageBytes = 4096;

// A fresh mapping of `bytes` zero bytes (nullptr for 0); throws
// std::bad_alloc on failure.
void* MapZeroPages(size_t bytes);
void UnmapZeroPages(void* p, size_t bytes);
// Zeroes `bytes` at `p`, which must start a MapZeroPages mapping, by
// dropping its pages (MADV_DONTNEED); falls back to memset if the host
// refuses.
void ZeroMappedPages(void* p, size_t bytes);

// Allocates from MapZeroPages. Its no-argument construct() does nothing, so
// vector::resize leaves the host's zero pages untouched instead of
// zero-filling them. That is only correct for a buffer sized once: an
// element that a shrink dropped and a later resize brings back keeps its old
// bytes.
template <typename T>
struct ZeroPageAllocator {
  static_assert(std::is_trivially_default_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "a zero page must be a valid initial value of T");
  using value_type = T;

  ZeroPageAllocator() = default;
  template <typename U>
  ZeroPageAllocator(const ZeroPageAllocator<U>&) noexcept {}

  T* allocate(size_t n) { return static_cast<T*>(MapZeroPages(n * sizeof(T))); }
  void deallocate(T* p, size_t n) noexcept { UnmapZeroPages(p, n * sizeof(T)); }

  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(ZeroPageAllocator, ZeroPageAllocator) { return true; }
};

template <typename T>
using ZeroPageVector = std::vector<T, ZeroPageAllocator<T>>;

// Resets every element to all-zero bytes without writing them.
template <typename T>
void ZeroAll(ZeroPageVector<T>& v) {
  ZeroMappedPages(v.data(), v.size() * sizeof(T));
}

bool IsZeroPage(const u8* page);  // kHostPageBytes at `page`

// dst = src (equal sizes), page by page, except that a whole page that is
// already zero in both is left alone: never written, so a zero page of the
// destination's mapping stays unallocated. Every byte of src is read.
void CopyPages(std::span<u8> dst, std::span<const u8> src);

}  // namespace guillotine

#endif  // SRC_MEM_ZERO_PAGES_H_
