#include "src/mem/zero_pages.h"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <cstring>

namespace guillotine {

void* MapZeroPages(size_t bytes) {
  if (bytes == 0) {
    return nullptr;
  }
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                 -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return p;
}

void UnmapZeroPages(void* p, size_t bytes) {
  if (p != nullptr) {
    munmap(p, bytes);
  }
}

void ZeroMappedPages(void* p, size_t bytes) {
  if (bytes != 0 && madvise(p, bytes, MADV_DONTNEED) != 0) {
    std::memset(p, 0, bytes);
  }
}

bool IsZeroPage(const u8* page) {
  // memcmp against a zero page runs at memory bandwidth; a scalar OR loop
  // is several times slower.
  static constexpr std::array<u8, kHostPageBytes> kZeroPage{};
  return std::memcmp(page, kZeroPage.data(), kZeroPage.size()) == 0;
}

void CopyPages(std::span<u8> dst, std::span<const u8> src) {
  for (size_t off = 0; off < src.size(); off += kHostPageBytes) {
    const size_t len = std::min(kHostPageBytes, src.size() - off);
    if (len == kHostPageBytes && IsZeroPage(src.data() + off) &&
        IsZeroPage(dst.data() + off)) {
      continue;
    }
    std::memcpy(dst.data() + off, src.data() + off, len);
  }
}

}  // namespace guillotine
