#include "src/mem/dram.h"

#include <sys/mman.h>

#include <cstring>
#include <new>
#include <utility>

namespace guillotine {

Dram::Dram(size_t size_bytes, std::string name)
    : size_(size_bytes), name_(std::move(name)) {
  if (size_ == 0) {
    return;
  }
  void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  bytes_ = static_cast<u8*>(p);
}

Dram::~Dram() {
  if (bytes_ != nullptr) {
    munmap(bytes_, size_);
  }
}

Status Dram::ReadBlock(PhysAddr addr, std::span<u8> out) const {
  if (!InBounds(addr, out.size())) {
    return OutOfRange(name_ + ": read past end");
  }
  std::memcpy(out.data(), bytes_ + addr, out.size());
  return OkStatus();
}

Status Dram::WriteBlock(PhysAddr addr, std::span<const u8> data) {
  if (!InBounds(addr, data.size())) {
    return OutOfRange(name_ + ": write past end");
  }
  std::memcpy(bytes_ + addr, data.data(), data.size());
  return OkStatus();
}

void Dram::Clear() {
  if (size_ != 0) {
    std::memset(bytes_, 0, size_);
  }
}

}  // namespace guillotine
