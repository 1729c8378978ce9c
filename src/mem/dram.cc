#include "src/mem/dram.h"

#include <utility>

namespace guillotine {

Dram::Dram(size_t size_bytes, std::string name)
    : bytes_(size_bytes), name_(std::move(name)) {}

Status Dram::ReadBlock(PhysAddr addr, std::span<u8> out) const {
  if (!InBounds(addr, out.size())) {
    return OutOfRange(name_ + ": read past end");
  }
  CopyPages(out, raw().subspan(addr, out.size()));
  return OkStatus();
}

Status Dram::WriteBlock(PhysAddr addr, std::span<const u8> data) {
  if (!InBounds(addr, data.size())) {
    return OutOfRange(name_ + ": write past end");
  }
  CopyPages(raw().subspan(addr, data.size()), data);
  return OkStatus();
}

}  // namespace guillotine
