#include "src/mem/dram.h"

#include <algorithm>
#include <cstring>

namespace guillotine {

Status Dram::ReadBlock(PhysAddr addr, std::span<u8> out) const {
  if (!InBounds(addr, out.size())) {
    return OutOfRange(name_ + ": read past end");
  }
  std::memcpy(out.data(), bytes_.data() + addr, out.size());
  return OkStatus();
}

Status Dram::WriteBlock(PhysAddr addr, std::span<const u8> data) {
  if (!InBounds(addr, data.size())) {
    return OutOfRange(name_ + ": write past end");
  }
  std::memcpy(bytes_.data() + addr, data.data(), data.size());
  return OkStatus();
}

void Dram::Clear() { std::fill(bytes_.begin(), bytes_.end(), 0); }

}  // namespace guillotine
