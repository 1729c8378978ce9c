// Dram: a bounds-checked byte-addressable memory module.
//
// Guillotine machines have three physically disjoint DRAM pools (paper
// section 3.2): model DRAM (reachable from model cores and, via a private
// inspection bus, from hypervisor cores), hypervisor DRAM (never reachable
// from model cores — there is no API from model-core code to a hypervisor
// Dram object, which is the simulator's rendition of "the physical buses do
// not exist"), and the shared IO DRAM region used by the port API.
#ifndef SRC_MEM_DRAM_H_
#define SRC_MEM_DRAM_H_

#include <bit>
#include <cstring>
#include <span>
#include <string>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/mem/zero_pages.h"

namespace guillotine {

class Dram {
 public:
  // The module starts all zero. Its bytes are an anonymous private mapping,
  // so the host supplies zero pages on first touch: a deployment pays only
  // for the pages its model and hypervisor actually use.
  explicit Dram(size_t size_bytes, std::string name = "dram");
  Dram(const Dram&) = delete;
  Dram& operator=(const Dram&) = delete;

  size_t size() const { return bytes_.size(); }
  const std::string& name() const { return name_; }

  bool InBounds(PhysAddr addr, size_t len) const {
    return addr + len >= addr && addr + len <= bytes_.size();
  }

  // Scalar accessors (little-endian). Return false when out of bounds; the
  // caller (core or bus) converts that into the architectural fault.
  bool Read8(PhysAddr addr, u8& out) const { return Load(addr, out); }
  bool Read16(PhysAddr addr, u16& out) const { return Load(addr, out); }
  bool Read32(PhysAddr addr, u32& out) const { return Load(addr, out); }
  bool Read64(PhysAddr addr, u64& out) const { return Load(addr, out); }
  bool Write8(PhysAddr addr, u8 v) { return Store(addr, v); }
  bool Write16(PhysAddr addr, u16 v) { return Store(addr, v); }
  bool Write32(PhysAddr addr, u32 v) { return Store(addr, v); }
  bool Write64(PhysAddr addr, u64 v) { return Store(addr, v); }

  // Block accessors used by buses, loaders, and audit tooling. A whole page
  // that is zero on both sides is not written (see CopyPages).
  Status ReadBlock(PhysAddr addr, std::span<u8> out) const;
  Status WriteBlock(PhysAddr addr, std::span<const u8> data);

  // Zero the whole module (used on power-down / immolation) by handing its
  // pages back to the host.
  void Clear() { ZeroAll(bytes_); }

  // Direct access for the machine's internal plumbing (ring views).
  std::span<u8> raw() { return bytes_; }
  std::span<const u8> raw() const { return bytes_; }

 private:
  // Model memory is little-endian, so a host-order copy is the encoding.
  static_assert(std::endian::native == std::endian::little);

  template <typename T>
  bool Load(PhysAddr addr, T& out) const {
    if (!InBounds(addr, sizeof(T))) {
      return false;
    }
    std::memcpy(&out, bytes_.data() + addr, sizeof(T));
    return true;
  }

  template <typename T>
  bool Store(PhysAddr addr, T v) {
    if (!InBounds(addr, sizeof(T))) {
      return false;
    }
    std::memcpy(bytes_.data() + addr, &v, sizeof(T));
    return true;
  }

  ZeroPageVector<u8> bytes_;
  std::string name_;
};

}  // namespace guillotine

#endif  // SRC_MEM_DRAM_H_
