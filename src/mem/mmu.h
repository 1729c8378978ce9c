// MMU with the Guillotine executable-region lockdown.
//
// Paper section 3.2 (footnote 1): "the MMU just tracks base+bound
// information for valid executable regions, and disallows PTE configurations
// that would enable read access to those regions or create new executable
// pages outside of those regions." Once a core's lockdown is armed (only the
// control bus can arm or change it), the MMU enforces:
//   * instruction fetches must land inside [exec_base, exec_bound);
//   * loads and stores must NOT land inside the executable region
//     (execute-only code: the model can neither read nor modify its own
//     text, blocking both weight/code introspection and runtime injection);
//   * a PTE marked executable whose physical page lies outside the region is
//     treated as invalid.
//
// Paging is a two-level, 4 KiB-page table walked in model DRAM (so a halted
// core's page tables are themselves inspectable over the private bus).
// satp bit 63 enables translation; low bits hold the root table's physical
// address. With paging off, virtual addresses are physical addresses and the
// lockdown checks still apply.
#ifndef SRC_MEM_MMU_H_
#define SRC_MEM_MMU_H_

#include <array>
#include <optional>

#include "src/common/types.h"
#include "src/isa/gisa.h"
#include "src/mem/dram.h"

namespace guillotine {

inline constexpr u64 kPageBits = 12;
inline constexpr u64 kPageSize = 1ULL << kPageBits;
inline constexpr u64 kSatpEnableBit = 1ULL << 63;

// PTE layout: V|R|W|X in bits 0..3, physical page number in bits 12..43.
inline constexpr u64 kPteValid = 1ULL << 0;
inline constexpr u64 kPteRead = 1ULL << 1;
inline constexpr u64 kPteWrite = 1ULL << 2;
inline constexpr u64 kPteExec = 1ULL << 3;

u64 MakePte(PhysAddr page_phys, bool r, bool w, bool x);

enum class AccessType { kFetch, kLoad, kStore };

struct ExecLockdown {
  bool armed = false;
  PhysAddr exec_base = 0;
  PhysAddr exec_bound = 0;  // exclusive

  bool Contains(PhysAddr pa) const { return armed && pa >= exec_base && pa < exec_bound; }
};

struct TranslationResult {
  PhysAddr phys = 0;
  Cycles cost = 0;                     // page-walk cycles (0 on TLB hit)
  TrapCause fault = TrapCause::kNone;  // kNone on success
  bool ok() const { return fault == TrapCause::kNone; }
};

// Small fully-associative TLB; part of the microarchitectural state the
// control bus can forcibly clear.
class Tlb {
 public:
  std::optional<PhysAddr> Lookup(VirtAddr va, AccessType type) const;
  void Insert(VirtAddr va, PhysAddr page_phys, u64 pte_flags);
  void Flush();

  u64 hits = 0;
  u64 misses = 0;

 private:
  struct Entry {
    u64 vpn = 0;
    PhysAddr page_phys = 0;
    u64 flags = 0;
    bool valid = false;
    u64 lru = 0;
  };

  std::array<Entry, 64> slots_{};
  u64 use_counter_ = 0;
};

class Mmu {
 public:
  Mmu() = default;

  // Walk cost charged per level when the TLB misses.
  static constexpr Cycles kWalkCostPerLevel = 15;

  // Translates `va` for `type` under `satp`, enforcing the lockdown.
  // Page tables are read from `dram` (model DRAM).
  TranslationResult Translate(VirtAddr va, AccessType type, u64 satp,
                              const Dram& dram, const ExecLockdown& lockdown,
                              Tlb& tlb) const {
    if ((satp & kSatpEnableBit) == 0) {
      // Bare mode: identity mapping; lockdown still applies.
      return CheckLockdown(va, type, lockdown, 0);
    }
    return TranslatePaged(va, type, satp, dram, lockdown, tlb);
  }

 private:
  static TranslationResult CheckLockdown(PhysAddr pa, AccessType type,
                                         const ExecLockdown& lockdown, Cycles cost) {
    TranslationResult result;
    result.phys = pa;
    result.cost = cost;
    if (!lockdown.armed) {
      return result;
    }
    const bool in_exec = lockdown.Contains(pa);
    if (type == AccessType::kFetch && !in_exec) {
      result.fault = TrapCause::kFetchFault;
    } else if (type == AccessType::kLoad && in_exec) {
      result.fault = TrapCause::kLoadFault;
    } else if (type == AccessType::kStore && in_exec) {
      result.fault = TrapCause::kStoreFault;
    }
    return result;
  }

  // TLB lookup, then the two-level walk on a miss.
  TranslationResult TranslatePaged(VirtAddr va, AccessType type, u64 satp,
                                   const Dram& dram, const ExecLockdown& lockdown,
                                   Tlb& tlb) const;
};

}  // namespace guillotine

#endif  // SRC_MEM_MMU_H_
