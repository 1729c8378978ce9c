#include "src/machine/hv_core.h"

namespace guillotine {

HypervisorCore::HypervisorCore(int id, const MachineConfig& config, Dram& hv_dram,
                               Cache* l3)
    : id_(id),
      config_(config),
      hv_dram_(hv_dram),
      caches_(config.l1i, config.l1d, config.l2),
      l3_(l3),
      lapic_(config.lapic) {}

bool HypervisorCore::DeliverDoorbell(u32 port_id, Cycles now) {
  if (!lapic_.OfferIrq(now)) {
    return false;
  }
  pending_irqs_.push_back(port_id);
  return true;
}

std::vector<u32> HypervisorCore::TakePendingIrqs() {
  std::vector<u32> out;
  TakePendingIrqs(out);
  return out;
}

void HypervisorCore::TakePendingIrqs(std::vector<u32>& out) {
  out.insert(out.end(), pending_irqs_.begin(), pending_irqs_.end());
  pending_irqs_.clear();
}

Cycles HypervisorCore::AccessMemory(PhysAddr addr) {
  // The offset keeps hypervisor tags distinct from model tags in a co-tenant
  // L3 while preserving set indices (the offset is far above any L3 size).
  return AccessThroughHierarchy(caches_.l1d, caches_.l2, l3_, addr + kHvPhysOffset,
                                config_.mem_path);
}

}  // namespace guillotine
