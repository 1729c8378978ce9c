// HypervisorCore: a core of the hypervisor complex.
//
// Hypervisor cores run the (native C++) software hypervisor, so unlike
// model cores they are not an interpreter; what the simulator models is
// their *costs* and their *microarchitectural footprint*: every management
// and port-servicing operation charges cycles here, and every memory touch
// goes through a private cache hierarchy. In the Guillotine configuration
// that hierarchy is disjoint from the model complex; in the co-tenant
// baseline both complexes share an L3, which is precisely the side channel
// experiment E2 measures.
#ifndef SRC_MACHINE_HV_CORE_H_
#define SRC_MACHINE_HV_CORE_H_

#include <deque>
#include <vector>

#include "src/common/trace.h"
#include "src/machine/config.h"
#include "src/machine/lapic.h"
#include "src/mem/cache.h"
#include "src/mem/dram.h"

namespace guillotine {

// Offset applied to hypervisor physical addresses when indexing a co-tenant
// L3 so hypervisor and model lines contend in the same sets with distinct
// tags (the cross-tenant prime+probe configuration).
inline constexpr PhysAddr kHvPhysOffset = 1ULL << 33;

class HypervisorCore {
 public:
  HypervisorCore(int id, const MachineConfig& config, Dram& hv_dram, Cache* l3);

  int id() const { return id_; }
  Lapic& lapic() { return lapic_; }
  Dram& dram() { return hv_dram_; }

  // Doorbell path: the machine calls this when a model core rings a port
  // doorbell. The LAPIC token bucket decides delivery vs coalescing.
  // Returns true when an interrupt was delivered.
  bool DeliverDoorbell(u32 port_id, Cycles now);

  // Interrupts delivered since the last Take. Coalesced doorbells do not
  // appear here — the service loop discovers their requests when it next
  // drains the rings.
  std::vector<u32> TakePendingIrqs();
  // The same, appended to `out` (the service loop's reused buffer).
  void TakePendingIrqs(std::vector<u32>& out);

  // Direct IRQ injection that bypasses the LAPIC token bucket. Guest
  // doorbells never take this path; it exists for hypervisor-internal
  // signalling: re-arming a port whose ring still holds requests when the
  // service slice ran out, and forwarding a stale-steered doorbell to the
  // port's owning core after an ownership handoff (an inter-hv-core IPI).
  void InjectIrq(u32 port_id) { pending_irqs_.push_back(port_id); }
  size_t pending_irq_count() const { return pending_irqs_.size(); }

  // Cycle accounting for hypervisor-side work (management ops, port
  // servicing, detector runs). Used for utilization and overhead metrics.
  void AccountWork(Cycles cycles) { busy_cycles_ += cycles; }
  u64 busy_cycles() const { return busy_cycles_; }
  void ResetAccounting() { busy_cycles_ = 0; }

  // Touches one cache line through the private hierarchy; returns latency.
  // Used both for realistic servicing costs and as the victim/receiver side
  // of the covert-channel experiments.
  Cycles AccessMemory(PhysAddr addr);

  CoreCaches& caches() { return caches_; }
  void FlushMicroarch() { caches_.Flush(); }

 private:
  int id_;
  const MachineConfig& config_;
  Dram& hv_dram_;
  CoreCaches caches_;
  Cache* l3_;
  Lapic lapic_;
  std::deque<u32> pending_irqs_;
  u64 busy_cycles_ = 0;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_HV_CORE_H_
