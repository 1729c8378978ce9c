// ModelCore: a GISA-64 core of the model complex.
//
// Paper section 3.2 gives hypervisor cores these powers over model cores,
// all of which are implemented here and exposed only through the ControlBus:
//   * forcibly pause all operations;
//   * inspect and modify the ISA-level state of a halted core;
//   * set watchpoints on model code or memory locations;
//   * configure the MMU so the model cannot create new executable pages or
//     write to old ones (ExecLockdown);
//   * forcibly clear all microarchitectural state (caches, TLB, branch
//     predictor);
//   * single-step or fully resume a halted core;
//   * forcibly power down a halted core.
//
// The address map enforces the topology claims: model DRAM and the shared
// IO DRAM window are reachable; nothing else exists. A store into the IO
// DRAM doorbell page is the only way the model can signal the hypervisor.
#ifndef SRC_MACHINE_MODEL_CORE_H_
#define SRC_MACHINE_MODEL_CORE_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/clock.h"
#include "src/common/trace.h"
#include "src/machine/branch_predictor.h"
#include "src/machine/config.h"
#include "src/machine/core_state.h"
#include "src/machine/io_dram.h"
#include "src/mem/cache.h"
#include "src/mem/mmu.h"

namespace guillotine {

class ModelCore {
 public:
  // `l3` is the model complex's shared L3 (may be co-tenant in the baseline
  // configuration). `trace` may be null.
  ModelCore(int id, const MachineConfig& config, Dram& model_dram, IoDram& io_dram,
            Cache* l3, EventTrace* trace);

  using DoorbellFn = std::function<void(u32 port_id, int core_id)>;
  void set_doorbell_handler(DoorbellFn fn) { doorbell_fn_ = std::move(fn); }

  int id() const { return id_; }
  RunState state() const { return state_; }
  HaltReason halt_reason() const { return halt_reason_; }
  TrapCause fault_cause() const { return fault_cause_; }

  // Executes at most `budget` cycles; returns cycles actually consumed.
  Cycles Run(Cycles budget);

  // Executes one instruction if running; returns cycles consumed (0 if the
  // core is not in kRunning).
  Cycles Step();

  // External interrupt injection (hypervisor completion interrupts). The
  // interrupt is queued and delivered when the guest has IENABLE set.
  void RaiseExternalInterrupt(TrapCause cause);

  // ---- Control-bus-facing operations (call through ControlBus, which
  // enforces preconditions and charges hypervisor cycles) ----
  void Pause(HaltReason reason);
  Status Resume();
  Status SingleStep(Cycles& consumed);
  Status PowerDownCore();
  void PowerUpCore(u64 boot_pc);
  void FlushMicroarch();
  void SetLockdown(const ExecLockdown& lockdown) { lockdown_ = lockdown; }
  const ExecLockdown& lockdown() const { return lockdown_; }
  u32 AddWatchpoint(u64 lo, u64 hi, bool on_exec, bool on_read, bool on_write);
  void ClearWatchpoints() { watchpoints_.clear(); }
  const std::vector<Watchpoint>& watchpoints() const { return watchpoints_; }
  std::vector<CoreEvent> TakeEvents();

  ArchState& arch() { return arch_; }
  const ArchState& arch() const { return arch_; }
  const CoreStats& stats() const { return stats_; }
  CoreCaches& caches() { return caches_; }
  Tlb& tlb() { return tlb_; }

 private:
  struct MemAccess {
    Dram* dram = nullptr;  // the module that decodes the access
    PhysAddr offset = 0;   // within `dram`
    Cycles latency = 0;
    TrapCause fault = TrapCause::kNone;
    bool watchpoint_hit = false;
  };

  // Translates + routes + times one access. Applies watchpoints.
  MemAccess AccessMemory(VirtAddr va, AccessType type, size_t len);
  bool ReadPhys(const MemAccess& acc, size_t len, u64& out);
  bool WritePhys(const MemAccess& acc, size_t len, u64 value);

  void EnterTrap(TrapCause cause, u64 epc);
  bool CheckWatchpoints(PhysAddr pa, size_t len, AccessType type, u64 pc) {
    return !watchpoints_.empty() && !suppress_active_ &&
           MatchWatchpoint(pa, len, type, pc);
  }
  bool MatchWatchpoint(PhysAddr pa, size_t len, AccessType type, u64 pc);
  Cycles ExecuteOne();  // single instruction, no state gate

  int id_;
  const MachineConfig& config_;
  Dram& model_dram_;
  IoDram& io_dram_;
  EventTrace* trace_;

  ArchState arch_;
  RunState state_ = RunState::kHalted;  // cores boot halted; hv releases them
  HaltReason halt_reason_ = HaltReason::kHypervisorPause;
  TrapCause fault_cause_ = TrapCause::kNone;

  CoreCaches caches_;
  Cache* l3_;
  Tlb tlb_;
  Mmu mmu_;
  BranchPredictor predictor_;
  ExecLockdown lockdown_;

  std::vector<Watchpoint> watchpoints_;
  u32 next_watchpoint_id_ = 1;
  std::deque<TrapCause> pending_irqs_;
  std::vector<CoreEvent> events_;
  bool suppress_watchpoints_once_ = false;
  bool suppress_active_ = false;

  CoreStats stats_;
  DoorbellFn doorbell_fn_;

  static constexpr Cycles kIoDramLatency = 60;  // uncached shared-window access
};

}  // namespace guillotine

#endif  // SRC_MACHINE_MODEL_CORE_H_
