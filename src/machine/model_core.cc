#include "src/machine/model_core.h"

#include <cstdio>

#include <cassert>

namespace guillotine {

std::string_view RunStateName(RunState s) {
  switch (s) {
    case RunState::kRunning:
      return "running";
    case RunState::kHalted:
      return "halted";
    case RunState::kDone:
      return "done";
    case RunState::kFaulted:
      return "faulted";
    case RunState::kPoweredDown:
      return "powered_down";
  }
  return "?";
}

std::string_view HaltReasonName(HaltReason r) {
  switch (r) {
    case HaltReason::kNone:
      return "none";
    case HaltReason::kHypervisorPause:
      return "hypervisor_pause";
    case HaltReason::kWatchpoint:
      return "watchpoint";
    case HaltReason::kSingleStep:
      return "single_step";
    case HaltReason::kFault:
      return "fault";
    case HaltReason::kHaltInstruction:
      return "halt_instruction";
    case HaltReason::kPowerDown:
      return "power_down";
  }
  return "?";
}

ModelCore::ModelCore(int id, const MachineConfig& config, Dram& model_dram,
                     IoDram& io_dram, Cache* l3, EventTrace* trace)
    : id_(id),
      config_(config),
      model_dram_(model_dram),
      io_dram_(io_dram),
      trace_(trace),
      caches_(config.l1i, config.l1d, config.l2),
      l3_(l3) {
  arch_.WriteCsr(Csr::kCoreId, static_cast<u64>(id));
}

void ModelCore::RaiseExternalInterrupt(TrapCause cause) {
  pending_irqs_.push_back(cause);
}

void ModelCore::Pause(HaltReason reason) {
  if (state_ == RunState::kRunning) {
    state_ = RunState::kHalted;
    halt_reason_ = reason;
  }
}

Status ModelCore::Resume() {
  if (state_ == RunState::kPoweredDown) {
    return FailedPrecondition("core is powered down");
  }
  if (state_ == RunState::kDone || state_ == RunState::kFaulted) {
    return FailedPrecondition("core terminated; reset required");
  }
  if (halt_reason_ == HaltReason::kWatchpoint) {
    suppress_watchpoints_once_ = true;
  }
  state_ = RunState::kRunning;
  halt_reason_ = HaltReason::kNone;
  return OkStatus();
}

Status ModelCore::SingleStep(Cycles& consumed) {
  if (state_ != RunState::kHalted) {
    return FailedPrecondition("single-step requires a halted core");
  }
  if (halt_reason_ == HaltReason::kWatchpoint) {
    suppress_watchpoints_once_ = true;
  }
  state_ = RunState::kRunning;
  consumed = ExecuteOne();
  if (state_ == RunState::kRunning) {
    state_ = RunState::kHalted;
    halt_reason_ = HaltReason::kSingleStep;
  }
  return OkStatus();
}

Status ModelCore::PowerDownCore() {
  if (state_ == RunState::kRunning) {
    return FailedPrecondition("power-down requires a halted core");
  }
  state_ = RunState::kPoweredDown;
  halt_reason_ = HaltReason::kPowerDown;
  FlushMicroarch();
  // Architectural state is lost on power-down.
  arch_ = ArchState{};
  arch_.WriteCsr(Csr::kCoreId, static_cast<u64>(id_));
  return OkStatus();
}

void ModelCore::PowerUpCore(u64 boot_pc) {
  arch_ = ArchState{};
  arch_.WriteCsr(Csr::kCoreId, static_cast<u64>(id_));
  arch_.pc = boot_pc;
  fault_cause_ = TrapCause::kNone;
  pending_irqs_.clear();
  state_ = RunState::kHalted;
  halt_reason_ = HaltReason::kHypervisorPause;
}

void ModelCore::FlushMicroarch() {
  caches_.Flush();
  tlb_.Flush();
  predictor_.Flush();
}

u32 ModelCore::AddWatchpoint(u64 lo, u64 hi, bool on_exec, bool on_read,
                             bool on_write) {
  Watchpoint wp;
  wp.id = next_watchpoint_id_++;
  wp.lo = lo;
  wp.hi = hi;
  wp.on_exec = on_exec;
  wp.on_read = on_read;
  wp.on_write = on_write;
  watchpoints_.push_back(wp);
  return wp.id;
}

std::vector<CoreEvent> ModelCore::TakeEvents() {
  std::vector<CoreEvent> out;
  out.swap(events_);
  return out;
}

bool ModelCore::MatchWatchpoint(PhysAddr pa, size_t len, AccessType type, u64 pc) {
  for (const Watchpoint& wp : watchpoints_) {
    const bool kind_match = (type == AccessType::kFetch && wp.on_exec) ||
                            (type == AccessType::kLoad && wp.on_read) ||
                            (type == AccessType::kStore && wp.on_write);
    if (!kind_match) {
      continue;
    }
    // [pa, pa + len) overlaps [lo, hi), written so that pa + len cannot wrap.
    if (pa < wp.hi && (wp.lo <= pa || wp.lo - pa < len)) {
      CoreEvent ev;
      ev.core_id = id_;
      ev.watchpoint_id = wp.id;
      ev.address = pa;
      ev.pc = pc;
      ev.time = stats_.cycles;
      events_.push_back(ev);
      return true;
    }
  }
  return false;
}

ModelCore::MemAccess ModelCore::AccessMemory(VirtAddr va, AccessType type,
                                             size_t len) {
  MemAccess out;
  const u64 satp = arch_.ReadCsr(Csr::kSatp);
  const TranslationResult tr = mmu_.Translate(va, type, satp, model_dram_, lockdown_, tlb_);
  out.latency = tr.cost;
  if (!tr.ok()) {
    out.fault = tr.fault;
    return out;
  }

  // Route by physical address. Both bounds checks are overflow-safe, so an
  // access that wraps past 2^64 is decoded by no bus.
  if (model_dram_.InBounds(tr.phys, len)) {
    out.dram = &model_dram_;
    out.offset = tr.phys;
  } else if (type != AccessType::kFetch && tr.phys >= kIoDramBase &&
             io_dram_.dram().InBounds(tr.phys - kIoDramBase, len)) {
    // Code may only live in model DRAM; the shared window is not
    // executable (it is writable by definition, and W^X holds globally).
    out.dram = &io_dram_.dram();
    out.offset = tr.phys - kIoDramBase;
  } else {
    // No bus decodes this address: hypervisor DRAM is not "protected", it
    // is absent. The access faults.
    out.fault = type == AccessType::kFetch  ? TrapCause::kFetchFault
                : type == AccessType::kLoad ? TrapCause::kLoadFault
                                            : TrapCause::kStoreFault;
    return out;
  }

  if (CheckWatchpoints(tr.phys, len, type, arch_.pc)) {
    out.watchpoint_hit = true;
    return out;
  }
  if (out.dram == &model_dram_) {
    Cache& l1 = type == AccessType::kFetch ? caches_.l1i : caches_.l1d;
    out.latency += AccessThroughHierarchy(l1, caches_.l2, l3_, tr.phys, config_.mem_path);
  } else {
    out.latency += kIoDramLatency;  // uncached, coherent shared window
  }
  return out;
}

bool ModelCore::ReadPhys(const MemAccess& acc, size_t len, u64& out) {
  Dram* target = acc.dram;
  const PhysAddr addr = acc.offset;
  switch (len) {
    case 1: {
      u8 v;
      if (!target->Read8(addr, v)) return false;
      out = v;
      return true;
    }
    case 2: {
      u16 v;
      if (!target->Read16(addr, v)) return false;
      out = v;
      return true;
    }
    case 4: {
      u32 v;
      if (!target->Read32(addr, v)) return false;
      out = v;
      return true;
    }
    case 8:
      return target->Read64(addr, out);
  }
  return false;
}

bool ModelCore::WritePhys(const MemAccess& acc, size_t len, u64 value) {
  Dram* target = acc.dram;
  const PhysAddr addr = acc.offset;
  const bool is_io = target != &model_dram_;
  bool ok = false;
  switch (len) {
    case 1:
      ok = target->Write8(addr, static_cast<u8>(value));
      break;
    case 2:
      ok = target->Write16(addr, static_cast<u16>(value));
      break;
    case 4:
      ok = target->Write32(addr, static_cast<u32>(value));
      break;
    case 8:
      ok = target->Write64(addr, value);
      break;
  }
  if (ok && is_io && io_dram_.IsDoorbell(addr)) {
    ++stats_.doorbell_stores;
    const auto port = io_dram_.DoorbellPort(addr);
    if (port.has_value() && doorbell_fn_) {
      doorbell_fn_(*port, id_);
    }
  }
  return ok;
}

void ModelCore::EnterTrap(TrapCause cause, u64 epc) {
  ++stats_.traps;
  const u64 tvec = arch_.ReadCsr(Csr::kTvec);
  if (tvec == 0) {
    state_ = RunState::kFaulted;
    halt_reason_ = HaltReason::kFault;
    fault_cause_ = cause;
    if (trace_ != nullptr) {
      char src[20];
      const int n = std::snprintf(src, sizeof(src), "modelcore%d", id_);
      trace_->Event(stats_.cycles, TraceCategory::kModel,
                    std::string_view(src, static_cast<size_t>(n)), "core.fault",
                    "cause={}", {static_cast<int>(cause)});
    }
    return;
  }
  arch_.WriteCsr(Csr::kEpc, epc);
  arch_.WriteCsr(Csr::kCause, static_cast<u64>(cause));
  arch_.WriteCsr(Csr::kIenable, 0);
  arch_.pc = tvec;
}

Cycles ModelCore::Run(Cycles budget) {
  Cycles consumed = 0;
  while (consumed < budget && state_ == RunState::kRunning) {
    consumed += Step();
  }
  return consumed;
}

Cycles ModelCore::Step() {
  if (state_ != RunState::kRunning) {
    return 0;
  }
  return ExecuteOne();
}

Cycles ModelCore::ExecuteOne() {
  // Deliver a pending external interrupt at an instruction boundary.
  if (!pending_irqs_.empty() && arch_.ReadCsr(Csr::kIenable) != 0) {
    const TrapCause cause = pending_irqs_.front();
    pending_irqs_.pop_front();
    EnterTrap(cause, arch_.pc);
    stats_.cycles += config_.trap_entry_cost;
    return config_.trap_entry_cost;
  }

  const u64 pc = arch_.pc;
  Cycles cost = 0;

  // The resume/step flag suppresses watchpoints for exactly this instruction.
  suppress_active_ = suppress_watchpoints_once_;
  suppress_watchpoints_once_ = false;

  // Fetch.
  const MemAccess fetch = AccessMemory(pc, AccessType::kFetch, kInstrBytes);
  cost += fetch.latency;
  if (fetch.watchpoint_hit) {
    state_ = RunState::kHalted;
    halt_reason_ = HaltReason::kWatchpoint;
    stats_.cycles += cost;
    return cost;
  }
  if (fetch.fault != TrapCause::kNone) {
    EnterTrap(fetch.fault, pc);
    cost += config_.trap_entry_cost;
    stats_.cycles += cost;
    return cost;
  }
  // AccessMemory routed the fetch to model DRAM: all 8 bytes are in bounds.
  u64 word = 0;
  model_dram_.Read64(fetch.offset, word);
  Instruction in;
  if (!DecodeWord(word, in)) {
    EnterTrap(TrapCause::kIllegalInstruction, pc);
    cost += config_.trap_entry_cost;
    stats_.cycles += cost;
    return cost;
  }
  cost += InstructionLatency(in.op);

  u64 next_pc = pc + kInstrBytes;
  auto& x = arch_.x;
  const u64 rs1 = x[in.rs1];
  const u64 rs2 = x[in.rs2];
  u64 rd_value = 0;
  bool write_rd = false;

  const auto signed1 = static_cast<i64>(rs1);
  const auto signed2 = static_cast<i64>(rs2);
  const i64 imm = in.imm;

  switch (in.op) {
    case Opcode::kAdd:
      rd_value = rs1 + rs2;
      write_rd = true;
      break;
    case Opcode::kSub:
      rd_value = rs1 - rs2;
      write_rd = true;
      break;
    case Opcode::kAnd:
      rd_value = rs1 & rs2;
      write_rd = true;
      break;
    case Opcode::kOr:
      rd_value = rs1 | rs2;
      write_rd = true;
      break;
    case Opcode::kXor:
      rd_value = rs1 ^ rs2;
      write_rd = true;
      break;
    case Opcode::kSll:
      rd_value = rs1 << (rs2 & 63);
      write_rd = true;
      break;
    case Opcode::kSrl:
      rd_value = rs1 >> (rs2 & 63);
      write_rd = true;
      break;
    case Opcode::kSra:
      rd_value = static_cast<u64>(signed1 >> (rs2 & 63));
      write_rd = true;
      break;
    case Opcode::kSlt:
      rd_value = signed1 < signed2 ? 1 : 0;
      write_rd = true;
      break;
    case Opcode::kSltu:
      rd_value = rs1 < rs2 ? 1 : 0;
      write_rd = true;
      break;
    case Opcode::kMul:
      rd_value = rs1 * rs2;
      write_rd = true;
      break;
    case Opcode::kMulh: {
      const auto wide = static_cast<__int128>(signed1) * static_cast<__int128>(signed2);
      rd_value = static_cast<u64>(static_cast<unsigned __int128>(wide) >> 64);
      write_rd = true;
      break;
    }
    case Opcode::kDiv:
      rd_value = rs2 == 0 ? ~0ULL : static_cast<u64>(signed1 / signed2);
      write_rd = true;
      break;
    case Opcode::kRem:
      rd_value = rs2 == 0 ? rs1 : static_cast<u64>(signed1 % signed2);
      write_rd = true;
      break;
    case Opcode::kAddi:
      rd_value = rs1 + static_cast<u64>(imm);
      write_rd = true;
      break;
    case Opcode::kAndi:
      rd_value = rs1 & static_cast<u64>(imm);
      write_rd = true;
      break;
    case Opcode::kOri:
      rd_value = rs1 | static_cast<u64>(imm);
      write_rd = true;
      break;
    case Opcode::kXori:
      rd_value = rs1 ^ static_cast<u64>(imm);
      write_rd = true;
      break;
    case Opcode::kSlli:
      rd_value = rs1 << (imm & 63);
      write_rd = true;
      break;
    case Opcode::kSrli:
      rd_value = rs1 >> (imm & 63);
      write_rd = true;
      break;
    case Opcode::kSrai:
      rd_value = static_cast<u64>(signed1 >> (imm & 63));
      write_rd = true;
      break;
    case Opcode::kSlti:
      rd_value = signed1 < imm ? 1 : 0;
      write_rd = true;
      break;
    case Opcode::kLdi:
      rd_value = static_cast<u64>(imm);
      write_rd = true;
      break;
    case Opcode::kLb:
    case Opcode::kLbu:
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kLw:
    case Opcode::kLwu:
    case Opcode::kLd: {
      const size_t len = in.op == Opcode::kLb || in.op == Opcode::kLbu   ? 1
                         : in.op == Opcode::kLh || in.op == Opcode::kLhu ? 2
                         : in.op == Opcode::kLw || in.op == Opcode::kLwu ? 4
                                                                         : 8;
      const VirtAddr va = rs1 + static_cast<u64>(imm);
      const MemAccess acc = AccessMemory(va, AccessType::kLoad, len);
      cost += acc.latency;
      if (acc.watchpoint_hit) {
        state_ = RunState::kHalted;
        halt_reason_ = HaltReason::kWatchpoint;
        stats_.cycles += cost;
        return cost;
      }
      if (acc.fault != TrapCause::kNone) {
        EnterTrap(acc.fault, pc);
        cost += config_.trap_entry_cost;
        stats_.cycles += cost;
        return cost;
      }
      u64 loaded = 0;
      if (!ReadPhys(acc, len, loaded)) {
        EnterTrap(TrapCause::kLoadFault, pc);
        cost += config_.trap_entry_cost;
        stats_.cycles += cost;
        return cost;
      }
      switch (in.op) {
        case Opcode::kLb:
          rd_value = static_cast<u64>(static_cast<i64>(static_cast<i8>(loaded)));
          break;
        case Opcode::kLh:
          rd_value = static_cast<u64>(static_cast<i64>(static_cast<i16>(loaded)));
          break;
        case Opcode::kLw:
          rd_value = static_cast<u64>(static_cast<i64>(static_cast<i32>(loaded)));
          break;
        default:
          rd_value = loaded;
          break;
      }
      write_rd = true;
      break;
    }
    case Opcode::kSb:
    case Opcode::kSh:
    case Opcode::kSw:
    case Opcode::kSd: {
      const size_t len = in.op == Opcode::kSb   ? 1
                         : in.op == Opcode::kSh ? 2
                         : in.op == Opcode::kSw ? 4
                                                : 8;
      const VirtAddr va = rs1 + static_cast<u64>(imm);
      const MemAccess acc = AccessMemory(va, AccessType::kStore, len);
      cost += acc.latency;
      if (acc.watchpoint_hit) {
        state_ = RunState::kHalted;
        halt_reason_ = HaltReason::kWatchpoint;
        stats_.cycles += cost;
        return cost;
      }
      if (acc.fault != TrapCause::kNone) {
        EnterTrap(acc.fault, pc);
        cost += config_.trap_entry_cost;
        stats_.cycles += cost;
        return cost;
      }
      if (!WritePhys(acc, len, rs2)) {
        EnterTrap(TrapCause::kStoreFault, pc);
        cost += config_.trap_entry_cost;
        stats_.cycles += cost;
        return cost;
      }
      break;
    }
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu: {
      bool taken = false;
      switch (in.op) {
        case Opcode::kBeq:
          taken = rs1 == rs2;
          break;
        case Opcode::kBne:
          taken = rs1 != rs2;
          break;
        case Opcode::kBlt:
          taken = signed1 < signed2;
          break;
        case Opcode::kBge:
          taken = signed1 >= signed2;
          break;
        case Opcode::kBltu:
          taken = rs1 < rs2;
          break;
        default:
          taken = rs1 >= rs2;
          break;
      }
      if (!predictor_.Update(pc, taken)) {
        cost += config_.mispredict_penalty;
        ++stats_.branch_mispredicts;
      }
      if (taken) {
        next_pc = pc + static_cast<u64>(static_cast<i64>(imm));
      }
      break;
    }
    case Opcode::kJal:
      rd_value = pc + kInstrBytes;
      write_rd = true;
      next_pc = pc + static_cast<u64>(static_cast<i64>(imm));
      break;
    case Opcode::kJalr:
      rd_value = pc + kInstrBytes;
      write_rd = true;
      next_pc = (rs1 + static_cast<u64>(static_cast<i64>(imm))) & ~7ULL;
      break;
    case Opcode::kNop:
    case Opcode::kFence:
      break;
    case Opcode::kHalt:
      state_ = RunState::kDone;
      halt_reason_ = HaltReason::kHaltInstruction;
      stats_.cycles += cost;
      ++stats_.instructions;
      return cost;
    case Opcode::kEbreak:
      EnterTrap(TrapCause::kBreakpoint, pc);
      cost += config_.trap_entry_cost;
      stats_.cycles += cost;
      ++stats_.instructions;
      return cost;
    case Opcode::kCsrr: {
      const auto csr = static_cast<Csr>(in.imm);
      if (in.imm < 0 || in.imm >= static_cast<i32>(Csr::kCount)) {
        EnterTrap(TrapCause::kIllegalInstruction, pc);
        cost += config_.trap_entry_cost;
        stats_.cycles += cost;
        return cost;
      }
      if (csr == Csr::kCycle) {
        rd_value = stats_.cycles + cost;
      } else {
        rd_value = arch_.ReadCsr(csr);
      }
      write_rd = true;
      break;
    }
    case Opcode::kCsrw: {
      const auto csr = static_cast<Csr>(in.imm);
      const bool writable = in.imm >= 0 && in.imm < static_cast<i32>(Csr::kCount) &&
                            csr != Csr::kCycle && csr != Csr::kCoreId;
      if (!writable) {
        EnterTrap(TrapCause::kIllegalInstruction, pc);
        cost += config_.trap_entry_cost;
        stats_.cycles += cost;
        return cost;
      }
      arch_.WriteCsr(csr, rs1);
      break;
    }
    case Opcode::kTrapret:
      next_pc = arch_.ReadCsr(Csr::kEpc);
      arch_.WriteCsr(Csr::kIenable, 1);
      break;
  }

  if (write_rd && in.rd != 0) {
    x[in.rd] = rd_value;
  }
  x[0] = 0;
  arch_.pc = next_pc;

  // Timer countdown (approximate: whole-instruction granularity).
  const u64 timer = arch_.ReadCsr(Csr::kTimer);
  if (timer != 0) {
    if (timer <= cost) {
      arch_.WriteCsr(Csr::kTimer, 0);
      pending_irqs_.push_back(TrapCause::kTimerInterrupt);
    } else {
      arch_.WriteCsr(Csr::kTimer, timer - cost);
    }
  }

  ++stats_.instructions;
  stats_.cycles += cost;
  return cost;
}

}  // namespace guillotine
