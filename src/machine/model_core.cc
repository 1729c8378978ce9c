#include "src/machine/model_core.h"

#include <array>
#include <cstdio>

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
    if (PlainStretchAllowed()) {
      consumed += RunPlain(budget - consumed);
      if (consumed >= budget) {
        break;
      }
    }
    consumed += ExecuteOne();
  }
  return consumed;
}

Cycles ModelCore::Step() {
  if (state_ != RunState::kRunning) {
    return 0;
  }
  return ExecuteOne();
}

namespace {

// Every valid opcode below kLb is an ALU register or immediate op
// (src/isa/gisa.h numbers the classes in blocks).
constexpr bool IsAluOp(Opcode op) { return op < Opcode::kLb; }

// rd of an ALU op; `imm` is ignored by the register-register forms.
inline u64 AluResult(Opcode op, u64 rs1, u64 rs2, i64 imm) {
  const auto signed1 = static_cast<i64>(rs1);
  const auto signed2 = static_cast<i64>(rs2);
  switch (op) {
    case Opcode::kAdd:
      return rs1 + rs2;
    case Opcode::kSub:
      return rs1 - rs2;
    case Opcode::kAnd:
      return rs1 & rs2;
    case Opcode::kOr:
      return rs1 | rs2;
    case Opcode::kXor:
      return rs1 ^ rs2;
    case Opcode::kSll:
      return rs1 << (rs2 & 63);
    case Opcode::kSrl:
      return rs1 >> (rs2 & 63);
    case Opcode::kSra:
      return static_cast<u64>(signed1 >> (rs2 & 63));
    case Opcode::kSlt:
      return signed1 < signed2 ? 1 : 0;
    case Opcode::kSltu:
      return rs1 < rs2 ? 1 : 0;
    case Opcode::kMul:
      return rs1 * rs2;
    case Opcode::kMulh: {
      const auto wide = static_cast<__int128>(signed1) * static_cast<__int128>(signed2);
      return static_cast<u64>(static_cast<unsigned __int128>(wide) >> 64);
    }
    case Opcode::kDiv:
      return rs2 == 0 ? ~0ULL : static_cast<u64>(signed1 / signed2);
    case Opcode::kRem:
      return rs2 == 0 ? rs1 : static_cast<u64>(signed1 % signed2);
    case Opcode::kAddi:
      return rs1 + static_cast<u64>(imm);
    case Opcode::kAndi:
      return rs1 & static_cast<u64>(imm);
    case Opcode::kOri:
      return rs1 | static_cast<u64>(imm);
    case Opcode::kXori:
      return rs1 ^ static_cast<u64>(imm);
    case Opcode::kSlli:
      return rs1 << (imm & 63);
    case Opcode::kSrli:
      return rs1 >> (imm & 63);
    case Opcode::kSrai:
      return static_cast<u64>(signed1 >> (imm & 63));
    case Opcode::kSlti:
      return signed1 < imm ? 1 : 0;
    default:  // kLdi
      return static_cast<u64>(imm);
  }
}

inline bool BranchTaken(Opcode op, u64 rs1, u64 rs2) {
  switch (op) {
    case Opcode::kBeq:
      return rs1 == rs2;
    case Opcode::kBne:
      return rs1 != rs2;
    case Opcode::kBlt:
      return static_cast<i64>(rs1) < static_cast<i64>(rs2);
    case Opcode::kBge:
      return static_cast<i64>(rs1) >= static_cast<i64>(rs2);
    case Opcode::kBltu:
      return rs1 < rs2;
    default:  // kBgeu
      return rs1 >= rs2;
  }
}

// Width in bytes of a load or store.
inline size_t AccessBytes(Opcode op) {
  switch (op) {
    case Opcode::kLb:
    case Opcode::kLbu:
    case Opcode::kSb:
      return 1;
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kSh:
      return 2;
    case Opcode::kLw:
    case Opcode::kLwu:
    case Opcode::kSw:
      return 4;
    default:
      return 8;
  }
}

// rd of a load: the signed forms sign-extend, the rest zero-extend.
inline u64 ExtendLoad(Opcode op, u64 loaded) {
  switch (op) {
    case Opcode::kLb:
      return static_cast<u64>(static_cast<i64>(static_cast<i8>(loaded)));
    case Opcode::kLh:
      return static_cast<u64>(static_cast<i64>(static_cast<i16>(loaded)));
    case Opcode::kLw:
      return static_cast<u64>(static_cast<i64>(static_cast<i32>(loaded)));
    default:
      return loaded;
  }
}

// What RunPlain does with each opcode byte; kHandBack (CSR ops, trapret,
// halt, ebreak and every unknown opcode) goes to ExecuteOne.
enum class PlainKind : u8 { kHandBack, kAlu, kLoad, kStore, kBranch, kJal, kJalr, kNop };

constexpr std::array<PlainKind, 256> kPlainKind = [] {
  std::array<PlainKind, 256> kind{};
  for (size_t op = 0; op < kind.size(); ++op) {
    const auto o = static_cast<Opcode>(op);
    if (!kValidOpcode[op]) {
      continue;
    }
    kind[op] = IsAluOp(o)                                 ? PlainKind::kAlu
               : o >= Opcode::kLb && o <= Opcode::kLd      ? PlainKind::kLoad
               : o >= Opcode::kSb && o <= Opcode::kSd      ? PlainKind::kStore
               : o >= Opcode::kBeq && o <= Opcode::kBgeu   ? PlainKind::kBranch
               : o == Opcode::kJal                         ? PlainKind::kJal
               : o == Opcode::kJalr                        ? PlainKind::kJalr
               : o == Opcode::kNop || o == Opcode::kFence  ? PlainKind::kNop
                                                           : PlainKind::kHandBack;
  }
  return kind;
}();

}  // namespace

Cycles ModelCore::TrainPredictor(u64 pc, bool taken) {
  if (predictor_.Update(pc, taken)) {
    return 0;
  }
  ++stats_.branch_mispredicts;
  return config_.mispredict_penalty;
}

bool ModelCore::PlainStretchAllowed() const {
  return (pending_irqs_.empty() || arch_.ReadCsr(Csr::kIenable) == 0) &&
         watchpoints_.empty() && !suppress_watchpoints_once_ &&
         (arch_.ReadCsr(Csr::kSatp) & kSatpEnableBit) == 0 &&
         arch_.ReadCsr(Csr::kTimer) == 0;
}

Cycles ModelCore::RunPlain(Cycles budget) {
  auto& x = arch_.x;
  u64 pc = arch_.pc;
  u64 retired = 0;
  Cycles consumed = 0;
  while (consumed < budget) {
    // Decide before any side effect: an instruction this loop does not run
    // goes, unfetched and uncharged, to ExecuteOne. In bare mode a virtual
    // address is the physical one, and the lockdown is all of translation.
    u64 word = 0;
    if ((lockdown_.armed && !lockdown_.Contains(pc)) || !model_dram_.Read64(pc, word)) {
      break;  // the fetch faults
    }
    // kPlainKind marks unknown opcodes kHandBack, so with the register check
    // this is DecodeWord's validation.
    const PlainKind kind = kPlainKind[static_cast<u8>(word)];
    if (kind == PlainKind::kHandBack || !RegistersValid(word)) {
      break;
    }
    const Instruction in = DecodeFields(word);
    const u64 rs1 = x[in.rs1];
    const u64 rs2 = x[in.rs2];
    const i64 imm = in.imm;
    const VirtAddr va = rs1 + static_cast<u64>(imm);
    const bool is_memory = kind == PlainKind::kLoad || kind == PlainKind::kStore;
    const size_t len = is_memory ? AccessBytes(in.op) : 0;
    // IO-window accesses (doorbells) and would-be faults take the checked path.
    if (is_memory && (!model_dram_.InBounds(va, len) || lockdown_.Contains(va))) {
      break;
    }

    Cycles cost =
        AccessThroughHierarchy(caches_.l1i, caches_.l2, l3_, pc, config_.mem_path) +
        InstructionLatency(in.op);
    if (is_memory) {
      cost += AccessThroughHierarchy(caches_.l1d, caches_.l2, l3_, va, config_.mem_path);
    }
    u64 next_pc = pc + kInstrBytes;
    switch (kind) {
      case PlainKind::kAlu:
        x[in.rd] = AluResult(in.op, rs1, rs2, imm);
        break;
      case PlainKind::kLoad: {
        u64 loaded = 0;
        ReadPhys(MemAccess{&model_dram_, va}, len, loaded);
        x[in.rd] = ExtendLoad(in.op, loaded);
        break;
      }
      case PlainKind::kStore:
        WritePhys(MemAccess{&model_dram_, va}, len, rs2);
        break;
      case PlainKind::kBranch: {
        const bool taken = BranchTaken(in.op, rs1, rs2);
        cost += TrainPredictor(pc, taken);
        if (taken) {
          next_pc = pc + static_cast<u64>(imm);
        }
        break;
      }
      case PlainKind::kJal:
        x[in.rd] = pc + kInstrBytes;
        next_pc = pc + static_cast<u64>(imm);
        break;
      case PlainKind::kJalr:
        x[in.rd] = pc + kInstrBytes;
        next_pc = (rs1 + static_cast<u64>(imm)) & ~7ULL;
        break;
      default:  // kNop
        break;
    }
    x[0] = 0;
    pc = next_pc;
    ++retired;
    consumed += cost;
  }
  arch_.pc = pc;
  stats_.instructions += retired;
  stats_.cycles += consumed;
  return consumed;
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
  const i64 imm = in.imm;

  if (IsAluOp(in.op)) {
    rd_value = AluResult(in.op, rs1, rs2, imm);
    write_rd = true;
  }
  switch (in.op) {
    case Opcode::kLb:
    case Opcode::kLbu:
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kLw:
    case Opcode::kLwu:
    case Opcode::kLd: {
      const size_t len = AccessBytes(in.op);
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
      rd_value = ExtendLoad(in.op, loaded);
      write_rd = true;
      break;
    }
    case Opcode::kSb:
    case Opcode::kSh:
    case Opcode::kSw:
    case Opcode::kSd: {
      const size_t len = AccessBytes(in.op);
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
      const bool taken = BranchTaken(in.op, rs1, rs2);
      cost += TrainPredictor(pc, taken);
      if (taken) {
        next_pc = pc + static_cast<u64>(imm);
      }
      break;
    }
    case Opcode::kJal:
      rd_value = pc + kInstrBytes;
      write_rd = true;
      next_pc = pc + static_cast<u64>(imm);
      break;
    case Opcode::kJalr:
      rd_value = pc + kInstrBytes;
      write_rd = true;
      next_pc = (rs1 + static_cast<u64>(imm)) & ~7ULL;
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
    default:  // ALU ops (above), kNop, kFence
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
