// GISA-64: the Guillotine model-core instruction set.
//
// The paper (section 3.2) specifies that model cores run an ISA with no
// sensitive instructions in the Popek-Goldberg sense: there is no way to
// address hypervisor state, no port-mapped or memory-mapped device access,
// and locally generated interrupts/exceptions are handled locally. GISA-64
// realizes that contract: a 64-bit RISC register machine whose only
// externally visible side effect is a store into the shared IO DRAM region
// (stores to a port's doorbell address raise an interrupt on a hypervisor
// core; see src/machine/io_dram.h).
//
// Encoding: fixed 8-byte instructions — opcode(8) rd(8) rs1(8) rs2(8)
// imm(32, signed, little-endian).
#ifndef SRC_ISA_GISA_H_
#define SRC_ISA_GISA_H_

#include <array>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/types.h"

namespace guillotine {

inline constexpr size_t kInstrBytes = 8;
inline constexpr int kNumRegisters = 32;

enum class Opcode : u8 {
  // ALU register-register.
  kAdd = 0x01,
  kSub,
  kAnd,
  kOr,
  kXor,
  kSll,
  kSrl,
  kSra,
  kSlt,
  kSltu,
  kMul,
  kMulh,
  kDiv,
  kRem,
  // ALU register-immediate.
  kAddi = 0x20,
  kAndi,
  kOri,
  kXori,
  kSlli,
  kSrli,
  kSrai,
  kSlti,
  kLdi,  // rd = sign_extend(imm32)
  // Loads: rd = mem[rs1 + imm].
  kLb = 0x40,
  kLbu,
  kLh,
  kLhu,
  kLw,
  kLwu,
  kLd,
  // Stores: mem[rs1 + imm] = rs2.
  kSb = 0x50,
  kSh,
  kSw,
  kSd,
  // Control flow. Branch/JAL immediates are pc-relative byte offsets.
  kBeq = 0x60,
  kBne,
  kBlt,
  kBge,
  kBltu,
  kBgeu,
  kJal,   // rd = pc + 8; pc += imm
  kJalr,  // rd = pc + 8; pc = (rs1 + imm) & ~7
  // System.
  kNop = 0x70,
  kHalt,
  kEbreak,   // local breakpoint trap
  kFence,    // no-op in this simulator
  kCsrr,     // rd = csr[imm]
  kCsrw,     // csr[imm] = rs1
  kTrapret,  // pc = EPC; re-enable interrupts
};

// Control/status registers local to a model core. The hypervisor can read
// and write all of them over the control bus while the core is halted; the
// model can read/write them with kCsrr/kCsrw (except read-only ones).
enum class Csr : u32 {
  kTvec = 0,    // trap vector address
  kEpc = 1,     // PC saved at trap entry
  kCause = 2,   // TrapCause of last trap
  kSatp = 3,    // bit 63 = paging enable, low bits = page-table root (phys)
  kTimer = 4,   // countdown in cycles; 0 disables; fires kTimer trap
  kIenable = 5, // bit 0 = global interrupt enable
  kCycle = 6,   // read-only retired-cycle counter
  kCoreId = 7,  // read-only core id
  kCount = 8,
};

enum class TrapCause : u64 {
  kNone = 0,
  kTimerInterrupt = 1,
  kPortCompletion = 2,   // raised by a hypervisor core after servicing IO
  kBreakpoint = 3,
  kIllegalInstruction = 4,
  kLoadFault = 5,
  kStoreFault = 6,
  kFetchFault = 7,
};

struct Instruction {
  Opcode op = Opcode::kNop;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  i32 imm = 0;

  bool operator==(const Instruction&) const = default;
};

// Valid opcode bytes, indexed by the raw byte.
inline constexpr std::array<bool, 256> kValidOpcode = [] {
  constexpr Opcode kRanges[][2] = {
      {Opcode::kAdd, Opcode::kRem}, {Opcode::kAddi, Opcode::kLdi},
      {Opcode::kLb, Opcode::kLd},   {Opcode::kSb, Opcode::kSd},
      {Opcode::kBeq, Opcode::kJalr}, {Opcode::kNop, Opcode::kTrapret},
  };
  std::array<bool, 256> valid{};
  for (const auto& range : kRanges) {
    for (size_t op = static_cast<u8>(range[0]); op <= static_cast<u8>(range[1]); ++op) {
      valid[op] = true;
    }
  }
  return valid;
}();

// Decodes one instruction from its 8 bytes read as a little-endian word.
// Returns false for an unknown opcode or an out-of-range register.
inline bool DecodeWord(u64 word, Instruction& out) {
  const auto op = static_cast<u8>(word);
  const auto rd = static_cast<u8>(word >> 8);
  const auto rs1 = static_cast<u8>(word >> 16);
  const auto rs2 = static_cast<u8>(word >> 24);
  if (!kValidOpcode[op] || (rd | rs1 | rs2) >= kNumRegisters) {
    return false;
  }
  out.op = static_cast<Opcode>(op);
  out.rd = rd;
  out.rs1 = rs1;
  out.rs2 = rs2;
  out.imm = static_cast<i32>(static_cast<u32>(word >> 32));
  return true;
}

// Fixed-width encode/decode.
void EncodeInstruction(const Instruction& instr, std::span<u8> out8);
Bytes EncodeProgram(std::span<const Instruction> program);
std::optional<Instruction> DecodeInstruction(std::span<const u8> in8);

// Dispatch-cost model (cycles consumed in addition to memory latency).
inline Cycles InstructionLatency(Opcode op) {
  switch (op) {
    case Opcode::kMul:
    case Opcode::kMulh:
      return 3;
    case Opcode::kDiv:
    case Opcode::kRem:
      return 20;
    case Opcode::kHalt:
    case Opcode::kEbreak:
    case Opcode::kTrapret:
      return 2;
    default:
      return 1;
  }
}

// True for opcodes that read or write data memory.
bool IsLoad(Opcode op);
bool IsStore(Opcode op);
bool IsBranch(Opcode op);

// Register naming: canonical "x7" plus conventional aliases
// (zero, ra, sp, a0..a7, t0..t7, s0..s11).
std::string_view RegisterName(int reg);
std::optional<int> ParseRegister(std::string_view name);

std::string_view OpcodeName(Opcode op);
std::optional<Opcode> ParseOpcode(std::string_view mnemonic);

}  // namespace guillotine

#endif  // SRC_ISA_GISA_H_
