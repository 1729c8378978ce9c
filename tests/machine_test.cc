// Tests for src/machine: the GISA interpreter, traps, interrupts, IO DRAM,
// doorbells + LAPIC throttling, control bus, and devices.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "src/isa/assembler.h"
#include "src/machine/accelerator.h"
#include "src/machine/control_bus.h"
#include "src/machine/machine.h"
#include "src/machine/nic.h"
#include "src/machine/storage.h"
#include "src/core/guillotine.h"
#include "src/crypto/hmac.h"
#include "src/model/weights.h"
#include "src/testing/scenario.h"

namespace guillotine {
namespace {

MachineConfig SmallConfig() {
  MachineConfig config;
  config.num_model_cores = 2;
  config.num_hv_cores = 1;
  config.model_dram_bytes = 1 << 20;  // 1 MiB
  config.io_dram_bytes = 64 * 1024;
  return config;
}

class MachineTest : public ::testing::Test {
 protected:
  MachineTest() : machine_(SmallConfig(), clock_, trace_), bus_(machine_) {}

  // Assembles `source`, loads at `base`, points the core there (halted).
  void Load(int core, const std::string& source, u64 base = 0x1000) {
    const auto program = Assemble(source, base);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    const Bytes code = program->Encode();
    ASSERT_TRUE(machine_.model_dram()
                    .WriteBlock(base, std::span<const u8>(code.data(), code.size()))
                    .ok());
    machine_.model_core(core).PowerUpCore(base);
  }

  void Start(int core) { ASSERT_TRUE(machine_.model_core(core).Resume().ok()); }

  // Runs until the core stops or `budget` cycles pass.
  void RunUntilStopped(int core, Cycles budget = 1'000'000) {
    ModelCore& c = machine_.model_core(core);
    Cycles used = 0;
    while (c.state() == RunState::kRunning && used < budget) {
      used += c.Run(10'000);
    }
  }

  u64 Reg(int core, std::string_view name) {
    return machine_.model_core(core).arch().x[static_cast<size_t>(*ParseRegister(name))];
  }

  SimClock clock_;
  EventTrace trace_;
  Machine machine_;
  ControlBus bus_;
};

TEST_F(MachineTest, AluProgram) {
  Load(0, R"(
    ldi a0, 21
    ldi a1, 2
    mul a2, a0, a1
    addi a2, a2, -1
    xor a3, a2, a2
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kDone);
  EXPECT_EQ(Reg(0, "a2"), 41u);
  EXPECT_EQ(Reg(0, "a3"), 0u);
}

TEST_F(MachineTest, LoopSumsOneToTen) {
  Load(0, R"(
      ldi t0, 10
      ldi a0, 0
    loop:
      add a0, a0, t0
      addi t0, t0, -1
      bne t0, zero, loop
      halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(Reg(0, "a0"), 55u);
}

TEST_F(MachineTest, ZeroRegisterImmutable) {
  Load(0, R"(
    ldi zero, 99
    mv a0, zero
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(Reg(0, "a0"), 0u);
}

TEST_F(MachineTest, MemorySignExtension) {
  Load(0, R"(
    ldi a0, -2
    li64 a1, 0x10000
    sb a0, 0(a1)
    lb a2, 0(a1)     ; sign-extended
    lbu a3, 0(a1)    ; zero-extended
    sw a0, 8(a1)
    lw a4, 8(a1)
    lwu a5, 8(a1)
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(static_cast<i64>(Reg(0, "a2")), -2);
  EXPECT_EQ(Reg(0, "a3"), 0xFEu);
  EXPECT_EQ(static_cast<i64>(Reg(0, "a4")), -2);
  EXPECT_EQ(Reg(0, "a5"), 0xFFFFFFFEu);
}

TEST_F(MachineTest, DivisionSemantics) {
  Load(0, R"(
    ldi a0, -7
    ldi a1, 2
    div a2, a0, a1    ; -3 (truncated)
    rem a3, a0, a1    ; -1
    ldi a4, 5
    ldi a5, 0
    div a6, a4, a5    ; div by zero -> all ones
    rem a7, a4, a5    ; rem by zero -> dividend
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(static_cast<i64>(Reg(0, "a2")), -3);
  EXPECT_EQ(static_cast<i64>(Reg(0, "a3")), -1);
  EXPECT_EQ(Reg(0, "a6"), ~0ULL);
  EXPECT_EQ(Reg(0, "a7"), 5u);
}

TEST_F(MachineTest, CallAndReturn) {
  Load(0, R"(
      ldi a0, 5
      call double
      call double
      halt
    double:
      add a0, a0, a0
      ret
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(Reg(0, "a0"), 20u);
}

TEST_F(MachineTest, BreakpointTrapWithHandler) {
  Load(0, R"(
      jal t0, 8             ; t0 = address of next instruction
      addi t1, t0, 48       ; t1 = handler address (6 instrs after t0)
      csrw t1, tvec
      ldi a0, 1
      ebreak
      ldi a1, 2             ; resumed here after handler skips ebreak
      halt
      ; handler:
      csrr a2, cause
      csrr t2, epc
      addi t2, t2, 8
      csrw t2, epc
      trapret
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kDone);
  EXPECT_EQ(Reg(0, "a0"), 1u);
  EXPECT_EQ(Reg(0, "a1"), 2u);
  EXPECT_EQ(Reg(0, "a2"), static_cast<u64>(TrapCause::kBreakpoint));
}

TEST_F(MachineTest, UnhandledTrapFaultsCore) {
  Load(0, "ebreak");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kFaulted);
  EXPECT_EQ(machine_.model_core(0).fault_cause(), TrapCause::kBreakpoint);
}

TEST_F(MachineTest, HypervisorAddressSpaceIsUnreachable) {
  // There is no address that reaches hypervisor DRAM: anything outside
  // model DRAM and the IO window faults.
  Load(0, R"(
    li64 a1, 0x80000000   ; beyond both regions
    ld a0, 0(a1)
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kFaulted);
  EXPECT_EQ(machine_.model_core(0).fault_cause(), TrapCause::kLoadFault);
}

TEST_F(MachineTest, FetchFromIoWindowFaults) {
  Load(0, R"(
    li64 a0, 0x40000000
    jalr zero, a0, 0
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kFaulted);
  EXPECT_EQ(machine_.model_core(0).fault_cause(), TrapCause::kFetchFault);
}

TEST_F(MachineTest, IoWindowLoadStore) {
  Load(0, R"(
    li64 a1, 0x40000100
    ldi a0, 77
    sd a0, 0(a1)
    ld a2, 0(a1)
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(Reg(0, "a2"), 77u);
  u64 direct = 0;
  machine_.io_dram().dram().Read64(0x100, direct);
  EXPECT_EQ(direct, 77u);
}

TEST_F(MachineTest, TimerInterruptFires) {
  Load(0, R"(
      jal t0, 8
      addi t1, t0, 64        ; handler = 8 instructions after t0
      csrw t1, tvec
      ldi t2, 1
      csrw t2, ienable
      ldi t2, 200
      csrw t2, timer
    spin:
      beq a0, zero, spin     ; wait for handler to set a0
      halt
      ; handler:
      csrr a1, cause
      ldi a0, 1
      trapret
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kDone);
  EXPECT_EQ(Reg(0, "a1"), static_cast<u64>(TrapCause::kTimerInterrupt));
}

TEST_F(MachineTest, ExternalInterruptDelivered) {
  Load(0, R"(
      jal t0, 8
      addi t1, t0, 48        ; handler = 6 instructions after t0
      csrw t1, tvec
      ldi t2, 1
      csrw t2, ienable
    spin:
      beq a0, zero, spin
      halt
      ; handler:
      ldi a0, 1
      trapret
  )");
  Start(0);
  machine_.model_core(0).Run(200);
  machine_.model_core(0).RaiseExternalInterrupt(TrapCause::kPortCompletion);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kDone);
}

TEST_F(MachineTest, CycleCounterMonotonic) {
  Load(0, R"(
    csrr a0, cycle
    nop
    nop
    csrr a1, cycle
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_GT(Reg(0, "a1"), Reg(0, "a0"));
}

TEST_F(MachineTest, WatchpointOnWriteHaltsAndResumes) {
  Load(0, R"(
    li64 a1, 0x20000
    ldi a0, 1
    sd a0, 0(a1)    ; watchpoint here
    ldi a2, 99
    halt
  )");
  machine_.model_core(0).AddWatchpoint(0x20000, 0x20008, false, false, true);
  Start(0);
  RunUntilStopped(0);
  ModelCore& core = machine_.model_core(0);
  EXPECT_EQ(core.state(), RunState::kHalted);
  EXPECT_EQ(core.halt_reason(), HaltReason::kWatchpoint);
  const auto events = core.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].address, 0x20000u);
  // The store has NOT executed yet.
  u64 v = 1;
  machine_.model_dram().Read64(0x20000, v);
  EXPECT_EQ(v, 0u);
  // Resume completes the store and the rest of the program.
  ASSERT_TRUE(core.Resume().ok());
  RunUntilStopped(0);
  EXPECT_EQ(core.state(), RunState::kDone);
  machine_.model_dram().Read64(0x20000, v);
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(Reg(0, "a2"), 99u);
}

TEST_F(MachineTest, WatchpointOnExec) {
  Load(0, R"(
    nop
    nop
    ldi a0, 7
    halt
  )");
  // Watch the third instruction (0x1010).
  machine_.model_core(0).AddWatchpoint(0x1010, 0x1018, true, false, false);
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).halt_reason(), HaltReason::kWatchpoint);
  EXPECT_EQ(Reg(0, "a0"), 0u);  // not yet executed
  machine_.model_core(0).Resume().ok();
  RunUntilStopped(0);
  EXPECT_EQ(Reg(0, "a0"), 7u);
}

TEST_F(MachineTest, SingleStepWalksInstructions) {
  Load(0, R"(
    ldi a0, 1
    ldi a1, 2
    ldi a2, 3
    halt
  )");
  ModelCore& core = machine_.model_core(0);
  Cycles consumed = 0;
  ASSERT_TRUE(core.SingleStep(consumed).ok());
  EXPECT_EQ(Reg(0, "a0"), 1u);
  EXPECT_EQ(Reg(0, "a1"), 0u);
  ASSERT_TRUE(core.SingleStep(consumed).ok());
  EXPECT_EQ(Reg(0, "a1"), 2u);
  EXPECT_EQ(core.state(), RunState::kHalted);
  EXPECT_EQ(core.halt_reason(), HaltReason::kSingleStep);
}

TEST_F(MachineTest, ControlBusRequiresHaltedForInspection) {
  Load(0, R"(
    loop: j loop
  )");
  Start(0);
  EXPECT_FALSE(bus_.ReadArchState(0, 0).ok());
  ASSERT_TRUE(bus_.Pause(0, 0).ok());
  EXPECT_TRUE(bus_.ReadArchState(0, 0).ok());
}

TEST_F(MachineTest, ControlBusDramRequiresQuiescedComplex) {
  Load(0, "loop: j loop");
  Load(1, "halt");
  Start(0);
  Bytes buf(8);
  EXPECT_FALSE(bus_.ReadModelDram(0, 0, buf).ok());
  ASSERT_TRUE(bus_.Pause(0, 0).ok());
  EXPECT_TRUE(bus_.ReadModelDram(0, 0, buf).ok());
}

TEST_F(MachineTest, ControlBusWriteRegisterAndPc) {
  Load(0, "halt");
  ASSERT_TRUE(bus_.WriteRegister(0, 0, 4, 1234).ok());
  EXPECT_EQ(Reg(0, "a0"), 1234u);
  EXPECT_FALSE(bus_.WriteRegister(0, 0, 0, 1).ok());  // x0 immutable
  ASSERT_TRUE(bus_.WritePc(0, 0, 0x2000).ok());
  EXPECT_EQ(machine_.model_core(0).arch().pc, 0x2000u);
}

TEST_F(MachineTest, LockdownBlocksSelfModification) {
  Load(0, R"(
    li64 a1, 0x1000     ; own code base
    ldi a0, 1
    sd a0, 0(a1)        ; store into executable region
    halt
  )");
  ASSERT_TRUE(bus_.ConfigureLockdown(0, 0, 0x1000, 0x1000 + 0x1000).ok());
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kFaulted);
  EXPECT_EQ(machine_.model_core(0).fault_cause(), TrapCause::kStoreFault);
}

TEST_F(MachineTest, LockdownBlocksExecutingData) {
  Load(0, R"(
    li64 a0, 0x50000
    jalr zero, a0, 0    ; jump outside the executable region
  )");
  ASSERT_TRUE(bus_.ConfigureLockdown(0, 0, 0x1000, 0x2000).ok());
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kFaulted);
  EXPECT_EQ(machine_.model_core(0).fault_cause(), TrapCause::kFetchFault);
}

TEST_F(MachineTest, PowerDownClearsArchState) {
  Load(0, R"(
    ldi a0, 42
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(Reg(0, "a0"), 42u);
  ASSERT_TRUE(bus_.PowerDown(0, 0).ok());
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kPoweredDown);
  EXPECT_EQ(Reg(0, "a0"), 0u);
  // Resume on a powered-down core fails; power-up is required.
  EXPECT_FALSE(bus_.Resume(0, 0).ok());
  ASSERT_TRUE(bus_.PowerUp(0, 0, 0x1000).ok());
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kHalted);
}

TEST_F(MachineTest, PowerDownRequiresHaltedCore) {
  Load(0, "loop: j loop");
  Start(0);
  EXPECT_FALSE(bus_.PowerDown(0, 0).ok());
}

TEST_F(MachineTest, FlushMicroarchClearsCaches) {
  Load(0, R"(
    li64 a1, 0x30000
    ld a0, 0(a1)
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  ModelCore& core = machine_.model_core(0);
  EXPECT_TRUE(core.caches().l1d.Probe(0x30000));
  ASSERT_TRUE(bus_.FlushMicroarch(0, 0).ok());
  EXPECT_FALSE(core.caches().l1d.Probe(0x30000));
}

TEST_F(MachineTest, DoorbellRaisesHypervisorInterrupt) {
  auto region = machine_.io_dram().AllocatePortRegion(0);
  ASSERT_TRUE(region.ok());
  const u64 doorbell_va = kIoDramBase + region->doorbell;
  Load(0, R"(
    li64 a1, )" + std::to_string(doorbell_va) + R"(
    ldi a0, 1
    sd a0, 0(a1)
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  const auto irqs = machine_.hv_core(0).TakePendingIrqs();
  ASSERT_EQ(irqs.size(), 1u);
  EXPECT_EQ(irqs[0], 0u);
  EXPECT_EQ(machine_.model_core(0).stats().doorbell_stores, 1u);
  EXPECT_GE(trace_.CountKind("doorbell"), 1u);
}

TEST_F(MachineTest, LapicThrottlesFlood) {
  LapicConfig config;
  config.throttle_enabled = true;
  config.refill_cycles = 1000;
  config.burst = 4;
  Lapic lapic(config);
  u64 delivered = 0;
  // 100 interrupts arriving back-to-back at t=0: only the burst passes.
  for (int i = 0; i < 100; ++i) {
    delivered += lapic.OfferIrq(0) ? 1 : 0;
  }
  EXPECT_EQ(delivered, 4u);
  EXPECT_EQ(lapic.suppressed(), 96u);
  // After 10k cycles, ~10 tokens refilled (capped at burst=4).
  delivered = 0;
  for (int i = 0; i < 100; ++i) {
    delivered += lapic.OfferIrq(10'000) ? 1 : 0;
  }
  EXPECT_EQ(delivered, 4u);
}

TEST_F(MachineTest, LapicDisabledDeliversEverything) {
  LapicConfig config;
  config.throttle_enabled = false;
  Lapic lapic(config);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(lapic.OfferIrq(0));
  }
  EXPECT_EQ(lapic.suppressed(), 0u);
}

TEST_F(MachineTest, BoardPowerOffForcesCoresDown) {
  Load(0, "loop: j loop");
  Start(0);
  machine_.PowerOffBoard();
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kPoweredDown);
  EXPECT_FALSE(machine_.board_powered());
  // Control bus refuses to operate on a dead board.
  EXPECT_FALSE(bus_.Pause(0, 0).ok());
}

TEST_F(MachineTest, MeasureSiliconCommitsToTopology) {
  MeasurementRegister a;
  machine_.MeasureSilicon(a);
  SimClock clock2;
  EventTrace trace2;
  MachineConfig other = SmallConfig();
  other.num_model_cores = 4;
  Machine machine2(other, clock2, trace2);
  MeasurementRegister b;
  machine2.MeasureSilicon(b);
  EXPECT_FALSE(DigestEqual(a.value(), b.value()));
}

// --- Physical routing near the top of the address space ---
//
// An access whose end wraps past 2^64, or that straddles the end of the IO
// window, is decoded by no bus. It raises its own fault and is charged no
// cache access.

u64 Accesses(const Cache& cache) { return cache.stats().hits + cache.stats().misses; }

TEST_F(MachineTest, FetchAtTopOfAddressSpaceFaultsWithoutL1Access) {
  ModelCore& core = machine_.model_core(0);
  core.PowerUpCore(~0ULL - 7);
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(core.state(), RunState::kFaulted);
  EXPECT_EQ(core.fault_cause(), TrapCause::kFetchFault);
  EXPECT_EQ(Accesses(core.caches().l1i), 0u);
  EXPECT_EQ(Accesses(core.caches().l2), 0u);
}

TEST_F(MachineTest, DataAccessesThatWrapOrStraddleFaultWithoutL1Access) {
  struct Case {
    const char* source;
    TrapCause cause;
  };
  const Case cases[] = {
      {"ldi a1, -8\n ld a0, 0(a1)\n halt", TrapCause::kLoadFault},
      {"ldi a1, -8\n sd a0, 0(a1)\n halt", TrapCause::kStoreFault},
      {"li64 a1, 0x4000FFFC\n ld a0, 0(a1)\n halt", TrapCause::kLoadFault},
      {"li64 a1, 0x4000FFFC\n sd a0, 0(a1)\n halt", TrapCause::kStoreFault},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.source);
    Load(0, c.source);
    ModelCore& core = machine_.model_core(0);
    core.FlushMicroarch();
    const u64 l1d_before = Accesses(core.caches().l1d);
    Start(0);
    RunUntilStopped(0);
    EXPECT_EQ(core.state(), RunState::kFaulted);
    EXPECT_EQ(core.fault_cause(), c.cause);
    EXPECT_EQ(Accesses(core.caches().l1d), l1d_before);
  }
}

// --- Interpreter known answers ---
//
// Every counter below is a property of the modelled machine, so an
// interpreter change that moves any of them changes what the simulator
// models.

void ExpectCacheStats(const Cache& c, u64 hits, u64 misses, u64 evictions) {
  SCOPED_TRACE(c.name());
  EXPECT_EQ(c.stats().hits, hits);
  EXPECT_EQ(c.stats().misses, misses);
  EXPECT_EQ(c.stats().evictions, evictions);
}

// A fixed-seed MLP inference on the default scenario deployment.
TEST(InterpreterKnownAnswerTest, MlpInferencePinsCoreAndCacheCounters) {
  GuillotineSystem sys(DefaultScenarioDeployment());
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());
  Rng rng(14);
  const MlpModel model = MlpModel::Random({16, 24, 8}, rng);
  ASSERT_TRUE(sys.HostModel(model, sys.MakeVerifier()).ok());
  ASSERT_TRUE(sys.Infer("pin the interpreter").ok());
  std::vector<i64> input(16);
  for (auto& v : input) {
    v = ToFixed(rng.NextGaussian() * 0.4);
  }
  ASSERT_TRUE(sys.InferVector(input).ok());

  ModelCore& core = sys.machine().model_core(0);
  const CoreStats& s = core.stats();
  EXPECT_EQ(s.instructions, 16'559u);
  EXPECT_EQ(s.cycles, 88'899u);
  EXPECT_EQ(s.branch_mispredicts, 110u);
  EXPECT_EQ(s.traps, 0u);
  EXPECT_EQ(s.doorbell_stores, 0u);
  ExpectCacheStats(core.caches().l1i, 16'549, 10, 0);
  ExpectCacheStats(core.caches().l1d, 2'464, 86, 0);
  ExpectCacheStats(core.caches().l2, 0, 96, 0);
  ExpectCacheStats(sys.machine().model_l3(), 0, 96, 0);
}

// The MLP run above never traps or evicts. This walk does both: three
// passes load and store every line of 512 KiB (twice the L2), with an
// ebreak after each pass and one timer interrupt on the way.
TEST_F(MachineTest, TrapAndEvictionWalkKnownAnswer) {
  Load(0, R"(
      call main             ; ra = handler address
      ; handler: skip a breakpoint, resume an interrupted instruction
      csrr t3, cause
      ldi t4, 3
      bne t3, t4, resume
      csrr t5, epc
      addi t5, t5, 8
      csrw t5, epc
    resume:
      addi s1, s1, 1
      trapret
    main:
      csrw ra, tvec
      ldi t0, 1
      csrw t0, ienable
      ldi t0, 20000
      csrw t0, timer
      ldi s0, 3
    pass:
      li64 a1, 0x20000
      li64 a2, 0xA0000
    walk:
      ld a3, 0(a1)
      sd a3, 8(a1)
      addi a1, a1, 64
      bltu a1, a2, walk
      ebreak
      addi s0, s0, -1
      bne s0, zero, pass
      halt
  )");
  Start(0);
  RunUntilStopped(0, 100'000'000);
  ModelCore& core = machine_.model_core(0);
  ASSERT_EQ(core.state(), RunState::kDone);
  EXPECT_EQ(Reg(0, "s1"), 4u);
  const CoreStats& s = core.stats();
  EXPECT_EQ(s.instructions, 98'356u);
  EXPECT_EQ(s.cycles, 3'409'080u);
  EXPECT_EQ(s.branch_mispredicts, 8u);
  EXPECT_EQ(s.traps, 4u);
  ExpectCacheStats(core.caches().l1i, 98'352, 4, 0);
  ExpectCacheStats(core.caches().l1d, 24'576, 24'576, 24'064);
  ExpectCacheStats(core.caches().l2, 0, 24'580, 20'484);
  ExpectCacheStats(machine_.model_l3(), 16'384, 8'196, 0);
}

// --- Run vs Step differential ---
//
// Run executes plain instructions in a loop that skips the per-instruction
// state checks whenever none is armed; Step always runs the fully checked
// ExecuteOne. Seeded random programs run both ways, slice by slice, with
// interrupts, watchpoints and the lockdown changed between slices, and the
// two machines must stay identical after every slice.

constexpr size_t kDiffDramBytes = 256 * 1024;
constexpr size_t kDiffIoBytes = 64 * 1024;
constexpr u64 kDiffCodeBase = 0x1000;
constexpr u64 kDiffHandler = kDiffCodeBase + 8;
constexpr u64 kDiffPageTable = 0x38000;  // identity map for programs that turn paging on
constexpr u32 kDiffPort = 3;

MachineConfig DiffConfig() {
  MachineConfig config;
  config.num_model_cores = 1;
  config.num_hv_cores = 1;
  config.model_dram_bytes = kDiffDramBytes;
  config.io_dram_bytes = kDiffIoBytes;
  // Tiny caches: code and data lines contend for the same sets, L3
  // evictions back-invalidate L1 lines, and which victim a miss picks
  // depends on the order in which one instruction's fetch and data access
  // reached L2 and L3.
  config.l1i = CacheConfig{512, 64, 2, 2};
  config.l1d = CacheConfig{512, 64, 2, 4};
  config.l2 = CacheConfig{1024, 64, 2, 12};
  config.l3 = CacheConfig{2048, 64, 4, 40};
  return config;
}

u64 Word(Opcode op, int rd, int rs1, int rs2, i64 imm) {
  return static_cast<u64>(op) | static_cast<u64>(rd) << 8 | static_cast<u64>(rs1) << 16 |
         static_cast<u64>(rs2) << 24 | static_cast<u64>(static_cast<u32>(imm)) << 32;
}

Opcode OpIn(Rng& rng, Opcode first, Opcode last) {
  const u64 span = static_cast<u8>(last) - static_cast<u8>(first) + 1;
  return static_cast<Opcode>(static_cast<u8>(first) + rng.NextBelow(span));
}

// An address for a load or store: model DRAM data and code, the ends of
// model DRAM, the IO window (ring bytes and the port's doorbell), its end,
// and the top of the address space. All fit a sign-extended ldi immediate.
i64 DiffAddress(Rng& rng, u64 doorbell) {
  switch (rng.NextBelow(9)) {
    case 0:
    case 1:
    case 2:
      return static_cast<i64>(0x8000 + rng.NextBelow(0x10000));
    case 3:
      return static_cast<i64>(kDiffCodeBase + rng.NextBelow(0x800));
    case 4:
      return static_cast<i64>(kDiffDramBytes - 8 + rng.NextBelow(16));
    case 5:
      return static_cast<i64>(kIoDramBase + rng.NextBelow(0x1000));
    case 6:
      return static_cast<i64>(kIoDramBase + doorbell);
    case 7:
      return static_cast<i64>(kIoDramBase + kDiffIoBytes - 8 + rng.NextBelow(16));
    default:
      return -8 + static_cast<i64>(rng.NextBelow(8));  // up to 2^64 - 1
  }
}

// A trap handler that skips the trapping instruction, then a random body.
// x1..x15 are scratch, x20..x23 address bases, x31 the handler's own.
std::vector<u64> RandomDiffProgram(Rng& rng, size_t body_items, u64 doorbell) {
  constexpr size_t kBody = 7;
  std::vector<u64> w = {
      Word(Opcode::kJal, 0, 0, 0, 5 * 8),  // over the handler
      Word(Opcode::kCsrr, 31, 0, 0, static_cast<i64>(Csr::kEpc)),
      Word(Opcode::kAddi, 31, 31, 0, 8),
      Word(Opcode::kCsrw, 0, 31, 0, static_cast<i64>(Csr::kEpc)),
      Word(Opcode::kTrapret, 0, 0, 0, 0),
      Word(Opcode::kLdi, 30, 0, 0, static_cast<i64>(kDiffHandler)),
      Word(Opcode::kCsrw, 0, 30, 0, static_cast<i64>(Csr::kTvec)),
  };
  // Branch and jump targets are patched once the body length is known.
  std::vector<size_t> patch;
  const auto reg = [&] { return static_cast<int>(rng.NextBelow(16)); };
  const auto base = [&] { return 20 + static_cast<int>(rng.NextBelow(4)); };
  for (size_t item = 0; item < body_items; ++item) {
    const u64 pick = rng.NextBelow(100);
    if (pick < 25) {
      w.push_back(Word(OpIn(rng, Opcode::kAdd, Opcode::kRem), reg(), reg(), reg(), 0));
    } else if (pick < 40) {
      const i64 imm = rng.NextBool(0.5) ? rng.NextInRange(-64, 64)
                                        : static_cast<i64>(static_cast<i32>(rng.Next()));
      w.push_back(Word(OpIn(rng, Opcode::kAddi, Opcode::kLdi), reg(), reg(), 0, imm));
    } else if (pick < 62) {
      const int b = base();
      const i64 offset = rng.NextInRange(-16, 16);
      const u64 how = rng.NextBelow(20);
      if (how < 11) {
        w.push_back(Word(Opcode::kLdi, b, 0, 0, DiffAddress(rng, doorbell) - offset));
      } else if (how < 18) {  // walk the base a few lines per pass through a loop
        w.push_back(Word(Opcode::kAddi, b, b, 0, 64 * rng.NextInRange(-2, 8)));
      }
      if (rng.NextBool(0.6)) {
        w.push_back(Word(OpIn(rng, Opcode::kLb, Opcode::kLd), reg(), b, 0, offset));
      } else {
        w.push_back(Word(OpIn(rng, Opcode::kSb, Opcode::kSd), 0, b, reg(), offset));
      }
    } else if (pick < 74) {
      patch.push_back(w.size());
      w.push_back(Word(OpIn(rng, Opcode::kBeq, Opcode::kBgeu), 0, reg(), reg(), 0));
    } else if (pick < 77) {
      patch.push_back(w.size());
      w.push_back(Word(Opcode::kJal, rng.NextBool(0.5) ? 1 : 0, 0, 0, 0));
    } else if (pick < 79) {
      const int b = base();
      if (rng.NextBool(0.7)) {  // else a stale base: usually a fetch fault
        const u64 target = kDiffCodeBase + 8 * (kBody + rng.NextBelow(body_items));
        w.push_back(Word(Opcode::kLdi, b, 0, 0, static_cast<i64>(target)));
      }
      w.push_back(Word(Opcode::kJalr, rng.NextBool(0.5) ? 1 : 0, b, 0, 0));
    } else if (pick < 81) {
      w.push_back(Word(rng.NextBool(0.5) ? Opcode::kNop : Opcode::kFence, 0, 0, 0, 0));
    } else if (pick < 85) {
      const i64 csr = rng.NextBool(0.5) ? static_cast<i64>(Csr::kCycle)
                                        : static_cast<i64>(rng.NextBelow(10));
      w.push_back(Word(Opcode::kCsrr, reg(), 0, 0, csr));
    } else if (pick < 92) {
      const int t = reg() | 1;
      switch (rng.NextBelow(6)) {
        case 0:
          w.push_back(Word(Opcode::kLdi, t, 0, 0, rng.NextInRange(1, 400)));
          w.push_back(Word(Opcode::kCsrw, 0, t, 0, static_cast<i64>(Csr::kTimer)));
          break;
        case 1:
          w.push_back(Word(Opcode::kLdi, t, 0, 0, rng.NextInRange(0, 1)));
          w.push_back(Word(Opcode::kCsrw, 0, t, 0, static_cast<i64>(Csr::kIenable)));
          break;
        case 2:
          w.push_back(Word(Opcode::kLdi, t, 0, 0,
                           rng.NextBool(0.8) ? static_cast<i64>(kDiffHandler) : 0));
          w.push_back(Word(Opcode::kCsrw, 0, t, 0, static_cast<i64>(Csr::kTvec)));
          break;
        case 3:  // paging on, over the identity map
          w.push_back(Word(Opcode::kLdi, t, 0, 0, 1));
          w.push_back(Word(Opcode::kSlli, t, t, 0, 63));
          w.push_back(Word(Opcode::kOri, t, t, 0, static_cast<i64>(kDiffPageTable)));
          w.push_back(Word(Opcode::kCsrw, 0, t, 0, static_cast<i64>(Csr::kSatp)));
          break;
        case 4:  // paging off
          w.push_back(Word(Opcode::kCsrw, 0, 0, 0, static_cast<i64>(Csr::kSatp)));
          break;
        default: {  // read-only or nonexistent: illegal
          const u64 csr = static_cast<u64>(Csr::kCycle) + rng.NextBelow(4);
          w.push_back(Word(Opcode::kCsrw, 0, t, 0, static_cast<i64>(csr)));
          break;
        }
      }
    } else if (pick < 94) {
      w.push_back(Word(Opcode::kTrapret, 0, 0, 0, 0));
    } else if (pick < 96) {
      w.push_back(Word(Opcode::kEbreak, 0, 0, 0, 0));
    } else if (pick < 99) {
      // A register index past x31, or an unassigned opcode (in a gap
      // between the classes or past the last) with valid registers.
      constexpr std::array<u8, 6> kUnassigned = {0x00, 0x10, 0x30, 0x48, 0x7F, 0xFF};
      const auto bad_op = static_cast<Opcode>(kUnassigned[rng.NextBelow(kUnassigned.size())]);
      w.push_back(rng.NextBool(0.5) ? Word(Opcode::kAdd, 40, 1, 2, 0)
                                    : Word(bad_op, reg(), reg(), reg(), 0));
    } else {
      w.push_back(Word(Opcode::kHalt, 0, 0, 0, 0));
    }
  }
  w.push_back(Word(Opcode::kHalt, 0, 0, 0, 0));
  for (const size_t at : patch) {
    const size_t target = kBody + rng.NextBelow(w.size() - kBody);
    // Now and then half an instruction off: an unaligned, usually illegal, fetch.
    const i64 skew = rng.NextBool(0.03) ? 4 : 0;
    const i64 imm = (static_cast<i64>(target) - static_cast<i64>(at)) * 8 + skew;
    w[at] = (w[at] & 0xFFFF'FFFFULL) | static_cast<u64>(static_cast<u32>(imm)) << 32;
  }
  return w;
}

// One machine plus what the differential feeds it.
struct DiffRig {
  SimClock clock;
  EventTrace trace;
  Machine machine{DiffConfig(), clock, trace};
  u64 doorbell = 0;

  DiffRig() { doorbell = machine.io_dram().AllocatePortRegion(kDiffPort)->doorbell; }

  void Load(const std::vector<u64>& program) {
    Dram& dram = machine.model_dram();
    for (size_t i = 0; i < program.size(); ++i) {
      dram.Write64(kDiffCodeBase + 8 * i, program[i]);
    }
    // Root -> one leaf for model DRAM and one for the first IO pages.
    const u64 leaf_dram = kDiffPageTable + kPageSize;
    const u64 leaf_io = kDiffPageTable + 2 * kPageSize;
    dram.Write64(kDiffPageTable, MakePte(leaf_dram, false, false, false));
    dram.Write64(kDiffPageTable + 8 * (kIoDramBase >> 22),
                 MakePte(leaf_io, false, false, false));
    for (u64 page = 0; page < kDiffDramBytes / kPageSize; ++page) {
      dram.Write64(leaf_dram + 8 * page, MakePte(page * kPageSize, true, true, true));
    }
    for (u64 page = 0; page < kDiffIoBytes / kPageSize; ++page) {
      dram.Write64(leaf_io + 8 * page,
                   MakePte(kIoDramBase + page * kPageSize, true, true, false));
    }
    core().PowerUpCore(kDiffCodeBase);
    core().Resume().ok();
  }

  ModelCore& core() { return machine.model_core(0); }
};

Cycles StepUpTo(ModelCore& core, Cycles budget) {
  Cycles consumed = 0;
  while (consumed < budget && core.state() == RunState::kRunning) {
    consumed += core.Step();
  }
  return consumed;
}

bool SameCache(const Cache& a, const Cache& b) {
  return a.stats().hits == b.stats().hits && a.stats().misses == b.stats().misses &&
         a.stats().evictions == b.stats().evictions;
}

bool SameEvents(const std::vector<CoreEvent>& a, const std::vector<CoreEvent>& b) {
  const auto same = [](const CoreEvent& x, const CoreEvent& y) {
    return x.core_id == y.core_id && x.watchpoint_id == y.watchpoint_id &&
           x.address == y.address && x.pc == y.pc && x.time == y.time;
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), same);
}

::testing::AssertionResult SameMachine(DiffRig& run, DiffRig& step) {
  ModelCore& a = run.core();
  ModelCore& b = step.core();
  if (a.state() != b.state() || a.halt_reason() != b.halt_reason() ||
      a.fault_cause() != b.fault_cause()) {
    return ::testing::AssertionFailure()
           << "run state " << RunStateName(a.state()) << "/"
           << HaltReasonName(a.halt_reason()) << " vs step " << RunStateName(b.state())
           << "/" << HaltReasonName(b.halt_reason());
  }
  if (a.arch().pc != b.arch().pc || a.arch().x != b.arch().x ||
      a.arch().csr != b.arch().csr) {
    return ::testing::AssertionFailure()
           << "arch state: pc " << a.arch().pc << " vs " << b.arch().pc;
  }
  const CoreStats& sa = a.stats();
  const CoreStats& sb = b.stats();
  if (sa.instructions != sb.instructions || sa.cycles != sb.cycles ||
      sa.traps != sb.traps || sa.branch_mispredicts != sb.branch_mispredicts ||
      sa.doorbell_stores != sb.doorbell_stores) {
    return ::testing::AssertionFailure()
           << "core stats: instructions " << sa.instructions << " vs " << sb.instructions
           << ", cycles " << sa.cycles << " vs " << sb.cycles;
  }
  if (!SameCache(a.caches().l1i, b.caches().l1i) ||
      !SameCache(a.caches().l1d, b.caches().l1d) ||
      !SameCache(a.caches().l2, b.caches().l2) ||
      !SameCache(run.machine.model_l3(), step.machine.model_l3())) {
    return ::testing::AssertionFailure() << "cache stats";
  }
  if (a.tlb().hits != b.tlb().hits || a.tlb().misses != b.tlb().misses) {
    return ::testing::AssertionFailure() << "tlb stats";
  }
  if (!SameEvents(a.TakeEvents(), b.TakeEvents())) {
    return ::testing::AssertionFailure() << "watchpoint events";
  }
  const auto same_bytes = [](const Dram& x, const Dram& y) {
    return std::equal(x.raw().begin(), x.raw().end(), y.raw().begin(), y.raw().end());
  };
  if (!same_bytes(run.machine.model_dram(), step.machine.model_dram()) ||
      !same_bytes(run.machine.io_dram().dram(), step.machine.io_dram().dram())) {
    return ::testing::AssertionFailure() << "DRAM contents";
  }
  if (run.machine.hv_core(0).pending_irq_count() !=
          step.machine.hv_core(0).pending_irq_count() ||
      TraceDigestHash(run.trace) != TraceDigestHash(step.trace)) {
    return ::testing::AssertionFailure() << "doorbells or trace";
  }
  return ::testing::AssertionSuccess();
}

TEST(RunStepDifferentialTest, RunSlicesMatchSteppingOnRandomPrograms) {
  constexpr int kPrograms = 300;
  constexpr int kSlices = 40;
  u64 run_instructions = 0;
  for (int seed = 1; seed <= kPrograms; ++seed) {
    SCOPED_TRACE(::testing::Message() << "program seed " << seed);
    Rng rng(static_cast<u64>(seed));
    DiffRig run;
    DiffRig step;
    const std::vector<u64> program =
        RandomDiffProgram(rng, 40 + rng.NextBelow(80), run.doorbell);
    run.Load(program);
    step.Load(program);
    const u64 code_end = kDiffCodeBase + 8 * program.size();
    for (int slice = 0; slice < kSlices; ++slice) {
      SCOPED_TRACE(::testing::Message() << "slice " << slice);
      // The same changes to both machines between slices. A watchpoint
      // over the whole program halts at the next checked fetch; a lockdown
      // window may end inside the program.
      const bool irq = rng.NextBool(0.15);
      const bool add = rng.NextBool(0.2);
      const bool whole = rng.NextBool(0.3);
      const u64 lo = rng.NextBool(0.5) ? kDiffCodeBase + 8 * rng.NextBelow(program.size())
                                       : 0x8000 + rng.NextBelow(0x10000);
      const u64 hi = lo + 1 + rng.NextBelow(64);
      const bool on_exec = rng.NextBool(0.5);
      const bool on_read = rng.NextBool(0.5);
      const bool clear = rng.NextBool(0.2);
      const bool relock = rng.NextBool(0.15);
      ExecLockdown lockdown;
      if (rng.NextBool(0.5)) {
        lockdown = ExecLockdown{true, kDiffCodeBase,
                                kDiffCodeBase + 8 * (1 + rng.NextBelow(program.size()))};
      }
      for (DiffRig* rig : {&run, &step}) {
        ModelCore& core = rig->core();
        if (irq) {
          core.RaiseExternalInterrupt(TrapCause::kPortCompletion);
        }
        if (add && whole) {
          core.AddWatchpoint(kDiffCodeBase, code_end, true, false, false);
        } else if (add) {
          core.AddWatchpoint(lo, hi, on_exec, on_read, !on_read);
        }
        if (clear) {
          core.ClearWatchpoints();
        }
        if (relock) {
          core.SetLockdown(lockdown);
        }
        if (core.state() == RunState::kHalted) {
          ASSERT_TRUE(core.Resume().ok());
        }
      }
      const Cycles budget = 1 + rng.NextBelow(3000);
      const u64 before = run.core().stats().instructions;
      const Cycles run_cycles = run.core().Run(budget);
      const Cycles step_cycles = StepUpTo(step.core(), budget);
      run_instructions += run.core().stats().instructions - before;
      ASSERT_EQ(run_cycles, step_cycles);
      ASSERT_TRUE(SameMachine(run, step));
      const RunState state = run.core().state();
      if (state == RunState::kDone || state == RunState::kFaulted) {
        break;
      }
    }
  }
  // The sweep must actually run code, not stop at the first instruction.
  EXPECT_GT(run_instructions, 100'000u);
}

// --- IO DRAM ring tests ---

TEST(IoDramTest, AllocateAndFindRegions) {
  IoDram io(64 * 1024);
  const auto r0 = io.AllocatePortRegion(0, 256, 8);
  const auto r1 = io.AllocatePortRegion(1, 128, 4);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_NE(r0->request_ring, r1->request_ring);
  EXPECT_TRUE(io.FindRegion(0).has_value());
  EXPECT_FALSE(io.FindRegion(7).has_value());
  EXPECT_FALSE(io.AllocatePortRegion(0).ok());  // duplicate
}

TEST(IoDramTest, DoorbellMapping) {
  IoDram io(64 * 1024);
  const auto r0 = io.AllocatePortRegion(0);
  ASSERT_TRUE(r0.ok());
  EXPECT_TRUE(io.IsDoorbell(r0->doorbell));
  EXPECT_EQ(*io.DoorbellPort(r0->doorbell), 0u);
  // Doorbell slot for an unallocated port resolves to nothing.
  EXPECT_FALSE(io.DoorbellPort(io.doorbell_page() + 8).has_value());
  EXPECT_FALSE(io.IsDoorbell(0));
}

TEST(IoDramTest, RingPushPopRoundTrip) {
  IoDram io(64 * 1024);
  const auto region = io.AllocatePortRegion(0, 256, 4);
  ASSERT_TRUE(region.ok());
  RingView ring = io.RequestRing(*region);
  IoSlot slot;
  slot.opcode = 3;
  slot.tag = 42;
  slot.payload = ToBytes("hello rings");
  ASSERT_TRUE(ring.Push(slot).ok());
  EXPECT_EQ(ring.size(), 1u);
  const auto popped = ring.Pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->opcode, 3u);
  EXPECT_EQ(popped->tag, 42u);
  EXPECT_EQ(ToString(popped->payload), "hello rings");
  EXPECT_TRUE(ring.empty());
}

TEST(IoDramTest, RingRejectsOverflow) {
  IoDram io(64 * 1024);
  const auto region = io.AllocatePortRegion(0, 64, 2);
  ASSERT_TRUE(region.ok());
  RingView ring = io.RequestRing(*region);
  IoSlot slot;
  slot.payload = Bytes(16, 0xAB);
  EXPECT_TRUE(ring.Push(slot).ok());
  EXPECT_TRUE(ring.Push(slot).ok());
  EXPECT_FALSE(ring.Push(slot).ok());  // full
  slot.payload = Bytes(100, 1);
  ring.Pop();
  EXPECT_FALSE(ring.Push(slot).ok());  // payload too big for slot
}

TEST(IoDramTest, RingWrapsManyTimes) {
  IoDram io(64 * 1024);
  const auto region = io.AllocatePortRegion(0, 64, 3);
  ASSERT_TRUE(region.ok());
  RingView ring = io.RequestRing(*region);
  for (u32 i = 0; i < 50; ++i) {
    IoSlot slot;
    slot.opcode = i;
    slot.tag = i * 7;
    ASSERT_TRUE(ring.Push(slot).ok());
    const auto popped = ring.Pop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->opcode, i);
    EXPECT_EQ(popped->tag, i * 7);
  }
}

// --- Devices ---

TEST(NicDeviceTest, SendRecvStats) {
  NicDevice nic(7);
  Cycles cost = 0;
  IoRequest send;
  send.opcode = static_cast<u32>(NicOpcode::kSend);
  send.tag = 1;
  PutU32(send.payload, 9);  // dst host
  const Bytes body = ToBytes("frame-body");
  send.payload.insert(send.payload.end(), body.begin(), body.end());
  IoResponse resp = nic.Handle(send, 0, cost);
  EXPECT_EQ(resp.status, 0u);
  const auto frame = nic.TakeOutbound();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->dst_host, 9u);
  EXPECT_EQ(frame->src_host, 7u);
  EXPECT_EQ(ToString(frame->payload), "frame-body");

  // Deliver an inbound frame and receive it.
  Frame in;
  in.src_host = 3;
  in.dst_host = 7;
  in.payload = ToBytes("pong");
  ASSERT_TRUE(nic.DeliverInbound(in));
  IoRequest recv;
  recv.opcode = static_cast<u32>(NicOpcode::kRecv);
  resp = nic.Handle(recv, 0, cost);
  EXPECT_EQ(resp.status, 0u);
  ByteReader reader(resp.payload);
  u32 src = 0;
  ASSERT_TRUE(reader.ReadU32(src));
  EXPECT_EQ(src, 3u);
}

TEST(NicDeviceTest, RecvOnEmptyReturnsNoPayload) {
  NicDevice nic(1);
  Cycles cost = 0;
  IoRequest recv;
  recv.opcode = static_cast<u32>(NicOpcode::kRecv);
  const IoResponse resp = nic.Handle(recv, 0, cost);
  EXPECT_EQ(resp.status, 0u);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(NicDeviceTest, PoweredDownRejects) {
  NicDevice nic(1);
  nic.set_powered(false);
  Cycles cost = 0;
  IoRequest send;
  send.opcode = static_cast<u32>(NicOpcode::kSend);
  PutU32(send.payload, 2);
  EXPECT_EQ(nic.Handle(send, 0, cost).status, 0xDEADu);
}

TEST(StorageDeviceTest, WriteReadRoundTrip) {
  StorageDevice disk(64, 512);
  Cycles cost = 0;
  IoRequest write;
  write.opcode = static_cast<u32>(StorageOpcode::kWrite);
  PutU64(write.payload, 3);  // sector
  const Bytes data = ToBytes("persistent bits");
  write.payload.insert(write.payload.end(), data.begin(), data.end());
  EXPECT_EQ(disk.Handle(write, 0, cost).status, 0u);

  IoRequest read;
  read.opcode = static_cast<u32>(StorageOpcode::kRead);
  PutU64(read.payload, 3);
  PutU32(read.payload, 1);
  const IoResponse resp = disk.Handle(read, 0, cost);
  EXPECT_EQ(resp.status, 0u);
  ASSERT_EQ(resp.payload.size(), 512u);
  EXPECT_EQ(ToString(Bytes(resp.payload.begin(), resp.payload.begin() + 15)),
            "persistent bits");
}

TEST(StorageDeviceTest, OutOfRangeRejected) {
  StorageDevice disk(8, 512);
  Cycles cost = 0;
  IoRequest read;
  read.opcode = static_cast<u32>(StorageOpcode::kRead);
  PutU64(read.payload, 7);
  PutU32(read.payload, 2);  // crosses the end
  EXPECT_NE(disk.Handle(read, 0, cost).status, 0u);
}

IoRequest StorageRead(u64 sector, u32 count) {
  IoRequest read;
  read.opcode = static_cast<u32>(StorageOpcode::kRead);
  PutU64(read.payload, sector);
  PutU32(read.payload, count);
  return read;
}

IoRequest StorageWrite(u64 sector, size_t bytes) {
  IoRequest write;
  write.opcode = static_cast<u32>(StorageOpcode::kWrite);
  PutU64(write.payload, sector);
  write.payload.resize(8 + bytes, 0xEE);
  return write;
}

TEST(StorageDeviceTest, FreshDiskReadsZeroUpToItsLastSector) {
  StorageDevice disk(4096, 512);  // 2 MiB, the size a deployment attaches
  Bytes all(4096 * 512, 0xAA);
  ASSERT_TRUE(disk.ReadSectors(0, all).ok());
  EXPECT_TRUE(std::all_of(all.begin(), all.end(), [](u8 b) { return b == 0; }));
  Cycles cost = 0;
  const IoResponse last = disk.Handle(StorageRead(4095, 1), 0, cost);
  ASSERT_EQ(last.status, 0u);
  ASSERT_EQ(last.payload.size(), 512u);
  EXPECT_TRUE(
      std::all_of(last.payload.begin(), last.payload.end(), [](u8 b) { return b == 0; }));
}

TEST(StorageDeviceTest, ReadWhoseSectorRangeWrapsIsRejected) {
  StorageDevice disk(8, 512);
  Cycles cost = 0;
  // sector + count wraps to 0 and would pass a naive `sector + count > n`.
  EXPECT_EQ(disk.Handle(StorageRead(~0ULL, 1), 0, cost).status, 2u);
  EXPECT_EQ(disk.Handle(StorageRead(~0ULL - 6, 8), 0, cost).status, 2u);
  EXPECT_EQ(disk.Handle(StorageRead(9, 1), 0, cost).status, 2u);
  EXPECT_EQ(disk.Handle(StorageRead(7, 0xFFFFFFFFu), 0, cost).status, 2u);
  // The edges that do exist still work.
  EXPECT_EQ(disk.Handle(StorageRead(7, 1), 0, cost).status, 0u);
  EXPECT_EQ(disk.Handle(StorageRead(0, 8), 0, cost).status, 0u);
}

TEST(StorageDeviceTest, WriteWhoseSectorRangeWrapsIsRejected) {
  StorageDevice disk(8, 512);
  Cycles cost = 0;
  EXPECT_EQ(disk.Handle(StorageWrite(~0ULL, 1), 0, cost).status, 2u);
  EXPECT_EQ(disk.Handle(StorageWrite(~0ULL, 512), 0, cost).status, 2u);
  EXPECT_EQ(disk.Handle(StorageWrite(~0ULL - 1, 1024), 0, cost).status, 2u);
  EXPECT_EQ(disk.Handle(StorageWrite(8, 1), 0, cost).status, 2u);
  EXPECT_EQ(disk.Handle(StorageWrite(7, 513), 0, cost).status, 2u);
  EXPECT_EQ(disk.Handle(StorageWrite(7, 512), 0, cost).status, 0u);
  // Nothing outside sector 7 was written.
  Bytes head(7 * 512, 0xAA);
  ASSERT_TRUE(disk.ReadSectors(0, head).ok());
  EXPECT_TRUE(std::all_of(head.begin(), head.end(), [](u8 b) { return b == 0; }));
}

TEST(StorageDeviceTest, SetupAccessorsRejectOffsetsThatOverflow) {
  StorageDevice disk(8, 512);
  // 2^55 sectors * 512 bytes wraps to offset 0.
  const u64 wraps_to_zero = 1ULL << 55;
  Bytes sector(512, 0x77);
  EXPECT_FALSE(disk.WriteSectors(wraps_to_zero, sector).ok());
  EXPECT_FALSE(disk.ReadSectors(wraps_to_zero, sector).ok());
  EXPECT_FALSE(disk.WriteSectors(~0ULL, sector).ok());
  EXPECT_FALSE(disk.ReadSectors(~0ULL, sector).ok());
  EXPECT_FALSE(disk.WriteSectors(8, sector).ok());
  Bytes past_end(513);
  EXPECT_FALSE(disk.ReadSectors(7, past_end).ok());
  // Sector 0 is untouched by the refused writes.
  Bytes first(512, 0xAA);
  ASSERT_TRUE(disk.ReadSectors(0, first).ok());
  EXPECT_TRUE(std::all_of(first.begin(), first.end(), [](u8 b) { return b == 0; }));
  ASSERT_TRUE(disk.WriteSectors(7, sector).ok());
  ASSERT_TRUE(disk.ReadSectors(7, first).ok());
  EXPECT_EQ(first, sector);
}

TEST(AcceleratorTest, MatMulMatchesScalar) {
  AcceleratorDevice accel;
  Cycles cost = 0;
  // A = [[1,2],[3,4]], B = [[5,6],[7,8]] in raw integers (shift 0).
  auto load = [&](AccelOpcode op, const std::vector<i64>& m, u32 rows, u32 cols) {
    IoRequest req;
    req.opcode = static_cast<u32>(op);
    PutU32(req.payload, rows);
    PutU32(req.payload, cols);
    PutU32(req.payload, 0);
    for (i64 v : m) {
      PutU64(req.payload, static_cast<u64>(v));
    }
    return accel.Handle(req, 0, cost).status;
  };
  EXPECT_EQ(load(AccelOpcode::kLoadA, {1, 2, 3, 4}, 2, 2), 0u);
  EXPECT_EQ(load(AccelOpcode::kLoadB, {5, 6, 7, 8}, 2, 2), 0u);
  IoRequest mm;
  mm.opcode = static_cast<u32>(AccelOpcode::kMatMul);
  PutU32(mm.payload, 0);  // shift
  EXPECT_EQ(accel.Handle(mm, 0, cost).status, 0u);
  IoRequest rd;
  rd.opcode = static_cast<u32>(AccelOpcode::kReadC);
  PutU32(rd.payload, 0);
  PutU32(rd.payload, 2);
  const IoResponse resp = accel.Handle(rd, 0, cost);
  ASSERT_EQ(resp.status, 0u);
  ByteReader reader(resp.payload);
  u64 c00, c01, c10, c11;
  reader.ReadU64(c00);
  reader.ReadU64(c01);
  reader.ReadU64(c10);
  reader.ReadU64(c11);
  EXPECT_EQ(c00, 19u);  // 1*5+2*7
  EXPECT_EQ(c01, 22u);
  EXPECT_EQ(c10, 43u);
  EXPECT_EQ(c11, 50u);
}

TEST(AcceleratorTest, DimensionMismatchRejected) {
  AcceleratorDevice accel;
  Cycles cost = 0;
  auto load = [&](AccelOpcode op, u32 rows, u32 cols) {
    IoRequest req;
    req.opcode = static_cast<u32>(op);
    PutU32(req.payload, rows);
    PutU32(req.payload, cols);
    PutU32(req.payload, 0);
    for (u32 i = 0; i < rows * cols; ++i) {
      PutU64(req.payload, 1);
    }
    return accel.Handle(req, 0, cost).status;
  };
  EXPECT_EQ(load(AccelOpcode::kLoadA, 2, 3), 0u);
  EXPECT_EQ(load(AccelOpcode::kLoadB, 2, 2), 0u);  // 3 != 2
  IoRequest mm;
  mm.opcode = static_cast<u32>(AccelOpcode::kMatMul);
  PutU32(mm.payload, 0);
  EXPECT_NE(accel.Handle(mm, 0, cost).status, 0u);
}

}  // namespace
}  // namespace guillotine
