// Tests for src/machine: the GISA interpreter, traps, interrupts, IO DRAM,
// doorbells + LAPIC throttling, control bus, and devices.
#include <gtest/gtest.h>

#include <algorithm>

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
