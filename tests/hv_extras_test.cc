// Tests for the hypervisor extensions: opcode capability filters, model
// snapshots, audit reports, and the concrete Probation policy.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/core/guillotine.h"
#include "src/hv/audit_report.h"
#include "src/hv/snapshot.h"
#include "src/machine/storage.h"
#include "src/testing/scenario.h"

namespace guillotine {
namespace {

MachineConfig SmallConfig() {
  MachineConfig config;
  config.num_model_cores = 1;
  config.num_hv_cores = 1;
  config.model_dram_bytes = 256 * 1024;
  config.io_dram_bytes = 64 * 1024;
  return config;
}

// --- Snapshot seal format ---

// An independent rendering of the seal format documented on
// ModelSnapshot::ComputeDigest: the whole preimage is materialized and every
// page is hashed, all-zero or not.
Sha256Digest ReferenceSeal(const ModelSnapshot& s) {
  Bytes preimage;
  PutU64(preimage, static_cast<u64>(s.core));
  PutU64(preimage, s.taken_at);
  PutU64(preimage, s.dram.size());
  PutU64(preimage, 4096);
  for (u64 reg : s.arch.x) {
    PutU64(preimage, reg);
  }
  PutU64(preimage, s.arch.pc);
  for (u64 csr : s.arch.csr) {
    PutU64(preimage, csr);
  }
  for (size_t off = 0; off < s.dram.size(); off += 4096) {
    const size_t len = std::min<size_t>(4096, s.dram.size() - off);
    const Sha256Digest leaf = Sha256::Hash(std::span<const u8>(s.dram.data() + off, len));
    preimage.insert(preimage.end(), leaf.begin(), leaf.end());
  }
  return Sha256::Hash(preimage);
}

// SHA-256 compressions to hash `len` bytes: the message plus 9 bytes of
// padding and length, rounded up to 64-byte blocks.
u64 Blocks(size_t len) { return (len + 9 + 63) / 64; }

// Bytes of the seal preimage before the page leaves: the 4 x u64 header and
// the serialized registers, pc and CSRs.
constexpr size_t kSealPrefixBytes =
    4 * 8 + (kNumRegisters + 1 + static_cast<size_t>(Csr::kCount)) * 8;

// Declared first so that, run as part of the whole binary, it holds the first
// seal in the process: a zero-page leaf computed on first use would charge
// that seal extra compressions and make seal costs depend on test order.
TEST(SnapshotSealTest, FirstSealInProcessCostsTheSameAsTheSecond) {
  ModelSnapshot snapshot;
  snapshot.dram.assign(16 * 4096, 0);
  snapshot.dram[3 * 4096 + 17] = 0x5A;
  snapshot.dram[9 * 4096 + 4095] = 0xA5;
  u64 before = Sha256::compressions();
  const Sha256Digest first = snapshot.ComputeDigest();
  const u64 first_cost = Sha256::compressions() - before;
  before = Sha256::compressions();
  const Sha256Digest second = snapshot.ComputeDigest();
  const u64 second_cost = Sha256::compressions() - before;
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_cost, second_cost);
  // Two hashed pages plus the outer hash over prefix + 16 leaves; the 14
  // zero pages cost nothing.
  EXPECT_EQ(first_cost, 2 * Blocks(4096) + Blocks(kSealPrefixBytes + 16 * 32));
}

TEST(SnapshotSealTest, ZeroPageLeafIsHashOfZeroPage) {
  EXPECT_EQ(kZeroPageLeaf, Sha256::Hash(Bytes(kSnapshotPageBytes, 0)));
  EXPECT_EQ(DigestHex(kZeroPageLeaf),
            "ad7facb2586fc6e966c004d7d1d16b024f5805ff7cb47c7a85dabd8b48892ca7");
}

TEST(SnapshotSealTest, SealMatchesReferenceOnZeroSparseAndDenseImages) {
  Rng rng(15);
  // Sizes cover an empty image, a lone partial page, whole pages, and a
  // partial last page after full ones.
  const size_t sizes[] = {0, 100, 4096, 3 * 4096, 5 * 4096 + 1, 16 * 4096 + 2049};
  for (const size_t size : sizes) {
    // 0: all zero (so a short tail page is zero too, and must still be
    // hashed rather than mapped to kZeroPageLeaf); 1: sparse; 2: dense.
    for (const int fill : {0, 1, 2}) {
      ModelSnapshot snapshot;
      snapshot.core = static_cast<int>(rng.NextBelow(4));
      snapshot.taken_at = rng.Next();
      for (u64& reg : snapshot.arch.x) {
        reg = rng.Next();
      }
      snapshot.arch.pc = rng.Next();
      for (u64& csr : snapshot.arch.csr) {
        csr = rng.Next();
      }
      snapshot.dram.assign(size, 0);
      if (fill == 2) {
        for (u8& b : snapshot.dram) {
          b = static_cast<u8>(rng.Next());
        }
      } else if (fill == 1 && size > 0) {
        // A few random bytes, including the very last one of the image, so
        // some pages are non-zero only at an edge.
        for (int i = 0; i < 3; ++i) {
          snapshot.dram[rng.NextBelow(size)] = static_cast<u8>(rng.Next() | 1);
        }
        snapshot.dram.back() = 1;
      }
      EXPECT_EQ(snapshot.ComputeDigest(), ReferenceSeal(snapshot))
          << "size=" << size << " fill=" << fill;
      // PortableDigest is the same format with the clock fields zeroed.
      ModelSnapshot portable = snapshot;
      portable.taken_at = 0;
      portable.arch.csr[static_cast<size_t>(Csr::kCycle)] = 0;
      portable.arch.csr[static_cast<size_t>(Csr::kCoreId)] = 0;
      EXPECT_EQ(snapshot.PortableDigest(), ReferenceSeal(portable))
          << "size=" << size << " fill=" << fill;
    }
  }
}

class HvExtrasTest : public ::testing::Test {
 protected:
  HvExtrasTest() : machine_(SmallConfig(), clock_, trace_), hv_(machine_, nullptr) {
    disk_index_ = machine_.AttachDevice(std::make_unique<StorageDevice>(64, 512));
  }

  ServiceStats PushAndService(u32 port_id, u32 opcode, Bytes payload = {}) {
    const PortBinding* binding = hv_.FindPort(port_id);
    RingView ring = machine_.io_dram().RequestRing(binding->region);
    IoSlot slot;
    slot.opcode = opcode;
    slot.tag = 1;
    slot.payload = std::move(payload);
    ring.Push(slot).ok();
    return hv_.ServiceOnce(0, /*poll_all=*/true);
  }

  std::optional<IoSlot> PopResponse(u32 port_id) {
    const PortBinding* binding = hv_.FindPort(port_id);
    return machine_.io_dram().ResponseRing(binding->region).Pop();
  }

  SimClock clock_;
  EventTrace trace_;
  Machine machine_;
  SoftwareHypervisor hv_;
  u32 disk_index_ = 0;
};

TEST_F(HvExtrasTest, OpcodeFilterAllowsListedOpcodes) {
  PortRights rights;
  rights.allowed_opcodes = {static_cast<u32>(StorageOpcode::kInfo)};
  const auto port = hv_.CreatePort(disk_index_, rights);
  ASSERT_TRUE(port.ok());
  PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo));
  EXPECT_EQ(PopResponse(*port)->opcode, 0u);
}

TEST_F(HvExtrasTest, OpcodeFilterRejectsUnlistedOpcodes) {
  PortRights rights;
  rights.allowed_opcodes = {static_cast<u32>(StorageOpcode::kInfo)};
  const auto port = hv_.CreatePort(disk_index_, rights);
  ASSERT_TRUE(port.ok());
  // A write is not in the capability: rejected before reaching the device.
  Bytes payload;
  PutU64(payload, 0);
  payload.resize(20, 0xAA);
  const ServiceStats stats =
      PushAndService(*port, static_cast<u32>(StorageOpcode::kWrite), payload);
  EXPECT_EQ(stats.blocked, 1u);
  EXPECT_EQ(PopResponse(*port)->opcode, 0xE159u);
}

TEST_F(HvExtrasTest, EmptyOpcodeListAllowsEverything) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo));
  EXPECT_EQ(PopResponse(*port)->opcode, 0u);
}

TEST_F(HvExtrasTest, SnapshotRoundTrip) {
  // Run a tiny program to some state, snapshot, clobber, restore, verify.
  const Bytes code = [] {
    ProgramBuilder b(0x1000);
    b.Ldi(4, 111);        // a0
    b.Li64(13, 0x9000);   // t1
    b.Store(Opcode::kSd, 4, 13, 0);
    b.Halt();
    return b.Build()->Encode();
  }();
  ASSERT_TRUE(hv_.LoadModel(0, code, 0x1000, 0x1000).ok());
  ASSERT_TRUE(hv_.StartModel(0).ok());
  machine_.model_core(0).Run(100'000);
  ASSERT_EQ(machine_.model_core(0).state(), RunState::kDone);

  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_TRUE(snapshot->IntegrityOk());
  EXPECT_EQ(snapshot->arch.x[4], 111u);

  // Clobber everything.
  machine_.model_dram().Clear();
  machine_.model_core(0).PowerUpCore(0);
  u64 v = 1;
  machine_.model_dram().Read64(0x9000, v);
  EXPECT_EQ(v, 0u);

  // Restore and verify memory + registers came back.
  ASSERT_TRUE(RestoreSnapshot(hv_, *snapshot).ok());
  machine_.model_dram().Read64(0x9000, v);
  EXPECT_EQ(v, 111u);
  EXPECT_EQ(machine_.model_core(0).arch().x[4], 111u);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kHalted);
}

TEST_F(HvExtrasTest, CaptureEqualsDenseDramReadByteForByte) {
  // Non-zero bytes at the first and last byte of a page, mid-page, and in
  // the last page; a page written and then zeroed again; the rest untouched.
  Dram& dram = machine_.model_dram();
  const size_t last = dram.size() - 1;
  ASSERT_TRUE(dram.Write8(0, 0x01));
  ASSERT_TRUE(dram.Write8(3 * kSnapshotPageBytes - 1, 0x02));
  ASSERT_TRUE(dram.Write64(17 * kSnapshotPageBytes + 100, 0x0102030405060708ULL));
  ASSERT_TRUE(dram.Write8(last, 0x03));
  ASSERT_TRUE(dram.Write64(30 * kSnapshotPageBytes, 0xFF));
  ASSERT_TRUE(dram.Write64(30 * kSnapshotPageBytes, 0));
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  Bytes dense(dram.size(), 0xAA);
  ASSERT_TRUE(hv_.control_bus().ReadModelDram(0, 0, dense).ok());
  ASSERT_EQ(snapshot->dram.size(), dense.size());
  EXPECT_TRUE(std::equal(dense.begin(), dense.end(), snapshot->dram.begin()));
  EXPECT_EQ(snapshot->dram[last], 0x03);
  // The image keeps its all-zero shape after a Clear: nothing stale.
  dram.Clear();
  const auto cleared = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(cleared.ok());
  EXPECT_TRUE(std::all_of(cleared->dram.begin(), cleared->dram.end(),
                          [](u8 b) { return b == 0; }));
  // Both captures charged and traced the full image, like a dense read.
  const auto reads = trace_.OfKind("ctl.read_dram");
  ASSERT_EQ(reads.size(), 3u);
  for (const TraceEvent* read : reads) {
    EXPECT_NE(read->detail.find("len=" + std::to_string(dram.size())), std::string::npos);
  }
}

TEST_F(HvExtrasTest, RestoringAZeroPageOverNonZeroTargetLeavesItZero) {
  Dram& dram = machine_.model_dram();
  ASSERT_TRUE(dram.Write64(2 * kSnapshotPageBytes, 0xABCD));
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());
  // After the capture, the model dirties pages that were zero in the image
  // (one whole page, one partial) and zeroes one that was not.
  ASSERT_TRUE(dram.WriteBlock(9 * kSnapshotPageBytes, Bytes(kSnapshotPageBytes, 0x5A)).ok());
  ASSERT_TRUE(dram.Write8(11 * kSnapshotPageBytes + 4095, 0x01));
  ASSERT_TRUE(dram.Write64(2 * kSnapshotPageBytes, 0));
  ASSERT_TRUE(RestoreSnapshot(hv_, *snapshot).ok());
  Bytes after(dram.size());
  ASSERT_TRUE(dram.ReadBlock(0, after).ok());
  EXPECT_TRUE(std::equal(after.begin(), after.end(), snapshot->dram.begin()));
  u64 v = 0;
  ASSERT_TRUE(dram.Read64(9 * kSnapshotPageBytes, v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(dram.Read64(2 * kSnapshotPageBytes, v));
  EXPECT_EQ(v, 0xABCDu);
}

TEST_F(HvExtrasTest, TamperedSnapshotRefusesRestore) {
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());
  ModelSnapshot tampered = *snapshot;
  tampered.dram[42] ^= 0xFF;
  const Status restore = RestoreSnapshot(hv_, tampered);
  EXPECT_EQ(restore.code(), StatusCode::kUnauthenticated);
  // The refusal is a security event in the audit trail, carrying both the
  // sealed and the recomputed digest prefixes.
  ASSERT_EQ(trace_.CountKind("snapshot.tamper"), 1u);
  const TraceEvent* event = trace_.OfKind("snapshot.tamper").front();
  EXPECT_EQ(event->category, TraceCategory::kSecurity);
  EXPECT_NE(event->detail.find("sealed="), std::string::npos);
  EXPECT_NE(event->detail.find("recomputed="), std::string::npos);
  // Nothing was restored: no DRAM rewrite happened after the bit flip.
  EXPECT_EQ(trace_.CountKind("snapshot.restore"), 0u);
}

TEST_F(HvExtrasTest, EveryTamperedSnapshotRegionIsCaughtAndAudited) {
  // Get the core into a non-trivial architectural state first.
  const Bytes code = [] {
    ProgramBuilder b(0x1000);
    b.Ldi(4, 77);
    b.Halt();
    return b.Build()->Encode();
  }();
  ASSERT_TRUE(hv_.LoadModel(0, code, 0x1000, 0x1000).ok());
  ASSERT_TRUE(hv_.StartModel(0).ok());
  machine_.model_core(0).Run(100'000);
  ASSERT_TRUE(machine_.model_dram().Write64(5 * kSnapshotPageBytes + 64, 0xC0FFEE));
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());

  size_t tamper_events = 0;
  auto expect_rejected = [&](const ModelSnapshot& tampered, std::string_view what) {
    EXPECT_FALSE(tampered.IntegrityOk()) << what;
    const Status restore = RestoreSnapshot(hv_, tampered);
    EXPECT_EQ(restore.code(), StatusCode::kUnauthenticated) << what;
    ++tamper_events;
    EXPECT_EQ(trace_.CountKind("snapshot.tamper"), tamper_events) << what;
  };

  auto page = [](ModelSnapshot& s, size_t index) {
    return std::span<u8>(s.dram.data() + index * kSnapshotPageBytes, kSnapshotPageBytes);
  };
  auto is_zero = [&](size_t index) {
    const auto first = snapshot->dram.begin() + index * kSnapshotPageBytes;
    return std::all_of(first, first + kSnapshotPageBytes, [](u8 b) { return b == 0; });
  };
  // Pages 1 (the code) and 5 (the marker) are the non-zero ones; 7 and 9
  // are untouched zero pages.
  ASSERT_FALSE(is_zero(1));
  ASSERT_FALSE(is_zero(5));
  ASSERT_TRUE(is_zero(7));
  ASSERT_TRUE(is_zero(9));

  ModelSnapshot dram_flip = *snapshot;
  dram_flip.dram[0x9000] ^= 0x01;  // single-bit flip inside an all-zero page
  expect_rejected(dram_flip, "zero-page bit flip");

  ModelSnapshot code_flip = *snapshot;
  code_flip.dram[0x1000] ^= 0x01;  // single-bit flip inside a non-zero page
  expect_rejected(code_flip, "non-zero-page bit flip");

  ModelSnapshot swapped = *snapshot;
  std::swap_ranges(page(swapped, 1).begin(), page(swapped, 1).end(),
                   page(swapped, 5).begin());
  expect_rejected(swapped, "two non-zero pages swapped");

  ModelSnapshot moved = *snapshot;
  std::copy(page(moved, 5).begin(), page(moved, 5).end(), page(moved, 7).begin());
  std::fill(page(moved, 5).begin(), page(moved, 5).end(), 0);
  expect_rejected(moved, "non-zero page moved into a zero slot");

  ModelSnapshot reg_flip = *snapshot;
  reg_flip.arch.x[4] ^= 1;  // register tamper (77 -> 76)
  expect_rejected(reg_flip, "register bit flip");

  ModelSnapshot pc_flip = *snapshot;
  pc_flip.arch.pc ^= 0x8;  // resume-point redirection
  expect_rejected(pc_flip, "pc flip");

  ModelSnapshot seal_flip = *snapshot;
  seal_flip.digest[0] ^= 0x80;  // forged seal
  expect_rejected(seal_flip, "digest bit flip");

  // The untampered snapshot still restores fine afterwards.
  EXPECT_TRUE(RestoreSnapshot(hv_, *snapshot).ok());
  EXPECT_EQ(trace_.CountKind("snapshot.restore"), 1u);
}

TEST_F(HvExtrasTest, RetargetedOrRedatedSnapshotRefusesRestore) {
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());
  // The seal covers the core id, the capture time, and the DRAM geometry —
  // not just the memory image: a snapshot retargeted at another core,
  // re-dated, or truncated is refused exactly like a bit flip.
  ModelSnapshot retargeted = *snapshot;
  retargeted.core ^= 1;
  EXPECT_FALSE(retargeted.IntegrityOk());
  EXPECT_EQ(RestoreSnapshot(hv_, retargeted).code(), StatusCode::kUnauthenticated);
  ModelSnapshot redated = *snapshot;
  redated.taken_at ^= 1;
  EXPECT_FALSE(redated.IntegrityOk());
  EXPECT_EQ(RestoreSnapshot(hv_, redated).code(), StatusCode::kUnauthenticated);
  ModelSnapshot truncated = *snapshot;
  truncated.dram.resize(truncated.dram.size() - 8);
  EXPECT_FALSE(truncated.IntegrityOk());
  EXPECT_EQ(RestoreSnapshot(hv_, truncated).code(), StatusCode::kUnauthenticated);
  // Dropping a whole trailing zero page removes one kZeroPageLeaf; the
  // sealed DRAM size still catches it.
  ModelSnapshot page_truncated = *snapshot;
  page_truncated.dram.resize(page_truncated.dram.size() - kSnapshotPageBytes);
  EXPECT_FALSE(page_truncated.IntegrityOk());
  EXPECT_EQ(RestoreSnapshot(hv_, page_truncated).code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(trace_.CountKind("snapshot.tamper"), 4u);
  EXPECT_EQ(trace_.CountKind("snapshot.restore"), 0u);
}

TEST(SnapshotSealTest, FlipInPartialLastPageRefusesRestore) {
  MachineConfig config = SmallConfig();
  config.model_dram_bytes = 64 * 1024 + 100;  // 16 full pages + a 100-byte tail
  SimClock clock;
  EventTrace trace;
  Machine machine(config, clock, trace);
  SoftwareHypervisor hv(machine, nullptr);
  ASSERT_TRUE(machine.model_dram().Write8(config.model_dram_bytes - 1, 0x42));
  const auto snapshot = CaptureSnapshot(hv, 0);
  ASSERT_TRUE(snapshot.ok());
  ModelSnapshot tampered = *snapshot;
  tampered.dram.back() ^= 0x01;
  EXPECT_FALSE(tampered.IntegrityOk());
  EXPECT_EQ(RestoreSnapshot(hv, tampered).code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(trace.CountKind("snapshot.tamper"), 1u);
  ModelSnapshot zeroed_tail = *snapshot;
  zeroed_tail.dram.back() = 0;  // the tail page becomes all zero
  EXPECT_EQ(RestoreSnapshot(hv, zeroed_tail).code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(trace.CountKind("snapshot.tamper"), 2u);
  EXPECT_TRUE(RestoreSnapshot(hv, *snapshot).ok());
}

TEST_F(HvExtrasTest, TamperedSnapshotRefusalHashesImageOnce) {
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());
  ModelSnapshot tampered = *snapshot;
  tampered.dram[7] ^= 0x01;
  u64 before = Sha256::compressions();
  const Sha256Digest recomputed = tampered.ComputeDigest();
  const u64 one_seal = Sha256::compressions() - before;
  // The fixture's 256 KiB image is 64 zero pages until the flip makes page 0
  // non-zero: one hashed page plus the outer hash over prefix + 64 leaves.
  // 65 + 38 compressions.
  ASSERT_EQ(one_seal, 103u);
  // The refusal recomputes the seal once and reports that same digest: the
  // image is not hashed a second time just to fill the trace.
  before = Sha256::compressions();
  EXPECT_EQ(VerifySnapshotSealed(hv_, tampered).code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(Sha256::compressions() - before, one_seal);
  ASSERT_EQ(trace_.CountKind("snapshot.tamper"), 1u);
  const std::string& detail = trace_.OfKind("snapshot.tamper").front()->detail;
  EXPECT_NE(detail.find("recomputed=" + DigestHex(recomputed).substr(0, 16)),
            std::string::npos)
      << detail;
  // A clean snapshot costs a single seal too: of its own all-zero image,
  // which is the outer hash alone.
  before = Sha256::compressions();
  EXPECT_TRUE(VerifySnapshotSealed(hv_, *snapshot).ok());
  EXPECT_EQ(Sha256::compressions() - before, 38u);
}

TEST_F(HvExtrasTest, RestoreDropsStaleEpochIrqsAndRings) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());
  // Post-capture epoch state: a queued request and a pending doorbell.
  // Restoring must not leak either into the restored world — a stale
  // completion IRQ would wake the fresh state for an I/O it never issued.
  const PortBinding* binding = hv_.FindPort(*port);
  IoSlot slot;
  slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
  slot.tag = 9;
  ASSERT_TRUE(machine_.io_dram().RequestRing(binding->region).Push(slot).ok());
  machine_.hv_core(binding->owner_hv_core).InjectIrq(*port);
  ASSERT_TRUE(RestoreSnapshot(hv_, *snapshot).ok());
  EXPECT_EQ(trace_.CountKind("snapshot.quiesce"), 1u);
  // The stale doorbell is gone...
  EXPECT_TRUE(machine_.hv_core(binding->owner_hv_core).TakePendingIrqs().empty());
  // ...and so is the stale request: a servicing pass finds nothing.
  const ServiceStats stats = hv_.ServiceOnce(0, /*poll_all=*/true);
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_FALSE(machine_.io_dram().ResponseRing(binding->region).Pop().has_value());
}

TEST_F(HvExtrasTest, SnapshotRequiresQuiescedComplex) {
  const Bytes code = [] {
    ProgramBuilder b(0x1000);
    const auto loop = b.NewLabel();
    b.Bind(loop);
    b.Jump(loop);
    return b.Build()->Encode();
  }();
  ASSERT_TRUE(hv_.LoadModel(0, code, 0x1000, 0x1000).ok());
  ASSERT_TRUE(hv_.StartModel(0).ok());
  EXPECT_FALSE(CaptureSnapshot(hv_, 0).ok());
}

TEST_F(HvExtrasTest, AuditReportAggregatesPortsAndSecurity) {
  PortRights rights;
  rights.can_send = false;
  const auto blocked_port = hv_.CreatePort(disk_index_, rights);
  const auto open_port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(blocked_port.ok());
  ASSERT_TRUE(open_port.ok());
  PushAndService(*blocked_port, static_cast<u32>(StorageOpcode::kInfo));
  PushAndService(*open_port, static_cast<u32>(StorageOpcode::kInfo));
  hv_.ApplySoftwareIsolation(IsolationLevel::kProbation);

  const AuditReport report = BuildAuditReport(hv_, trace_);
  EXPECT_EQ(report.ports.size(), 2u);
  EXPECT_EQ(report.ports[0].rejected, 1u);
  EXPECT_EQ(report.ports[1].requests, 1u);
  EXPECT_GE(report.security_events.size(), 1u);  // the rejection
  ASSERT_GE(report.isolation_timeline.size(), 1u);
  EXPECT_EQ(report.isolation_timeline.back().level, IsolationLevel::kProbation);

  const std::string rendered = RenderAuditReport(report);
  EXPECT_NE(rendered.find("AUDIT REPORT"), std::string::npos);
  EXPECT_NE(rendered.find("port 0"), std::string::npos);
  EXPECT_NE(rendered.find("probation"), std::string::npos);
}

// Known answer for the snapshot seal. A fixed-seed default deployment that
// hosted a model and served one request seals to these digests. They pin the
// seal preimage (header + arch + DRAM page leaves) and the SHA-256 output
// together, so a change to either moves them and must say why.
TEST(SnapshotSealTest, SnapshotSealKnownAnswer) {
  GuillotineSystem sys(DefaultScenarioDeployment());
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());
  Rng rng(7);
  const MlpModel model = MlpModel::Random({8, 16, 4}, rng);
  ASSERT_TRUE(sys.HostModel(model, sys.MakeVerifier()).ok());
  ASSERT_TRUE(sys.Infer("summarize the weather").ok());
  sys.machine().model_core(0).Pause(HaltReason::kHypervisorPause);
  const auto snapshot = CaptureSnapshot(sys.hv(), 0);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->dram.size(), 1u << 20);
  EXPECT_EQ(snapshot->digest, ReferenceSeal(*snapshot));
  EXPECT_EQ(DigestHex(snapshot->digest),
            "ca5b09f8c4d7788298535b9071011863d7bc0c63e4e5b28119dec6b5597c9cc3");
  EXPECT_EQ(DigestHex(snapshot->PortableDigest()),
            "be55ea55e356f32dfd54eb33bdfc575503d2aa34a95f599d9dc831adeb603e7a");
}

// --- Probation policy through the full console path ---

TEST(ProbationTest, PolicySuspendsNicAndClampsQuotas) {
  DeploymentConfig config;
  config.machine.num_model_cores = 1;
  config.machine.num_hv_cores = 1;
  config.machine.model_dram_bytes = 1 << 20;
  config.machine.io_dram_bytes = 512 * 1024;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  GuillotineSystem sys(config);
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());

  ProbationPolicy policy;
  policy.suspend_nic_send = true;
  policy.residual_byte_quota = 1024;
  sys.console().set_probation_policy(policy);

  ASSERT_TRUE(sys.console().RequestTransition(IsolationLevel::kProbation, {0, 1, 2}).ok());
  const PortBinding* nic = sys.hv().FindPort(*sys.nic_port());
  const PortBinding* disk = sys.hv().FindPort(*sys.storage_port());
  EXPECT_TRUE(nic->send_suspended);
  EXPECT_FALSE(disk->send_suspended);
  EXPECT_EQ(disk->rights.byte_quota, disk->quota_used() + 1024);

  // Returning to Standard reverses everything (5-of-7).
  ASSERT_TRUE(sys.console()
                  .RequestTransition(IsolationLevel::kStandard, {0, 1, 2, 3, 4})
                  .ok());
  EXPECT_FALSE(sys.hv().FindPort(*sys.nic_port())->send_suspended);
  EXPECT_EQ(sys.hv().FindPort(*sys.storage_port())->rights.byte_quota, 0u);
}

TEST(ProbationTest, DeviceTypeSuspensionList) {
  DeploymentConfig config;
  config.machine.num_model_cores = 1;
  config.machine.num_hv_cores = 1;
  config.machine.model_dram_bytes = 1 << 20;
  config.machine.io_dram_bytes = 512 * 1024;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  GuillotineSystem sys(config);
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());

  ProbationPolicy policy;
  policy.suspend_nic_send = false;
  policy.residual_byte_quota = 0;
  policy.suspend_device_types = {DeviceType::kAccelerator, DeviceType::kRagStore};
  sys.console().set_probation_policy(policy);
  ASSERT_TRUE(sys.console().RequestTransition(IsolationLevel::kProbation, {0, 1, 2}).ok());
  EXPECT_FALSE(sys.hv().FindPort(*sys.nic_port())->send_suspended);
  EXPECT_TRUE(sys.hv().FindPort(*sys.accel_port())->send_suspended);
  EXPECT_TRUE(sys.hv().FindPort(*sys.rag_port())->send_suspended);
}

}  // namespace
}  // namespace guillotine
