#include "src/hv/snapshot.h"

#include <algorithm>

#include "src/crypto/sha256.h"

namespace guillotine {

namespace {
Bytes SerializeArch(const ArchState& arch) {
  Bytes out;
  for (u64 reg : arch.x) {
    PutU64(out, reg);
  }
  PutU64(out, arch.pc);
  for (u64 csr : arch.csr) {
    PutU64(out, csr);
  }
  return out;
}

static_assert(kSnapshotPageBytes == kHostPageBytes, "leaves use IsZeroPage");

// The sealed preimage: a fixed header (target core, capture time, DRAM
// geometry, page size), the serialized architectural state, then one leaf
// per DRAM page. Folding the header in is what makes a retarget
// (core/taken_at mutation) or a geometry swap indistinguishable from a
// bit-flip to IntegrityOk. Model DRAM is mostly untouched zero pages, and
// those cost a read but no hashing.
Sha256Digest DigestOver(int core, Cycles taken_at, const ArchState& arch,
                        std::span<const u8> dram) {
  Sha256 hasher;
  Bytes header;
  PutU64(header, static_cast<u64>(core));
  PutU64(header, taken_at);
  PutU64(header, dram.size());
  PutU64(header, kSnapshotPageBytes);
  hasher.Update(std::span<const u8>(header.data(), header.size()));
  const Bytes arch_bytes = SerializeArch(arch);
  hasher.Update(std::span<const u8>(arch_bytes.data(), arch_bytes.size()));
  for (size_t off = 0; off < dram.size(); off += kSnapshotPageBytes) {
    const std::span<const u8> page =
        dram.subspan(off, std::min(kSnapshotPageBytes, dram.size() - off));
    const Sha256Digest leaf =
        page.size() == kSnapshotPageBytes && IsZeroPage(page.data())
            ? kZeroPageLeaf
            : Sha256::Hash(page);
    hasher.Update(std::span<const u8>(leaf.data(), leaf.size()));
  }
  return hasher.Finalize();
}
}  // namespace

Sha256Digest ModelSnapshot::ComputeDigest() const {
  return DigestOver(core, taken_at, arch, dram);
}

Sha256Digest ModelSnapshot::PortableDigest() const {
  // RestoreSnapshot round-trips everything except the clock: taken_at and
  // the hardware-owned cycle CSR differ between a sealed snapshot and a
  // faithful post-restore re-capture. Zero them (and the core-id CSR, which
  // the hardware rewrites too) so logical-state equality is comparable.
  ArchState portable = arch;
  portable.csr[static_cast<size_t>(Csr::kCycle)] = 0;
  portable.csr[static_cast<size_t>(Csr::kCoreId)] = 0;
  return DigestOver(core, /*taken_at=*/0, portable, dram);
}

Result<ModelSnapshot> CaptureSnapshot(SoftwareHypervisor& hv, int core) {
  Machine& machine = hv.machine();
  ControlBus& bus = hv.control_bus();
  ModelSnapshot snapshot;
  snapshot.core = core;
  snapshot.taken_at = machine.clock().now();
  GLL_ASSIGN_OR_RETURN(snapshot.arch, bus.ReadArchState(0, core));
  snapshot.dram.resize(machine.model_dram().size());
  GLL_RETURN_IF_ERROR(bus.ReadModelDram(0, 0, snapshot.dram));
  snapshot.digest = snapshot.ComputeDigest();
  machine.trace().Event(machine.clock().now(), TraceCategory::kControlBus, "hv",
                        "snapshot.capture", "core={} digest={}",
                        {core, TraceArg::Hex16(DigestPrefixBe64(snapshot.digest))});
  return snapshot;
}

Status VerifySnapshotSealed(SoftwareHypervisor& hv, const ModelSnapshot& snapshot) {
  const Sha256Digest recomputed = snapshot.ComputeDigest();
  if (DigestEqual(snapshot.digest, recomputed)) {
    return OkStatus();
  }
  // A tampered snapshot is a security event, not just an API error: the
  // refusal must land in the audit trail alongside the capture record.
  Machine& machine = hv.machine();
  machine.trace().Event(
      machine.clock().now(), TraceCategory::kSecurity, "hv", "snapshot.tamper",
      "core={} sealed={} recomputed={}",
      {snapshot.core, TraceArg::Hex16(DigestPrefixBe64(snapshot.digest)),
       TraceArg::Hex16(DigestPrefixBe64(recomputed))});
  return Unauthenticated("snapshot digest mismatch: refusing to restore");
}

Status RestoreSnapshot(SoftwareHypervisor& hv, const ModelSnapshot& snapshot) {
  Machine& machine = hv.machine();
  ControlBus& bus = hv.control_bus();
  GLL_RETURN_IF_ERROR(VerifySnapshotSealed(hv, snapshot));
  const int core = snapshot.core;
  if (snapshot.dram.size() != machine.model_dram().size()) {
    return InvalidArgument("snapshot DRAM geometry does not match machine");
  }
  // The snapshot carries architectural state only; whatever I/O epoch the
  // complex was in — queued ring entries, port byte-accounting, pending
  // doorbells — predates the capture and must not leak into the restored
  // world. Quiesce before the power-cycle.
  GLL_RETURN_IF_ERROR(hv.QuiesceEpochState(core));
  // Power-cycle to a clean halted state, then repaint memory and registers.
  GLL_RETURN_IF_ERROR(bus.PowerUp(0, core, snapshot.arch.pc));
  GLL_RETURN_IF_ERROR(bus.WriteModelDram(0, 0, snapshot.dram));
  for (int reg = 1; reg < kNumRegisters; ++reg) {
    GLL_RETURN_IF_ERROR(
        bus.WriteRegister(0, core, reg, snapshot.arch.x[static_cast<size_t>(reg)]));
  }
  GLL_RETURN_IF_ERROR(bus.WritePc(0, core, snapshot.arch.pc));
  for (size_t c = 0; c < static_cast<size_t>(Csr::kCount); ++c) {
    // Cycle/core-id are hardware-owned; skip them.
    const Csr csr = static_cast<Csr>(c);
    if (csr == Csr::kCycle || csr == Csr::kCoreId) {
      continue;
    }
    GLL_RETURN_IF_ERROR(bus.WriteCsr(0, core, csr, snapshot.arch.csr[c]));
  }
  machine.trace().Event(machine.clock().now(), TraceCategory::kControlBus, "hv",
                        "snapshot.restore", "core={} digest={}",
                        {core, TraceArg::Hex16(DigestPrefixBe64(snapshot.digest))});
  return OkStatus();
}

}  // namespace guillotine
