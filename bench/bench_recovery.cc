// RECOVERBENCH: audited Offline->Standard recovery + quarantine-migrate.
//
// Paper claim (section 3): containment is only half the story — the way
// back down must restore *attested* state, not whatever DRAM held through
// containment. This bench measures, in sim cycles:
//   - recovery latency: force-Offline -> RecoverFromSnapshot(Standard) ->
//     first detector-approved inference completes, idle vs with the model's
//     bulk rings flooded with stale pre-capture requests + IRQs. The restore
//     quiesces the pre-snapshot epoch, so the flood must buy the adversary
//     nothing: flooded p50 stays within a pinned factor of idle p50.
//   - quarantine-migrate: session/KV handover counters, the re-captured
//     portable-digest check, and the post-migrate service probe makespan.
//   - tamper gate: every cell attempts one bit-flipped recovery and one
//     retargeted-core migrate; a tampered snapshot that is NOT refused is
//     an SLO breach, not a table row.
// Each cell runs twice; '=' marks byte-identical digests. A second table
// reports the seal's cost per capture and verify on a 1 MiB image at
// non-zero-page fractions 0, 1/256, 1/8 and 1, against one linear SHA-256
// of the same flat image: compressions are exact, wall microseconds are
// reported only. A dense image may cost at most kDenseSealBound x the
// linear compressions (the page leaves add ~2%). The harness exits nonzero
// on a breach or a rerun divergence. Flags:
//   --hv-cores=1,2,4   hv core counts to sweep
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/guillotine.h"
#include "src/hv/snapshot.h"
#include "src/machine/storage.h"
#include "src/service/service.h"
#include "src/testing/scenario.h"

namespace guillotine {
namespace {

// Flooded recovery p50 may be at most this factor of idle p50. The restore
// quiesce drains the stale epoch before the board comes back, so the two
// distributions should coincide; the slack only absorbs quantum rounding.
constexpr u64 kSloFactor = 2;

// A fully non-zero image may cost at most this factor of one linear
// SHA-256 over the same bytes: the format predicts 65 compressions per page
// against 64, plus the outer hash over the leaves, about 1.02x.
constexpr double kDenseSealBound = 1.05;
constexpr size_t kSealBenchPages = 256;  // a 1 MiB model DRAM

u64 CountKind(const EventTrace& trace, std::string_view kind) {
  u64 count = 0;
  for (const TraceEvent& e : trace.events()) {
    count += (e.kind == kind) ? 1 : 0;
  }
  return count;
}

u64 Mix(u64 hash, u64 value) {
  return (hash ^ value) * 1099511628211ull;
}

u64 Percentile(const std::vector<u64>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct RecoveryOutcome {
  u64 p50 = 0;
  u64 max = 0;
  u64 quiesce_events = 0;   // one per restore — the stale-epoch drain ran
  u64 tamper_refusals = 0;  // bit-flipped recoveries refused while dark
  u32 samples = 0;
  bool failed = false;
  u64 digest = 0;
};

// One deterministic recovery cell: warm deployment, (optionally) flood a
// bulk port with stale requests + IRQs, capture, force Offline, refuse a
// bit-flipped snapshot, then recover from the sealed one and probe with a
// real inference. Latency is capture-epoch-free by construction — the
// quiesce at restore drops the flood.
RecoveryOutcome RunRecovery(int hv_cores, bool flooded, u32 samples) {
  RecoveryOutcome out;
  out.samples = samples;
  DeploymentConfig config = DefaultScenarioDeployment();
  config.machine.num_hv_cores = hv_cores;
  GuillotineSystem sys(config);
  Rng model_rng(7);
  const MlpModel model = MlpModel::Random({8, 16, 4}, model_rng);
  if (!sys.AttachDefaultDevices().ok() ||
      !sys.HostModel(model, sys.MakeVerifier()).ok() ||
      !sys.Infer("warm the recovery bench").ok()) {
    out.failed = true;
    return out;
  }
  const u32 disk =
      sys.machine().AttachDevice(std::make_unique<StorageDevice>(64));

  std::vector<u64> latencies;
  latencies.reserve(samples);
  u32 flood_port = 0;
  bool have_port = false;
  u64 tag = 1;
  for (u32 s = 0; s < samples; ++s) {
    if (flooded) {
      // Containment revokes ports, so each sample floods a fresh one.
      const PortBinding* binding =
          have_port ? sys.hv().FindPort(flood_port) : nullptr;
      if (binding == nullptr || binding->revoked) {
        Result<u32> created = sys.hv().CreatePort(disk, PortRights{}, 0,
                                                  /*slot_bytes=*/64,
                                                  /*slot_count=*/32);
        if (!created.ok()) {
          out.failed = true;
          return out;
        }
        flood_port = *created;
        have_port = true;
        binding = sys.hv().FindPort(flood_port);
      }
      RingView ring = sys.machine().io_dram().RequestRing(binding->region);
      for (int r = 0; r < 24; ++r) {
        IoSlot slot;
        slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
        slot.tag = tag++;
        if (!ring.Push(slot).ok()) {
          break;  // full ring = enough stale epoch to matter
        }
        sys.machine().hv_core(binding->owner_hv_core).InjectIrq(binding->port_id);
      }
    }

    for (int c = 0; c < sys.machine().num_model_cores(); ++c) {
      sys.machine().model_core(c).Pause(HaltReason::kHypervisorPause);
    }
    Result<ModelSnapshot> snapshot = CaptureSnapshot(sys.hv(), 0);
    if (!snapshot.ok()) {
      out.failed = true;
      return out;
    }
    sys.console().ForceOffline("recoverbench containment");

    // The tamper gate: a bit-flipped snapshot must be refused while the
    // board is still dark.
    ModelSnapshot bad = *snapshot;
    if (!bad.dram.empty()) {
      bad.dram[0] ^= 1;
    }
    if (!sys.console()
             .RecoverFromSnapshot(IsolationLevel::kStandard, {0, 1, 2, 3, 4},
                                  bad)
             .ok()) {
      ++out.tamper_refusals;
    }

    const Cycles t0 = sys.clock().now();
    const Result<Cycles> recovered = sys.console().RecoverFromSnapshot(
        IsolationLevel::kStandard, {0, 1, 2, 3, 4}, *snapshot);
    if (!recovered.ok() || !sys.Infer("post-recovery probe").ok()) {
      out.failed = true;
      return out;
    }
    latencies.push_back(sys.clock().now() - t0);
  }

  std::sort(latencies.begin(), latencies.end());
  out.p50 = Percentile(latencies, 0.5);
  out.max = latencies.empty() ? 0 : latencies.back();
  out.quiesce_events = CountKind(sys.trace(), "snapshot.quiesce");
  out.digest = TraceDigestHash(sys.trace());
  for (const u64 lat : latencies) {
    out.digest = Mix(out.digest, lat);
  }
  return out;
}

struct MigrateOutcome {
  u64 remapped = 0;
  u64 kv_migrated = 0;
  u64 kv_dropped = 0;
  Cycles probe_makespan = 0;  // post-migrate service probe
  bool tamper_refused = false;
  bool digest_verified = false;
  bool failed = false;
  u64 digest = 0;
};

// One deterministic quarantine-migrate cell: a 2-member fleet behind a
// 2-shard service with resident sessions; a retargeted-core migrate must be
// refused, then a clean migrate rebuilds member 0 and the service probe
// must still complete through the rebuilt ring.
MigrateOutcome RunMigrate(int hv_cores, bool flooded) {
  MigrateOutcome out;
  DeploymentConfig config = DefaultScenarioDeployment();
  config.machine.num_hv_cores = hv_cores;
  Rng model_rng(3);
  const MlpModel model = MlpModel::Random({8, 16, 4}, model_rng);
  GuillotineFleet fleet(2, config);
  if (!fleet.HostEverywhere(model).ok()) {
    out.failed = true;
    return out;
  }
  ModelServiceConfig service_config;
  service_config.num_shards = 2;
  service_config.kv.total_blocks = 48;
  ModelService service(service_config);
  fleet.RegisterWith(service);
  for (u32 sid = 1; sid <= 6; ++sid) {
    service.shard(service.OwnerShard(sid)).kv_cache().Extend(sid, 24, 0);
  }

  if (flooded) {
    // Dirty the suspect's IO rings with a stale epoch the migrate must not
    // carry into the fresh deployment.
    GuillotineSystem& suspect = fleet.system(0);
    const u32 disk =
        suspect.machine().AttachDevice(std::make_unique<StorageDevice>(64));
    Result<u32> port = suspect.hv().CreatePort(disk, PortRights{}, 0,
                                               /*slot_bytes=*/64,
                                               /*slot_count=*/32);
    if (!port.ok()) {
      out.failed = true;
      return out;
    }
    const PortBinding* binding = suspect.hv().FindPort(*port);
    RingView ring = suspect.machine().io_dram().RequestRing(binding->region);
    for (u64 r = 0; r < 24; ++r) {
      IoSlot slot;
      slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
      slot.tag = r + 1;
      if (!ring.Push(slot).ok()) {
        break;
      }
      suspect.machine()
          .hv_core(binding->owner_hv_core)
          .InjectIrq(binding->port_id);
    }
  }

  // Tamper gate on the migrate path: a retargeted-core snapshot is refused
  // and leaves the suspect installed (with the tamper evidence in its trace).
  const Result<QuarantineMigrateReport> refused = fleet.QuarantineMigrate(
      0, model, &service, /*target_shard=*/0, fleet.system(0).clock().now(),
      [](ModelSnapshot& snapshot) { snapshot.core ^= 1; });
  out.tamper_refused = !refused.ok() &&
                       CountKind(fleet.system(0).trace(), "snapshot.tamper") > 0;

  const Result<QuarantineMigrateReport> report = fleet.QuarantineMigrate(
      0, model, &service, /*target_shard=*/0, fleet.system(0).clock().now());
  if (!report.ok()) {
    out.failed = true;
    return out;
  }
  out.remapped = report->remapped_sessions;
  out.kv_migrated = report->kv_migrated;
  out.kv_dropped = report->kv_dropped;
  out.digest_verified = report->digest_verified;

  std::vector<InferenceRequest> requests;
  for (u64 i = 0; i < 8; ++i) {
    requests.push_back({i, "post-migrate probe " + std::to_string(i), i * 100,
                        static_cast<u32>(i % 6) + 1});
  }
  const ServiceReport probe = service.RunAll(std::move(requests));
  if (probe.completed != 8 || probe.failed != 0) {
    out.failed = true;
    return out;
  }
  out.probe_makespan = probe.makespan;

  out.digest = Mix(TraceDigestHash(fleet.decommissioned(0).trace()),
                   TraceDigestHash(fleet.system(0).trace()));
  out.digest = Mix(out.digest, out.remapped);
  out.digest = Mix(out.digest, out.kv_migrated + out.kv_dropped);
  out.digest = Mix(out.digest, out.probe_makespan);
  return out;
}

struct SealCost {
  u64 capture_cmp = 0;  // compressions of one CaptureSnapshot
  u64 verify_cmp = 0;   // compressions of one VerifySnapshotSealed
  u64 linear_cmp = 0;   // compressions of Sha256::Hash over the flat image
  double capture_us = 0;  // wall medians
  double verify_us = 0;
  double linear_us = 0;
  bool failed = false;
};

// Seal cost on a quiesced 1 MiB model DRAM of which `nonzero_pages`
// pages, spread evenly over the image, hold random non-zero words.
SealCost MeasureSealCost(size_t nonzero_pages, u32 reps) {
  SealCost out;
  MachineConfig mc;
  mc.num_model_cores = 1;
  mc.num_hv_cores = 1;
  mc.model_dram_bytes = kSealBenchPages * kSnapshotPageBytes;
  mc.io_dram_bytes = 64 * 1024;
  SimClock clock;
  EventTrace trace;
  Machine machine(mc, clock, trace);
  SoftwareHypervisor hv(machine, nullptr);
  Rng rng(BenchSeed());
  for (size_t i = 0; i < nonzero_pages; ++i) {
    const size_t page = i * kSealBenchPages / nonzero_pages;
    for (size_t off = 0; off < kSnapshotPageBytes; off += 8) {
      machine.model_dram().Write64(page * kSnapshotPageBytes + off, rng.Next() | 1);
    }
  }
  using WallClock = std::chrono::steady_clock;
  auto nanos = [](WallClock::time_point a, WallClock::time_point b) {
    return static_cast<u64>(std::chrono::nanoseconds(b - a).count());
  };
  auto median_us = [](std::vector<u64> ns) {
    std::sort(ns.begin(), ns.end());
    return static_cast<double>(Percentile(ns, 0.5)) / 1000.0;
  };
  std::vector<u64> capture_ns, verify_ns, linear_ns;
  for (u32 r = 0; r < reps; ++r) {
    u64 c0 = Sha256::compressions();
    auto t0 = WallClock::now();
    const Result<ModelSnapshot> snapshot = CaptureSnapshot(hv, 0);
    capture_ns.push_back(nanos(t0, WallClock::now()));
    out.capture_cmp = Sha256::compressions() - c0;
    if (!snapshot.ok()) {
      out.failed = true;
      return out;
    }
    c0 = Sha256::compressions();
    t0 = WallClock::now();
    if (!VerifySnapshotSealed(hv, *snapshot).ok()) {
      out.failed = true;
    }
    verify_ns.push_back(nanos(t0, WallClock::now()));
    out.verify_cmp = Sha256::compressions() - c0;
    c0 = Sha256::compressions();
    t0 = WallClock::now();
    Sha256::Hash(snapshot->dram);
    linear_ns.push_back(nanos(t0, WallClock::now()));
    out.linear_cmp = Sha256::compressions() - c0;
  }
  out.capture_us = median_us(std::move(capture_ns));
  out.verify_us = median_us(std::move(verify_ns));
  out.linear_us = median_us(std::move(linear_ns));
  return out;
}

// The seal-cost table. Returns true on a breach.
bool RunSealCost() {
  const u32 reps = Smoked(50u, 3u);
  std::printf(
      "\nseal cost per capture / verify of a %zu KiB image vs one linear "
      "SHA-256 (compressions exact; wall us = median of %u, reported only)\n",
      kSealBenchPages * kSnapshotPageBytes / 1024, reps);
  bool breached = false;
  TextTable table({"nonzero_pages", "capture_cmp", "verify_cmp", "linear_cmp",
                   "cmp_ratio", "capture_us", "verify_us", "linear_us"});
  for (const size_t pages : {size_t{0}, size_t{1}, kSealBenchPages / 8, kSealBenchPages}) {
    const SealCost cost = MeasureSealCost(pages, reps);
    const double ratio = static_cast<double>(cost.capture_cmp) /
                         static_cast<double>(std::max<u64>(cost.linear_cmp, 1));
    table.AddRow({std::to_string(pages) + "/" + std::to_string(kSealBenchPages),
                  std::to_string(cost.capture_cmp), std::to_string(cost.verify_cmp),
                  std::to_string(cost.linear_cmp), TextTable::Num(ratio, 3),
                  TextTable::Num(cost.capture_us, 1), TextTable::Num(cost.verify_us, 1),
                  TextTable::Num(cost.linear_us, 1)});
    if (cost.failed || cost.verify_cmp != cost.capture_cmp) {
      std::fprintf(stderr,
                   "SLO BREACH: %zu non-zero pages: capture/verify failed or "
                   "costs differ (%llu vs %llu compressions)\n",
                   pages, static_cast<unsigned long long>(cost.capture_cmp),
                   static_cast<unsigned long long>(cost.verify_cmp));
      breached = true;
    }
    if (pages == kSealBenchPages && ratio > kDenseSealBound) {
      std::fprintf(stderr,
                   "SLO BREACH: a dense image seals at %.3fx the linear "
                   "compressions (bound %.2fx)\n",
                   ratio, kDenseSealBound);
      breached = true;
    }
  }
  table.Print();
  return breached;
}

int Run(const std::vector<u64>& hv_core_counts) {
  BenchHeader(
      "RECOVERBENCH / snapshot recovery + quarantine-migrate",
      "Offline->Standard recovery restores only sealed state: a stale-epoch "
      "flood at capture time changes recovery latency by at most " +
          std::to_string(kSloFactor) +
          "x (the restore quiesce drops it), every tampered snapshot is "
          "refused on both the console and migrate paths, and the migrated "
          "deployment's re-captured digest matches the seal");

  const u32 samples = Smoked(24u, 4u);
  bool breached = false;
  bool diverged = false;
  TextTable table({"hv_cores", "mode", "samples", "rec_p50", "rec_max",
                   "quiesce", "tamper_ref", "remap", "kv_mig", "kv_drop",
                   "probe_cyc", "digest"});
  for (const u64 cores : hv_core_counts) {
    RecoveryOutcome idle;
    for (const bool flooded : {false, true}) {
      const RecoveryOutcome rec_a =
          RunRecovery(static_cast<int>(cores), flooded, samples);
      const RecoveryOutcome rec_b =
          RunRecovery(static_cast<int>(cores), flooded, samples);
      const MigrateOutcome mig_a = RunMigrate(static_cast<int>(cores), flooded);
      const MigrateOutcome mig_b = RunMigrate(static_cast<int>(cores), flooded);
      const u64 digest_a = Mix(rec_a.digest, mig_a.digest);
      const u64 digest_b = Mix(rec_b.digest, mig_b.digest);
      const bool same = digest_a == digest_b;
      diverged = diverged || !same;
      std::ostringstream digest;
      digest << std::hex << (digest_a & 0xFFFFFFFF) << (same ? "=" : "!");
      table.AddRow({std::to_string(cores), flooded ? "flood" : "idle",
                    std::to_string(samples), std::to_string(rec_a.p50),
                    std::to_string(rec_a.max),
                    std::to_string(rec_a.quiesce_events),
                    std::to_string(rec_a.tamper_refusals),
                    std::to_string(mig_a.remapped),
                    std::to_string(mig_a.kv_migrated),
                    std::to_string(mig_a.kv_dropped),
                    std::to_string(mig_a.probe_makespan), digest.str()});

      if (rec_a.failed || mig_a.failed) {
        std::fprintf(stderr,
                     "SLO BREACH: hv_cores=%llu %s cell failed to recover or "
                     "migrate cleanly\n",
                     static_cast<unsigned long long>(cores),
                     flooded ? "flood" : "idle");
        breached = true;
      }
      if (rec_a.tamper_refusals != samples || !mig_a.tamper_refused) {
        std::fprintf(stderr,
                     "SLO BREACH: hv_cores=%llu %s accepted a tampered "
                     "snapshot (console refusals %llu/%u, migrate refused=%d)\n",
                     static_cast<unsigned long long>(cores),
                     flooded ? "flood" : "idle",
                     static_cast<unsigned long long>(rec_a.tamper_refusals),
                     samples, mig_a.tamper_refused ? 1 : 0);
        breached = true;
      }
      if (rec_a.quiesce_events < samples) {
        std::fprintf(stderr,
                     "SLO BREACH: hv_cores=%llu %s restore skipped the "
                     "stale-epoch quiesce (%llu < %u)\n",
                     static_cast<unsigned long long>(cores),
                     flooded ? "flood" : "idle",
                     static_cast<unsigned long long>(rec_a.quiesce_events),
                     samples);
        breached = true;
      }
      if (!mig_a.digest_verified) {
        std::fprintf(stderr,
                     "SLO BREACH: hv_cores=%llu %s migrated deployment's "
                     "re-captured digest does not match the seal\n",
                     static_cast<unsigned long long>(cores),
                     flooded ? "flood" : "idle");
        breached = true;
      }
      if (!flooded) {
        idle = rec_a;
        continue;
      }
      const u64 bound = kSloFactor * std::max<u64>(idle.p50, 1);
      if (rec_a.p50 > bound) {
        std::fprintf(stderr,
                     "SLO BREACH: hv_cores=%llu flooded recovery p50=%llu "
                     "cycles exceeds %llux idle p50 (%llu cycles)\n",
                     static_cast<unsigned long long>(cores),
                     static_cast<unsigned long long>(rec_a.p50),
                     static_cast<unsigned long long>(kSloFactor),
                     static_cast<unsigned long long>(bound));
        breached = true;
      }
    }
  }
  table.Print();
  breached = RunSealCost() || breached;
  if (diverged) {
    std::fprintf(stderr, "DETERMINISM BREACH: rerun digests diverged ('!')\n");
  }
  BenchFooter(
      "recovery latency is flood-invariant: the restore quiesce drains the "
      "stale pre-capture epoch (rings, IRQs, accounting) before the board "
      "comes back, so flooding the suspect buys the adversary nothing. "
      "tamper_ref == samples and the refused migrate show the sealed-digest "
      "gate holds on both paths; remap/kv columns account every session the "
      "handover moved; '=' digests confirm byte-identical reruns. The seal "
      "hashes only non-zero pages, so capture and verify cost tracks the "
      "non-zero fraction and a dense image costs about 1.02x a linear hash");
  return (breached || diverged) ? 1 : 0;
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  std::vector<guillotine::u64> hv_cores =
      guillotine::FlagList(argc, argv, "--hv-cores=");
  if (hv_cores.empty()) {
    hv_cores = {1, 2, 4};
  }
  return guillotine::Run(hv_cores);
}
