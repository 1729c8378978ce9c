// contain: containment drills on a 2-member GuillotineFleet behind a 2-shard
// ModelService. A drill floods the suspect's bulk storage port, rings the
// kill-class hv-escalation port and pumps until the hypervisor reads
// Severed. Every kMigrateEvery-th drill continues with a forensic capture +
// seal check and a QuarantineMigrate that alternates between a clean migrate
// and one with a single DRAM byte flipped, which must be refused. The kill
// path (hv scheduler, console) and whole-DRAM snapshot sealing (crypto, hv)
// do the work; the GISA interpreter is nearly idle.
#include "perfbench/perfbench.h"
#include "src/crypto/sha256.h"
#include "src/machine/control_channel.h"
#include "src/machine/storage.h"
#include "src/service/service.h"
#include "src/testing/scenario.h"

namespace perfbench {
namespace {

using guillotine::IsolationLevel;

constexpr size_t kMembers = 2;
constexpr u64 kDrillsPerStream = 512;
constexpr u64 kMigrateEvery = 32;
constexpr u64 kPassCap = 64;
const std::vector<int> kRelaxVotes = {0, 1, 2, 3, 4};

void DrainPort(guillotine::GuillotineSystem& sys, u32 port_id) {
  const guillotine::PortBinding* b = sys.hv().FindPort(port_id);
  guillotine::RingView req = sys.machine().io_dram().RequestRing(b->region);
  while (req.Pop().has_value()) {
  }
  guillotine::RingView resp = sys.machine().io_dram().ResponseRing(b->region);
  while (resp.Pop().has_value()) {
  }
}

// Floods the storage port with `burst` requests, each rung four times.
void Flood(guillotine::GuillotineSystem& sys, u64 burst, u64& tag) {
  const guillotine::PortBinding* b = sys.hv().FindPort(*sys.storage_port());
  guillotine::RingView ring = sys.machine().io_dram().RequestRing(b->region);
  for (u64 r = 0; r < burst; ++r) {
    guillotine::IoSlot slot;
    slot.opcode = static_cast<u32>(guillotine::StorageOpcode::kInfo);
    slot.tag = tag++;
    ring.Push(slot).ok();  // a full ring is backpressure; the storm rings on
    for (int d = 0; d < 4; ++d) {
      sys.machine().hv_core(b->owner_hv_core).DeliverDoorbell(b->port_id,
                                                              sys.clock().now());
    }
  }
}

void RingEscalation(guillotine::GuillotineSystem& sys, u64& tag) {
  const guillotine::PortBinding* b = sys.hv().FindPort(*sys.escalation_port());
  guillotine::RingView ring = sys.machine().io_dram().RequestRing(b->region);
  guillotine::IoSlot esc;
  esc.opcode = static_cast<u32>(guillotine::ControlOpcode::kEscalate);
  esc.tag = tag++;
  esc.payload.push_back(static_cast<guillotine::u8>(IsolationLevel::kSevered));
  for (const char c : std::string_view("containment drill")) {
    esc.payload.push_back(static_cast<guillotine::u8>(c));
  }
  ring.Push(esc).ok();
  sys.machine().hv_core(b->owner_hv_core).InjectIrq(b->port_id);
}

// Counters of every deployment the fleet has held: live members plus the
// decommissioned ones, whose counters stop at their migrate.
void AddFleetCounters(Counters& c, guillotine::GuillotineFleet& fleet,
                      double sign) {
  for (size_t i = 0; i < fleet.size(); ++i) {
    AddSystemCounters(c, fleet.system(i), sign);
  }
  for (size_t i = 0; i < fleet.decommissioned_count(); ++i) {
    // The fleet hands out decommissioned members read-only; the counters
    // are read, never written.
    AddSystemCounters(
        c, const_cast<guillotine::GuillotineSystem&>(fleet.decommissioned(i)),
        sign);
  }
}

// Forensic capture + seal check, then a QuarantineMigrate of member `m`:
// clean, or with one DRAM byte flipped between capture and verify. Returns
// the failure, or "" when the outcome is the expected one. Sets `migrated`
// when the fleet installed a fresh deployment for `m`.
std::string CaptureAndMigrate(guillotine::GuillotineFleet& fleet,
                              guillotine::ModelService& service, size_t m,
                              bool tampered, size_t flip, u64 drill,
                              u64& probe_id, Tracer* tracer, bool& migrated) {
  guillotine::GuillotineSystem& suspect = fleet.system(m);
  guillotine::Result<guillotine::ModelSnapshot> snapshot =
      guillotine::FailedPrecondition("not captured");
  {
    SpanScope capture(tracer, "hv.capture", drill);
    snapshot = guillotine::CaptureSnapshot(suspect.hv(), 0);
  }
  if (!snapshot.ok()) {
    return "forensic capture failed: " + snapshot.status().ToString();
  }
  {
    SpanScope verify(tracer, "hv.verify", drill);
    if (!guillotine::VerifySnapshotSealed(suspect.hv(), *snapshot).ok()) {
      return "a clean forensic snapshot failed its seal check";
    }
  }
  std::function<void(guillotine::ModelSnapshot&)> tamper;
  if (tampered) {
    tamper = [flip](guillotine::ModelSnapshot& s) {
      s.dram[flip % s.dram.size()] ^= 1;
    };
  }
  const size_t tamper_traces = suspect.trace().CountKind("snapshot.tamper");
  guillotine::Result<guillotine::QuarantineMigrateReport> report =
      guillotine::FailedPrecondition("not migrated");
  {
    SpanScope migrate(tracer, "core.quarantine_migrate", drill);
    report = fleet.QuarantineMigrate(m, BenchModel(), &service,
                                     /*target_shard=*/m,
                                     suspect.clock().now(), tamper);
  }
  migrated = report.ok();
  if (tampered) {
    if (report.ok()) {
      return "a tampered snapshot was accepted by QuarantineMigrate";
    }
    if (suspect.trace().CountKind("snapshot.tamper") <= tamper_traces) {
      return "a tampered migrate was refused without a snapshot.tamper trace";
    }
    return "";
  }
  if (!report.ok() || !report->digest_verified) {
    return "clean QuarantineMigrate failed or missed its seal";
  }
  std::vector<guillotine::InferenceRequest> probe;
  for (u64 i = 0; i < 4; ++i) {
    probe.push_back({probe_id++, "post-migrate probe " + std::to_string(i),
                     i * 100, static_cast<u32>(i % 3) + 1});
  }
  SpanScope span(tracer, "service.run", drill);
  const guillotine::ServiceReport served = service.RunAll(std::move(probe));
  if (served.completed != 4 || served.failed != 0) {
    return "post-migrate service probe did not complete";
  }
  return "";
}

}  // namespace

RoundResult RunContain(u64 seed, u64 stream, Tracer* tracer) {
  RoundResult out;
  InputRng rng(DeriveSeed(seed, 0xC0417, stream));

  const double t_setup = WallSeconds();
  std::unique_ptr<guillotine::GuillotineFleet> fleet;
  {
    SpanScope span(tracer, "bench.setup");
    fleet = std::make_unique<guillotine::GuillotineFleet>(kMembers, MemberConfig());
    SpanScope host(tracer, "core.host_model");
    if (!fleet->HostEverywhere(BenchModel()).ok()) {
      out.attempted = 1;
      out.Fail("HostEverywhere refused the model");
      return out;
    }
  }
  guillotine::ModelServiceConfig service_config;
  service_config.num_shards = kMembers;
  service_config.kv.total_blocks = 48;
  guillotine::ModelService service(service_config);
  fleet->RegisterWith(service);

  Counters before;
  AddFleetCounters(before, *fleet, -1.0);
  const u64 compressions0 = guillotine::Sha256::compressions();
  const double t_run = WallSeconds();
  out.setup_s = t_run - t_setup;

  u64 tag = 1;
  u64 passes_total = 0;
  u64 seal_compressions = 0;
  u64 probe_id = 0;
  {
    SpanScope run(tracer, "bench.run");
    for (u64 d = 0; d < kDrillsPerStream; ++d) {
      SpanScope drill(tracer, "contain.drill", d);
      const size_t m = d % kMembers;
      // Stays valid across a migrate: the fleet retains the old deployment.
      guillotine::GuillotineSystem* suspect = &fleet->system(m);
      const Cycles drill_start = suspect->clock().now();
      Flood(*suspect, 16 + rng.Below(32), tag);
      RingEscalation(*suspect, tag);
      const size_t flip = static_cast<size_t>(rng.Next());

      const Cycles t0 = suspect->clock().now();
      u64 passes = 0;
      {
        SpanScope pump(tracer, "core.pump", d);
        while (suspect->hv().isolation() < IsolationLevel::kSevered &&
               passes < kPassCap) {
          suspect->PumpOnce();
          ++passes;
        }
      }
      passes_total += passes;
      std::string failure;
      bool migrated = false;
      if (suspect->hv().isolation() < IsolationLevel::kSevered) {
        failure = "escalation did not reach Severed within the pass cap";
      } else {
        out.sim_lat.Add(static_cast<double>(suspect->clock().now() - t0));
        if (d % kMigrateEvery == kMigrateEvery - 1) {
          const u64 c0 = guillotine::Sha256::compressions();
          failure = CaptureAndMigrate(*fleet, service, m,
                                      /*tampered=*/(d / kMigrateEvery) % 2 == 1,
                                      flip, d, probe_id, tracer, migrated);
          seal_compressions += guillotine::Sha256::compressions() - c0;
        }
      }
      if (!migrated) {
        SpanScope relax(tracer, "physical.transition", d);
        if (!suspect->console()
                 .RequestTransition(IsolationLevel::kStandard, kRelaxVotes)
                 .ok() &&
            failure.empty()) {
          failure = "quorum relax back to Standard refused";
        }
        DrainPort(*suspect, *suspect->storage_port());
        DrainPort(*suspect, *suspect->escalation_port());
      }
      out.sim_cycles += static_cast<double>(suspect->clock().now() - drill_start);
      if (!failure.empty()) {
        out.Fail(failure);
      }
    }
  }
  out.run_s = WallSeconds() - t_run;

  out.counters = before;
  AddFleetCounters(out.counters, *fleet, 1.0);
  out.counters["crypto.compressions"] =
      static_cast<double>(guillotine::Sha256::compressions() - compressions0);
  out.counters["crypto.seal_compressions"] = static_cast<double>(seal_compressions);
  out.counters["hv.passes_to_severed"] = static_cast<double>(passes_total);

  out.attempted = kDrillsPerStream;
  out.sim_ops = static_cast<double>(kDrillsPerStream - out.failed);
  u64 digest = kFnvBasis;
  for (size_t i = 0; i < fleet->size(); ++i) {
    digest = Fnv(digest, guillotine::TraceDigestHash(fleet->system(i).trace()));
  }
  for (size_t i = 0; i < fleet->decommissioned_count(); ++i) {
    digest = Fnv(digest, guillotine::TraceDigestHash(fleet->decommissioned(i).trace()));
  }
  out.digest = std::to_string(digest);
  return out;
}

}  // namespace perfbench
