// federate: cross-host serving. A router fronts a 4-host FederatedFleet
// (batch_window 8) on one NetFabric; seeded prompts arrive open-loop, a
// Poisson number per router pump, and the fleet is pumped until drained.
// The secure channel (net) and small-record HMAC sealing (crypto) are charged
// into simulated transport time at 200 cycles per SHA-256 compression, so
// this is the workload where a change in compression counts moves sim
// metrics, while a change that only hashes faster must leave them identical.
#include <cmath>
#include <unordered_map>

#include "perfbench/perfbench.h"
#include "src/core/federation.h"
#include "src/crypto/sha256.h"

namespace perfbench {
namespace {

constexpr size_t kHosts = 4;
constexpr size_t kBatchWindow = 8;
constexpr u64 kRequestsPerStream = 1500;
// Mean arrivals per 20,000-cycle router pump, against a drain capacity of
// kHosts * kBatchWindow = 32 per pump.
constexpr double kMeanArrivalsPerPump = 20.0;
constexpr u64 kPumpCap = 100'000;

constexpr const char* kWords[] = {
    "summarize", "the",      "incident", "report",  "classify", "this",
    "payment",   "draft",    "a",        "status",  "update",   "estimate",
    "shipping",  "time",     "review",   "access",  "request",  "label",
    "support",   "ticket",   "for",      "quarter", "audit",    "risk"};

std::string MakePrompt(InputRng& rng) {
  std::string prompt;
  const u64 words = 3 + rng.Below(8);
  for (u64 w = 0; w < words; ++w) {
    if (w > 0) {
      prompt += ' ';
    }
    prompt += kWords[rng.Below(std::size(kWords))];
  }
  return prompt;
}

// Knuth's method; fine for the small means used here.
u64 Poisson(InputRng& rng, double mean) {
  const double limit = std::exp(-mean);
  u64 k = 0;
  double p = rng.Unit();
  while (p > limit) {
    ++k;
    p *= rng.Unit();
  }
  return k;
}

void AddFederationCounters(Counters& c, guillotine::FederatedFleet& fleet,
                           double sign) {
  for (size_t i = 0; i < fleet.size(); ++i) {
    AddSystemCounters(c, fleet.system(i), sign);
    for (const guillotine::SecureChannel* chan :
         {fleet.router_channel(i), fleet.host_channel(i)}) {
      if (chan == nullptr) {
        continue;
      }
      const guillotine::ChannelStats& s = chan->stats();
      c["net.records_sealed"] += sign * static_cast<double>(s.records_sealed);
      c["net.batches_sealed"] += sign * static_cast<double>(s.batches_sealed);
      c["net.keystream_blocks"] += sign * static_cast<double>(s.keystream_blocks);
      c["net.replays_rejected"] += sign * static_cast<double>(s.replays_rejected);
    }
  }
  c["net.frames_sent"] += sign * static_cast<double>(fleet.fabric().sent());
  c["net.frames_dropped"] += sign * static_cast<double>(fleet.fabric().dropped());
  const guillotine::FederationStats& s = fleet.stats();
  c["net.full_handshakes"] += sign * static_cast<double>(s.full_handshakes);
  c["net.resumed_handshakes"] += sign * static_cast<double>(s.resumed_handshakes);
  c["core.transport_cycles"] += sign * static_cast<double>(s.transport_cycles);
  c["core.serve_cycles"] += sign * static_cast<double>(s.serve_cycles);
  const guillotine::EventTrace& trace = fleet.trace();
  c["common.trace.events"] += sign * static_cast<double>(trace.total_recorded());
  c["common.trace.bytes"] += sign * static_cast<double>(trace.MemoryFootprint());
  c["common.trace.evicted"] += sign * static_cast<double>(trace.evicted());
}

}  // namespace

RoundResult RunFederate(u64 seed, u64 stream, Tracer* tracer) {
  RoundResult out;
  InputRng rng(DeriveSeed(seed, 0xFED, stream));
  std::vector<std::string> prompts;
  prompts.reserve(kRequestsPerStream);
  for (u64 i = 0; i < kRequestsPerStream; ++i) {
    prompts.push_back(MakePrompt(rng));
  }

  const double t_setup = WallSeconds();
  guillotine::FederationConfig config;
  config.num_hosts = kHosts;
  config.batch_window = kBatchWindow;
  config.deployment = MemberConfig();
  std::unique_ptr<guillotine::FederatedFleet> fleet;
  {
    SpanScope span(tracer, "bench.setup");
    fleet = std::make_unique<guillotine::FederatedFleet>(config);
    {
      SpanScope host(tracer, "core.host_model");
      if (!fleet->HostEverywhere(BenchModel()).ok()) {
        out.attempted = 1;
        out.Fail("HostEverywhere refused the model");
        return out;
      }
    }
    SpanScope join(tracer, "core.federation.join");
    if (!fleet->JoinAll().ok()) {
      out.attempted = 1;
      out.Fail("JoinAll refused an attested host");
      return out;
    }
  }

  Counters before;
  AddFederationCounters(before, *fleet, -1.0);
  const u64 compressions0 = guillotine::Sha256::compressions();
  const double t_run = WallSeconds();
  out.setup_s = t_run - t_setup;

  // Request ids are assigned by the router in submission order from 1.
  std::vector<Cycles> submitted_at(kRequestsPerStream + 1, 0);
  std::vector<guillotine::FederatedResponse> responses;
  responses.reserve(kRequestsPerStream);
  u64 submitted = 0;
  u64 pump = 0;
  {
    SpanScope run(tracer, "bench.run");
    while (responses.size() < kRequestsPerStream && pump < kPumpCap) {
      const u64 arrivals = Poisson(rng, kMeanArrivalsPerPump);
      for (u64 a = 0; a < arrivals && submitted < kRequestsPerStream; ++a) {
        fleet->Submit(prompts[submitted]);
        ++submitted;
        submitted_at[submitted] = fleet->clock().now();
      }
      {
        SpanScope span(tracer, "core.federation.pump", pump);
        fleet->PumpOnce();
      }
      ++pump;
      for (guillotine::FederatedResponse& r : fleet->TakeResponses()) {
        if (r.id >= 1 && r.id <= kRequestsPerStream) {
          out.sim_lat.Add(
              static_cast<double>(fleet->clock().now() - submitted_at[r.id]));
        }
        responses.push_back(std::move(r));
      }
    }
  }
  out.run_s = WallSeconds() - t_run;

  out.counters = before;
  AddFederationCounters(out.counters, *fleet, 1.0);
  out.counters["crypto.compressions"] =
      static_cast<double>(guillotine::Sha256::compressions() - compressions0);

  // Output check: every response must come back ok and equal the native
  // forward pass of the same model on its prompt.
  out.attempted = kRequestsPerStream;
  guillotine::NativeReplica native(BenchModel());
  std::unordered_map<std::string, std::string> expected;
  u64 digest = kFnvBasis;
  std::vector<bool> answered(kRequestsPerStream + 1, false);
  for (const guillotine::FederatedResponse& r : responses) {
    digest = FnvStr(Fnv(Fnv(digest, r.id), r.ok ? 1 : 0), r.text);
    if (r.id < 1 || r.id > kRequestsPerStream || answered[r.id]) {
      out.Fail("response with an unknown or repeated id");
      continue;
    }
    answered[r.id] = true;
    const std::string& prompt = prompts[r.id - 1];
    auto it = expected.find(prompt);
    if (it == expected.end()) {
      Cycles unused = 0;
      it = expected.emplace(prompt, *native.Infer(prompt, unused)).first;
    }
    if (!r.ok) {
      out.Fail("remote deployment refused a request");
    } else if (r.text != it->second) {
      out.Fail("remote reply differs from the native forward pass");
    }
  }
  for (u64 id = 1; id <= kRequestsPerStream; ++id) {
    if (!answered[id]) {
      out.Fail("request never answered");
    }
  }

  const guillotine::FederationStats& s = fleet->stats();
  for (const u64 v : {s.submitted, s.completed, s.failed, s.lost,
                      s.full_handshakes, s.resumed_handshakes, s.join_refusals,
                      s.records_routed, s.record_failures, s.transport_cycles,
                      s.serve_cycles}) {
    digest = Fnv(digest, v);
  }
  out.digest = std::to_string(digest);
  out.sim_ops = static_cast<double>(responses.size());
  out.sim_cycles =
      out.counters["core.transport_cycles"] + out.counters["core.serve_cycles"];
  return out;
}

}  // namespace perfbench
