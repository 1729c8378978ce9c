// fuzz: the seeded adversarial campaign. Each op is one scenario generated
// from the workload seed, run on a fresh deployment and held to every
// invariant, with a replay every replay_every-th scenario, exactly as
// ScenarioFuzzer::RunCampaign does. Set-up runs RunCampaign over the
// stream's leading scenarios; the timed loop then drives Generate + Check
// itself so every scenario gets its own spans, and its stats over those
// leading scenarios must match the campaign's. The testing layer does the
// work, and whole-DRAM snapshot digests in its recovery slice dominate host
// time. Scenarios have no stable simulated latency (about 1% of them carry
// an hour-long manual repair), so this workload reports no sim metrics.
#include "perfbench/perfbench.h"
#include "src/crypto/sha256.h"
#include "src/testing/fuzzer.h"

namespace perfbench {

namespace {
constexpr u64 kScenariosPerStream = 40;
}  // namespace

RoundResult RunFuzz(u64 seed, u64 stream, Tracer* tracer) {
  RoundResult out;
  const u64 base_seed =
      DeriveSeed(seed, 0xF022, 0) + stream * kScenariosPerStream;

  const double t_setup = WallSeconds();
  std::unique_ptr<guillotine::ScenarioFuzzer> fuzzer;
  guillotine::FuzzCampaignStats campaign;
  {
    SpanScope span(tracer, "bench.setup");
    fuzzer = std::make_unique<guillotine::ScenarioFuzzer>();
    campaign = fuzzer->RunCampaign(fuzzer->config().replay_every, base_seed);
  }
  const u64 replay_every = static_cast<u64>(fuzzer->config().replay_every);
  const u64 compressions0 = guillotine::Sha256::compressions();
  const double t_run = WallSeconds();
  out.setup_s = t_run - t_setup;

  guillotine::FuzzCampaignStats stats;
  std::string prefix_summary;  // stats after the first replay_every scenarios
  {
    SpanScope run(tracer, "bench.run");
    for (u64 i = 0; i < kScenariosPerStream; ++i) {
      const u64 op = stream * kScenariosPerStream + i;
      guillotine::Scenario scenario{"unset"};
      {
        SpanScope span(tracer, "testing.generate", op);
        scenario = fuzzer->Generate(SplitMix64(base_seed + i));
      }
      const bool replay = replay_every > 0 && i % replay_every == 0;
      std::vector<guillotine::InvariantViolation> violations;
      {
        SpanScope span(tracer, "testing.check", op);
        violations = fuzzer->Check(scenario, replay);
      }
      ++stats.scenarios;
      stats.steps += scenario.steps().size();
      stats.replays += replay ? 1 : 0;
      guillotine::ScenarioRunner& runner = fuzzer->runner();
      if (runner.has_system()) {
        guillotine::GuillotineSystem& sys = runner.system();
        stats.trace_events += sys.trace().size();
        for (const std::string_view kind : sys.trace().KindNames()) {
          stats.covered_kinds.insert(std::string(kind));
        }
        AddSystemCounters(out.counters, sys, 1.0);
      }
      if (!violations.empty()) {
        out.Fail("scenario " + std::to_string(op) + " violated [" +
                 violations.front().invariant + "] " + violations.front().detail);
      }
      if (i + 1 == replay_every) {
        prefix_summary = stats.Summary();
      }
    }
  }
  out.run_s = WallSeconds() - t_run;
  out.counters["crypto.compressions"] =
      static_cast<double>(guillotine::Sha256::compressions() - compressions0);
  out.counters["testing.steps"] = static_cast<double>(stats.steps);
  out.counters["testing.replays"] = static_cast<double>(stats.replays);
  out.covered_kinds = stats.covered_kinds;

  out.attempted = kScenariosPerStream;
  if (campaign.Summary() != prefix_summary) {
    out.Fail("the timed loop diverges from RunCampaign over the same seeds: " +
             campaign.Summary());
  }
  std::string digest = stats.Summary();
  for (const std::string& kind : stats.covered_kinds) {
    digest += kind + "\n";
  }
  out.digest = digest;
  return out;
}

}  // namespace perfbench
