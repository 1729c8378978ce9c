// serve: open-loop sandboxed serving. A 4-member GuillotineFleet behind a
// 4-shard ModelService with service-level detector mediation, driven by
// RunContinuous from a seeded Poisson TrafficSource at a mean interarrival
// of 20,000 cycles, which is past the fleet's latency knee. The GISA
// interpreter, model/hv cores, the memory path, hv port mediation, the
// detectors and the service scheduler do the work; crypto is nearly idle.
#include <memory>
#include <unordered_map>
#include <utility>

#include "perfbench/perfbench.h"
#include "src/crypto/sha256.h"
#include "src/service/service.h"

namespace perfbench {
namespace {

using guillotine::Result;

constexpr size_t kMembers = 4;
// 1,000 arrivals leave 10 samples beyond each stream's p99.
constexpr u64 kArrivalsPerStream = 1000;
constexpr double kMeanInterarrival = 20'000.0;

// Times every call the service makes into a sandboxed replica (span
// core.infer) and keeps each prompt/reply pair for the output check.
class CheckedReplica : public guillotine::InferenceReplica {
 public:
  CheckedReplica(guillotine::InferenceReplica& inner, Tracer* tracer, u64& calls)
      : inner_(inner), tracer_(tracer), calls_(calls) {}

  std::string_view name() const override { return inner_.name(); }

  Result<std::string> Infer(const std::string& prompt,
                            Cycles& service_cycles) override {
    SpanScope span(tracer_, "core.infer", calls_++);
    Result<std::string> reply = inner_.Infer(prompt, service_cycles);
    if (reply.ok()) {
      replies_.emplace_back(prompt, *reply);
    }
    return reply;
  }

  const std::vector<std::pair<std::string, std::string>>& replies() const {
    return replies_;
  }

 private:
  guillotine::InferenceReplica& inner_;
  Tracer* tracer_;
  u64& calls_;
  std::vector<std::pair<std::string, std::string>> replies_;
};

}  // namespace

RoundResult RunServe(u64 seed, u64 stream, Tracer* tracer) {
  RoundResult out;
  const double t_setup = WallSeconds();
  std::unique_ptr<guillotine::GuillotineFleet> fleet;
  guillotine::DetectorSuite suite =
      guillotine::BuildDetectorSuite(guillotine::DetectorConfig{});
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
  service_config.detectors = &suite;
  guillotine::ModelService service(service_config);
  u64 calls = 0;
  std::vector<std::unique_ptr<CheckedReplica>> replicas;
  for (size_t i = 0; i < kMembers; ++i) {
    replicas.push_back(
        std::make_unique<CheckedReplica>(fleet->replica(i), tracer, calls));
    service.AddReplica(replicas.back().get(), i);
  }
  guillotine::TrafficConfig traffic;
  traffic.shape = guillotine::TrafficShape::kPoisson;
  traffic.seed = DeriveSeed(seed, 0x5E4E, stream);
  traffic.mean_interarrival = kMeanInterarrival;
  guillotine::TrafficSource source(traffic);
  guillotine::ContinuousConfig continuous;
  continuous.max_arrivals = kArrivalsPerStream;

  Counters before;
  for (size_t i = 0; i < kMembers; ++i) {
    AddSystemCounters(before, fleet->system(i), -1.0);
  }
  const u64 compressions0 = guillotine::Sha256::compressions();
  const double t_run = WallSeconds();
  out.setup_s = t_run - t_setup;
  guillotine::ContinuousReport report;
  {
    SpanScope span(tracer, "service.run");
    report = service.RunContinuous(source, continuous);
  }
  out.run_s = WallSeconds() - t_run;

  out.counters = before;
  for (size_t i = 0; i < kMembers; ++i) {
    AddSystemCounters(out.counters, fleet->system(i), 1.0);
  }
  Counters& c = out.counters;
  c["crypto.compressions"] =
      static_cast<double>(guillotine::Sha256::compressions() - compressions0);
  double queue_high_water = 0;
  for (const guillotine::ShardStats& s : report.shards) {
    c["detect.batches"] += static_cast<double>(s.det_batches);
    c["detect.obs"] += static_cast<double>(s.det_obs);
    c["detect.blocked"] += static_cast<double>(s.det_blocked);
    c["detect.cost_cycles"] += static_cast<double>(s.det_cost);
    c["service.kv_hits"] += static_cast<double>(s.kv_hits);
    c["service.kv_misses"] += static_cast<double>(s.kv_misses);
    queue_high_water =
        std::max(queue_high_water, static_cast<double>(s.queue_high_water));
  }
  c["service.stolen"] = static_cast<double>(report.stolen);
  c["service.queue_high_water"] = queue_high_water;
  c["service.peak_live_requests"] = static_cast<double>(report.peak_live_requests);

  // Output check: every sandboxed reply must equal the unsandboxed forward
  // pass of the same model on the same prompt.
  out.attempted = report.arrivals;
  for (u64 i = 0; i < report.failed; ++i) {
    out.Fail("request failed in the service (blocked or replica error)");
  }
  if (report.completed + report.failed != report.arrivals) {
    for (u64 i = report.completed + report.failed; i < report.arrivals; ++i) {
      out.Fail("request never finished");
    }
  }
  guillotine::NativeReplica native(BenchModel());
  std::unordered_map<std::string, std::string> expected;
  for (const auto& replica : replicas) {
    for (const auto& [prompt, reply] : replica->replies()) {
      auto it = expected.find(prompt);
      if (it == expected.end()) {
        Cycles unused = 0;
        it = expected.emplace(prompt, *native.Infer(prompt, unused)).first;
      }
      if (reply != it->second) {
        out.Fail("sandboxed reply differs from the native forward pass");
      }
    }
  }

  out.sim_lat = report.latency;
  out.sim_ops = static_cast<double>(report.completed);
  out.sim_cycles = static_cast<double>(report.makespan);
  out.digest = report.Digest();
  return out;
}

}  // namespace perfbench
