#include <chrono>

#include "perfbench/perfbench.h"

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();
}  // namespace

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

u64 SplitMix64(u64 x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

u64 DeriveSeed(u64 seed, u64 salt, u64 stream) {
  return SplitMix64(SplitMix64(SplitMix64(seed) ^ salt) + stream);
}

u64 Fnv(u64 hash, u64 value) { return (hash ^ value) * 1099511628211ULL; }

u64 FnvStr(u64 hash, std::string_view s) {
  for (const char c : s) {
    hash = Fnv(hash, static_cast<unsigned char>(c));
  }
  return Fnv(hash, s.size());
}

int Tracer::Open(const char* name, u64 op) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op;
  span.round = round_;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  spans_[static_cast<size_t>(index)].start_s = WallSeconds();
  return index;
}

void Tracer::Close(int index) {
  spans_[static_cast<size_t>(index)].end_s = WallSeconds();
  stack_.pop_back();
}

guillotine::DeploymentConfig MemberConfig() {
  guillotine::DeploymentConfig config;
  config.machine.num_model_cores = 1;
  config.machine.num_hv_cores = 1;
  config.machine.model_dram_bytes = 1 << 20;
  config.machine.io_dram_bytes = 512 * 1024;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  config.data_base = 0x40000;
  return config;
}

const guillotine::MlpModel& BenchModel() {
  static const guillotine::MlpModel model = [] {
    guillotine::Rng rng(21);
    return guillotine::MlpModel::Random({16, 32, 8}, rng);
  }();
  return model;
}

void RoundResult::Fail(std::string why) {
  ++failed;
  if (failures.size() < 8) {
    failures.push_back(std::move(why));
  }
}

void AddSystemCounters(Counters& c, guillotine::GuillotineSystem& sys,
                       double sign) {
  guillotine::Machine& machine = sys.machine();
  for (int i = 0; i < machine.num_model_cores(); ++i) {
    guillotine::ModelCore& core = machine.model_core(i);
    const guillotine::CoreStats& s = core.stats();
    c["isa.instructions"] += sign * static_cast<double>(s.instructions);
    c["machine.model_cycles"] += sign * static_cast<double>(s.cycles);
    c["machine.traps"] += sign * static_cast<double>(s.traps);
    c["machine.branch_mispredicts"] +=
        sign * static_cast<double>(s.branch_mispredicts);
    guillotine::CoreCaches& caches = core.caches();
    c["mem.l1i_hits"] += sign * static_cast<double>(caches.l1i.stats().hits);
    c["mem.l1i_misses"] += sign * static_cast<double>(caches.l1i.stats().misses);
    c["mem.l1d_hits"] += sign * static_cast<double>(caches.l1d.stats().hits);
    c["mem.l1d_misses"] += sign * static_cast<double>(caches.l1d.stats().misses);
    c["mem.l2_hits"] += sign * static_cast<double>(caches.l2.stats().hits);
    c["mem.l2_misses"] += sign * static_cast<double>(caches.l2.stats().misses);
  }
  c["mem.l3_misses"] +=
      sign * static_cast<double>(machine.model_l3().stats().misses);

  const guillotine::ServiceStats& hv = sys.hv().lifetime_stats();
  c["hv.port_requests"] += sign * static_cast<double>(hv.requests);
  c["hv.blocked"] += sign * static_cast<double>(hv.blocked);
  c["hv.completion_irqs"] += sign * static_cast<double>(hv.completion_irqs);
  c["hv.detector_batches"] += sign * static_cast<double>(hv.detector_batches);
  c["hv.kill_deferred"] += sign * static_cast<double>(hv.kill_deferred);
  c["hv.bulk_deferred"] += sign * static_cast<double>(hv.bulk_deferred);
  c["hv.sched_passes"] += sign * static_cast<double>(sys.scheduler().passes());

  c["physical.transitions"] +=
      sign * static_cast<double>(sys.console().transitions_executed());

  const guillotine::EventTrace& trace = sys.trace();
  c["common.trace.events"] += sign * static_cast<double>(trace.total_recorded());
  c["common.trace.bytes"] += sign * static_cast<double>(trace.MemoryFootprint());
  c["common.trace.evicted"] += sign * static_cast<double>(trace.evicted());
}

}  // namespace perfbench
