// Shared pieces of the repository benchmark (see perfbench/README.md): the
// per-round result every workload returns, wall-clock spans recorded around
// calls into the library, and per-layer counter snapshots read from the
// library's public stats.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/core/guillotine.h"

namespace perfbench {

using guillotine::Cycles;
using guillotine::u32;
using guillotine::u64;

// Host seconds since the process started (steady clock).
double WallSeconds();

// Deterministic input generation: every input a workload feeds the program
// is derived from the workload seed through these, never from the clock.
u64 SplitMix64(u64 x);
u64 DeriveSeed(u64 seed, u64 salt, u64 stream);

class InputRng {
 public:
  explicit InputRng(u64 seed) : state_(seed) {}
  u64 Next() { return state_ = SplitMix64(state_); }
  u64 Below(u64 bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  u64 state_;
};

// One timed call into a layer, kept in memory and written out at exit.
struct Span {
  const char* name = "";
  double start_s = 0;
  double end_s = 0;
  int parent = -1;  // index of the enclosing span, -1 for a root
  u64 op = 0;       // the op (request, pump, drill, scenario) it served
  int round = 0;
};

class Tracer {
 public:
  int Open(const char* name, u64 op);
  void Close(int index);
  void set_round(int round) { round_ = round; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int round_ = 0;
};

// Records a span for its lifetime; does nothing when `tracer` is null, which
// is how the untraced rounds run.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, u64 op = 0)
      : tracer_(tracer), index_(tracer ? tracer->Open(name, op) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->Close(index_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// Raw per-layer counts by metric name. Every value is a delta over the
// round's timed phase (or, for fuzz, a sum over the round's scenarios), so a
// round's counters are a pure function of its inputs.
using Counters = std::map<std::string, double>;

// The deployment every serving workload builds its members from (1 model
// core, 1 hv core, 1 MiB model DRAM, heartbeat watchdog off so host-paced
// pumping cannot trip it) and the model they host.
guillotine::DeploymentConfig MemberConfig();
const guillotine::MlpModel& BenchModel();

// Adds `sign` times the lifetime counters of one deployment: model cores
// (isa / machine / mem), hypervisor service stats and scheduler passes (hv),
// console transitions (physical) and the audit trace (common).
void AddSystemCounters(Counters& counters, guillotine::GuillotineSystem& sys,
                       double sign);

struct RoundResult {
  double setup_s = 0;  // host time to build the deployments
  double run_s = 0;    // host time of the timed ops
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;  // the first few, for the report
  guillotine::Histogram sim_lat;      // per-op simulated latency, cycles
  double sim_ops = 0;                 // completed ops ...
  double sim_cycles = 0;              // ... per this many simulated cycles
  std::string digest;                 // determinism digest of the round
  Counters counters;
  std::set<std::string> covered_kinds;  // trace kinds the round recorded

  void Fail(std::string why);
};

// A workload runs one round: it builds its deployments (setup), drives the
// ops of input stream `stream` (timed), and checks every output. `tracer`
// is null on untraced rounds.
using WorkloadFn = RoundResult (*)(u64 seed, u64 stream, Tracer* tracer);

struct Workload {
  const char* name;
  WorkloadFn run;
  u64 streams;  // distinct input streams per run; their union is the sample
};

RoundResult RunServe(u64 seed, u64 stream, Tracer* tracer);
RoundResult RunFederate(u64 seed, u64 stream, Tracer* tracer);
RoundResult RunContain(u64 seed, u64 stream, Tracer* tracer);
RoundResult RunFuzz(u64 seed, u64 stream, Tracer* tracer);

// FNV-1a helpers for the determinism digests.
u64 Fnv(u64 hash, u64 value);
u64 FnvStr(u64 hash, std::string_view s);
inline constexpr u64 kFnvBasis = 1469598103934665603ULL;

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
