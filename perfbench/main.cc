// The repository benchmark's main program. One process runs one workload:
//
//   perfbench --workload serve|federate|contain|fuzz --seed N --seconds S
//             --trace 0|1 [--spans PATH]
//
// A run repeats rounds (build the deployments, drive one input stream,
// check every output) until S host seconds have passed and each of the
// workload's input streams has run at least once. Input streams are derived
// from the seed, so simulated-clock results and counters are a pure function
// of (code, seed); every repeat of a stream must reproduce its first
// execution exactly, or the run is flagged as nondeterministic.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds, flipping which streams are traced on every pass over
// them, and runs two streams more than one pass so that at least two
// streams run both ways. It reports the per-layer metrics (counters, span
// self times, tracing overhead) and writes the spans to PATH.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics ({name: {value, unit}}). The lines before it list every metric with
// its clock and sample count.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/perfbench.h"

namespace perfbench {
namespace {

const Workload kWorkloads[] = {
    {"serve", RunServe, 64},
    {"federate", RunFederate, 4},
    {"contain", RunContain, 2},
    {"fuzz", RunFuzz, 4},
};

// Spans whose per-call times and self time are reported as per-layer metrics.
constexpr const char* kReportedSpans[] = {
    "service.run",         "core.infer",           "core.host_model",
    "core.federation.join", "core.federation.pump", "core.pump",
    "hv.capture",          "hv.verify",            "core.quarantine_migrate",
    "physical.transition", "testing.generate",     "testing.check",
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string clock;  // sim, wall, host or count
  std::string note;
};

struct Args {
  const Workload* workload = nullptr;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) {
          args.workload = &w;
        }
      }
      continue;
    }
    if (flag == "--spans") {
      args.spans_path = value;
      continue;
    }
    const unsigned long long number = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0') {
      return std::nullopt;
    }
    if (flag == "--seed") {
      args.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && number >= 1 && number <= 600) {
      args.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && number <= 1) {
      args.trace = number == 1;
      have_trace = true;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || args.workload == nullptr || !have_seed ||
      !have_seconds || !have_trace) {
    return std::nullopt;
  }
  return args;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

bool SameOutputs(const RoundResult& a, const RoundResult& b) {
  return a.digest == b.digest && a.counters == b.counters &&
         a.covered_kinds == b.covered_kinds && a.attempted == b.attempted &&
         a.failed == b.failed && a.sim_ops == b.sim_ops &&
         a.sim_cycles == b.sim_cycles && a.sim_lat.count() == b.sim_lat.count() &&
         (a.sim_lat.count() == 0 ||
          (a.sim_lat.Percentile(50) == b.sim_lat.Percentile(50) &&
           a.sim_lat.Percentile(99) == b.sim_lat.Percentile(99) &&
           a.sim_lat.mean() == b.sim_lat.mean() &&
           a.sim_lat.max() == b.sim_lat.max()));
}

// Per-name span statistics over the traced rounds: every call's duration,
// and the summed self time (duration minus the time its children cover).
struct SpanStats {
  guillotine::Histogram durations;
  double total = 0;
  double self = 0;
};

std::unordered_map<std::string, SpanStats> Analyze(const std::vector<Span>& spans) {
  std::vector<double> child_time(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::unordered_map<std::string, SpanStats> stats;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double d = spans[i].end_s - spans[i].start_s;
    SpanStats& st = stats[spans[i].name];
    st.durations.Add(d);
    st.total += d;
    st.self += d - child_time[i];
  }
  return stats;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"parent\":%d,\"op\":%llu,\"round\":%d}%s\n",
                  s.name, s.start_s * 1e6, s.end_s * 1e6, s.parent,
                  static_cast<unsigned long long>(s.op), s.round,
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  const std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve|federate|contain|fuzz "
                 "--seed N --seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
  const Args& args = *parsed;
  const Workload& wl = *args.workload;
  const u64 min_rounds = args.trace ? wl.streams + 2 : wl.streams;

  Tracer tracer;
  std::vector<RoundResult> rounds;
  std::vector<bool> round_traced;
  std::vector<std::optional<size_t>> first_of_stream(wl.streams);
  std::vector<std::string> nondeterministic;
  const double start = WallSeconds();
  for (u64 i = 0;; ++i) {
    if (i >= min_rounds && WallSeconds() - start >= args.seconds) {
      break;
    }
    const u64 stream = i % wl.streams;
    const bool traced = args.trace && (i + i / wl.streams) % 2 == 1;
    tracer.set_round(static_cast<int>(i));
    rounds.push_back(wl.run(args.seed, stream, traced ? &tracer : nullptr));
    round_traced.push_back(traced);
    std::optional<size_t>& first = first_of_stream[stream];
    if (!first.has_value()) {
      first = rounds.size() - 1;
    } else if (!SameOutputs(rounds[*first], rounds.back())) {
      nondeterministic.push_back("round " + std::to_string(i) + " (stream " +
                                 std::to_string(stream) +
                                 (traced ? ", traced" : "") +
                                 ") differs from the stream's first round");
    }
  }

  // Totals over every round.
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) {
      if (failures.size() < 8) {
        failures.push_back(f);
      }
    }
  }

  // Simulated-clock results and counters: one execution of each stream.
  size_t sim_samples = 0;
  std::vector<double> stream_p50;
  std::vector<double> stream_p99;
  double sim_ops = 0;
  double sim_cycles = 0;
  u64 pass_ops = 0;
  Counters counters;
  std::set<std::string> covered;
  u64 digest = kFnvBasis;
  for (const std::optional<size_t>& first : first_of_stream) {
    const RoundResult& r = rounds[*first];
    sim_samples += r.sim_lat.count();
    if (r.sim_lat.count() > 0) {
      stream_p50.push_back(r.sim_lat.Percentile(50));
      stream_p99.push_back(r.sim_lat.Percentile(99));
    }
    sim_ops += r.sim_ops;
    sim_cycles += r.sim_cycles;
    pass_ops += r.attempted;
    for (const auto& [name, value] : r.counters) {
      // High-water marks combine across streams by max, counts by sum.
      const bool level = name.find("high_water") != std::string::npos ||
                         name.find("peak") != std::string::npos;
      counters[name] = level ? std::max(counters[name], value)
                             : counters[name] + value;
    }
    covered.insert(r.covered_kinds.begin(), r.covered_kinds.end());
    digest = FnvStr(digest, r.digest);
  }

  // Host-clock results, per round.
  std::vector<double> setup_untraced;
  std::vector<double> rate_untraced;
  std::vector<double> rate_traced;
  // Rates per stream: streams differ in cost, so tracing overhead compares
  // a stream's traced rounds with its own untraced ones.
  std::vector<std::vector<double>> stream_untraced(wl.streams);
  std::vector<std::vector<double>> stream_traced(wl.streams);
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    const u64 completed = r.failed < r.attempted ? r.attempted - r.failed : 0;
    const double rate = Ratio(static_cast<double>(completed), r.run_s);
    (round_traced[i] ? rate_traced : rate_untraced).push_back(rate);
    (round_traced[i] ? stream_traced : stream_untraced)[i % wl.streams]
        .push_back(rate);
    if (!round_traced[i]) {
      setup_untraced.push_back(r.setup_s);
    }
  }

  std::vector<Metric> metrics;
  auto add = [&metrics](std::string name, double value, std::string unit,
                        std::string clock, std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(clock),
                       std::move(note)});
  };
  const std::string rounds_note =
      "median of " + std::to_string(setup_untraced.size()) + " rounds";
  const std::string sim_note =
      "median over " + std::to_string(stream_p99.size()) +
      " streams of the stream's percentile, n=" + std::to_string(sim_samples);
  if (!args.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    add("setup_s", Median(setup_untraced), "s", "wall", rounds_note);
    add("ops_per_s", Median(rate_untraced), "1/s", "wall", rounds_note);
    // Workloads without a simulated latency (fuzz) leave these out.
    if (sim_samples > 0) {
      add("sim_lat_p50_kcyc", Median(stream_p50) / 1e3, "kcyc", "sim",
          sim_note);
      add("sim_lat_p99_kcyc", Median(stream_p99) / 1e3, "kcyc", "sim",
          sim_note);
      add("sim_ops_per_gcycle", Ratio(sim_ops * 1e9, sim_cycles), "1/Gcyc",
          "sim",
          "ops=" + JsonNumber(sim_ops) + " cycles=" + JsonNumber(sim_cycles));
    }
    add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB",
        "host");
  } else {
    const auto spans = Analyze(tracer.spans());
    const double traced_rounds = static_cast<double>(rate_traced.size());
    auto span_total = [&spans](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.total;
    };
    // Counters of the rounds the spans were recorded in, for ratios of
    // span time to work done.
    Counters traced_counters;
    for (size_t i = 0; i < rounds.size(); ++i) {
      if (round_traced[i]) {
        for (const auto& [name, value] : rounds[i].counters) {
          traced_counters[name] += value;
        }
      }
    }
    auto c = [&counters](const char* name) {
      const auto it = counters.find(name);
      return it == counters.end() ? 0.0 : it->second;
    };
    auto tc = [&traced_counters](const char* name) {
      const auto it = traced_counters.find(name);
      return it == traced_counters.end() ? 0.0 : it->second;
    };
    const double ops = static_cast<double>(pass_ops);

    add("isa.instructions", c("isa.instructions"), "count", "count");
    add("isa.host_ns_per_instr",
        Ratio(span_total("core.infer") * 1e9, tc("isa.instructions")),
        "ns", "wall", "core.infer span time / instructions");
    add("machine.model_cycles", c("machine.model_cycles"), "cycles", "sim");
    add("machine.traps", c("machine.traps"), "count", "count");
    add("machine.branch_mispredicts", c("machine.branch_mispredicts"), "count",
        "count");
    for (const char* level : {"l1i", "l1d", "l2"}) {
      const std::string p = std::string("mem.") + level;
      const double hits = c((p + "_hits").c_str());
      const double accesses = hits + c((p + "_misses").c_str());
      add(p + "_hit_rate", Ratio(hits, accesses), "ratio", "count",
          "base " + p + "_accesses");
      add(p + "_accesses", accesses, "count", "count");
    }
    add("mem.l3_misses", c("mem.l3_misses"), "count", "count");
    for (const char* name :
         {"hv.port_requests", "hv.blocked", "hv.completion_irqs",
          "hv.detector_batches", "hv.sched_passes", "hv.kill_deferred",
          "hv.bulk_deferred"}) {
      add(name, c(name), "count", "count");
    }
    add("hv.passes_to_severed",
        Ratio(c("hv.passes_to_severed"), static_cast<double>(sim_samples)),
        "passes", "count", "mean per escalation");
    add("detect.batches", c("detect.batches"), "count", "count");
    add("detect.obs", c("detect.obs"), "count", "count");
    add("detect.blocked", c("detect.blocked"), "count", "count");
    add("detect.cyc_per_obs", Ratio(c("detect.cost_cycles"), c("detect.obs")),
        "cycles", "sim", "base detect.obs");
    const double kv_lookups = c("service.kv_hits") + c("service.kv_misses");
    add("service.kv_hit_rate", Ratio(c("service.kv_hits"), kv_lookups), "ratio",
        "count", "base service.kv_lookups");
    add("service.kv_lookups", kv_lookups, "count", "count");
    add("service.stolen", c("service.stolen"), "count", "count");
    add("service.queue_high_water", c("service.queue_high_water"), "count",
        "count");
    add("service.peak_live_requests", c("service.peak_live_requests"), "count",
        "count");
    add("crypto.compressions", c("crypto.compressions"), "count", "count");
    add("crypto.compressions_per_op", Ratio(c("crypto.compressions"), ops),
        "count", "count", "base ops=" + JsonNumber(ops));
    add("crypto.seal_MBps",
        Ratio(tc("crypto.seal_compressions") * 64.0 / 1e6,
              span_total("hv.capture") + span_total("hv.verify") +
                  span_total("core.quarantine_migrate")),
        "MB/s", "wall", "seal compressions x 64 B / capture+verify+migrate spans");
    for (const char* name :
         {"net.records_sealed", "net.batches_sealed", "net.keystream_blocks",
          "net.frames_sent", "net.frames_dropped", "net.full_handshakes",
          "net.resumed_handshakes", "net.replays_rejected"}) {
      add(name, c(name), "count", "count");
    }
    add("core.transport_kcyc_per_op", Ratio(c("core.transport_cycles") / 1e3, ops),
        "kcyc", "sim");
    add("core.serve_kcyc_per_op", Ratio(c("core.serve_cycles") / 1e3, ops), "kcyc",
        "sim");
    add("physical.transitions", c("physical.transitions"), "count", "count");
    add("testing.steps", c("testing.steps"), "count", "count");
    add("testing.replays", c("testing.replays"), "count", "count");
    add("testing.covered_kinds", static_cast<double>(covered.size()), "count",
        "count");
    add("common.trace.events", c("common.trace.events"), "count", "count");
    add("common.trace.bytes", c("common.trace.bytes"), "bytes", "host");
    add("common.trace.evicted", c("common.trace.evicted"), "count", "count");
    for (const char* name : kReportedSpans) {
      const auto it = spans.find(name);
      const SpanStats empty;
      const SpanStats& st = it == spans.end() ? empty : it->second;
      const std::string calls = "calls=" + std::to_string(st.durations.count());
      add(std::string(name) + ".self_ms", Ratio(st.self * 1e3, traced_rounds),
          "ms", "wall", "per traced round");
      add(std::string(name) + ".p50_us", st.durations.Percentile(50) * 1e6, "us",
          "wall", calls);
      add(std::string(name) + ".p99_us", st.durations.Percentile(99) * 1e6, "us",
          "wall", calls);
    }
    const double untraced = Median(rate_untraced);
    const double traced = Median(rate_traced);
    add("trace.untraced_ops_per_s", untraced, "1/s", "wall", rounds_note);
    add("trace.traced_ops_per_s", traced, "1/s", "wall",
        "median of " + std::to_string(rate_traced.size()) + " rounds");
    std::vector<double> slowdowns;
    for (u64 s = 0; s < wl.streams; ++s) {
      if (!stream_traced[s].empty() && !stream_untraced[s].empty()) {
        slowdowns.push_back(1.0 - Ratio(Median(stream_traced[s]),
                                        Median(stream_untraced[s])));
      }
    }
    add("trace.overhead_frac", Median(slowdowns), "ratio", "wall",
        "1 - traced/untraced ops_per_s of the same stream, median of " +
            std::to_string(slowdowns.size()) + " streams");
    add("fail_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
        "ratio", "count",
        std::to_string(failed) + " of " + std::to_string(attempted));
    if (!args.spans_path.empty() && !WriteSpans(args.spans_path, tracer.spans())) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans_path.c_str());
      return 1;
    }
  }

  std::printf("workload=%s seed=%llu trace=%d rounds=%zu streams=%llu "
              "run_digest=%016llx\n",
              wl.name, static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, rounds.size(),
              static_cast<unsigned long long>(wl.streams),
              static_cast<unsigned long long>(digest));
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %-7s %-5s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str(), m.note.c_str());
  }
  std::printf("attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const std::string& f : failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  for (const std::string& n : nondeterministic) {
    std::printf("NONDETERMINISTIC: %s\n", n.c_str());
  }

  const bool correct = failed == 0 && nondeterministic.empty();
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
