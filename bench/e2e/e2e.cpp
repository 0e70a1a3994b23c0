// bench_e2e: the end-to-end benchmark. One process runs one workload:
//
//   bench_e2e --workload W --seed S [--seconds N] [--trace FILE] [--quick]
//             [--out DIR]
//   bench_e2e --list
//
// Workloads: sim_kernels, stream_staging, serve_open, fit_sweep; each
// header says why it was chosen. Every input is generated from --seed
// before timing starts, and every output is checked against a host golden.
//
// Untraced run: the system is set up, the workload runs for --seconds, the
// system is set up again several times (setup_s is the median), and the
// end-to-end metrics are reported. Traced run (--trace FILE): the workload runs half the time
// untraced and half traced -- trace.overhead_pct compares the two -- the
// spans go to FILE as Chrome trace-event JSON, and the per-layer metrics
// come from the trace and the layer ladder (ladder.hpp).
//
// Output: one line per metric with its unit, BENCH_e2e_<W>.json in --out,
// and as the last line of stdout one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 0 only when every output
// matched its golden and the run was valid.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "fit_sweep.hpp"
#include "ladder.hpp"
#include "metrics.hpp"
#include "serve_open.hpp"
#include "sim_kernels.hpp"
#include "stream_staging.hpp"
#include "trace.hpp"

namespace {

using namespace e2e;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace;  ///< Chrome trace path; empty = untraced run
  std::string out_dir = ".";
  bool quick = false;
};

/// Spans written to the trace file (the aggregation uses every span).
constexpr std::size_t kMaxExportedSpans = 100000;

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void list_metrics() {
  for (const auto& m : kMetrics) {
    std::printf("{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
                "\"kind\": \"%s\", \"bound\": %g, \"scope\": \"%s\", "
                "\"what\": \"%s\"}\n",
                m.name, m.unit, m.higher_is_better ? "higher" : "lower",
                to_string(m.kind), m.bound,
                m.end_to_end ? "end_to_end" : "per_layer", m.what);
  }
}

/// Print, record and emit one run's metrics; returns the exit code.
int report(const Options& o, const Outcome& res, const Metrics& metrics,
           bool traced) {
  simt::BenchReport bench("e2e_" + o.workload);
  bench.note("workload", o.workload);
  bench.note("seed", std::to_string(o.seed));
  bench.note("run", traced ? "traced" : "untraced");
  if (o.workload == FitSweep::kName) {
    bench.note("paper", "restricted Fmax 956 MHz unconstrained (984 soft), "
                        "> 950 MHz at 86% utilization, 927 MHz Table 2 "
                        "best multi-stamp compile");
  }
  std::printf("== %s (seed %llu, %s run) ==\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              traced ? "traced" : "untraced");
  // The run must report exactly the registry's metrics for its scope.
  std::string json = "{";
  std::size_t expected = 0;
  for (const auto& def : kMetrics) {
    expected += def.end_to_end != traced;
  }
  for (const auto& [name, value] : metrics) {
    const MetricDef* def = find_metric(name);
    if (def == nullptr || def->end_to_end == traced) {
      std::fprintf(stderr, "bench_e2e: %s is not a %s metric\n", name.c_str(),
                   traced ? "per-layer" : "end-to-end");
      return 2;
    }
    std::printf("  %-34s %14.6g %s\n", name.c_str(), value, def->unit);
    bench.metric(name, value);
    json += std::string(json.size() > 1 ? ", " : "") + "\"" + name +
            "\": {\"value\": " + number(value) + ", \"unit\": \"" +
            def->unit + "\"}";
  }
  if (metrics.size() != expected) {
    std::fprintf(stderr, "bench_e2e: reported %zu metrics, expected %zu\n",
                 metrics.size(), expected);
    return 2;
  }
  json += "}";
  std::printf("  -- workload detail --\n");
  for (const auto& [name, value] : res.details) {
    std::printf("  %-34s %14.6g\n", name.c_str(), value);
    bench.metric("detail." + name, value);
  }
  bench.metric("attempted", res.attempted);
  bench.metric("failed", res.failed);
  if (!res.invalid.empty()) {
    std::fprintf(stderr, "bench_e2e: INVALID RUN: %s\n", res.invalid.c_str());
    bench.note("invalid", res.invalid);
  }
  const bool correct = res.failed == 0 && res.invalid.empty();
  if (!correct) {
    std::fprintf(stderr, "bench_e2e: %llu of %llu items failed\n",
                 static_cast<unsigned long long>(res.failed),
                 static_cast<unsigned long long>(res.attempted));
  }
  const bool wrote = bench.write(o.out_dir);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), json.c_str());
  std::fflush(stdout);
  return correct && wrote ? 0 : 1;
}

template <typename W>
int drive(const Options& o, const typename W::Inputs& in) {
  auto st = std::make_unique<typename W::State>(in);

  if (o.trace.empty()) {
    Outcome res = st->run(in, o.seconds, nullptr);
    // Set-up is timed after the run, in a warm process: timed before it,
    // in a cold process, its median swung by half between runs.
    std::vector<double> setup_s;
    for (unsigned i = 0; i < (o.quick ? 3 : 31); ++i) {
      st.reset();
      const auto t0 = Clock::now();
      st = std::make_unique<typename W::State>(in);
      setup_s.push_back(seconds_since(t0));
    }
    const Metrics m = {
        {"setup_s", percentile(setup_s, 0.5)},
        {"peak_rss_mb", peak_rss_mb()},
        {"items_per_s", res.items_per_s()},
        {"latency_mean_us", res.latency.trimmed_mean()},
        {"modeled_us_per_item", res.modeled_us_per_item},
    };
    // The tail is reported, not gated: on a shared host it mostly counts
    // how often the host preempted the run (see README.md).
    res.detail("latency.p50_us", res.latency.percentile(0.50));
    res.detail("latency.p90_us", res.latency.percentile(0.90));
    res.detail("latency.p99_us", res.latency.percentile(0.99));
    std::printf("  (%.0f items in %.2f s, %zu latency samples kept)\n",
                res.throughput.items(), res.seconds, res.latency.size());
    return report(o, res, m, false);
  }

  const Outcome base = st->run(in, o.seconds / 2, nullptr);
  Tracer tr;
  Outcome res = st->run(in, o.seconds / 2, &tr);
  res.attempted += base.attempted;
  res.failed += base.failed;
  if (res.invalid.empty()) {
    res.invalid = base.invalid;
  }
  const auto totals = tr.aggregate();
  const auto item = totals.find("bench.item");
  Metrics m = {
      {"trace.overhead_pct",
       100.0 * (base.items_per_s() - res.items_per_s()) / base.items_per_s()},
      {"trace.bench_self_us",
       item == totals.end() ? 0.0 : item->second.self_us / item->second.count},
  };
  std::printf("  traced half: %zu spans; self time per span name:\n",
              tr.size());
  for (const auto& [name, t] : totals) {
    std::printf("    %-28s %10llu spans %14.3f us self %14.3f us total\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.self_us, t.total_us);
    res.detail("span." + name + ".self_us_per_span", t.self_us / t.count);
  }
  const ServeOpen::Inputs ladder_in(o.seed);
  for (auto& kv : layer_ladder(ladder_in, o.quick ? 500 : 20000, res)) {
    m.push_back(std::move(kv));
  }
  if (!tr.write_chrome(o.trace, kMaxExportedSpans)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", o.trace.c_str());
    return 1;
  }
  std::printf("wrote %s\n", o.trace.c_str());
  return report(o, res, m, true);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload {sim_kernels|stream_staging|"
               "serve_open|fit_sweep} --seed S [--seconds N] [--trace FILE] "
               "[--quick] [--out DIR]\n"
               "       bench_e2e --list\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(("missing value for " + a).c_str());
      }
      return argv[++i];
    };
    if (a == "--list") {
      list_metrics();
      return 0;
    } else if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value();
    } else if (a == "--out") {
      o.out_dir = value();
    } else if (a == "--quick") {
      o.quick = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  if (o.quick) {
    o.seconds = std::min(o.seconds, 0.5);
  }
  try {
    if (o.workload == SimKernels::kName) {
      return drive<SimKernels>(o, SimKernels::Inputs(o.seed));
    }
    if (o.workload == StreamStaging::kName) {
      return drive<StreamStaging>(o, StreamStaging::Inputs(o.seed));
    }
    if (o.workload == ServeOpen::kName) {
      return drive<ServeOpen>(o, ServeOpen::Inputs(o.seed));
    }
    if (o.workload == FitSweep::kName) {
      return drive<FitSweep>(o, FitSweep::Inputs(o.seed, o.quick));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  usage(("unknown workload '" + o.workload + "'").c_str());
}
