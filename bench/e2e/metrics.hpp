// Shared pieces of the end-to-end benchmark: the metric registry (the list
// that BENCHMARK.json, `bench_e2e --list` and repeat.py agree on), timing
// helpers, percentiles, and the Outcome every workload reports.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Peak resident set of this process: VmHWM from /proc/self/status.
/// (getrusage's ru_maxrss is no substitute: Linux carries it across
/// execve, so it reports the launching process's peak when that is
/// larger.) 0 when the file cannot be read.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Measured metrics are host timings, compared within their bound. Modeled
/// metrics (device time at the realized clock) and counts repeat exactly
/// for a given seed; their bound only absorbs the variation between seeds.
enum class Kind { Measured, Modeled, Count };

inline const char* to_string(Kind k) {
  switch (k) {
    case Kind::Measured:
      return "measured";
    case Kind::Modeled:
      return "modeled";
    case Kind::Count:
      return "count";
  }
  return "?";
}

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  Kind kind;
  /// Share of the parent's median by which an end-to-end metric may worsen
  /// before a change counts as a regression (0 for per-layer metrics).
  double bound;
  bool end_to_end;  ///< false: per-layer, reported by the traced run
  const char* what;
};

// clang-format off
inline constexpr MetricDef kMetrics[] = {
  // ---- end to end: every workload, untraced run ----
  {"setup_s", "s", false, Kind::Measured, 0.25, true,
   "median system set-up time, timed after the run: device or cluster "
   "open, assembly, plan registration and warm-up, fabric build"},
  {"peak_rss_mb", "MB", false, Kind::Measured, 0.20, true,
   "peak resident memory of the benchmark process (VmHWM)"},
  {"items_per_s", "1/s", true, Kind::Measured, 0.25, true,
   "work items completed per host second over the whole phase (serve_open: "
   "saturation phase)"},
  {"latency_mean_us", "us", false, Kind::Measured, 0.25, true,
   "mean host time per item without the fastest and slowest 5% "
   "(serve_open: from due time to resolution at 10,000 req/s)"},
  {"modeled_us_per_item", "us", false, Kind::Modeled, 0.05, true,
   "modeled device time per item at the realized clock (fit_sweep: the "
   "mean clock period, 1/restricted Fmax, of its compiles)"},

  // ---- per layer: every workload, traced run ----
  {"trace.overhead_pct", "%", false, Kind::Measured, 0, false,
   "items_per_s lost by the traced half of the run against the untraced "
   "half"},
  {"trace.bench_self_us", "us", false, Kind::Measured, 0, false,
   "per item, benchmark time outside every layer span (input staging on "
   "the host, golden checks, generator waits)"},
  {"asm.assemble_ms", "ms", false, Kind::Measured, 0, false,
   "first Device::load_module of each benchmark kernel source, mean"},
  {"runtime.prepare_us", "us", false, Kind::Measured, 0, false,
   "Device::prepare_launch of the serving request, median"},
  {"runtime.execute_self_us", "us", false, Kind::Measured, 0, false,
   "Device::execute_plan minus the backend's own host_wall_us, median"},
  {"core.exec_us", "us", false, Kind::Measured, 0, false,
   "LaunchStats::host_exec_us of the serving request, median"},
  {"ladder.core_us", "us", false, Kind::Measured, 0, false,
   "ladder rung: backend launch (LaunchStats::host_wall_us), median"},
  {"ladder.plan_us", "us", false, Kind::Measured, 0, false,
   "ladder rung: write_words + execute_plan + read_words, median"},
  {"ladder.eager_us", "us", false, Kind::Measured, 0, false,
   "ladder rung: Stream copy_in + launch + copy_out + synchronize, median"},
  {"ladder.graph_us", "us", false, Kind::Measured, 0, false,
   "ladder rung: GraphExec::launch with a copy-in rebind + Event::wait, "
   "median"},
  {"ladder.cluster_us", "us", false, Kind::Measured, 0, false,
   "ladder rung: DeviceCluster submit + ticket wait on one device, median"},
  {"plan.self_us", "us", false, Kind::Measured, 0, false,
   "ladder.plan_us minus ladder.core_us"},
  {"eager.self_us", "us", false, Kind::Measured, 0, false,
   "ladder.eager_us minus ladder.plan_us"},
  {"graph.self_us", "us", false, Kind::Measured, 0, false,
   "ladder.graph_us minus ladder.plan_us"},
  {"cluster.self_us", "us", false, Kind::Measured, 0, false,
   "ladder.cluster_us minus ladder.graph_us"},
  {"ladder.eager_over_graph_measured", "ratio", true, Kind::Measured, 0,
   false, "eager.self_us over graph.self_us: the measured dispatch gain"},
  {"ladder.eager_over_graph_modeled", "ratio", true, Kind::Modeled, 0, false,
   "eager over graph TimelineStats::dispatch_us per request: the HostCost "
   "claim"},
  {"stream.submit_us", "us", false, Kind::Measured, 0, false,
   "caller-side time of one Stream command submission, median"},
  {"stream.sync_wait_us", "us", false, Kind::Measured, 0, false,
   "Stream::synchronize after the three eager commands, median"},
  {"cluster.submit_us", "us", false, Kind::Measured, 0, false,
   "DeviceCluster::submit caller-side, median"},
  {"cluster.service_us", "us", false, Kind::Measured, 0, false,
   "ClusterTicket::latency_us with one request in flight, median"},
  {"staging.stage_us", "us", false, Kind::Measured, 0, false,
   "multicore LaunchStats::host_stage_us of a 4,000-word scale, median"},
  {"staging.merge_us", "us", false, Kind::Measured, 0, false,
   "multicore LaunchStats::host_merge_us of the same launch, median"},
  {"staging.skip_frac", "fraction", true, Kind::Count, 0, false,
   "staged_words_skipped over staged + skipped words"},
  {"core.occupancy", "fraction", true, Kind::Count, 0, false,
   "mean per-core occupancy of the multicore launch"},
  {"fit.netlist_ms", "ms", false, Kind::Measured, 0, false,
   "fabric::build_netlist of the flagship core"},
  {"fit.place_ms", "ms", false, Kind::Measured, 0, false,
   "Placer::place at 400 moves per atom"},
  {"fit.sta_ms", "ms", false, Kind::Measured, 0, false,
   "fit::analyze of that placement"},
  {"fit.fmax_soft_mhz", "MHz", true, Kind::Modeled, 0, false,
   "soft-logic Fmax of the probe compile"},
  {"fit.atoms", "count", false, Kind::Count, 0, false,
   "netlist atoms of the flagship core"},
  {"area.alms", "count", false, Kind::Count, 0, false,
   "area::estimate in-box ALMs of the flagship (paper: 7,038)"},
  {"area.m20k", "count", false, Kind::Count, 0, false,
   "area::estimate M20K blocks (paper: 99)"},
  {"area.dsp", "count", false, Kind::Count, 0, false,
   "area::estimate DSP blocks (paper: 32)"},
};
// clang-format on

/// Named metric values, in report order.
using Metrics = std::vector<std::pair<std::string, double>>;

inline const MetricDef* find_metric(const std::string& name) {
  for (const auto& m : kMetrics) {
    if (name == m.name) {
      return &m;
    }
  }
  return nullptr;
}

/// Per-item values of one phase (latencies) and its item count, in fixed
/// memory: when the buffer fills, every other sample is dropped and from
/// then on only every second (fourth, ...) item is sampled. Memory stays
/// fixed whatever the throughput -- so peak_rss_mb measures the system,
/// not the sample count -- and the samples stay spread evenly over the
/// phase.
class Series {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 14;

  Series() : value_(kCapacity) {}

  void add(double value, double items = 1.0) {
    items_ += items;
    if (seen_++ % stride_ != 0) {
      return;
    }
    if (n_ == kCapacity) {
      for (std::size_t i = 0; i < kCapacity / 2; ++i) {
        value_[i] = value_[2 * i];
      }
      n_ = kCapacity / 2;
      stride_ *= 2;
      if ((seen_ - 1) % stride_ != 0) {
        return;
      }
    }
    value_[n_++] = value;
  }

  double items() const { return items_; }
  std::size_t size() const { return n_; }

  double percentile(double p) const { return e2e::percentile(values(), p); }

  /// Mean of the sampled values without the fastest and slowest 5%.
  ///
  /// Host timings are reported as means over the whole phase, not medians:
  /// the shared host's speed shifts between states up to ~1.5x apart that
  /// last seconds to minutes. A median jumps to whichever state held most
  /// of the run, so across runs it lands on one state or the other; a mean
  /// moves in proportion to the time spent in each and varies least from
  /// run to run. The trim drops preemption spikes.
  double trimmed_mean() const {
    std::vector<double> v = values();
    std::sort(v.begin(), v.end());
    const auto cut = static_cast<std::ptrdiff_t>(v.size() / 20);
    return mean(std::vector<double>(v.begin() + cut, v.end() - cut));
  }

 private:
  std::vector<double> values() const {
    return {value_.begin(), value_.begin() + static_cast<std::ptrdiff_t>(n_)};
  }

  std::vector<double> value_;
  std::size_t n_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
  double items_ = 0.0;
};

/// What one timed run of a workload measured.
struct Outcome {
  std::uint64_t attempted = 0;  ///< items tried
  std::uint64_t failed = 0;     ///< wrong outputs, errors, refusals, drift
  Series throughput;            ///< completions of the throughput phase
  Series latency;               ///< per-item latency (us) of the latency phase
  double seconds = 0.0;         ///< throughput phase wall time
  double modeled_us_per_item = 0.0;

  /// Items per second over the whole throughput phase (see
  /// Series::trimmed_mean for why not a median).
  double items_per_s() const { return throughput.items() / seconds; }

  /// Non-empty when the run cannot be trusted (e.g. the open-loop
  /// generator fell behind its schedule); the run then fails.
  std::string invalid;
  /// Workload-specific figures for the log and BENCH_e2e_<W>.json.
  Metrics details;

  void detail(std::string key, double value) {
    details.emplace_back(std::move(key), value);
  }
};

}  // namespace e2e
