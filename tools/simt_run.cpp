// simt-run: run a kernel on the unified device runtime from the command
// line, selecting the execution backend, optionally preloading device
// memory from a file of decimal words.
//
// usage: simt-run <kernel.s> [--backend {core,multicore,scalar}]
//                 [--cores N] [--threads N] [--fmax MHZ]
//                 [--mem file.txt] [--dump base count]
//                 [--batch M] [--streams N] [--graph-repeat N]
//                 [--kernel NAME] [--arg base:size | --arg value]...
//                 [--bit-accurate] [--no-simd-lanes]
//        simt-run --cluster N [--qps R] [--requests K]
//                 [--fault-spec STR] [--seed N] [--deadline-us N]
//
// --cluster N serves a built-in scale workload through a DeviceCluster of
// N SIMT-core devices (no kernel file): every request is one plan-cached
// graph replay on the least-loaded device. --qps R paces the open-loop
// arrivals (0 = submit as fast as possible); the run reports achieved
// QPS, request-latency percentiles, and the cluster's modeled makespan.
//
// --fault-spec STR arms a deterministic fault storm against the cluster
// (grammar in docs/robustness.md, e.g. "launch:transient:p=0.1;dma:
// stall=50us"), seeded by --seed so the same invocation replays the same
// storm; retry-with-backoff and quarantine/probation recovery are enabled
// alongside it. --deadline-us N arms a per-request deadline enforced by
// the cluster watchdog. A file-less chaos demo needs nothing else:
//
//   simt-run --cluster 2 --requests 16 --seed 7 --deadline-us 500000
//            --fault-spec launch:transient:p=0.2
//
// --bit-accurate simulates lanes through the structural datapath models
// (Mul33/shifter/LogicUnit) instead of the functional fast path; results
// are bit-identical, only host simulation speed differs. --no-simd-lanes
// keeps the functional fast path but pins its scalar per-lane loops
// instead of the SIMD-batched row engine (CoreConfig::simd_lanes) -- both
// are speed knobs with bit-identical results, kept as CLI toggles so
// regressions can be bisected in place.
//
// --kernel starts execution at a `.kernel` (or label) entry instead of
// address 0 (this works on every backend, including scalar). Each --arg
// binds one positional kernel parameter: `base:size` binds a buffer by
// word base and size, a bare integer binds a scalar -- the cuLaunchKernel
// shape from the command line.
//
// Prints the per-launch performance counters (rolled up across hardware
// rounds and cores) and (with --dump) a window of device memory after the
// run. --batch repeats the launch M times through the asynchronous
// scheduler, --streams spreads the repeats round-robin over N independent
// streams; both print the scheduler's modeled timeline (serial vs
// overlapped) and, on the multicore backend, per-core occupancy.
// --graph-repeat N runs the launch N times eagerly, then captures it into
// an execution graph and replays the instantiated graph N times,
// reporting the modeled host-dispatch overhead of both paths.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "kernels/kernels.hpp"
#include "runtime/device.hpp"
#include "runtime/graph.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stream.hpp"

namespace {

/// Parse all of `text` as a T: no sign for unsigned types, no trailing
/// characters, in range for T (and finite for floating point). On failure
/// prints the usage error for `flag` and returns false.
template <typename T>
bool parse_number(const char* flag, std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(out);
    if (!ok) {
      std::fprintf(stderr, "simt-run: %s expects a number, got '%.*s'\n",
                   flag, static_cast<int>(text.size()), text.data());
    }
  } else if (!ok) {
    std::fprintf(stderr,
                 "simt-run: %s expects an integer in [0, %llu], got "
                 "'%.*s'\n",
                 flag,
                 static_cast<unsigned long long>(
                     std::numeric_limits<T>::max()),
                 static_cast<int>(text.size()), text.data());
  }
  return ok;
}

/// `--cluster N` serving loop: a built-in scale workload over N devices,
/// optionally under a seeded fault storm with deadlines armed.
int run_cluster(unsigned devices, double qps, unsigned requests,
                const std::string& fault_spec, std::uint64_t fault_seed,
                std::uint64_t deadline_us) {
  using namespace simt;
  constexpr unsigned kN = 256;

  core::CoreConfig cfg;
  cfg.max_threads = 128;
  cfg.shared_mem_words = 2048;
  cfg.predicates_enabled = true;
  cluster::ClusterConfig ccfg;
  ccfg.queue_capacity = requests + 8;
  ccfg.default_deadline_us = deadline_us;
  if (!fault_spec.empty()) {
    ccfg.fault_spec = fault_spec;
    ccfg.fault_seed = fault_seed;
    // Recovery machinery for the storm: retries back off instead of
    // hammering, quarantined devices are canary-probed back in.
    ccfg.retry_backoff_us = 200;
    ccfg.retry_backoff_cap_us = 5000;
    ccfg.probation_delay_us = 2000;
  }
  cluster::DeviceCluster c(
      std::vector<runtime::DeviceDescriptor>(
          devices, runtime::DeviceDescriptor::simt_core(cfg)),
      ccfg);

  cluster::PlanSpec scale;
  scale.name = "scale";
  scale.source = kernels::scale_abi();
  scale.kernel = "scale";
  scale.threads = kN;
  scale.args = {cluster::PlanArg::input(kN), cluster::PlanArg::output(kN),
                cluster::PlanArg::immediate(3), cluster::PlanArg::immediate(5)};
  c.register_plan(scale);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<cluster::ClusterTicket> tickets;
  tickets.reserve(requests);
  for (unsigned r = 0; r < requests; ++r) {
    std::vector<std::uint32_t> payload(kN);
    for (unsigned i = 0; i < kN; ++i) {
      payload[i] = r * 1000 + i;
    }
    tickets.push_back(c.submit("cli", "scale", payload));
    if (qps > 0.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<std::int64_t>(1e6 / qps)));
    }
  }
  c.drain();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  std::vector<double> lat;
  unsigned ok = 0;
  for (auto& t : tickets) {
    if (t.status() == cluster::RequestStatus::Ok) {
      ++ok;
      lat.push_back(t.latency_us());
    }
  }
  std::sort(lat.begin(), lat.end());
  const auto pct = [&](double p) {
    return lat.empty()
               ? 0.0
               : lat[static_cast<std::size_t>(p * (lat.size() - 1) + 0.5)];
  };
  const auto stats = c.stats();
  double makespan_us = 0.0;
  for (const double busy : stats.per_device_busy_us) {
    makespan_us = std::max(makespan_us, busy);
  }
  std::printf("cluster=%u  requests=%u  ok=%u  achieved=%.0f req/s\n",
              devices, requests, ok,
              static_cast<double>(requests) / secs);
  std::printf("latency: p50=%.1f us  p95=%.1f us  p99=%.1f us\n", pct(0.50),
              pct(0.95), pct(0.99));
  std::printf("modeled makespan=%.1f us  (%.0f req/s of device capacity)\n",
              makespan_us,
              makespan_us > 0.0 ? ok / (makespan_us / 1e6) : 0.0);
  std::printf("completed per device:");
  for (std::size_t i = 0; i < stats.per_device_completed.size(); ++i) {
    std::printf(" dev%zu=%llu", i,
                static_cast<unsigned long long>(stats.per_device_completed[i]));
  }
  std::printf("\n");
  if (!fault_spec.empty() || deadline_us > 0) {
    std::printf("recovery: retried=%llu quarantined=%llu readmitted=%llu "
                "corruption=%llu deadline_failures=%llu\n",
                static_cast<unsigned long long>(stats.retried),
                static_cast<unsigned long long>(stats.quarantined),
                static_cast<unsigned long long>(stats.readmitted),
                static_cast<unsigned long long>(stats.corruption_detected),
                static_cast<unsigned long long>(stats.deadline_failures));
  }
  return ok == requests ? 0 : 1;
}

/// `--graph-streams N` demo: a vecadd serving loop captured across N
/// streams of one device as a DAG, compared against the same commands
/// captured linearized on one stream. Each lane's two input copy-ins land
/// in adjacent buffer ranges and fuse into one DMA burst at instantiate()
/// time; the DAG replay prices the lanes' copies on independent modeled
/// DMA channels. Prints grep-able dispatch and overlap lines (CI smokes
/// the "dag / linear" line).
int run_graph_streams(unsigned lanes) {
  using namespace simt;
  constexpr unsigned kN = 256;
  if (lanes < 2) {
    std::fprintf(stderr, "simt-run: --graph-streams needs at least 2\n");
    return 2;
  }

  core::CoreConfig cfg;
  cfg.max_threads = 256;
  cfg.shared_mem_words = std::max(4096u, lanes * 3 * kN + 256u);
  cfg.predicates_enabled = true;
  auto desc = runtime::DeviceDescriptor::simt_core(cfg);
  // A narrow modeled host bridge makes the loop copy-bound, the regime
  // cross-stream DAG replay targets.
  desc.staging_words_per_cycle = 0.25;
  runtime::Device dev(desc);
  const auto vecadd = dev.load_module(kernels::vecadd_abi()).kernel("vecadd");

  struct Lane {
    runtime::Buffer<std::uint32_t> a, b, c;
    std::vector<std::uint32_t> ha, hb, out;
  };
  std::vector<Lane> lane(lanes);
  std::vector<runtime::Stream*> stream(lanes);
  stream[0] = &dev.stream();
  for (unsigned l = 0; l < lanes; ++l) {
    if (l > 0) {
      stream[l] = &dev.create_stream();
    }
    // a then b: adjacent ranges, so the lane's copy-ins fuse.
    lane[l].a = dev.alloc<std::uint32_t>(kN);
    lane[l].b = dev.alloc<std::uint32_t>(kN);
    lane[l].c = dev.alloc<std::uint32_t>(kN);
    lane[l].ha.resize(kN);
    lane[l].hb.resize(kN);
    lane[l].out.assign(kN, 0);
    for (unsigned i = 0; i < kN; ++i) {
      lane[l].ha[i] = l * 1000 + i;
      lane[l].hb[i] = 7 * l + 3 * i;
    }
  }
  const auto record = [&](runtime::Stream& s, Lane& ln) {
    s.copy_in(ln.a, std::span<const std::uint32_t>(ln.ha));
    s.copy_in(ln.b, std::span<const std::uint32_t>(ln.hb));
    s.launch(vecadd, kN,
             runtime::KernelArgs().arg(ln.a).arg(ln.b).arg(ln.c));
    s.copy_out(ln.c, std::span<std::uint32_t>(ln.out));
  };
  const auto verify = [&](const char* path) {
    for (unsigned l = 0; l < lanes; ++l) {
      for (unsigned i = 0; i < kN; ++i) {
        if (lane[l].out[i] != lane[l].ha[i] + lane[l].hb[i]) {
          std::fprintf(stderr, "simt-run: %s lane %u elem %u mismatch\n",
                       path, l, i);
          return false;
        }
      }
      lane[l].out.assign(kN, 0);
    }
    return true;
  };

  // Eager reference: per-command dispatch, and the golden outputs.
  const double eager_setup = dev.scheduler().timeline().dispatch_us;
  for (unsigned l = 0; l < lanes; ++l) {
    record(*stream[l], lane[l]);
  }
  for (unsigned l = 0; l < lanes; ++l) {
    stream[l]->synchronize();
  }
  const double eager_dispatch =
      dev.scheduler().timeline().dispatch_us - eager_setup;
  if (!verify("eager")) {
    return 1;
  }

  // Linearized capture: every lane's commands on stream 0.
  runtime::Graph linear;
  stream[0]->begin_capture(linear);
  for (unsigned l = 0; l < lanes; ++l) {
    record(*stream[0], lane[l]);
  }
  stream[0]->end_capture();
  auto linear_exec = linear.instantiate();

  // DAG capture: lane l records on stream l.
  runtime::Graph dag;
  for (unsigned l = 0; l < lanes; ++l) {
    stream[l]->begin_capture(dag);
  }
  for (unsigned l = 0; l < lanes; ++l) {
    record(*stream[l], lane[l]);
  }
  for (unsigned l = 0; l < lanes; ++l) {
    stream[l]->end_capture();
  }
  auto dag_exec = dag.instantiate();

  const double graph_setup = dev.scheduler().timeline().dispatch_us;
  auto linear_replay = linear_exec.launch(*stream[0]);
  linear_replay.wait();
  if (!verify("linear replay")) {
    return 1;
  }
  auto dag_replay = dag_exec.launch(*stream[0]);
  dag_replay.wait();
  if (!verify("dag replay")) {
    return 1;
  }
  const double graph_dispatch =
      (dev.scheduler().timeline().dispatch_us - graph_setup) / 2.0;

  const double ratio =
      linear_replay.replay_overlap_us() / dag_replay.replay_overlap_us();
  std::printf("graph-streams=%u  captured nodes=%zu  lanes=%u\n", lanes,
              dag.size(), dag.lane_count());
  std::printf("fusion: %zu captured copy-ins -> %zu DMA bursts\n",
              dag.copy_in_count(), dag_exec.copy_in_bursts());
  std::printf("dispatch per iteration: eager %.2f us (%u commands), "
              "graph %.2f us (1 submit)\n",
              eager_dispatch, lanes * 4, graph_dispatch);
  std::printf("modeled span: dag / linear = %.2f / %.2f us = %.2fx overlap "
              "gain\n",
              dag_replay.replay_overlap_us(),
              linear_replay.replay_overlap_us(), ratio);
  if (dag_exec.copy_in_bursts() >= dag.copy_in_count()) {
    std::fprintf(stderr, "simt-run: expected copy-in fusion\n");
    return 1;
  }
  if (ratio <= 1.0) {
    std::fprintf(stderr,
                 "simt-run: DAG replay did not beat linearized replay\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: simt-run <kernel.s> "
                 "[--backend {core,multicore,scalar}] [--cores N] "
                 "[--threads N] [--fmax MHZ] [--mem file] "
                 "[--dump base count] [--bit-accurate] [--no-simd-lanes]\n"
                 "       simt-run --cluster N [--qps R] [--requests K]\n"
                 "                [--fault-spec STR] [--seed N] "
                 "[--deadline-us N]\n"
                 "       simt-run --graph-streams N\n");
    return 2;
  }
  unsigned threads = 512;
  unsigned cores = 1;
  unsigned batch = 1;
  unsigned streams = 1;
  unsigned graph_repeat = 0;
  unsigned cluster_n = 0;
  unsigned graph_streams = 0;
  unsigned requests = 64;
  double qps = 0.0;
  std::string fault_spec;
  std::uint64_t fault_seed = 0x950;
  std::uint64_t deadline_us = 0;
  double fmax = 0.0;
  std::string backend = "core";
  std::string mem_file;
  unsigned dump_base = 0, dump_count = 0;
  bool bit_accurate = false;
  bool simd_lanes = true;
  std::string kernel_name;
  simt::runtime::KernelArgs args;
  // `--cluster` needs no kernel file; flags may start at argv[1].
  const bool no_file = argv[1][0] == '-';
  for (int i = no_file ? 1 : 2; i < argc; ++i) {
    const char* flag = argv[i];
    bool ok = true;
    // Consume the next argument as `flag`'s numeric value.
    const auto next = [&](auto& out) {
      ok = ok && parse_number(flag, argv[++i], out);
    };
    if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      next(threads);
    } else if (!std::strcmp(argv[i], "--backend") && i + 1 < argc) {
      backend = argv[++i];
    } else if (!std::strcmp(argv[i], "--cores") && i + 1 < argc) {
      next(cores);
    } else if (!std::strcmp(argv[i], "--batch") && i + 1 < argc) {
      next(batch);
    } else if (!std::strcmp(argv[i], "--streams") && i + 1 < argc) {
      next(streams);
    } else if (!std::strcmp(argv[i], "--graph-repeat") && i + 1 < argc) {
      next(graph_repeat);
    } else if (!std::strcmp(argv[i], "--cluster") && i + 1 < argc) {
      next(cluster_n);
    } else if (!std::strcmp(argv[i], "--graph-streams") && i + 1 < argc) {
      next(graph_streams);
    } else if (!std::strcmp(argv[i], "--qps") && i + 1 < argc) {
      next(qps);
    } else if (!std::strcmp(argv[i], "--requests") && i + 1 < argc) {
      next(requests);
    } else if (!std::strcmp(argv[i], "--fault-spec") && i + 1 < argc) {
      fault_spec = argv[++i];
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      next(fault_seed);
    } else if (!std::strcmp(argv[i], "--deadline-us") && i + 1 < argc) {
      next(deadline_us);
    } else if (!std::strcmp(argv[i], "--fmax") && i + 1 < argc) {
      next(fmax);
    } else if (!std::strcmp(argv[i], "--kernel") && i + 1 < argc) {
      kernel_name = argv[++i];
    } else if (!std::strcmp(argv[i], "--arg") && i + 1 < argc) {
      const std::string_view spec = argv[++i];
      const auto colon = spec.find(':');
      std::uint32_t base = 0, size = 0;
      if (colon == std::string_view::npos) {
        ok = parse_number(flag, spec, base);
        args.scalar(base);
      } else {
        ok = parse_number(flag, spec.substr(0, colon), base) &&
             parse_number(flag, spec.substr(colon + 1), size);
        args.buffer(base, size);
      }
    } else if (!std::strcmp(argv[i], "--bit-accurate")) {
      bit_accurate = true;
    } else if (!std::strcmp(argv[i], "--no-simd-lanes")) {
      simd_lanes = false;
    } else if (!std::strcmp(argv[i], "--mem") && i + 1 < argc) {
      mem_file = argv[++i];
    } else if (!std::strcmp(argv[i], "--dump") && i + 2 < argc) {
      next(dump_base);
      next(dump_count);
    } else {
      std::fprintf(stderr, "simt-run: unknown argument %s\n", argv[i]);
      return 2;
    }
    if (!ok) {
      return 2;
    }
  }
  if (batch == 0 || streams == 0) {
    std::fprintf(stderr, "simt-run: --batch and --streams need at least 1\n");
    return 2;
  }
  if (cluster_n > 0) {
    try {
      return run_cluster(cluster_n, qps, requests, fault_spec, fault_seed,
                         deadline_us);
    } catch (const simt::Error& e) {
      std::fprintf(stderr, "simt-run: %s\n", e.what());
      return 1;
    }
  }
  if (graph_streams > 0) {
    try {
      return run_graph_streams(graph_streams);
    } catch (const simt::Error& e) {
      std::fprintf(stderr, "simt-run: %s\n", e.what());
      return 1;
    }
  }
  if (no_file) {
    std::fprintf(stderr,
                 "simt-run: flags without a kernel file need --cluster N "
                 "or --graph-streams N\n");
    return 2;
  }

  try {
    std::ifstream in(argv[1]);
    if (!in) {
      throw simt::Error(std::string("cannot open ") + argv[1]);
    }
    std::ostringstream src;
    src << in.rdbuf();

    simt::core::CoreConfig cfg;
    // Thread space must be a multiple of the SP count; grids beyond it are
    // covered in rounds by the runtime.
    cfg.max_threads = std::min(4096u, std::max(16u, (threads + 15u) / 16u * 16u));
    cfg.shared_mem_words = 4096;
    cfg.predicates_enabled = true;
    cfg.bit_accurate = bit_accurate;
    cfg.simd_lanes = simd_lanes;

    simt::runtime::DeviceDescriptor desc;
    if (backend == "core") {
      desc = simt::runtime::DeviceDescriptor::simt_core(cfg);
    } else if (backend == "multicore") {
      desc = simt::runtime::DeviceDescriptor::multi_core(cores, cfg);
    } else if (backend == "scalar") {
      simt::baseline::ScalarCpuConfig scfg;
      scfg.shared_mem_words = 4096;
      desc = simt::runtime::DeviceDescriptor::scalar_cpu(scfg);
    } else {
      std::fprintf(stderr, "simt-run: unknown backend %s\n", backend.c_str());
      return 2;
    }
    desc.fmax_mhz = fmax;  // 0 keeps the backend's paper-realized default

    simt::runtime::Device dev(desc);
    auto& module = dev.load_module(src.str());
    const auto kernel = module.kernel(kernel_name);

    if (!mem_file.empty()) {
      std::ifstream mem(mem_file);
      if (!mem) {
        throw simt::Error("cannot open " + mem_file);
      }
      std::vector<std::uint32_t> image;
      long long value;
      while (mem >> value) {
        image.push_back(static_cast<std::uint32_t>(value));
      }
      dev.write_words(0, image);
    }

    simt::runtime::LaunchStats stats;
    if (graph_repeat > 0) {
      // Eager baseline: the launch re-submitted N times through the
      // stream, each paying the full dispatch path.
      auto& stream = dev.stream();
      for (unsigned r = 0; r < graph_repeat; ++r) {
        stream.launch(kernel, threads, args);
      }
      stream.synchronize();
      const double eager_us = dev.scheduler().timeline().dispatch_us;

      // Graph path: capture the launch once, instantiate, replay N times
      // as single composite commands.
      simt::runtime::Graph graph;
      stream.begin_capture(graph);
      stream.launch(kernel, threads, args);
      stream.end_capture();
      auto exec = graph.instantiate();
      simt::runtime::Event last;
      for (unsigned r = 0; r < graph_repeat; ++r) {
        last = exec.launch(stream);
      }
      stream.synchronize();
      stats = last.stats();
      const auto t = dev.scheduler().timeline();
      const double graph_us = t.dispatch_us - eager_us;
      std::printf("graph-repeat=%u  modeled dispatch: eager=%.3f us  "
                  "graph=%.3f us  overhead ratio=%.2fx  (%u replays)\n",
                  graph_repeat, eager_us, graph_us,
                  graph_us > 0.0 ? eager_us / graph_us : 0.0,
                  t.graph_replays);
    } else if (batch == 1 && streams == 1) {
      stats = dev.launch_sync(kernel, threads, args);
    } else {
      // Repeat the launch through the asynchronous scheduler, round-robin
      // over the requested streams, and report the modeled timeline.
      std::vector<simt::runtime::Stream*> ring;
      ring.push_back(&dev.stream());
      for (unsigned s = 1; s < streams; ++s) {
        ring.push_back(&dev.create_stream());
      }
      std::vector<simt::runtime::Event> events;
      for (unsigned b = 0; b < batch; ++b) {
        events.push_back(ring[b % streams]->launch(kernel, threads, args));
      }
      for (auto* s : ring) {
        s->synchronize();
      }
      stats = events.back().stats();
      const auto t = dev.scheduler().timeline();
      std::printf("batch=%u  streams=%u  modeled serial=%.3f us  "
                  "overlapped=%.3f us  speedup=%.2fx\n",
                  batch, streams, t.serial_us, t.overlap_us,
                  t.overlap_speedup());
    }
    std::printf("backend=%s  engine=%s  threads=%u  rounds=%u\n",
                std::string(dev.backend_name()).c_str(),
                std::string(dev.engine_name()).c_str(), threads,
                stats.rounds);
    if (kernel.info != nullptr) {
      std::printf("kernel=%s  params=%zu  bound=%zu  staged-words-skipped="
                  "%llu\n",
                  kernel.info->name.c_str(), kernel.info->params.size(),
                  args.size(),
                  static_cast<unsigned long long>(stats.staged_words_skipped));
    }
    std::printf("%s\n", stats.perf.summary().c_str());
    std::printf("exited=%s  (%.3f us at %.0f MHz)\n",
                stats.exited ? "yes" : "no", stats.wall_us, dev.fmax_mhz());
    if (stats.per_core.size() > 1) {
      for (const auto& c : stats.per_core) {
        std::printf("core %u: exec=%llu cycles  staged=%llu  merged=%llu  "
                    "occupancy=%.2f\n",
                    c.core, static_cast<unsigned long long>(c.exec_cycles),
                    static_cast<unsigned long long>(c.staged_words),
                    static_cast<unsigned long long>(c.merged_words),
                    c.occupancy);
      }
      std::printf("staging model: serial=%.3f us  overlapped=%.3f us\n",
                  stats.serial_wall_us, stats.overlap_wall_us);
    }
    if (dump_count) {
      std::vector<std::uint32_t> window(dump_count);
      dev.read_words(dump_base, window);
      for (unsigned i = 0; i < dump_count; ++i) {
        std::printf("mem[%u] = %u\n", dump_base + i, window[i]);
      }
    }
    return 0;
  } catch (const simt::Error& e) {
    std::fprintf(stderr, "simt-run: %s\n", e.what());
    return 1;
  }
}
