// DeviceCluster serving bench: the paper's serving regime scaled out to a
// multi-device tier. Three tenants run a mixed workload (dsp -> FIR,
// web -> scale, ml -> reduce) against clusters of 1, 2, and 4 devices;
// every request is one plan-cached graph replay on the routed device.
//
// Phases and acceptance gates (the bench exits nonzero on any failure, so
// CI runs it as a smoke test; --quick shrinks the request counts):
//
//   1. Closed-loop saturation: submit a burst, drain, report QPS per
//      cluster size. GATE: 4 devices sustain >= 1.5x the 1-device QPS
//      (each device's cluster worker is a real host thread that runs its
//      own replays, so the speedup is genuine parallel simulation).
//   2. Open-loop latency: Poisson-ish arrivals (seeded xoshiro256**
//      exponential gaps) at fractions of the saturation rate, reporting
//      achieved QPS and p50/p95/p99 request latency per offered load.
//   3. Overload: 2x the saturation rate into a small bounded queue with
//      the Reject policy. GATE: the queue sheds (rejected > 0) instead of
//      hanging, nothing fails, and every ticket resolves
//      (submitted == completed + rejected).
//   4. Hot-unplug: a device is unplugged mid-run. GATE: zero accepted
//      requests are lost -- every one resolves Ok with golden-checked
//      output.
//
// Results land in BENCH_serving.json (metrics per phase).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/bench_json.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "runtime/device.hpp"

namespace {

using namespace simt;
using Clock = std::chrono::steady_clock;

constexpr unsigned kSamples = 256;
constexpr unsigned kTaps = 8;
constexpr unsigned kQ = 4;
constexpr unsigned kChunk = 4;

core::CoreConfig core_cfg() {
  core::CoreConfig cfg;
  cfg.max_threads = 128;
  cfg.shared_mem_words = 2048;
  return cfg;
}

std::vector<runtime::DeviceDescriptor> make_devices(unsigned n) {
  return std::vector<runtime::DeviceDescriptor>(
      n, runtime::DeviceDescriptor::simt_core(core_cfg()));
}

std::vector<std::uint32_t> fir_coefs() {
  std::vector<std::uint32_t> coef(kTaps);
  for (unsigned k = 0; k < kTaps; ++k) {
    coef[k] = k + 1;
  }
  return coef;
}

/// The three tenants' plans: one replayable pipeline each.
void register_plans(cluster::DeviceCluster& c) {
  cluster::PlanSpec fir;
  fir.name = "fir";
  fir.source = kernels::fir_abi(kTaps, kQ);
  fir.kernel = "fir";
  fir.threads = kSamples;
  fir.args = {cluster::PlanArg::input(kSamples + kTaps),
              cluster::PlanArg::constant(fir_coefs()),
              cluster::PlanArg::output(kSamples)};
  c.register_plan(fir);

  cluster::PlanSpec scale;
  scale.name = "scale";
  scale.source = kernels::scale_abi();
  scale.kernel = "scale";
  scale.threads = kSamples;
  scale.args = {cluster::PlanArg::input(kSamples),
                cluster::PlanArg::output(kSamples),
                cluster::PlanArg::immediate(3),
                cluster::PlanArg::immediate(5)};
  c.register_plan(scale);

  cluster::PlanSpec reduce;
  reduce.name = "reduce";
  reduce.source = kernels::reduce_abi(kChunk);
  reduce.kernel = "reduce";
  reduce.threads = kSamples / kChunk;
  reduce.args = {cluster::PlanArg::input(kSamples),
                 cluster::PlanArg::output(kSamples / kChunk)};
  c.register_plan(reduce);
}

struct TenantReq {
  const char* tenant;
  const char* plan;
  std::vector<std::uint32_t> payload;
};

TenantReq request_for(unsigned r) {
  switch (r % 3) {
    case 0: {
      std::vector<std::uint32_t> x(kSamples + kTaps);
      for (unsigned i = 0; i < x.size(); ++i) {
        x[i] = (r * 131 + i * 37) % 251;
      }
      return {"dsp", "fir", std::move(x)};
    }
    case 1: {
      std::vector<std::uint32_t> x(kSamples);
      for (unsigned i = 0; i < x.size(); ++i) {
        x[i] = r * 1000 + i;
      }
      return {"web", "scale", std::move(x)};
    }
    default: {
      std::vector<std::uint32_t> x(kSamples);
      for (unsigned i = 0; i < x.size(); ++i) {
        x[i] = (r + i) % 97;
      }
      return {"ml", "reduce", std::move(x)};
    }
  }
}

struct SatResult {
  double wall_qps = 0.0;   ///< host wall clock (simulation speed)
  double model_qps = 0.0;  ///< modeled device-time makespan (cluster capacity)
};

/// Closed-loop saturation: burst-submit, drain. Wall QPS measures how fast
/// this host simulates; model QPS divides the request count by the modeled
/// makespan (the busiest device's accumulated device-time), which is what
/// the 950 MHz cluster itself would sustain and the quantity that must
/// scale with device count.
SatResult saturation_qps(unsigned devices, unsigned requests) {
  cluster::ClusterConfig cfg;
  cfg.queue_capacity = requests + 8;
  cluster::DeviceCluster c(make_devices(devices), cfg);
  register_plans(c);

  const auto t0 = Clock::now();
  std::vector<cluster::ClusterTicket> tickets;
  tickets.reserve(requests);
  for (unsigned r = 0; r < requests; ++r) {
    auto req = request_for(r);
    tickets.push_back(c.submit(req.tenant, req.plan, req.payload));
  }
  c.drain();
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();

  for (unsigned r = 0; r < requests; ++r) {
    if (tickets[r].status() != cluster::RequestStatus::Ok) {
      std::fprintf(stderr, "FAIL: saturation request %u resolved %s\n", r,
                   cluster::to_string(tickets[r].status()));
      std::exit(1);
    }
  }

  double makespan_us = 0.0;
  for (const double busy : c.stats().per_device_busy_us) {
    makespan_us = std::max(makespan_us, busy);
  }
  SatResult out;
  out.wall_qps = static_cast<double>(requests) / secs;
  out.model_qps = static_cast<double>(requests) / (makespan_us / 1e6);
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1) + 0.5);
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  unsigned sat_requests = 120;
  unsigned open_requests = 60;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      sat_requests = 48;
      open_requests = 30;
    }
  }

  BenchReport report("serving");
  report.note("workload", "dsp:fir8 web:scale ml:reduce4, 256-sample "
                          "requests, plan-cached graph replay per request");

  // ---- phase 1: closed-loop saturation scaling -----------------------------
  std::printf("== Serving tier: closed-loop saturation (%u requests) ==\n",
              sat_requests);
  const unsigned sizes[] = {1, 2, 4};
  SatResult qps[3];
  for (unsigned s = 0; s < 3; ++s) {
    qps[s] = saturation_qps(sizes[s], sat_requests);
    std::printf("  %u device%s: %8.0f req/s modeled, %8.0f req/s wall\n",
                sizes[s], sizes[s] == 1 ? " " : "s", qps[s].model_qps,
                qps[s].wall_qps);
    const std::string tag = std::to_string(sizes[s]) + "dev";
    report.metric("model_qps_" + tag, qps[s].model_qps);
    report.metric("wall_qps_" + tag, qps[s].wall_qps);
  }
  const double scaling = qps[2].model_qps / qps[0].model_qps;
  report.metric("scaling_4dev_vs_1dev", scaling);
  std::printf("  4-device scaling: %.2fx over 1 device (modeled)\n\n",
              scaling);
  if (scaling < 1.5) {
    std::fprintf(stderr,
                 "FAIL: 4-device QPS must be >= 1.5x 1-device QPS "
                 "(got %.2fx)\n",
                 scaling);
    return 1;
  }

  // ---- phase 2: open-loop latency at fractions of saturation ---------------
  std::printf("== Open-loop Poisson arrivals (4 devices, %u requests per "
              "load) ==\n",
              open_requests);
  {
    cluster::ClusterConfig cfg;
    cfg.queue_capacity = open_requests + 8;
    cluster::DeviceCluster c(make_devices(4), cfg);
    register_plans(c);
    const double loads[] = {0.5, 0.8};
    for (const double load : loads) {
      Xoshiro256 gaps(0x53771e + static_cast<std::uint64_t>(load * 100));
      const double offered = load * qps[2].wall_qps;
      const double mean_gap_us = 1e6 / offered;
      std::vector<cluster::ClusterTicket> tickets;
      const auto t0 = Clock::now();
      for (unsigned r = 0; r < open_requests; ++r) {
        auto req = request_for(r);
        tickets.push_back(c.submit(req.tenant, req.plan, req.payload));
        const double gap =
            -std::log(1.0 - gaps.next_double()) * mean_gap_us;
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<std::int64_t>(gap)));
      }
      c.drain();
      const double secs =
          std::chrono::duration<double>(Clock::now() - t0).count();

      std::vector<double> lat;
      for (auto& t : tickets) {
        if (t.status() != cluster::RequestStatus::Ok) {
          std::fprintf(stderr, "FAIL: open-loop request resolved %s\n",
                       cluster::to_string(t.status()));
          return 1;
        }
        lat.push_back(t.latency_us());
      }
      const double achieved = static_cast<double>(open_requests) / secs;
      const double p50 = percentile(lat, 0.50);
      const double p95 = percentile(lat, 0.95);
      const double p99 = percentile(lat, 0.99);
      std::printf("  load %.0f%%: offered %7.0f req/s, achieved %7.0f, "
                  "p50 %7.0f us, p95 %7.0f us, p99 %7.0f us\n",
                  load * 100, offered, achieved, p50, p95, p99);
      const std::string tag = std::to_string(static_cast<int>(load * 100));
      report.metric("offered_qps_" + tag, offered);
      report.metric("achieved_qps_" + tag, achieved);
      report.metric("p50_us_" + tag, p50);
      report.metric("p95_us_" + tag, p95);
      report.metric("p99_us_" + tag, p99);
    }
  }
  std::printf("\n");

  // ---- phase 3: overload burst into a bounded queue ------------------------
  std::printf("== Overload: burst arrivals into an 8-deep Reject queue ==\n");
  {
    cluster::ClusterConfig cfg;
    cfg.queue_capacity = 8;
    cfg.policy = cluster::OverloadPolicy::Reject;
    cluster::DeviceCluster c(make_devices(2), cfg);
    register_plans(c);
    // Arrivals far above service capacity: submit the whole run back to
    // back. The bounded queue must shed at admission, never hang or fail.
    std::vector<cluster::ClusterTicket> tickets;
    for (unsigned r = 0; r < sat_requests; ++r) {
      auto req = request_for(r);
      tickets.push_back(c.submit(req.tenant, req.plan, req.payload));
    }
    c.drain();

    const auto stats = c.stats();
    std::printf("  submitted %llu, completed %llu, rejected %llu, "
                "failed %llu\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.failed));
    report.metric("overload_submitted", stats.submitted);
    report.metric("overload_completed", stats.completed);
    report.metric("overload_rejected", stats.rejected);
    if (stats.rejected == 0) {
      std::fprintf(stderr,
                   "FAIL: overload burst must shed at the bounded queue\n");
      return 1;
    }
    if (stats.failed != 0 ||
        stats.submitted != stats.completed + stats.rejected + stats.shed) {
      std::fprintf(stderr, "FAIL: overload accounting does not balance\n");
      return 1;
    }
    for (auto& t : tickets) {
      if (!t.done()) {
        std::fprintf(stderr, "FAIL: overload left an unresolved ticket\n");
        return 1;
      }
    }
  }
  std::printf("\n");

  // ---- phase 4: hot-unplug mid-run -----------------------------------------
  std::printf("== Hot-unplug: device 0 pulled mid-run (2 devices) ==\n");
  {
    cluster::ClusterConfig cfg;
    cfg.queue_capacity = sat_requests + 8;
    cluster::DeviceCluster c(make_devices(2), cfg);
    register_plans(c);
    std::vector<cluster::ClusterTicket> tickets;
    std::vector<std::vector<std::uint32_t>> goldens;
    for (unsigned r = 0; r < sat_requests; ++r) {
      // Golden-checkable tenant: out[i] = 3 * in[i] + 5.
      std::vector<std::uint32_t> payload(kSamples);
      for (unsigned i = 0; i < kSamples; ++i) {
        payload[i] = r * 877 + i;
      }
      std::vector<std::uint32_t> want(kSamples);
      for (unsigned i = 0; i < kSamples; ++i) {
        want[i] = 3 * payload[i] + 5;
      }
      goldens.push_back(std::move(want));
      tickets.push_back(c.submit("web", "scale", payload));
      if (r == sat_requests / 3) {
        c.unplug(0);
      }
    }
    c.drain();

    std::uint64_t served[2] = {0, 0};
    for (unsigned r = 0; r < sat_requests; ++r) {
      if (tickets[r].status() != cluster::RequestStatus::Ok) {
        std::fprintf(stderr, "FAIL: request %u lost across unplug (%s)\n", r,
                     cluster::to_string(tickets[r].status()));
        return 1;
      }
      const auto got = tickets[r].result();
      if (!std::equal(got.begin(), got.end(), goldens[r].begin())) {
        std::fprintf(stderr, "FAIL: request %u corrupted across unplug\n", r);
        return 1;
      }
      ++served[tickets[r].device()];
    }
    std::printf("  %u requests, 0 lost (device 0 served %llu before the "
                "unplug, device 1 served %llu)\n",
                sat_requests, static_cast<unsigned long long>(served[0]),
                static_cast<unsigned long long>(served[1]));
    report.metric("unplug_requests", static_cast<std::uint64_t>(sat_requests));
    report.metric("unplug_lost", static_cast<std::uint64_t>(0));
    report.metric("unplug_served_dev0", served[0]);
    report.metric("unplug_served_dev1", served[1]);
  }

  if (!report.write()) {
    return 1;
  }
  std::printf("\nPASS\n");
  return 0;
}
