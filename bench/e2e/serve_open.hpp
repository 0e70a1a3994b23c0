// serve_open: the operator's view. A DeviceCluster of one core device
// (128 threads, 2,048 words) serves three tenants -- dsp -> FIR-8,
// web -> scale, ml -> reduce-4 -- with 256-sample payloads drawn from a
// seeded pool of 64 per tenant. Three phases share the run's seconds:
//
//   saturation (40%): closed loop, Block policy, queue capacity 64; sets
//                     items_per_s (one item = one request);
//   light (40%):      open loop, Poisson arrivals at 10,000 req/s; sets the
//                     latency metric;
//   heavy (20%):      the same at 25,000 req/s (workload detail).
//
// The latency metric comes from the light rate, about a quarter of the
// saturation rate, because queueing amplifies the host's own speed drift:
// at half the saturation rate the p50 moved by a third between identical
// runs.
//
// One generator thread sleeps until each due time (never spins: a spinning
// generator steals a core from the cluster's own threads) and times each
// request from when it was due, so a stall counts against the requests
// queued behind it. The run is invalid when the generator sent less than
// 99% of its schedule inside the window.
//
// Why: modeled compute is under a microsecond per request, so host time
// goes to admission, dispatch, graph replay and thread handoffs. The light
// rate measures service cost; the heavy rate adds queueing. One device:
// each device adds two busy cluster threads. On a 4-core host shared with
// other tenants, a two-device cluster's saturation rate swung 3x between
// identical runs, and next to two competing busy loops it lost a third of
// its rate where a one-device cluster lost a tenth.
#pragma once

#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "metrics.hpp"
#include "programs.hpp"
#include "trace.hpp"

namespace e2e {

struct ServeOpen {
  static constexpr const char* kName = "serve_open";
  static constexpr unsigned kDevices = 1;
  static constexpr unsigned kSamples = 256;
  static constexpr unsigned kTaps = 8;
  static constexpr unsigned kQ = 4;
  static constexpr unsigned kChunk = 4;
  static constexpr unsigned kPayloads = 64;
  /// Seeded request sequence (tenant + payload per request). Its tenant
  /// mix sets modeled_us_per_item; a long sequence keeps that mix, and so
  /// the metric, within a fraction of a percent across seeds.
  static constexpr unsigned kPool = 65536;
  static constexpr std::size_t kOutstanding = 256;  ///< saturation window
  static constexpr double kLightRate = 10000.0;
  static constexpr double kHeavyRate = 25000.0;
  static constexpr double kSloUs = 1000.0;
  static constexpr double kMinSentFrac = 0.99;
  static constexpr const char* kTenant[3] = {"dsp", "web", "ml"};
  static constexpr const char* kPlan[3] = {"fir", "scale", "reduce"};

  struct Inputs {
    std::uint64_t seed;
    std::vector<std::uint32_t> coef;
    std::uint32_t mul = 0, add = 0;
    std::vector<std::vector<std::uint32_t>> payload[3], want[3];
    std::vector<std::uint8_t> plan_of, payload_of;  // per pool request

    explicit Inputs(std::uint64_t s) : seed(s) {
      simt::Xoshiro256 rng(seed ^ 0x5e77e);
      coef.resize(kTaps);
      for (auto& c : coef) {
        c = static_cast<std::uint32_t>(rng.next_in(1, 15));
      }
      mul = static_cast<std::uint32_t>(rng.next_in(2, 9));
      add = static_cast<std::uint32_t>(rng.next_in(0, 99));
      for (unsigned i = 0; i < kPayloads; ++i) {
        std::vector<std::uint32_t> fir_in(kSamples + kTaps), in(kSamples);
        for (auto& v : fir_in) {
          v = static_cast<std::uint32_t>(rng.next_below(4096));
        }
        for (auto& v : in) {
          v = rng.next_u32();
        }
        want[0].push_back(fir_golden(fir_in, coef, kSamples, kQ));
        want[1].push_back(scale_golden(in, mul, add));
        want[2].push_back(reduce_golden(in, kChunk));
        payload[0].push_back(std::move(fir_in));
        payload[1].push_back(in);
        payload[2].push_back(std::move(in));
      }
      for (unsigned r = 0; r < kPool; ++r) {
        plan_of.push_back(static_cast<std::uint8_t>(rng.next_below(3)));
        payload_of.push_back(static_cast<std::uint8_t>(rng.next_below(kPayloads)));
      }
    }
  };

  static std::vector<simt::runtime::DeviceDescriptor> devices(unsigned n) {
    simt::core::CoreConfig cfg;
    cfg.max_threads = 128;
    cfg.shared_mem_words = 2048;
    return std::vector<simt::runtime::DeviceDescriptor>(
        n, simt::runtime::DeviceDescriptor::simt_core(cfg));
  }

  static simt::cluster::ClusterConfig cluster_config() {
    simt::cluster::ClusterConfig cfg;
    cfg.queue_capacity = 64;
    cfg.policy = simt::cluster::OverloadPolicy::Block;
    return cfg;
  }

  /// Register the three tenants' plans (the scale plan alone when
  /// `scale_only`, for the layer ladder's one-device cluster).
  static void register_plans(simt::cluster::DeviceCluster& c,
                             const Inputs& in, bool scale_only = false) {
    namespace cl = simt::cluster;
    if (!scale_only) {
      cl::PlanSpec fir;
      fir.name = kPlan[0];
      fir.source = simt::kernels::fir_abi(kTaps, kQ);
      fir.kernel = "fir";
      fir.threads = kSamples;
      fir.args = {cl::PlanArg::input(kSamples + kTaps),
                  cl::PlanArg::constant(in.coef),
                  cl::PlanArg::output(kSamples)};
      c.register_plan(fir);
    }
    cl::PlanSpec scale;
    scale.name = kPlan[1];
    scale.source = simt::kernels::scale_abi();
    scale.kernel = "scale";
    scale.threads = kSamples;
    scale.args = {cl::PlanArg::input(kSamples), cl::PlanArg::output(kSamples),
                  cl::PlanArg::immediate(in.mul),
                  cl::PlanArg::immediate(in.add)};
    c.register_plan(scale);
    if (!scale_only) {
      cl::PlanSpec reduce;
      reduce.name = kPlan[2];
      reduce.source = simt::kernels::reduce_abi(kChunk);
      reduce.kernel = "reduce";
      reduce.threads = kSamples / kChunk;
      reduce.args = {cl::PlanArg::input(kSamples),
                     cl::PlanArg::output(kSamples / kChunk)};
      c.register_plan(reduce);
    }
  }

  static double busy_us(const simt::cluster::DeviceCluster& c) {
    double sum = 0.0;
    for (const double b : c.stats().per_device_busy_us) {
      sum += b;
    }
    return sum;
  }

  /// Poisson arrival offsets (seconds from the window start) at `rate`.
  static std::vector<double> schedule(std::uint64_t seed, double rate,
                                      double window_s) {
    simt::Xoshiro256 rng(seed);
    std::vector<double> due;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.next_double()) / rate;
      if (t >= window_s) {
        return due;
      }
      due.push_back(t);
    }
  }

  /// The system under test: the cluster with its plans registered and
  /// warmed, plus each plan's modeled device time per request.
  struct State {
    simt::cluster::DeviceCluster cluster{devices(kDevices), cluster_config()};
    double cost_us[3] = {0.0, 0.0, 0.0};

    explicit State(const Inputs& in) {
      register_plans(cluster, in);
      for (int p = 0; p < 3; ++p) {
        const double before = busy_us(cluster);
        cluster.submit(kTenant[p], kPlan[p], in.payload[p][0]).wait();
        cost_us[p] = busy_us(cluster) - before;
      }
    }

    struct Pending {
      simt::cluster::ClusterTicket ticket;
      std::uint32_t request = 0;  ///< pool index
      std::uint64_t id = 0;
      Clock::time_point due{};
      Clock::time_point before{};  ///< just before submit()
      Clock::time_point after{};   ///< submit() returned
    };

    /// Per-phase measurements.
    struct Phase {
      std::uint64_t sent = 0, scheduled = 0, failed = 0, ok_in_slo = 0;
      std::uint64_t per_plan[3] = {0, 0, 0};
      Clock::time_point start = Clock::now();
      double seconds = 0.0;  ///< saturation only: wall time incl. the drain
      Series requests;  ///< completions, valued by latency from due (us)
      Series late_us, submit_us, service_us;
    };

    /// Wait for one request, check its output, and record it.
    void finish(const Pending& p, const Inputs& in, Phase& ph, Tracer* tr) {
      const unsigned plan = in.plan_of[p.request];
      const unsigned idx = in.payload_of[p.request];
      p.ticket.wait();
      bool ok = p.ticket.status() == simt::cluster::RequestStatus::Ok;
      double service = 0.0;
      if (ok) {
        const auto got = p.ticket.result();
        const auto& want = in.want[plan][idx];
        ok = got.size() == want.size() &&
             std::equal(want.begin(), want.end(), got.begin());
        service = p.ticket.latency_us();
      } else {
        std::fprintf(stderr, "serve_open: request %llu resolved %s\n",
                     static_cast<unsigned long long>(p.id),
                     simt::cluster::to_string(p.ticket.status()));
      }
      const double from_due = us_between(p.due, p.before) + service;
      ++ph.per_plan[plan];
      ph.submit_us.add(us_between(p.before, p.after));
      ph.late_us.add(us_between(p.due, p.before));
      if (ok) {
        ph.service_us.add(service);
        ph.requests.add(from_due);
        ph.ok_in_slo += from_due <= kSloUs;
      } else {
        ++ph.failed;
        ph.requests.add(std::numeric_limits<double>::infinity());
      }
      if (tr != nullptr) {
        const auto resolved =
            p.before + std::chrono::nanoseconds(
                           static_cast<std::int64_t>(service * 1e3));
        const auto root =
            tr->add("bench.item", p.due, resolved, p.id, -1, true);
        tr->add("cluster.submit", p.before, p.after, p.id, root, true);
        tr->add("cluster.service", p.before, resolved, p.id, root, true);
      }
    }

    Pending submit(const Inputs& in, std::uint32_t r, std::uint64_t id,
                   Clock::time_point due) {
      Pending p;
      p.request = r;
      p.id = id;
      p.due = due;
      const unsigned plan = in.plan_of[r];
      p.before = Clock::now();
      p.ticket = cluster.submit(kTenant[plan], kPlan[plan],
                                in.payload[plan][in.payload_of[r]]);
      p.after = Clock::now();
      return p;
    }

    /// Closed loop: keep the admission queue full for `seconds`.
    Phase saturate(const Inputs& in, double seconds, Tracer* tr,
                   std::uint64_t& next_id) {
      Phase ph;
      std::deque<Pending> window;
      while (seconds_since(ph.start) < seconds) {
        while (window.size() >= kOutstanding) {
          finish(window.front(), in, ph, tr);
          window.pop_front();
        }
        window.push_back(submit(in, static_cast<std::uint32_t>(next_id % kPool),
                                next_id, Clock::now()));
        ++next_id;
        ++ph.sent;
      }
      for (const auto& p : window) {
        finish(p, in, ph, tr);
      }
      ph.seconds = seconds_since(ph.start);
      ph.scheduled = ph.sent;
      return ph;
    }

    /// Open loop: Poisson arrivals at `rate` for `seconds`.
    Phase open_loop(const Inputs& in, double rate, double seconds,
                    std::uint64_t sched_seed, Tracer* tr,
                    std::uint64_t& next_id) {
      Phase ph;
      const auto due = schedule(sched_seed, rate, seconds);
      ph.scheduled = due.size();
      std::deque<Pending> inflight;
      ph.start = Clock::now() + std::chrono::milliseconds(1);
      const auto end = ph.start + std::chrono::nanoseconds(
                                      static_cast<std::int64_t>(seconds * 1e9));
      for (std::size_t i = 0; i < due.size(); ++i) {
        const auto at = ph.start + std::chrono::nanoseconds(
                                       static_cast<std::int64_t>(due[i] * 1e9));
        while (!inflight.empty() && inflight.front().ticket.done()) {
          finish(inflight.front(), in, ph, tr);
          inflight.pop_front();
        }
        std::this_thread::sleep_until(at);
        if (Clock::now() >= end) {
          break;  // behind schedule: the rest were never sent in time
        }
        inflight.push_back(
            submit(in, static_cast<std::uint32_t>(next_id % kPool), next_id, at));
        ++next_id;
        ++ph.sent;
      }
      for (const auto& p : inflight) {
        finish(p, in, ph, tr);
      }
      return ph;
    }

    Outcome run(const Inputs& in, double seconds, Tracer* tr) {
      // Wake from sleep_until on time: the default 50 us timer slack is
      // more than the mean inter-arrival gap at 25,000 req/s.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      Outcome out;
      std::uint64_t next_id = 0;
      const auto stats0 = cluster.stats();
      const double busy0 = busy_us(cluster);
      const Phase sat = saturate(in, 0.4 * seconds, tr, next_id);
      const double busy1 = busy_us(cluster);
      const Phase light = open_loop(in, kLightRate, 0.4 * seconds,
                                    in.seed * 2 + 1, tr, next_id);
      const Phase heavy = open_loop(in, kHeavyRate, 0.2 * seconds,
                                    in.seed * 2 + 2, tr, next_id);
      const auto stats1 = cluster.stats();

      out.throughput = sat.requests;
      out.seconds = sat.seconds;
      out.latency = light.requests;
      out.attempted = sat.sent + light.sent + heavy.sent;
      out.failed = sat.failed + light.failed + heavy.failed;

      // Modeled device time per request: each plan's cost weighted by the
      // seeded mix. The cluster's own busy-time accounting over the
      // saturation phase must agree with it.
      double pool_us = 0.0;
      for (unsigned r = 0; r < kPool; ++r) {
        pool_us += cost_us[in.plan_of[r]];
      }
      out.modeled_us_per_item = pool_us / kPool;
      double expect = 0.0;
      for (int p = 0; p < 3; ++p) {
        expect += cost_us[p] * static_cast<double>(sat.per_plan[p]);
      }
      if (std::abs((busy1 - busy0) - expect) > 1e-6 * expect) {
        std::fprintf(stderr,
                     "serve_open: busy time %.6f us != modeled %.6f us\n",
                     busy1 - busy0, expect);
        ++out.failed;
      }

      const double sent_frac =
          std::min(static_cast<double>(light.sent) / light.scheduled,
                   static_cast<double>(heavy.sent) / heavy.scheduled);
      if (sent_frac < kMinSentFrac) {
        out.invalid = "generator sent only " + std::to_string(sent_frac) +
                      " of its schedule";
      }
      out.detail("saturation_req_per_s", sat.sent / sat.seconds);
      out.detail("p50_us_light", light.requests.percentile(0.50));
      out.detail("p99_us_light", light.requests.percentile(0.99));
      out.detail("p50_us_heavy", heavy.requests.percentile(0.50));
      out.detail("p99_us_heavy", heavy.requests.percentile(0.99));
      out.detail("slo_frac_heavy",
                 static_cast<double>(heavy.ok_in_slo) / heavy.scheduled);
      out.detail("gen.sent_frac", sent_frac);
      out.detail("gen.late_p50_us", heavy.late_us.percentile(0.50));
      out.detail("gen.late_p99_us", heavy.late_us.percentile(0.99));
      out.detail("cluster.submit_us.p50", heavy.submit_us.percentile(0.50));
      out.detail("cluster.submit_us.p99", heavy.submit_us.percentile(0.99));
      out.detail("cluster.service_us.p50", heavy.service_us.percentile(0.50));
      out.detail("cluster.rejected",
                 static_cast<double>(stats1.rejected - stats0.rejected));
      out.detail("cluster.retried",
                 static_cast<double>(stats1.retried - stats0.retried));
      out.detail("cluster.shed", static_cast<double>(stats1.shed - stats0.shed));
      out.detail("cluster.failed",
                 static_cast<double>(stats1.failed - stats0.failed));
      out.detail("modeled_us.fir", cost_us[0]);
      out.detail("modeled_us.scale", cost_us[1]);
      out.detail("modeled_us.reduce", cost_us[2]);
      return out;
    }
  };
};

}  // namespace e2e
