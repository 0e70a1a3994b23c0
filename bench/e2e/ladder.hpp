// The layer ladder: every traced run ends with the same per-layer
// measurement, so each per-layer metric exists on every workload.
//
// One request -- serve_open's web tenant, a 256-thread scale over 256
// words on a 128-thread core -- is sent with one in flight through each
// stack of layers, from the bottom up:
//
//   core     the backend launch alone (LaunchStats::host_wall_us)
//   plan     write_words + Device::execute_plan + read_words
//   eager    Stream copy_in + launch + copy_out + synchronize
//   graph    GraphExec::launch with a copy-in rebind + Event::wait
//   cluster  DeviceCluster::submit + ClusterTicket::wait, one device
//
// A rung's self time is its median minus the median of the rung it wraps,
// which puts a measured number next to the HostCost model's claim that
// graph replay cuts dispatch cost. Three probes cover the layers the
// ladder does not reach: assembly, multicore staging, and one fitter
// compile timed phase by phase (and checked against Fitter::compile with
// the same seed, which must give the same Fmax).
#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "area/resource_model.hpp"
#include "cluster/cluster.hpp"
#include "fabric/netlist.hpp"
#include "fit/fitter.hpp"
#include "fit_sweep.hpp"
#include "fit/placer.hpp"
#include "fit/sta.hpp"
#include "kernels/kernels.hpp"
#include "metrics.hpp"
#include "programs.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/graph.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stream.hpp"
#include "serve_open.hpp"
#include "sim_kernels.hpp"
#include "stream_staging.hpp"

namespace e2e {

/// Run the ladder with `n` requests per rung; wrong outputs count as
/// failures in `out`.
inline Metrics layer_ladder(const ServeOpen::Inputs& in, unsigned n,
                            Outcome& out) {
  namespace rt = simt::runtime;
  constexpr unsigned kSamples = ServeOpen::kSamples;
  Metrics m;
  const auto& payload = in.payload[1];
  const auto& want = in.want[1];
  const auto check = [&](std::span<const std::uint32_t> got, unsigned i) {
    const auto& w = want[i % ServeOpen::kPayloads];
    ++out.attempted;
    if (got.size() != w.size() || !std::equal(w.begin(), w.end(), got.begin())) {
      std::fprintf(stderr, "ladder: request %u mismatched\n", i);
      ++out.failed;
    }
  };
  const auto p50 = [](const std::vector<double>& v) {
    return percentile(v, 0.5);
  };

  {  // asm: first load_module of each source the benchmark runs
    rt::Device dev(ServeOpen::devices(1)[0]);
    std::vector<double> ms;
    for (const auto& src :
         {simt::kernels::fir_abi(SimKernels::kTaps, SimKernels::kFirQ),
          mandel_source(), simt::kernels::scale_abi(),
          simt::kernels::fir_abi(ServeOpen::kTaps, ServeOpen::kQ),
          simt::kernels::reduce_abi(ServeOpen::kChunk)}) {
      const auto t0 = Clock::now();
      dev.load_module(src);
      ms.push_back(us_between(t0, Clock::now()) / 1e3);
    }
    m.emplace_back("asm.assemble_ms", mean(ms));
  }

  rt::Device dev(ServeOpen::devices(1)[0]);
  auto inb = dev.alloc<std::uint32_t>(kSamples);
  auto outb = dev.alloc<std::uint32_t>(kSamples);
  const auto kernel =
      dev.load_module(simt::kernels::scale_abi()).kernel("scale");
  const auto args =
      rt::KernelArgs().arg(inb).arg(outb).scalar(in.mul).scalar(in.add);
  std::vector<std::uint32_t> got(kSamples);

  // ---- plan and core ----
  std::vector<double> prepare, plan, core, exec, exec_self;
  rt::LaunchPlan lp;
  for (unsigned i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    lp = dev.prepare_launch(kernel, kSamples, args);
    prepare.push_back(us_between(t0, Clock::now()));
  }
  for (unsigned i = 0; i < n; ++i) {
    const auto& x = payload[i % ServeOpen::kPayloads];
    const auto t0 = Clock::now();
    dev.write_words(inb.word_base(), x);
    const auto t1 = Clock::now();
    const auto st = dev.execute_plan(lp);
    const auto t2 = Clock::now();
    dev.read_words(outb.word_base(), got);
    const auto t3 = Clock::now();
    plan.push_back(us_between(t0, t3));
    core.push_back(st.host_wall_us);
    exec.push_back(st.host_exec_us);
    exec_self.push_back(us_between(t1, t2) - st.host_wall_us);
    check(got, i);
  }

  // ---- eager ----
  auto& stream = dev.stream();
  std::vector<double> eager, submit, sync;
  const double eager_d0 = dev.scheduler().timeline().dispatch_us;
  for (unsigned i = 0; i < n; ++i) {
    const auto& x = payload[i % ServeOpen::kPayloads];
    const auto t0 = Clock::now();
    stream.copy_in(inb, std::span<const std::uint32_t>(x));
    const auto t1 = Clock::now();
    stream.launch(kernel, kSamples, args);
    const auto t2 = Clock::now();
    stream.copy_out(outb, std::span<std::uint32_t>(got));
    const auto t3 = Clock::now();
    stream.synchronize();
    const auto t4 = Clock::now();
    eager.push_back(us_between(t0, t4));
    submit.push_back(us_between(t0, t1));
    submit.push_back(us_between(t1, t2));
    submit.push_back(us_between(t2, t3));
    sync.push_back(us_between(t3, t4));
    check(got, i);
  }
  const double eager_dispatch =
      (dev.scheduler().timeline().dispatch_us - eager_d0) / n;

  // ---- graph ----
  std::vector<double> graph;
  rt::Graph g;
  std::vector<std::uint32_t> graph_out(kSamples);
  stream.begin_capture(g);
  stream.copy_in(inb, std::span<const std::uint32_t>(payload[0]));
  stream.launch(kernel, kSamples, args);
  stream.copy_out(outb, std::span<std::uint32_t>(graph_out));
  stream.end_capture();
  auto exec_graph = g.instantiate();
  const double graph_d0 = dev.scheduler().timeline().dispatch_us;
  for (unsigned i = 0; i < n; ++i) {
    const auto& x = payload[i % ServeOpen::kPayloads];
    const auto t0 = Clock::now();
    exec_graph.launch(stream, rt::GraphUpdates().copy_in(0, x)).wait();
    graph.push_back(us_between(t0, Clock::now()));
    check(graph_out, i);
  }
  const double graph_dispatch =
      (dev.scheduler().timeline().dispatch_us - graph_d0) / n;

  // ---- cluster ----
  std::vector<double> clus, clus_submit, service;
  {
    simt::cluster::DeviceCluster c(ServeOpen::devices(1),
                                   ServeOpen::cluster_config());
    ServeOpen::register_plans(c, in, true);
    for (unsigned i = 0; i < n; ++i) {
      const auto& x = payload[i % ServeOpen::kPayloads];
      const auto t0 = Clock::now();
      auto ticket = c.submit("web", "scale", x);
      const auto t1 = Clock::now();
      ticket.wait();
      clus.push_back(us_between(t0, Clock::now()));
      clus_submit.push_back(us_between(t0, t1));
      if (ticket.status() == simt::cluster::RequestStatus::Ok) {
        service.push_back(ticket.latency_us());
        check(ticket.result(), i);
      } else {
        ++out.attempted;
        ++out.failed;
      }
    }
  }

  const double core_us = p50(core), plan_us = p50(plan), eager_us = p50(eager),
               graph_us = p50(graph), cluster_us = p50(clus);
  m.emplace_back("runtime.prepare_us", p50(prepare));
  m.emplace_back("runtime.execute_self_us", p50(exec_self));
  m.emplace_back("core.exec_us", p50(exec));
  m.emplace_back("ladder.core_us", core_us);
  m.emplace_back("ladder.plan_us", plan_us);
  m.emplace_back("ladder.eager_us", eager_us);
  m.emplace_back("ladder.graph_us", graph_us);
  m.emplace_back("ladder.cluster_us", cluster_us);
  m.emplace_back("plan.self_us", plan_us - core_us);
  m.emplace_back("eager.self_us", eager_us - plan_us);
  m.emplace_back("graph.self_us", graph_us - plan_us);
  m.emplace_back("cluster.self_us", cluster_us - graph_us);
  m.emplace_back("ladder.eager_over_graph_measured",
                 (eager_us - plan_us) / (graph_us - plan_us));
  m.emplace_back("ladder.eager_over_graph_modeled",
                 eager_dispatch / graph_dispatch);
  m.emplace_back("stream.submit_us", p50(submit));
  m.emplace_back("stream.sync_wait_us", p50(sync));
  m.emplace_back("cluster.submit_us", p50(clus_submit));
  m.emplace_back("cluster.service_us", p50(service));

  {  // staging: stream_staging's multicore device, plan path
    StreamStaging::Inputs sin(in.seed);
    StreamStaging::State st(sin);
    std::vector<double> stage, merge;
    double staged = 0, skipped = 0, occupancy = 0;
    const unsigned launches = std::max(1u, n / 20);
    std::vector<std::uint32_t> res(StreamStaging::kMaxWords);
    for (unsigned i = 0; i < launches; ++i) {
      const auto& e = sin.pool[i % StreamStaging::kPool];
      const auto words = static_cast<unsigned>(e.in.size());
      st.dev.write_words(st.in[0].word_base(), e.in);
      const auto s = st.dev.launch_sync(st.scale, words,
                                        rt::KernelArgs()
                                            .arg(st.in[0])
                                            .arg(st.out[0])
                                            .scalar(e.mul)
                                            .scalar(e.add));
      st.dev.read_words(st.out[0].word_base(),
                        std::span<std::uint32_t>(res.data(), words));
      ++out.attempted;
      if (!std::equal(e.want.begin(), e.want.end(), res.begin())) {
        ++out.failed;
      }
      stage.push_back(s.host_stage_us);
      merge.push_back(s.host_merge_us);
      staged += static_cast<double>(s.staged_words);
      skipped += static_cast<double>(s.staged_words_skipped);
      occupancy += s.occupancy();
    }
    m.emplace_back("staging.stage_us", p50(stage));
    m.emplace_back("staging.merge_us", p50(merge));
    m.emplace_back("staging.skip_frac",
                   staged + skipped > 0 ? skipped / (staged + skipped) : 0.0);
    m.emplace_back("core.occupancy", occupancy / launches);
  }

  {  // fit: one flagship compile, phase by phase, then Fitter::compile
    const auto fabric = simt::fabric::Device::agfd019();
    const simt::fit::Fitter fitter(fabric);
    const auto cfg = simt::core::CoreConfig::table1_flagship();
    simt::fit::CompileOptions opt;
    opt.seed = in.seed;
    opt.moves_per_atom = FitSweep::kMoves;
    const auto t0 = Clock::now();
    const auto nl = simt::fabric::build_netlist(cfg, opt.netlist);
    const auto t1 = Clock::now();
    const simt::fit::Placer placer(fabric, nl, fitter.model());
    simt::fit::PlaceOptions popt;
    popt.seed = opt.seed;
    popt.moves_per_atom = opt.moves_per_atom;
    const auto placement = placer.place(popt);
    const auto t2 = Clock::now();
    const auto timing =
        simt::fit::analyze(fabric, nl, placement, fitter.model());
    const auto t3 = Clock::now();
    const auto again = fitter.compile(cfg, opt);
    ++out.attempted;
    if (again.timing.fmax_restricted_mhz != timing.fmax_restricted_mhz) {
      std::fprintf(stderr, "ladder: seed %llu compiled twice to %.3f and "
                           "%.3f MHz\n",
                   static_cast<unsigned long long>(opt.seed),
                   static_cast<double>(timing.fmax_restricted_mhz),
                   static_cast<double>(again.timing.fmax_restricted_mhz));
      ++out.failed;
    }
    m.emplace_back("fit.netlist_ms", us_between(t0, t1) / 1e3);
    m.emplace_back("fit.place_ms", us_between(t1, t2) / 1e3);
    m.emplace_back("fit.sta_ms", us_between(t2, t3) / 1e3);
    m.emplace_back("fit.fmax_soft_mhz", timing.fmax_soft_mhz);
    m.emplace_back("fit.atoms", static_cast<double>(nl.atoms().size()));
    const auto area = simt::area::estimate(cfg, simt::area::AreaOptions{});
    m.emplace_back("area.alms", area.in_box_alms);
    m.emplace_back("area.m20k", area.gpgpu.m20k);
    m.emplace_back("area.dsp", area.gpgpu.dsp);
  }
  return m;
}

}  // namespace e2e
