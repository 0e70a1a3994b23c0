// Cluster serving: a multi-tenant front-end over three devices -- two SIMT
// cores and one scalar-CPU baseline -- with a device hot-unplugged mid-run.
//
// Each tenant registers one replayable plan (the PlanCache captures and
// instantiates a GraphExec per device up front), then fires requests at the
// cluster. The admission queue bounds memory, each device's worker takes
// the next request when its device has the least modeled load, and when
// device 0 is unplugged the survivors take the queued requests -- nothing
// accepted is ever lost.
//
// Build & run:  ./example_cluster_serving
#include <cstdio>
#include <vector>

#include "cluster/cluster.hpp"
#include "kernels/kernels.hpp"
#include "runtime/device.hpp"

int main() {
  using namespace simt;

  core::CoreConfig cfg;
  cfg.max_threads = 64;
  cfg.shared_mem_words = 2048;
  baseline::ScalarCpuConfig scfg;
  scfg.shared_mem_words = 2048;

  cluster::ClusterConfig ccfg;
  ccfg.queue_capacity = 32;
  ccfg.policy = cluster::OverloadPolicy::Block;  // backpressure, never drop
  cluster::DeviceCluster cluster(
      {
          runtime::DeviceDescriptor::simt_core(cfg),
          runtime::DeviceDescriptor::simt_core(cfg),
          runtime::DeviceDescriptor::scalar_cpu(scfg),
      },
      ccfg);

  // Tenant "web": y[i] = mul*x[i] + add, the scalars rebindable per request.
  constexpr unsigned kN = 64;
  cluster::PlanSpec scale;
  scale.name = "scale";
  scale.source = kernels::scale_abi();
  scale.kernel = "scale";
  scale.threads = kN;
  scale.args = {cluster::PlanArg::input(kN), cluster::PlanArg::output(kN),
                cluster::PlanArg::immediate(2), cluster::PlanArg::immediate(0)};
  cluster.register_plan(scale);

  // Tenant "ml": 4-to-1 tree reduction.
  cluster::PlanSpec reduce;
  reduce.name = "reduce";
  reduce.source = kernels::reduce_abi(4);
  reduce.kernel = "reduce";
  reduce.threads = kN / 4;
  reduce.args = {cluster::PlanArg::input(kN),
                 cluster::PlanArg::output(kN / 4)};
  cluster.register_plan(reduce);

  // Two tenants interleave requests; device 0 is pulled a third of the way
  // through. Per-request scalar overrides ride the rebind+replay hot path.
  constexpr unsigned kRequests = 24;
  std::vector<cluster::ClusterTicket> tickets;
  for (unsigned r = 0; r < kRequests; ++r) {
    std::vector<std::uint32_t> payload(kN);
    for (unsigned i = 0; i < kN; ++i) {
      payload[i] = r + i;
    }
    if (r % 2 == 0) {
      tickets.push_back(cluster.submit("web", "scale", payload,
                                       {{2, r + 1}}));  // mul = r+1
    } else {
      tickets.push_back(cluster.submit("ml", "reduce", payload));
    }
    if (r == kRequests / 3) {
      std::printf("-- unplugging device 0 (the survivors take its traffic) --\n");
      cluster.unplug(0);
    }
  }
  cluster.drain();

  unsigned ok = 0;
  for (unsigned r = 0; r < kRequests; ++r) {
    auto& t = tickets[r];
    if (t.status() != cluster::RequestStatus::Ok) {
      std::printf("request %2u: %s\n", r, cluster::to_string(t.status()));
      continue;
    }
    ++ok;
    if (r < 4) {  // show a few
      std::printf("request %2u: dev %d, %6.1f us, out[0] = %u\n", r,
                  t.device(), t.latency_us(), t.result()[0]);
    }
  }

  const auto stats = cluster.stats();
  std::printf("\n%u/%u Ok; completed per device:", ok, kRequests);
  for (std::size_t i = 0; i < stats.per_device_completed.size(); ++i) {
    std::printf(" dev%zu=%llu", i,
                static_cast<unsigned long long>(stats.per_device_completed[i]));
  }
  std::printf("\n");
  return ok == kRequests ? 0 : 1;
}
