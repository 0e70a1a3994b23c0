// Tests for the DeviceCluster serving tier: admission control (reject /
// shed-oldest / block) and per-tenant round-robin fairness, with and without
// pause(); routing on the modeled load clock across mixed backends and
// independent of host timing; plan-cached replay correctness (bit-identical
// to a single-device launch_sync); hot-unplug fail-over; and sticky-fault
// quarantine.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/faults.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/module.hpp"

namespace simt::cluster {
namespace {

namespace rt = simt::runtime;

core::CoreConfig small_cfg(unsigned threads = 64, unsigned mem_words = 2048) {
  core::CoreConfig c;
  c.max_threads = threads;
  c.shared_mem_words = mem_words;
  c.predicates_enabled = true;
  return c;
}

/// The canonical serving plan: out[i] = 3 * in[i] + 5 over n words.
PlanSpec scale_plan(unsigned n) {
  PlanSpec spec;
  spec.name = "scale";
  spec.source = kernels::scale_abi();
  spec.kernel = "scale";
  spec.threads = n;
  spec.args = {PlanArg::input(n), PlanArg::output(n), PlanArg::immediate(3),
               PlanArg::immediate(5)};
  return spec;
}

std::vector<std::uint32_t> payload_for(unsigned n, std::uint32_t seed) {
  std::vector<std::uint32_t> p(n);
  for (unsigned i = 0; i < n; ++i) {
    p[i] = seed * 1000 + i;
  }
  return p;
}

std::vector<std::uint32_t> golden_scale(const std::vector<std::uint32_t>& in,
                                        std::uint32_t mul, std::uint32_t add) {
  std::vector<std::uint32_t> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = mul * in[i] + add;
  }
  return out;
}

// ---- construction and edge cases -------------------------------------------

TEST(Cluster, ZeroDevicesThrows) {
  std::vector<rt::DeviceDescriptor> none;
  EXPECT_THROW(DeviceCluster cluster(none), Error);
}

TEST(Cluster, UnknownPlanAndBadRequestsThrow) {
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())});
  cluster.register_plan(scale_plan(16));

  const auto payload = payload_for(16, 1);
  EXPECT_THROW(cluster.submit("t", "nope", payload), Error);
  // Payload size must match the plan's Input extent (frozen at capture).
  const std::vector<std::uint32_t> wrong(8, 0);
  EXPECT_THROW(cluster.submit("t", "scale", wrong), Error);
  // Scalar overrides must name a Scalar position.
  const std::vector<ScalarOverride> on_buffer = {{0, 7}};
  const std::vector<ScalarOverride> past_end = {{9, 7}};
  EXPECT_THROW(cluster.submit("t", "scale", payload, on_buffer), Error);
  EXPECT_THROW(cluster.submit("t", "scale", payload, past_end), Error);
}

TEST(Cluster, BadPlanSpecsThrow) {
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())});
  PlanSpec spec = scale_plan(16);
  spec.args[0] = PlanArg::immediate(0);  // no Input
  EXPECT_THROW(cluster.register_plan(spec), Error);
  spec = scale_plan(16);
  spec.threads = 0;
  EXPECT_THROW(cluster.register_plan(spec), Error);
  spec = scale_plan(16);
  spec.kernel = "nope";
  EXPECT_THROW(cluster.register_plan(spec), Error);
}

// ---- serving correctness ---------------------------------------------------

TEST(Cluster, ServesWithScalarOverrides) {
  constexpr unsigned kN = 16;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())});
  cluster.register_plan(scale_plan(kN));

  const auto payload = payload_for(kN, 1);
  auto a = cluster.submit("web", "scale", payload);
  const std::vector<ScalarOverride> mul10_add0 = {{2, 10}, {3, 0}};
  auto b = cluster.submit("web", "scale", payload, mul10_add0);
  cluster.drain();

  ASSERT_EQ(a.status(), RequestStatus::Ok);
  ASSERT_EQ(b.status(), RequestStatus::Ok);
  const auto got_a = a.result();
  const auto got_b = b.result();
  const auto want_a = golden_scale(payload, 3, 5);
  const auto want_b = golden_scale(payload, 10, 0);
  EXPECT_TRUE(std::equal(got_a.begin(), got_a.end(), want_a.begin()));
  EXPECT_TRUE(std::equal(got_b.begin(), got_b.end(), want_b.begin()));
  EXPECT_EQ(a.device(), 0);
  EXPECT_GT(a.latency_us(), 0.0);

  const auto stats = cluster.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(Cluster, ThreeBackendDifferential) {
  constexpr unsigned kN = 32;
  baseline::ScalarCpuConfig scfg;
  scfg.shared_mem_words = 2048;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg()),
                         rt::DeviceDescriptor::multi_core(2, small_cfg()),
                         rt::DeviceDescriptor::scalar_cpu(scfg)});
  cluster.register_plan(scale_plan(kN));

  // Queue the whole burst with the workers held so routing sees real
  // backlog (load-clock spreading is what this test exercises).
  constexpr unsigned kRequests = 24;
  const char* tenants[] = {"dsp", "web", "ml"};
  cluster.pause();
  std::vector<ClusterTicket> tickets;
  for (unsigned r = 0; r < kRequests; ++r) {
    tickets.push_back(
        cluster.submit(tenants[r % 3], "scale", payload_for(kN, r)));
  }
  cluster.resume();
  cluster.drain();

  // Golden: the same kernel on a plain single device via launch_sync.
  rt::Device ref(rt::DeviceDescriptor::simt_core(small_cfg()));
  auto rin = ref.alloc<std::uint32_t>(kN);
  auto rout = ref.alloc<std::uint32_t>(kN);
  const auto scale = ref.load_module(kernels::scale_abi()).kernel("scale");

  // Every backend's answer is bit-identical to the single-device launch.
  std::vector<bool> device_hit(cluster.device_count(), false);
  for (unsigned r = 0; r < kRequests; ++r) {
    rin.write(payload_for(kN, r));
    ref.launch_sync(scale, kN,
                    rt::KernelArgs().arg(rin).arg(rout).scalar(3).scalar(5));
    const auto golden = rout.read();
    ASSERT_EQ(tickets[r].status(), RequestStatus::Ok) << "request " << r;
    const auto got = tickets[r].result();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), golden.begin()))
        << "request " << r << " on device " << tickets[r].device();
    device_hit[static_cast<std::size_t>(tickets[r].device())] = true;
  }
  // The load balancer actually spread the burst: both SIMT-class devices
  // served some of it (the scalar soft CPU bids orders of magnitude higher
  // and may legitimately sit the burst out).
  EXPECT_TRUE(device_hit[0]);
  EXPECT_TRUE(device_hit[1]);
}

TEST(Cluster, RoutingIgnoresHostTiming) {
  // Two 2-device clusters that differ only in host timing: device 0 of the
  // second stalls 2 ms in every launch. Routing runs on the modeled load
  // clock, so both clusters split the same traffic the same way.
  constexpr unsigned kN = 16;
  const auto serve = [&](bool stall_dev0) {
    auto dev0 = rt::DeviceDescriptor::simt_core(small_cfg());
    if (stall_dev0) {
      dev0.faults = faults::FaultInjector::from_spec("launch:stall=2ms", 1);
    }
    DeviceCluster cluster(
        {std::move(dev0), rt::DeviceDescriptor::simt_core(small_cfg())});
    cluster.register_plan(scale_plan(kN));
    for (unsigned r = 0; r < 24; ++r) {
      cluster.submit("t", "scale", payload_for(kN, r));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    cluster.drain();
    return cluster.stats();
  };
  const auto plain = serve(false);
  const auto stalled = serve(true);
  EXPECT_EQ(plain.completed, 24u);
  EXPECT_EQ(stalled.completed, 24u);
  EXPECT_EQ(plain.per_device_completed, stalled.per_device_completed);
  EXPECT_EQ(plain.per_device_busy_us, stalled.per_device_busy_us);
}

// ---- fairness ---------------------------------------------------------------

TEST(Cluster, RoundRobinFairnessUnderHotTenant) {
  constexpr unsigned kN = 16;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())});
  cluster.register_plan(scale_plan(kN));
  const auto payload = payload_for(kN, 1);

  // Build the backlog with the workers held so admission order is
  // deterministic: 8 hot requests, then 2 cold ones.
  cluster.pause();
  std::vector<ClusterTicket> hot, cold;
  for (int i = 0; i < 8; ++i) {
    hot.push_back(cluster.submit("hot", "scale", payload));
  }
  for (int i = 0; i < 2; ++i) {
    cold.push_back(cluster.submit("cold", "scale", payload));
  }
  cluster.resume();
  cluster.drain();

  // Round-robin dispatch interleaves the tenants (h c h c h h ...), so the
  // cold tenant's requests complete 2nd and 4th instead of 9th and 10th.
  for (auto& t : cold) {
    ASSERT_EQ(t.status(), RequestStatus::Ok);
  }
  EXPECT_EQ(cold[0].completion_seq(), 2u);
  EXPECT_EQ(cold[1].completion_seq(), 4u);
}

TEST(Cluster, ColdTenantOvertakesAnUnpausedHotBacklog) {
  // No pause(): a 1 ms stall in every launch keeps the hot backlog waiting
  // in the admission queue, where the tenant ring must let a late cold
  // request overtake it.
  constexpr unsigned kN = 16;
  ClusterConfig cfg;
  cfg.fault_spec = "launch:stall=1ms";
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(kN));
  const auto payload = payload_for(kN, 1);

  std::vector<ClusterTicket> hot;
  for (int i = 0; i < 32; ++i) {
    hot.push_back(cluster.submit("hot", "scale", payload));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  std::vector<const ClusterTicket*> pending;
  for (const auto& t : hot) {
    if (!t.done()) {
      pending.push_back(&t);
    }
  }
  auto cold = cluster.submit("cold", "scale", payload);
  cluster.drain();

  ASSERT_GT(pending.size(), 8u) << "the hot backlog drained too early";
  ASSERT_EQ(cold.status(), RequestStatus::Ok);
  const auto ahead = std::count_if(
      pending.begin(), pending.end(), [&](const ClusterTicket* t) {
        return t->completion_seq() < cold.completion_seq();
      });
  // The hot request in flight, plus at most one more before the ring turns
  // to the cold tenant; one of slack for a submit racing that snapshot.
  EXPECT_LE(ahead, 3);
}

// ---- overload policies ------------------------------------------------------

TEST(Cluster, RejectPolicyBoundsTheQueue) {
  constexpr unsigned kN = 16;
  ClusterConfig cfg;
  cfg.queue_capacity = 2;
  cfg.policy = OverloadPolicy::Reject;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(kN));
  const auto payload = payload_for(kN, 1);

  cluster.pause();
  std::vector<ClusterTicket> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(cluster.submit("t", "scale", payload));
  }
  // The bound held: 2 queued, 3 rejected immediately (no hang, no device).
  EXPECT_EQ(tickets[2].status(), RequestStatus::Rejected);
  EXPECT_EQ(tickets[3].status(), RequestStatus::Rejected);
  EXPECT_EQ(tickets[4].status(), RequestStatus::Rejected);
  cluster.resume();
  cluster.drain();

  EXPECT_EQ(tickets[0].status(), RequestStatus::Ok);
  EXPECT_EQ(tickets[1].status(), RequestStatus::Ok);
  const auto stats = cluster.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(Cluster, RejectPolicyBoundsAnUnpausedBacklog) {
  // No pause(): a 20 ms stall in every launch holds the lone worker inside
  // its first replay while 16 submits arrive 0.5 ms apart. The backlog can
  // only wait in the admission queue, so the capacity bound must hold there.
  constexpr unsigned kN = 16;
  ClusterConfig cfg;
  cfg.queue_capacity = 4;
  cfg.policy = OverloadPolicy::Reject;
  cfg.fault_spec = "launch:stall=20ms";
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(kN));
  const auto payload = payload_for(kN, 1);

  for (int i = 0; i < 16; ++i) {
    cluster.submit("t", "scale", payload);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  cluster.drain();

  // One request in flight plus four queued, and one of slack for the
  // worker taking a second request before the burst ends.
  const auto stats = cluster.stats();
  EXPECT_LE(stats.accepted, 6u);
  EXPECT_EQ(stats.accepted + stats.rejected, 16u);
  EXPECT_EQ(stats.completed, stats.accepted);
}

TEST(Cluster, ShedOldestEvictsTheOldest) {
  constexpr unsigned kN = 16;
  ClusterConfig cfg;
  cfg.queue_capacity = 2;
  cfg.policy = OverloadPolicy::ShedOldest;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(kN));
  const auto payload = payload_for(kN, 1);

  cluster.pause();
  std::vector<ClusterTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(cluster.submit("t", "scale", payload));
  }
  // Requests 0 and 1 were evicted (oldest first) to admit 2 and 3.
  EXPECT_EQ(tickets[0].status(), RequestStatus::Shed);
  EXPECT_EQ(tickets[1].status(), RequestStatus::Shed);
  cluster.resume();
  cluster.drain();

  EXPECT_EQ(tickets[2].status(), RequestStatus::Ok);
  EXPECT_EQ(tickets[3].status(), RequestStatus::Ok);
  EXPECT_THROW(tickets[0].result(), Error);
  const auto stats = cluster.stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(Cluster, BlockPolicyNeverDropsWork) {
  constexpr unsigned kN = 16;
  ClusterConfig cfg;
  cfg.queue_capacity = 1;
  cfg.policy = OverloadPolicy::Block;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(kN));

  std::vector<ClusterTicket> tickets;
  for (unsigned i = 0; i < 6; ++i) {
    tickets.push_back(cluster.submit("t", "scale", payload_for(kN, i)));
  }
  cluster.drain();
  for (unsigned i = 0; i < 6; ++i) {
    ASSERT_EQ(tickets[i].status(), RequestStatus::Ok) << "request " << i;
  }
  const auto stats = cluster.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.completed, 6u);
}

// ---- hot-unplug and quarantine ----------------------------------------------

TEST(Cluster, HotUnplugLosesNoAcceptedRequests) {
  constexpr unsigned kN = 16;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg()),
                         rt::DeviceDescriptor::simt_core(small_cfg())});
  cluster.register_plan(scale_plan(kN));

  constexpr unsigned kRequests = 32;
  std::vector<ClusterTicket> tickets;
  std::vector<std::vector<std::uint32_t>> goldens;
  for (unsigned r = 0; r < kRequests; ++r) {
    const auto payload = payload_for(kN, r);
    goldens.push_back(golden_scale(payload, 3, 5));
    tickets.push_back(cluster.submit("t", "scale", payload));
    if (r == kRequests / 2) {
      cluster.unplug(0);  // mid-run: in-flight drains, device 1 takes the rest
    }
  }
  cluster.drain();

  EXPECT_FALSE(cluster.alive(0));
  EXPECT_EQ(cluster.alive_count(), 1u);
  for (unsigned r = 0; r < kRequests; ++r) {
    ASSERT_EQ(tickets[r].status(), RequestStatus::Ok) << "request " << r;
    const auto got = tickets[r].result();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), goldens[r].begin()))
        << "request " << r;
  }
  // Requests submitted after the unplug all landed on the survivor.
  for (unsigned r = kRequests / 2 + 1; r < kRequests; ++r) {
    EXPECT_EQ(tickets[r].device(), 1) << "request " << r;
  }
}

TEST(Cluster, AllDevicesUnpluggedRejects) {
  constexpr unsigned kN = 16;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg()),
                         rt::DeviceDescriptor::simt_core(small_cfg())});
  cluster.register_plan(scale_plan(kN));
  cluster.unplug(0);
  cluster.unplug(1);
  EXPECT_EQ(cluster.alive_count(), 0u);

  auto t = cluster.submit("t", "scale", payload_for(kN, 1));
  EXPECT_EQ(t.status(), RequestStatus::Rejected);
  EXPECT_THROW(t.result(), Error);
  EXPECT_EQ(cluster.stats().rejected, 1u);
}

TEST(Cluster, LastUnplugFailsQueuedWork) {
  constexpr unsigned kN = 16;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())});
  cluster.register_plan(scale_plan(kN));

  cluster.pause();
  std::vector<ClusterTicket> tickets;
  for (unsigned i = 0; i < 3; ++i) {
    tickets.push_back(cluster.submit("t", "scale", payload_for(kN, i)));
  }
  cluster.unplug(0);
  cluster.resume();
  cluster.drain();

  // Queued work with no device left to serve it resolves Failed; nothing
  // hangs.
  for (const auto& t : tickets) {
    ASSERT_EQ(t.status(), RequestStatus::Failed);
    try {
      t.result();
      FAIL() << "result() on a failed ticket must throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("no alive devices"),
                std::string::npos);
    }
  }
  EXPECT_EQ(cluster.stats().failed, 3u);
}

TEST(Cluster, StickyFaultQuarantinesAndSurvivorServes) {
  constexpr unsigned kN = 16;
  ClusterConfig cfg;
  cfg.max_retries = 0;  // fault resolves the request, quarantines once
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg()),
                         rt::DeviceDescriptor::simt_core(small_cfg())},
                        cfg);

  // A copy plan whose `addr` scalar is also a store target. The default
  // (word 16, inside the plan's own output buffer -- the bump allocator
  // places in at [0,16) and out at [16,32)) is harmless; an out-of-range
  // override faults the serving device. out[0] is clobbered by the poke,
  // so content checks start at word 1.
  PlanSpec poke;
  poke.name = "poke";
  poke.kernel = "poke";
  poke.threads = kN;
  poke.source =
      ".kernel poke\n"
      ".param in buffer\n"
      ".param out buffer\n"
      ".param addr scalar\n"
      "movsr %r0, %tid\n"
      "lds %r2, [%r0 + $in]\n"
      "sts [%r0 + $out], %r2\n"
      "movi %r3, $addr\n"
      "sts [%r3], %r2\n"
      "exit\n";
  poke.args = {PlanArg::input(kN), PlanArg::output(kN),
               PlanArg::immediate(kN)};
  cluster.register_plan(poke);

  const auto payload = payload_for(kN, 1);
  const std::vector<ScalarOverride> oob = {{2, 9999}};
  auto bad = cluster.submit("t", "poke", payload, oob);
  bad.wait();
  EXPECT_EQ(bad.status(), RequestStatus::Failed);
  EXPECT_THROW(bad.result(), Error);

  // One device is quarantined; the survivor keeps serving good requests.
  EXPECT_EQ(cluster.alive_count(), 1u);
  EXPECT_EQ(cluster.stats().quarantined, 1u);
  auto good = cluster.submit("t", "poke", payload);
  good.wait();
  ASSERT_EQ(good.status(), RequestStatus::Ok);
  const auto got = good.result();
  EXPECT_TRUE(std::equal(got.begin() + 1, got.end(), payload.begin() + 1));
}

}  // namespace
}  // namespace simt::cluster
