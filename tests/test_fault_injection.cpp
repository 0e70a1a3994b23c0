// Deterministic fault injection (common/faults.hpp) and the recovery
// machinery it exercises: seeded reproducibility of the fault trace, every
// injection site firing and being survived, corruption caught by the
// three-backend differential and by the serving tier's verify hook, the
// watchdog failing a stalled replay with a named DeadlineExceeded error,
// the Quarantined -> Probation -> Healthy canary round-trip, and the Block
// overload policy waking a blocked submit on its deadline.
#include <gtest/gtest.h>

#include <bit>
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
#include "runtime/graph.hpp"
#include "runtime/module.hpp"
#include "runtime/stream.hpp"

namespace simt {
namespace {

namespace rt = simt::runtime;
using faults::FaultInjector;
using faults::FaultPlan;
using faults::FaultSite;

core::CoreConfig small_cfg(unsigned threads = 64, unsigned mem_words = 2048) {
  core::CoreConfig c;
  c.max_threads = threads;
  c.shared_mem_words = mem_words;
  c.predicates_enabled = true;
  return c;
}

// ---- spec grammar -----------------------------------------------------------

TEST(FaultSpec, ParsesTheFullGrammar) {
  const auto plan = FaultPlan::parse(
      "copy_in:transient:p=0.01; launch:sticky:after=200 ;"
      "dma:stall=50us;replay:corrupt:limit=3;staging:stall=2ms");
  // dma expands to copy_in + copy_out, so 6 rules total.
  ASSERT_EQ(plan.rules.size(), 6u);
  EXPECT_EQ(plan.rules[0].site, FaultSite::CopyIn);
  EXPECT_DOUBLE_EQ(plan.rules[0].p, 0.01);
  EXPECT_EQ(plan.rules[1].site, FaultSite::Launch);
  EXPECT_EQ(plan.rules[1].kind, faults::FaultKind::Sticky);
  EXPECT_EQ(plan.rules[1].after, 200u);
  EXPECT_EQ(plan.rules[2].stall_us, 50u);
  EXPECT_EQ(plan.rules[3].stall_us, 50u);
  EXPECT_EQ(plan.rules[4].limit, 3u);
  EXPECT_EQ(plan.rules[5].stall_us, 2000u);
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(" ; ; ").empty());
  EXPECT_EQ(FaultInjector::from_spec("", 1), nullptr);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("bogus:transient"), Error);
  EXPECT_THROW(FaultPlan::parse("copy_in"), Error);
  EXPECT_THROW(FaultPlan::parse("copy_in:explode"), Error);
  EXPECT_THROW(FaultPlan::parse("copy_in:transient:p=1.5"), Error);
  EXPECT_THROW(FaultPlan::parse("copy_in:transient:p=x"), Error);
  EXPECT_THROW(FaultPlan::parse("launch:transient:after=ten"), Error);
  EXPECT_THROW(FaultPlan::parse("launch:stall=50s"), Error);
  EXPECT_THROW(FaultPlan::parse("launch:transient:frobnicate=1"), Error);
}

// ---- seeded determinism -----------------------------------------------------

/// Drive one injector through a fixed trigger sequence, swallowing thrown
/// faults, and return its trace.
std::string drive(FaultInjector& inj, unsigned rounds) {
  std::vector<std::uint32_t> payload(8, 0xffffffffu);
  for (unsigned i = 0; i < rounds; ++i) {
    for (const FaultSite s :
         {FaultSite::CopyIn, FaultSite::Launch, FaultSite::CopyOut,
          FaultSite::Replay, FaultSite::Staging}) {
      try {
        inj.at(s, payload);
      } catch (const Error&) {
      }
    }
  }
  return inj.trace_string();
}

TEST(FaultDeterminism, SameSpecAndSeedSameTrace) {
  const char* spec =
      "copy_in:transient:p=0.3;launch:corrupt:p=0.4;copy_out:transient:p=0.2;"
      "replay:sticky:after=20:limit=5";
  auto a = FaultInjector::from_spec(spec, 1234);
  auto b = FaultInjector::from_spec(spec, 1234);
  const std::string trace = drive(*a, 64);
  EXPECT_FALSE(trace.empty());
  EXPECT_EQ(trace, drive(*b, 64));

  // A different seed draws a different storm from the same plan.
  auto c = FaultInjector::from_spec(spec, 4321);
  EXPECT_NE(trace, drive(*c, 64));
}

TEST(FaultDeterminism, DisarmedTriggersConsumeNoIndices) {
  const char* spec = "launch:transient:p=0.5";
  auto a = FaultInjector::from_spec(spec, 99);
  auto b = FaultInjector::from_spec(spec, 99);

  // b runs a disarmed warmup burst first (plan registration, canary
  // replays); the armed-phase sequence must be unaffected.
  b->disarm();
  for (int i = 0; i < 37; ++i) {
    b->at(FaultSite::Launch);
  }
  EXPECT_EQ(b->triggers(FaultSite::Launch), 0u);
  b->arm();
  EXPECT_EQ(drive(*a, 32), drive(*b, 32));
}

// ---- every site fires and is survived ---------------------------------------

rt::DeviceDescriptor with_faults(rt::DeviceDescriptor desc,
                                 const std::string& spec) {
  desc.faults = FaultInjector::from_spec(spec, 7);
  return desc;
}

TEST(FaultSites, EagerCopyAndLaunchSitesFireAndAreSurvived) {
  for (const char* spec : {"copy_in:transient:limit=1",
                           "copy_out:transient:limit=1",
                           "launch:transient:limit=1"}) {
    rt::Device dev(
        with_faults(rt::DeviceDescriptor::simt_core(small_cfg()), spec));
    const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
    auto in = dev.alloc<std::uint32_t>(8);
    auto out = dev.alloc<std::uint32_t>(8);
    const std::vector<std::uint32_t> payload{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<std::uint32_t> result(8, 0);

    const auto run = [&] {
      dev.stream().copy_in(in, std::span<const std::uint32_t>(payload));
      dev.stream().launch(scale, 8,
                          rt::KernelArgs().arg(in).arg(out).scalar(3).scalar(5));
      dev.stream().copy_out(out, std::span<std::uint32_t>(result));
      dev.stream().synchronize();
    };
    // First pass trips the injected transient...
    EXPECT_THROW(run(), faults::TransientFault) << spec;
    EXPECT_EQ(dev.fault_injector()->fired(), 1u) << spec;
    // ...and the device survives: the same pipeline now runs clean
    // (limit=1 healed the rule) and produces the right answer.
    EXPECT_NO_THROW(run()) << spec;
    for (std::size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(result[i], payload[i] * 3 + 5) << spec;
    }
  }
}

TEST(FaultSites, ReplaySiteFailsTheCompositeAndHeals) {
  rt::Device dev(with_faults(rt::DeviceDescriptor::simt_core(small_cfg()),
                             "replay:transient:limit=1"));
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto in = dev.alloc<std::uint32_t>(8);
  auto out = dev.alloc<std::uint32_t>(8);
  const std::vector<std::uint32_t> payload{9, 8, 7, 6, 5, 4, 3, 2};
  std::vector<std::uint32_t> result(8, 0);

  rt::Graph graph;
  dev.stream().begin_capture(graph);
  dev.stream().copy_in(in, std::span<const std::uint32_t>(payload));
  dev.stream().launch(scale, 8,
                      rt::KernelArgs().arg(in).arg(out).scalar(2).scalar(1));
  dev.stream().copy_out(out, std::span<std::uint32_t>(result));
  dev.stream().end_capture();
  auto exec = graph.instantiate();

  rt::Event first = exec.launch(dev.stream());
  EXPECT_THROW(first.wait(), faults::TransientFault);
  dev.stream().clear_error();  // recovery: drop the parked stream error

  rt::Event second = exec.launch(dev.stream());
  EXPECT_NO_THROW(second.wait());
  dev.stream().synchronize();
  for (std::size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i], payload[i] * 2 + 1);
  }
}

TEST(FaultSites, StagingSiteFiresOnMultiCoreAndIsSurvived) {
  // The site fires on the first core's copy, before the round runs, and
  // the retry (no host rewrite in between) restages every core's whole
  // image from the master: the faulted launch left images that no longer
  // match their shard maps.
  constexpr unsigned kN = 128;
  rt::Device dev(with_faults(rt::DeviceDescriptor::multi_core(2, small_cfg()),
                             "staging:transient:limit=1"));
  auto in = dev.alloc<std::uint32_t>(kN);
  auto out = dev.alloc<std::uint32_t>(kN);
  std::vector<std::uint32_t> host(kN);
  for (unsigned i = 0; i < kN; ++i) {
    host[i] = 0x100 + 3 * i;
  }
  in.write(host);
  rt::Module& mod = dev.load_module(
      "movsr %r0, %tid\n"
      "lds %r1, [%r0 + " + std::to_string(in.word_base()) + "]\n"
      "addi %r2, %r1, 1\n"
      "sts [%r0 + " + std::to_string(out.word_base()) + "], %r2\n"
      "exit\n");

  EXPECT_THROW(dev.launch_sync(mod.kernel(), kN), faults::TransientFault);
  EXPECT_EQ(dev.fault_injector()->triggers(FaultSite::Staging), 1u);
  const auto stats = dev.launch_sync(mod.kernel(), kN);
  ASSERT_EQ(stats.per_core.size(), 2u);
  for (const auto& core : stats.per_core) {
    EXPECT_EQ(core.staged_words, dev.mem_words()) << "core " << core.core;
  }
  for (unsigned i = 0; i < kN; ++i) {
    ASSERT_EQ(out.at(i), host[i] + 1) << "word " << i;
  }
}

// ---- corruption is caught by the three-backend differential -----------------

TEST(FaultCorruption, DifferentialCatchesTheFlippedBit) {
  constexpr unsigned kN = 16;
  const std::vector<std::uint32_t> payload = [] {
    std::vector<std::uint32_t> p(kN);
    for (unsigned i = 0; i < kN; ++i) {
      p[i] = 0x100 + i;
    }
    return p;
  }();

  const auto run = [&](rt::DeviceDescriptor desc) {
    rt::Device dev(std::move(desc));
    const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
    auto in = dev.alloc<std::uint32_t>(kN);
    auto out = dev.alloc<std::uint32_t>(kN);
    std::vector<std::uint32_t> result(kN, 0);
    dev.stream().copy_in(in, std::span<const std::uint32_t>(payload));
    dev.stream().launch(scale, kN,
                        rt::KernelArgs().arg(in).arg(out).scalar(3).scalar(5));
    dev.stream().copy_out(out, std::span<std::uint32_t>(result));
    dev.stream().synchronize();
    return result;
  };

  baseline::ScalarCpuConfig scfg;
  scfg.shared_mem_words = 2048;
  const auto clean_core = run(rt::DeviceDescriptor::simt_core(small_cfg()));
  const auto clean_scalar = run(rt::DeviceDescriptor::scalar_cpu(scfg));
  const auto bent = run(with_faults(
      rt::DeviceDescriptor::multi_core(2, small_cfg()), "copy_out:corrupt"));

  // The two clean backends agree bit-exact -- the differential's baseline.
  EXPECT_EQ(clean_core, clean_scalar);
  // The corrupted run differs from it by EXACTLY one flipped bit.
  ASSERT_EQ(bent.size(), clean_core.size());
  unsigned flipped = 0;
  for (unsigned i = 0; i < kN; ++i) {
    flipped += static_cast<unsigned>(
        std::popcount(bent[i] ^ clean_core[i]));
  }
  EXPECT_EQ(flipped, 1u);
}

// ---- serving tier -----------------------------------------------------------

cluster::PlanSpec scale_plan(unsigned n, bool with_verify = false) {
  cluster::PlanSpec spec;
  spec.name = "scale";
  spec.source = kernels::scale_abi();
  spec.kernel = "scale";
  spec.threads = n;
  spec.args = {cluster::PlanArg::input(n), cluster::PlanArg::output(n),
               cluster::PlanArg::immediate(3), cluster::PlanArg::immediate(5)};
  if (with_verify) {
    spec.verify = [](std::span<const std::uint32_t> payload,
                     const std::vector<cluster::ScalarOverride>&,
                     std::span<const std::uint32_t> output) {
      for (std::size_t i = 0; i < payload.size(); ++i) {
        if (output[i] != payload[i] * 3 + 5) {
          return false;
        }
      }
      return true;
    };
  }
  return spec;
}

std::vector<std::uint32_t> payload_for(unsigned n, std::uint32_t seed) {
  std::vector<std::uint32_t> p(n);
  for (unsigned i = 0; i < n; ++i) {
    p[i] = seed * 1000 + i;
  }
  return p;
}

TEST(ClusterFaults, VerifyHookCatchesCorruptionAndRetries) {
  cluster::ClusterConfig cfg;
  cfg.fault_spec = "copy_out:corrupt:limit=1";  // first response only
  cfg.max_retries = 3;
  cluster::DeviceCluster cluster(
      {rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(16, /*with_verify=*/true));

  const auto payload = payload_for(16, 1);
  auto ticket = cluster.submit("t", "scale", payload);
  ticket.wait();
  ASSERT_EQ(ticket.status(), cluster::RequestStatus::Ok);
  EXPECT_EQ(ticket.retries(), 1u);  // corrupt once, clean on retry
  const auto result = ticket.result();
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(result[i], payload[i] * 3 + 5);
  }
  const auto stats = cluster.stats();
  EXPECT_EQ(stats.corruption_detected, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ClusterFaults, WatchdogFailsAStalledReplay) {
  cluster::ClusterConfig cfg;
  // Every launch stalls 100ms; the request deadline is 5ms: only the
  // watchdog can resolve the ticket (the replay is hung in the worker's
  // join).
  cfg.fault_spec = "launch:stall=100ms";
  cfg.default_deadline_us = 5000;
  cfg.max_retries = 0;
  cluster::DeviceCluster cluster(
      {rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(16));

  const auto payload = payload_for(16, 2);
  const auto t0 = std::chrono::steady_clock::now();
  auto ticket = cluster.submit("t", "scale", payload);
  // wait_for bounds the host-side wait; the watchdog must have resolved
  // the ticket long before the 100ms stall finishes.
  ASSERT_TRUE(ticket.wait_for(std::chrono::microseconds(60000)));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::milliseconds(95));
  EXPECT_EQ(ticket.status(), cluster::RequestStatus::Failed);
  try {
    ticket.result();
    FAIL() << "result() on a deadline-failed ticket must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("DeadlineExceeded"),
              std::string::npos)
        << e.what();
  }
  EXPECT_GE(cluster.stats().deadline_failures, 1u);
}

TEST(ClusterFaults, ProbationCanaryRoundTripReadmitsTheDevice) {
  std::vector<rt::DeviceDescriptor> descs = {
      rt::DeviceDescriptor::simt_core(small_cfg()),
      rt::DeviceDescriptor::simt_core(small_cfg())};
  // Device 0 throws sticky faults on its first two armed launches, then
  // heals -- modeling a reconfiguration blip. Device 1 is clean.
  descs[0].faults =
      FaultInjector::from_spec("launch:sticky:limit=2", /*seed=*/5);
  cluster::ClusterConfig cfg;
  cfg.max_retries = 3;
  cfg.probation_delay_us = 2000;
  cluster::DeviceCluster cluster(std::move(descs), cfg);
  cluster.register_plan(scale_plan(16));

  // Ties route to device 0 first: its launch throws StickyFault, it is
  // quarantined immediately (hard fault), and the request fails over.
  const auto payload = payload_for(16, 3);
  auto ticket = cluster.submit("t", "scale", payload);
  ticket.wait();
  ASSERT_EQ(ticket.status(), cluster::RequestStatus::Ok);
  EXPECT_EQ(ticket.device(), 1);
  EXPECT_EQ(cluster.health(0), cluster::DeviceHealth::Quarantined);

  // Probation round-trip: the first canary probe still trips the sticky
  // rule (fire #2) and re-quarantines; the second probe runs clean,
  // matches the golden, and re-admits the device.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.health(0) != cluster::DeviceHealth::Healthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(cluster.health(0), cluster::DeviceHealth::Healthy);
  const auto stats = cluster.stats();
  EXPECT_GE(stats.probations, 2u);
  EXPECT_EQ(stats.readmitted, 1u);
  EXPECT_GE(stats.quarantined, 2u);

  // The re-admitted device serves again.
  for (int i = 0; i < 8; ++i) {
    auto t = cluster.submit("t", "scale", payload_for(16, 10 + i));
    t.wait();
    ASSERT_EQ(t.status(), cluster::RequestStatus::Ok) << i;
  }
  EXPECT_GT(cluster.stats().per_device_completed[0], 0u);
}

TEST(ClusterFaults, BlockedSubmitWakesOnDeadlineExpiry) {
  cluster::ClusterConfig cfg;
  cfg.queue_capacity = 1;
  cfg.policy = cluster::OverloadPolicy::Block;
  cluster::DeviceCluster cluster(
      {rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(16));
  cluster.pause();  // hold the worker so the queue stays full

  const auto payload = payload_for(16, 4);
  auto queued = cluster.submit("t", "scale", payload);

  // The queue is full and the worker is held: this submit blocks, and
  // its 10ms deadline -- not new space -- must wake it.
  cluster::SubmitOptions opts;
  opts.deadline_us = 10000;
  const auto t0 = std::chrono::steady_clock::now();
  auto blocked = cluster.submit("t", "scale", payload, {}, opts);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, std::chrono::milliseconds(9));
  EXPECT_TRUE(blocked.done());
  EXPECT_EQ(blocked.status(), cluster::RequestStatus::Failed);
  try {
    blocked.result();
    FAIL() << "result() on a deadline-failed ticket must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("DeadlineExceeded"),
              std::string::npos);
  }
  EXPECT_EQ(cluster.stats().deadline_failures, 1u);

  // The queued request was untouched by the neighbor's deadline.
  cluster.resume();
  queued.wait();
  EXPECT_EQ(queued.status(), cluster::RequestStatus::Ok);
  cluster.drain();
}

TEST(ClusterFaults, RetryBackoffIsDeterministicAndRecovers) {
  cluster::ClusterConfig cfg;
  cfg.fault_spec = "launch:transient:limit=2";  // two armed launches fault
  cfg.fault_seed = 77;
  cfg.max_retries = 4;
  cfg.retry_backoff_us = 500;
  cfg.retry_backoff_cap_us = 2000;
  cfg.quarantine_after = 10;  // stay Degraded through the storm
  cluster::DeviceCluster cluster(
      {rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(16));

  const auto payload = payload_for(16, 5);
  auto ticket = cluster.submit("t", "scale", payload);
  ticket.wait();
  ASSERT_EQ(ticket.status(), cluster::RequestStatus::Ok);
  EXPECT_EQ(ticket.retries(), 2u);
  const auto stats = cluster.stats();
  EXPECT_EQ(stats.retried, 2u);
  EXPECT_EQ(stats.failed, 0u);
  // Two transients then a success: the device degraded and healed.
  EXPECT_EQ(cluster.health(0), cluster::DeviceHealth::Healthy);
}

}  // namespace
}  // namespace simt
