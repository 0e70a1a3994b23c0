// Differential tests for the parallel staging pipeline: launches staged on
// the per-core dispatch workers (DeviceDescriptor::stage_workers, the
// default) must be bit-identical to the serial reference path
// (stage_workers = 0) -- same final master image, same per-core private
// images, same staged/merged/skipped word accounting, and same modeled
// perf counters -- across randomized host dirty ranges, overlapping
// footprints, multi-round grids, and declared footprints.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "runtime/args.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/module.hpp"

namespace simt::runtime {
namespace {

constexpr unsigned kCores = 4;
constexpr unsigned kThreadsPerCore = 32;
constexpr unsigned kMemWords = 2048;

core::CoreConfig small_cfg() {
  core::CoreConfig c;
  c.max_threads = kThreadsPerCore;
  c.shared_mem_words = kMemWords;
  c.predicates_enabled = true;
  return c;
}

DeviceDescriptor multicore_desc(unsigned stage_workers) {
  auto desc = DeviceDescriptor::multi_core(kCores, small_cfg());
  desc.stage_workers = stage_workers;
  return desc;
}

/// Snapshot every core's private memory image (not just the master): the
/// shard maps must leave the same bytes resident regardless of which
/// thread performed the copies.
std::vector<std::vector<std::uint32_t>> core_images(Device& dev) {
  auto* backend = dev.backend_as<MultiCoreBackend>();
  std::vector<std::vector<std::uint32_t>> images;
  for (unsigned c = 0; c < backend->system().num_cores(); ++c) {
    std::vector<std::uint32_t> img(kMemWords);
    backend->system().core(c).read_shared_span(
        0, std::span<std::uint32_t>(img));
    images.push_back(std::move(img));
  }
  return images;
}

void expect_stats_eq(const LaunchStats& a, const LaunchStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.exited, b.exited) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.perf.cycles, b.perf.cycles) << what;
  EXPECT_EQ(a.perf.thread_ops, b.perf.thread_ops) << what;
  EXPECT_EQ(a.staged_words, b.staged_words) << what;
  EXPECT_EQ(a.merged_words, b.merged_words) << what;
  EXPECT_EQ(a.staged_words_skipped, b.staged_words_skipped) << what;
  EXPECT_EQ(a.serial_cycles, b.serial_cycles) << what;
  EXPECT_EQ(a.overlap_cycles, b.overlap_cycles) << what;
  ASSERT_EQ(a.per_core.size(), b.per_core.size()) << what;
  for (std::size_t c = 0; c < a.per_core.size(); ++c) {
    EXPECT_EQ(a.per_core[c].staged_words, b.per_core[c].staged_words)
        << what << " core " << c;
    EXPECT_EQ(a.per_core[c].merged_words, b.per_core[c].merged_words)
        << what << " core " << c;
    EXPECT_EQ(a.per_core[c].exec_cycles, b.per_core[c].exec_cycles)
        << what << " core " << c;
    EXPECT_EQ(a.per_core[c].rounds, b.per_core[c].rounds)
        << what << " core " << c;
  }
}

/// One randomized scenario, replayed on a serial-staging device and a
/// parallel-staging device in lockstep: alternating host dirty writes to
/// random (often overlapping) ranges and multi-round launches of a kernel
/// whose footprint spans in/out windows shared by every core.
void run_scenario(unsigned stage_workers_b, std::uint64_t seed,
                  bool declared_abi, const std::string& what) {
  Device serial(multicore_desc(0));
  Device parallel(multicore_desc(stage_workers_b));
  Device* devs[] = {&serial, &parallel};

  const unsigned n = 3 * kCores * kThreadsPerCore;  // 3 rounds per launch
  std::vector<Buffer<std::uint32_t>> in_bufs, out_bufs;
  std::vector<Module*> mods;
  for (Device* dev : devs) {
    auto in = dev->alloc<std::uint32_t>(n);
    auto out = dev->alloc<std::uint32_t>(n);
    Module& mod =
        declared_abi
            ? dev->load_module(kernels::vecadd_abi())
            : dev->load_module(
                  "movsr %r0, %tid\n"
                  "lds %r1, [%r0 + " + std::to_string(in.word_base()) + "]\n"
                  "muli %r2, %r1, 3\n"
                  "addi %r2, %r2, 7\n"
                  "sts [%r0 + " + std::to_string(out.word_base()) + "], %r2\n"
                  "exit\n");
    in_bufs.push_back(std::move(in));
    out_bufs.push_back(std::move(out));
    mods.push_back(&mod);
  }

  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> init(n);
  for (auto& v : init) {
    v = rng.next_u32() % 10000;
  }
  for (int d = 0; d < 2; ++d) {
    in_bufs[d].write(init);
    if (declared_abi) {
      out_bufs[d].write(init);  // vecadd reuses out as the second addend
    }
  }

  for (unsigned round = 0; round < 6; ++round) {
    // Dirty a few random host ranges -- sometimes overlapping each other
    // and the footprint slices, sometimes outside the kernel's window.
    const unsigned dirties = 1 + static_cast<unsigned>(rng.next_below(4));
    for (unsigned k = 0; k < dirties; ++k) {
      const auto base = static_cast<std::uint32_t>(
          rng.next_below(kMemWords - 64));
      const auto len = 1 + static_cast<unsigned>(rng.next_below(64));
      std::vector<std::uint32_t> chunk(len);
      for (auto& v : chunk) {
        v = rng.next_u32() % 10000;
      }
      for (Device* dev : devs) {
        dev->write_words(base, std::span<const std::uint32_t>(chunk));
      }
    }

    // Vary the grid so rounds split unevenly across cores.
    const unsigned threads =
        1 + static_cast<unsigned>(rng.next_below(n));
    std::vector<LaunchStats> stats;
    for (int d = 0; d < 2; ++d) {
      if (declared_abi) {
        stats.push_back(devs[d]->launch_sync(
            mods[d]->kernel("vecadd"), threads,
            KernelArgs().arg(in_bufs[d]).arg(out_bufs[d]).arg(out_bufs[d])));
      } else {
        stats.push_back(devs[d]->launch_sync(mods[d]->kernel(), threads));
      }
    }
    expect_stats_eq(stats[0], stats[1],
                    what + " round " + std::to_string(round));

    // Both masters and every per-core private image must match.
    std::vector<std::uint32_t> ma(kMemWords), mb(kMemWords);
    serial.read_words(0, std::span<std::uint32_t>(ma));
    parallel.read_words(0, std::span<std::uint32_t>(mb));
    ASSERT_EQ(ma, mb) << what << " master mismatch, round " << round;
    const auto ia = core_images(serial);
    const auto ib = core_images(parallel);
    for (unsigned c = 0; c < kCores; ++c) {
      ASSERT_EQ(ia[c], ib[c])
          << what << " core " << c << " image mismatch, round " << round;
    }
  }
}

TEST(ParallelStaging, RandomizedDifferentialMatchesSerial) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    run_scenario(DeviceDescriptor::kAllStageWorkers, seed,
                 /*declared_abi=*/false,
                 "conservative seed " + std::to_string(seed));
  }
}

TEST(ParallelStaging, DeclaredFootprintMatchesSerial) {
  // Declared footprints stage only each core's touched slice of the shard
  // map; results must stay bit-identical.
  for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
    run_scenario(DeviceDescriptor::kAllStageWorkers, seed,
                 /*declared_abi=*/true,
                 "declared seed " + std::to_string(seed));
  }
}

TEST(ParallelStaging, PartialWorkerCountsAgreeToo) {
  // stage_workers between 0 and num_cores mixes worker-staged and
  // inline-staged cores in one launch.
  for (const unsigned workers : {1u, 2u, 3u}) {
    run_scenario(workers, 0x5eedull + workers, /*declared_abi=*/true,
                 "workers=" + std::to_string(workers));
  }
}

TEST(ParallelStaging, MeasuredWallSplitsArePopulated) {
  Device dev(multicore_desc(DeviceDescriptor::kAllStageWorkers));
  auto in = dev.alloc<std::uint32_t>(256);
  auto out = dev.alloc<std::uint32_t>(256);
  Module& mod = dev.load_module(
      "movsr %r0, %tid\n"
      "lds %r1, [%r0 + " + std::to_string(in.word_base()) + "]\n"
      "addi %r2, %r1, 1\n"
      "sts [%r0 + " + std::to_string(out.word_base()) + "], %r2\n"
      "exit\n");
  std::vector<std::uint32_t> host(256, 5);
  in.write(host);

  const auto stats = dev.launch_sync(mod.kernel(), 256);
  EXPECT_GT(stats.host_wall_us, 0.0);
  EXPECT_GT(stats.host_exec_us, 0.0);
  EXPECT_GT(stats.host_stage_us, 0.0);  // host wrote 256 words pre-launch
  EXPECT_GE(stats.host_merge_us, 0.0);
  double per_core_exec = 0.0;
  double per_core_stage = 0.0;
  for (const auto& c : stats.per_core) {
    EXPECT_GE(c.host_exec_us, 0.0);
    per_core_exec += c.host_exec_us;
    per_core_stage += c.host_stage_us;
  }
  EXPECT_DOUBLE_EQ(per_core_exec, stats.host_exec_us);
  EXPECT_DOUBLE_EQ(per_core_stage, stats.host_stage_us);
  for (unsigned i = 0; i < 256; ++i) {
    ASSERT_EQ(out.at(i), 6u) << i;
  }
}

TEST(ParallelStaging, StageWorkersClampAndFaultsStillSurface) {
  // An absurd worker count clamps to num_cores instead of failing.
  Device dev(multicore_desc(1000));
  Module& ok = dev.load_module("movi %r1, 1\nexit\n");
  EXPECT_TRUE(dev.launch_sync(ok.kernel(), 4 * kThreadsPerCore).exited);

  // A faulting kernel still surfaces its error with worker staging armed,
  // and the device stays usable afterwards.
  Module& bad = dev.load_module(
      "movi %r0, 9999\n"
      "sts [%r0], %r0\n"
      "exit\n");
  EXPECT_THROW(dev.launch_sync(bad.kernel(), 16), Error);
  EXPECT_TRUE(dev.launch_sync(ok.kernel(), 16).exited);
}

}  // namespace
}  // namespace simt::runtime
