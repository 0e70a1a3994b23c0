// Randomized oracle for multicore staging: the per-core shard maps stage
// only what each core has not seen, so every scenario checks the device
// against ground truth -- a host-golden image of the whole memory and the
// single-core simt_core backend run on the same inputs -- across random
// host dirty ranges, declared (`@tid`) footprints, and multi-round grids.
// Two fixed kernels pin the merge on all three backends: a store conflict
// across cores, and a store outside the declared `.writes`.
#include <gtest/gtest.h>

#include <algorithm>
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

DeviceDescriptor multicore_desc() {
  return DeviceDescriptor::multi_core(kCores, small_cfg());
}

std::vector<std::uint32_t> read_all(Device& dev) {
  std::vector<std::uint32_t> image(kMemWords);
  dev.read_words(0, std::span<std::uint32_t>(image));
  return image;
}

/// One randomized scenario, replayed on a multicore device, a simt_core
/// device and a host mirror in lockstep: alternating host dirty writes to
/// random (often overlapping) ranges and launches of up to three rounds
/// per core, with and without a declared footprint.
void run_scenario(std::uint64_t seed, bool declared_abi,
                  const std::string& what) {
  Device multi(multicore_desc());
  Device single(DeviceDescriptor::simt_core(small_cfg()));
  Device* devs[] = {&multi, &single};

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
  const std::uint32_t in_base = in_bufs[0].word_base();
  const std::uint32_t out_base = out_bufs[0].word_base();
  ASSERT_EQ(in_bufs[1].word_base(), in_base);
  ASSERT_EQ(out_bufs[1].word_base(), out_base);

  std::vector<std::uint32_t> golden(kMemWords, 0);
  const auto host_write = [&](std::uint32_t base,
                              const std::vector<std::uint32_t>& words) {
    for (Device* dev : devs) {
      dev->write_words(base, std::span<const std::uint32_t>(words));
    }
    std::copy(words.begin(), words.end(), golden.begin() + base);
  };

  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> init(n);
  for (auto& v : init) {
    v = rng.next_u32() % 10000;
  }
  host_write(in_base, init);
  if (declared_abi) {
    host_write(out_base, init);  // vecadd reuses out as the second addend
  }

  // The parameter window at the top of memory records each declared
  // launch's binding; the golden image covers everything below it.
  const std::uint32_t checked = multi.param_window_base();
  for (unsigned round = 0; round < 6; ++round) {
    // Dirty a few random host ranges -- sometimes overlapping each other
    // and the footprint slices, sometimes outside the kernel's window.
    const unsigned dirties = 1 + static_cast<unsigned>(rng.next_below(4));
    for (unsigned k = 0; k < dirties; ++k) {
      const auto base =
          static_cast<std::uint32_t>(rng.next_below(checked - 64));
      std::vector<std::uint32_t> chunk(
          1 + static_cast<unsigned>(rng.next_below(64)));
      for (auto& v : chunk) {
        v = rng.next_u32() % 10000;
      }
      host_write(base, chunk);
    }

    // Vary the grid so rounds split unevenly across cores.
    const unsigned threads = 1 + static_cast<unsigned>(rng.next_below(n));
    for (int d = 0; d < 2; ++d) {
      const LaunchStats stats =
          declared_abi
              ? devs[d]->launch_sync(mods[d]->kernel("vecadd"), threads,
                                     KernelArgs()
                                         .arg(in_bufs[d])
                                         .arg(out_bufs[d])
                                         .arg(out_bufs[d]))
              : devs[d]->launch_sync(mods[d]->kernel(), threads);
      ASSERT_TRUE(stats.exited) << what << " round " << round;
    }
    for (unsigned t = 0; t < threads; ++t) {
      golden[out_base + t] =
          declared_abi ? golden[in_base + t] + golden[out_base + t]
                       : golden[in_base + t] * 3 + 7;
    }

    const auto mi = read_all(multi);
    const auto si = read_all(single);
    ASSERT_EQ(mi, si) << what << " multicore vs simt_core, round " << round;
    for (std::uint32_t a = 0; a < checked; ++a) {
      ASSERT_EQ(mi[a], golden[a])
          << what << " word " << a << " vs golden, round " << round;
    }
  }
}

TEST(Staging, RandomizedDirtyRangesMatchGolden) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    run_scenario(seed, /*declared_abi=*/false,
                 "conservative seed " + std::to_string(seed));
  }
}

TEST(Staging, DeclaredFootprintMatchesGolden) {
  // Declared footprints stage only each core's touched slice of the shard
  // map; results must still match ground truth.
  for (const std::uint64_t seed : {7ull, 8ull, 9ull, 0x5eedull}) {
    run_scenario(seed, /*declared_abi=*/true,
                 "declared seed " + std::to_string(seed));
  }
}

/// One device per backend, each with kMemWords of memory: the multicore
/// merge must leave what the single core and the scalar sweep leave.
std::vector<DeviceDescriptor> every_backend() {
  baseline::ScalarCpuConfig scalar;
  scalar.shared_mem_words = kMemWords;
  return {multicore_desc(), DeviceDescriptor::simt_core(small_cfg()),
          DeviceDescriptor::scalar_cpu(scalar)};
}

TEST(Staging, CrossCoreStoreConflictHighestThreadWins) {
  // Every thread of a 128-thread grid (4 cores x 32 threads) stores
  // %tid ^ 127 to word 100. Thread 127, in the highest core's slice, wins
  // with 0 -- the value the word already held, so a merge that folds only
  // words changed against the pre-round image would keep core 2's 32.
  for (const auto& desc : every_backend()) {
    Device dev(desc);
    Module& mod = dev.load_module(
        "movsr %r0, %tid\n"
        "xori %r1, %r0, 127\n"
        "movi %r2, 0\n"
        "sts [%r2 + 100], %r1\n"
        "exit\n");
    ASSERT_TRUE(dev.launch_sync(mod.kernel(), 4 * kThreadsPerCore).exited);
    EXPECT_EQ(read_all(dev)[100], 0u) << dev.backend().name();
  }
}

TEST(Staging, StoreOutsideDeclaredWritesMergesExactly) {
  // The kernel declares only `out@tid` but also stores 77 to word 1500:
  // every stored word merges, declared or not.
  for (const auto& desc : every_backend()) {
    Device dev(desc);
    auto out = dev.alloc<std::uint32_t>(4 * kThreadsPerCore);
    Module& mod = dev.load_module(
        ".kernel k\n"
        ".param out buffer\n"
        ".writes out@tid\n"
        "movsr %r0, %tid\n"
        "sts [%r0 + $out], %r0\n"
        "movi %r1, 77\n"
        "movi %r2, 0\n"
        "sts [%r2 + 1500], %r1\n"
        "exit\n");
    ASSERT_LT(out.word_base() + out.size(), 1500u);
    ASSERT_LT(1500u, dev.param_window_base());
    ASSERT_TRUE(dev.launch_sync(mod.kernel("k"), 4 * kThreadsPerCore,
                                KernelArgs().arg(out))
                    .exited);
    const auto image = read_all(dev);
    EXPECT_EQ(image[1500], 77u) << dev.backend().name();
    for (unsigned t = 0; t < 4 * kThreadsPerCore; ++t) {
      ASSERT_EQ(image[out.word_base() + t], t) << dev.backend().name();
    }
  }
}

TEST(Staging, MeasuredWallSplitsArePopulated) {
  Device dev(multicore_desc());
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

TEST(Staging, FaultingKernelSurfacesAndDeviceRecovers) {
  Device dev(multicore_desc());
  Module& ok = dev.load_module("movi %r1, 1\nexit\n");
  EXPECT_TRUE(dev.launch_sync(ok.kernel(), 4 * kThreadsPerCore).exited);

  // A faulting kernel surfaces its error, and the device stays usable.
  Module& bad = dev.load_module(
      "movi %r0, 9999\n"
      "sts [%r0], %r0\n"
      "exit\n");
  EXPECT_THROW(dev.launch_sync(bad.kernel(), 16), Error);
  EXPECT_TRUE(dev.launch_sync(ok.kernel(), 16).exited);
}

}  // namespace
}  // namespace simt::runtime
