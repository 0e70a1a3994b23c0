// Tests for the multi-core system layer (Section 6 future work).
#include "system/multicore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"

namespace simt::system {
namespace {

SystemConfig small_system(unsigned cores) {
  SystemConfig cfg;
  cfg.num_cores = cores;
  cfg.core.max_threads = 128;
  cfg.core.shared_mem_words = 1024;
  return cfg;
}

TEST(System, SplitRangeCoversAll) {
  const auto parts = MultiCoreSystem::split_range(100, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::pair<unsigned, unsigned>{0, 33}));
  EXPECT_EQ(parts[1], (std::pair<unsigned, unsigned>{33, 66}));
  EXPECT_EQ(parts[2], (std::pair<unsigned, unsigned>{66, 100}));
}

TEST(System, CoresRunIndependently) {
  MultiCoreSystem sys(small_system(3));
  sys.load_kernel_all(kernels::vecadd(0, 128, 256));
  // Distinct data per core.
  for (unsigned c = 0; c < 3; ++c) {
    for (unsigned i = 0; i < 128; ++i) {
      sys.core(c).write_shared(i, i * (c + 1));
      sys.core(c).write_shared(128 + i, 10 * (c + 1));
    }
  }
  const auto res = sys.run({{0, 128}, {1, 128}, {2, 128}});
  ASSERT_EQ(res.per_core.size(), 3u);
  for (unsigned c = 0; c < 3; ++c) {
    EXPECT_TRUE(res.per_core[c].exited);
    for (unsigned i = 0; i < 128; ++i) {
      EXPECT_EQ(sys.core(c).read_shared(256 + i), i * (c + 1) + 10 * (c + 1))
          << "core " << c << " i " << i;
    }
  }
}

TEST(System, WallClockUsesMaxCyclesOverCores) {
  MultiCoreSystem sys(small_system(2));
  sys.load_kernel(0, kernels::vecadd(0, 128, 256));
  // Core 1 runs a much longer kernel (a loop).
  sys.load_kernel(1,
                  "movi %r1, 0\n"
                  "loopi 1000, end\n"
                  "addi %r2, %r1, 1\n"
                  "end: exit\n");
  const auto res = sys.run({{0, 128}, {1, 16}});
  EXPECT_EQ(res.max_cycles, std::max(res.per_core[0].perf.cycles,
                                     res.per_core[1].perf.cycles));
  EXPECT_EQ(res.max_cycles, res.per_core[1].perf.cycles);
}

TEST(System, ClockModelFollowsTable2Regime) {
  SystemConfig cfg = small_system(1);
  EXPECT_DOUBLE_EQ(cfg.clock_mhz(), 927.0);  // single tightly packed core
  cfg.num_cores = 3;
  EXPECT_DOUBLE_EQ(cfg.clock_mhz(), 854.0);  // multi-stamp system clock
}

TEST(System, WallClockAccountsRealizedClock) {
  MultiCoreSystem sys(small_system(1));
  sys.load_kernel_all(kernels::vecadd(0, 128, 256));
  const auto res = sys.run({{0, 128}});
  EXPECT_NEAR(res.wall_us,
              static_cast<double>(res.max_cycles) / 927.0, 1e-9);
}

TEST(System, DispatchValidation) {
  MultiCoreSystem sys(small_system(2));
  sys.load_kernel_all(kernels::vecadd(0, 128, 256));
  EXPECT_THROW(sys.run({{5, 16}}), Error);           // no such core
  EXPECT_THROW(sys.run({{0, 16}, {0, 16}}), Error);  // duplicate core
  EXPECT_THROW(MultiCoreSystem(SystemConfig{0, {}, 927, 854}), Error);
}

/// Dispatch cores 0-2 with `failing` loaded with a kernel whose store
/// traps: run() rethrows, the sibling cores still ran to completion, the
/// failing core's trapped store committed nothing, and the system stays
/// usable.
void expect_faulting_kernel_spares_siblings(unsigned failing) {
  MultiCoreSystem sys(small_system(3));
  sys.load_kernel_all(kernels::vecadd(0, 128, 256));
  sys.load_kernel(failing,
                  "movsr %r0, %tid\n"
                  "sts [%r0 + 1000], %r0\n"  // lanes 24+ leave the 1,024 words
                  "exit\n");
  for (unsigned c = 0; c < 3; ++c) {
    for (unsigned i = 0; i < 128; ++i) {
      sys.core(c).write_shared(i, i);
      sys.core(c).write_shared(128 + i, 1);
    }
  }
  EXPECT_THROW(sys.run({{0, 128}, {1, 128}, {2, 128}}), Error);
  for (unsigned c = 0; c < 3; ++c) {
    for (unsigned i = 0; i < 128; ++i) {
      EXPECT_EQ(sys.core(c).read_shared(256 + i), c == failing ? 0u : i + 1)
          << "core " << c << " i " << i;
    }
  }
  EXPECT_EQ(sys.core(failing).read_shared(1000), 0u);
  sys.load_kernel(failing, kernels::vecadd(0, 128, 256));
  EXPECT_TRUE(sys.run({{failing, 128}}).per_core[0].exited);
  EXPECT_EQ(sys.core(failing).read_shared(256 + 5), 6u);
}

TEST(System, FaultingKernelSparesItsSiblings) {
  expect_faulting_kernel_spares_siblings(1);
}

TEST(System, FaultingLastKernelSparesItsSiblings) {
  // The last dispatch is never offered to a worker: the calling thread
  // claims it first, so its failure surfaces from the caller's own sweep.
  expect_faulting_kernel_spares_siblings(2);
}

TEST(System, EveryDispatchRunsExactlyOnce) {
  // Workers and the calling thread race to claim each round's jobs; late
  // workers must find their claim taken. Every kernel increments its
  // core's counter words, so each core's counters must equal the number
  // of rounds it was dispatched in -- a job run twice or never shows.
  constexpr unsigned kCores = 4;
  constexpr unsigned kRounds = 200;
  constexpr unsigned kThreads = 64;
  MultiCoreSystem sys(small_system(kCores));
  sys.load_kernel_all(
      "movsr %r0, %tid\n"
      "lds %r1, [%r0]\n"
      "addi %r1, %r1, 1\n"
      "sts [%r0], %r1\n"
      "exit\n");
  std::vector<std::uint32_t> runs(kCores, 0);
  Xoshiro256 rng(0xc1a1);
  for (unsigned round = 0; round < kRounds; ++round) {
    std::vector<unsigned> cores{0, 1, 2, 3};
    for (unsigned i = kCores - 1; i > 0; --i) {
      std::swap(cores[i], cores[rng.next_below(i + 1)]);
    }
    cores.resize(1 + rng.next_below(kCores));
    std::vector<Dispatch> dispatches;
    for (const unsigned c : cores) {
      dispatches.push_back({c, kThreads});
      ++runs[c];
    }
    const auto res = sys.run(dispatches);
    ASSERT_EQ(res.per_core.size(), cores.size());
    for (std::size_t k = 0; k < cores.size(); ++k) {
      ASSERT_TRUE(res.per_core[k].exited) << "round " << round;
    }
    for (unsigned c = 0; c < kCores; ++c) {
      for (unsigned i = 0; i < kThreads; ++i) {
        ASSERT_EQ(sys.core(c).read_shared(i), runs[c])
            << "round " << round << " core " << c << " i " << i;
      }
    }
  }
}

TEST(System, AggregateThreadOps) {
  MultiCoreSystem sys(small_system(2));
  sys.load_kernel_all(kernels::vecadd(0, 128, 256));
  const auto res = sys.run({{0, 128}, {1, 64}});
  EXPECT_EQ(res.total_thread_ops(), res.per_core[0].perf.thread_ops +
                                        res.per_core[1].perf.thread_ops);
}

}  // namespace
}  // namespace simt::system
