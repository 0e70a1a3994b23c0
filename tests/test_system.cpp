// Tests for the multi-core system layer (Section 6 future work).
#include "system/multicore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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

TEST(System, StageRunsBeforeItsKernelInTheSameJob) {
  MultiCoreSystem sys(small_system(2));
  sys.load_kernel_all(kernels::vecadd(0, 128, 256));
  // Each core's inputs arrive only through its own stage callable.
  std::vector<Dispatch> dispatches;
  for (unsigned c = 0; c < 2; ++c) {
    Dispatch d{c, 128};
    d.stage = [&sys, c] {
      for (unsigned i = 0; i < 128; ++i) {
        sys.core(c).write_shared(i, i + c);
        sys.core(c).write_shared(128 + i, 7 * (c + 1));
      }
    };
    dispatches.push_back(std::move(d));
  }
  const auto res = sys.run(dispatches);
  ASSERT_EQ(res.per_core.size(), 2u);
  for (unsigned c = 0; c < 2; ++c) {
    EXPECT_TRUE(res.per_core[c].exited);
    for (unsigned i = 0; i < 128; ++i) {
      EXPECT_EQ(sys.core(c).read_shared(256 + i), i + c + 7 * (c + 1))
          << "core " << c << " i " << i;
    }
  }
}

/// Dispatch cores 0-2 with `failing`'s stage throwing: run() rethrows, the
/// sibling cores still ran to completion, the failing core's kernel never
/// ran, and the system stays usable.
void expect_throwing_stage_skips_only(unsigned failing) {
  MultiCoreSystem sys(small_system(3));
  sys.load_kernel_all(kernels::vecadd(0, 128, 256));
  for (unsigned c = 0; c < 3; ++c) {
    for (unsigned i = 0; i < 128; ++i) {
      sys.core(c).write_shared(i, i);
      sys.core(c).write_shared(128 + i, 1);
    }
  }
  std::vector<Dispatch> dispatches{{0, 128}, {1, 128}, {2, 128}};
  dispatches[failing].stage = [] { throw Error("stage failed"); };
  EXPECT_THROW(sys.run(dispatches), Error);
  for (unsigned c = 0; c < 3; ++c) {
    for (unsigned i = 0; i < 128; ++i) {
      EXPECT_EQ(sys.core(c).read_shared(256 + i), c == failing ? 0u : i + 1)
          << "core " << c << " i " << i;
    }
  }
  EXPECT_TRUE(sys.run({{failing, 128}}).per_core[0].exited);
  EXPECT_EQ(sys.core(failing).read_shared(256 + 5), 6u);
}

TEST(System, ThrowingStageSkipsOnlyItsCore) {
  expect_throwing_stage_skips_only(1);
}

TEST(System, ThrowingLastStageSkipsOnlyItsCore) {
  // The last dispatch is never offered to a worker: the calling thread
  // claims it first, so its failure surfaces from the caller's own sweep.
  expect_throwing_stage_skips_only(2);
}

TEST(System, EveryDispatchRunsExactlyOnce) {
  // Workers and the calling thread race to claim each round's jobs; late
  // workers must find their claim taken. Every (core, round) stage must run
  // exactly once, and every kernel must see the inputs its stage wrote.
  constexpr unsigned kCores = 4;
  constexpr unsigned kRounds = 200;
  MultiCoreSystem sys(small_system(kCores));
  sys.load_kernel_all(kernels::vecadd(0, 64, 128));
  std::vector<std::atomic<int>> staged(kCores * kRounds);
  Xoshiro256 rng(0xc1a1);
  for (unsigned round = 0; round < kRounds; ++round) {
    std::vector<unsigned> cores{0, 1, 2, 3};
    for (unsigned i = kCores - 1; i > 0; --i) {
      std::swap(cores[i], cores[rng.next_below(i + 1)]);
    }
    cores.resize(1 + rng.next_below(kCores));
    std::vector<Dispatch> dispatches;
    for (const unsigned c : cores) {
      Dispatch d{c, 64};
      d.stage = [&sys, &staged, c, round] {
        ++staged[round * kCores + c];
        for (unsigned i = 0; i < 64; ++i) {
          sys.core(c).write_shared(i, round + i);
          sys.core(c).write_shared(64 + i, c);
        }
      };
      dispatches.push_back(std::move(d));
    }
    const auto res = sys.run(dispatches);
    ASSERT_EQ(res.per_core.size(), cores.size());
    for (std::size_t k = 0; k < cores.size(); ++k) {
      const unsigned c = cores[k];
      ASSERT_TRUE(res.per_core[k].exited) << "round " << round;
      for (unsigned i = 0; i < 64; ++i) {
        ASSERT_EQ(sys.core(c).read_shared(128 + i), round + i + c)
            << "round " << round << " core " << c << " i " << i;
      }
    }
    for (unsigned c = 0; c < kCores; ++c) {
      const bool dispatched =
          std::find(cores.begin(), cores.end(), c) != cores.end();
      ASSERT_EQ(staged[round * kCores + c].load(), dispatched ? 1 : 0)
          << "round " << round << " core " << c;
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
