// Tests for the memory substrates: DSP block modes, M20K geometry, and the
// 4R-1W multiport shared memory (Section 2).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hw/dsp_block.hpp"
#include "hw/m20k.hpp"
#include "hw/multiport_mem.hpp"

namespace simt::hw {
namespace {

// ---- DSP block -------------------------------------------------------------

TEST(DspBlock, Mul18x19SignedRange) {
  EXPECT_EQ(mul18x19(-(1 << 17), (1 << 18) - 1),
            static_cast<std::int64_t>(-(1 << 17)) * ((1 << 18) - 1));
  EXPECT_EQ(mul18x19(0, 0), 0);
  EXPECT_EQ(mul18x19(-1, -1), 1);
}

TEST(DspBlock, IndependentModeGivesTwoProducts) {
  DspBlock dsp(DspMode::TwoIndependent18x19);
  const auto r = dsp.mul_independent(100, 200, -300, 400);
  EXPECT_EQ(r.p0, 20000);
  EXPECT_EQ(r.p1, -120000);
}

TEST(DspBlock, SumModeAddsTwoProducts) {
  DspBlock dsp(DspMode::SumOfTwo18x19);
  EXPECT_EQ(dsp.mul_sum(100, 200, -300, 400), 20000 - 120000);
}

TEST(DspBlock, PublishedSpeedLimits) {
  // Section 2.1: integer modes up to 958 MHz, fp mode 771 MHz -- the reason
  // the processor is integer-only.
  EXPECT_DOUBLE_EQ(dsp_fmax_mhz(DspMode::TwoIndependent18x19), 958.0);
  EXPECT_DOUBLE_EQ(dsp_fmax_mhz(DspMode::SumOfTwo18x19), 958.0);
  EXPECT_DOUBLE_EQ(dsp_fmax_mhz(DspMode::Fp32), 771.0);
  EXPECT_EQ(kDspPipelineStages, 3);
}

// ---- M20K ------------------------------------------------------------------

TEST(M20k, BestModeMatchesAspectRatio) {
  EXPECT_EQ(m20k_best_mode(512, 40).width, 40u);
  EXPECT_EQ(m20k_best_mode(2048, 10).depth, 2048u);
}

TEST(M20k, BlockCountExamples) {
  // 1024 x 32 register file bank: two blocks (1024x20 x2 or 512x40 x2).
  EXPECT_EQ(m20k_blocks_for(1024, 32), 2u);
  // 512-deep 64-bit instruction memory: two 512x40 blocks.
  EXPECT_EQ(m20k_blocks_for(512, 64), 2u);
  // 4096 x 32 shared-memory copy: eight blocks.
  EXPECT_EQ(m20k_blocks_for(4096, 32), 8u);
  // Tiny memories still cost one block.
  EXPECT_EQ(m20k_blocks_for(16, 8), 1u);
}

// ---- multiport shared memory ----------------------------------------------

TEST(MultiPort, FourReadPortsSeeSameData) {
  MultiPortMemory mem(1024);
  mem.poke(100, 0xCAFEBABEu);
  for (unsigned p = 0; p < 4; ++p) {
    EXPECT_EQ(mem.read(p, 100), 0xCAFEBABEu);
  }
}

TEST(MultiPort, StagedWriteLandsAtCommit) {
  MultiPortMemory mem(256);
  mem.write(5, 111);
  // Before commit: all ports still read old data (read-during-write).
  for (unsigned p = 0; p < 4; ++p) {
    EXPECT_EQ(mem.read(p, 5), 0u);
  }
  mem.commit();
  for (unsigned p = 0; p < 4; ++p) {
    EXPECT_EQ(mem.read(p, 5), 111u);
  }
}

TEST(MultiPort, LastStagedWriteWins) {
  // The 16:1 write mux serializes lanes; the last lane to an address wins.
  MultiPortMemory mem(256);
  mem.write(9, 1);
  mem.write(9, 2);
  mem.write(9, 3);
  mem.commit();
  EXPECT_EQ(mem.read(0, 9), 3u);
}

TEST(MultiPort, BlockCountIsCopiesTimesDepthBlocks) {
  // 16 KB (4096 words = 8 blocks per copy), one copy per read port: the
  // bench/sweep_ports configurations, with the paper's 4R at 32 M20Ks.
  EXPECT_EQ(multiport_m20k_blocks(4096, 1), 8u);
  EXPECT_EQ(multiport_m20k_blocks(4096, 2), 16u);
  EXPECT_EQ(multiport_m20k_blocks(4096, 4), 32u);
  EXPECT_EQ(multiport_m20k_blocks(4096, 8), 64u);
  EXPECT_EQ(multiport_m20k_blocks(4096, 16), 128u);
}

TEST(MultiPort, ClearZeroesImageAndDropsStagedWrites) {
  MultiPortMemory mem(256);
  mem.poke(3, 9);
  mem.write(4, 5);
  mem.clear();
  mem.commit();
  EXPECT_EQ(mem.read(0, 3), 0u);
  EXPECT_EQ(mem.read(0, 4), 0u);
}

TEST(MultiPort, PortClockArithmetic) {
  // Section 3.1: a load runs 4 clocks per block width (16 lanes / 4 ports);
  // a store 16 clocks (16 lanes / 1 port).
  MultiPortMemory mem(4096, 4, 1);
  EXPECT_EQ(mem.read_clocks(16), 4u);
  EXPECT_EQ(mem.write_clocks(16), 16u);
  EXPECT_EQ(mem.read_clocks(4), 1u);
  EXPECT_EQ(mem.read_clocks(5), 2u);
  EXPECT_EQ(mem.write_clocks(1), 1u);
}

TEST(MultiPort, RandomizedConsistencyAcrossPorts) {
  MultiPortMemory mem(512);
  Xoshiro256 rng(77);
  std::vector<std::uint32_t> shadow(512, 0);
  for (int i = 0; i < 2000; ++i) {
    const auto addr = static_cast<std::uint32_t>(rng.next_below(512));
    const auto val = rng.next_u32();
    mem.poke(addr, val);
    shadow[addr] = val;
    const auto check = static_cast<std::uint32_t>(rng.next_below(512));
    const auto port = static_cast<unsigned>(rng.next_below(4));
    EXPECT_EQ(mem.read(port, check), shadow[check]);
  }
}

}  // namespace
}  // namespace simt::hw
