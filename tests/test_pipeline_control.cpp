// Tests pinning the Section 3.1 pipeline-control arithmetic: the registered
// end-of-instruction comparisons, the width/depth counter sequences, the
// single-cycle trap, and the issue-gap (interlock) model.
#include "core/pipeline_control.hpp"

#include <gtest/gtest.h>

namespace simt::core {
namespace {

using isa::TimingClass;

TEST(ClocksFor, PaperExamples) {
  // "an application example with 512 threads would require 32 clocks
  // (512/16) per operation instruction"
  EXPECT_EQ(clocks_for(TimingClass::Operation, 32, 16, 4, 1), 32u);
  // "A load instruction would require 4 clocks per block width, and run for
  // a depth of 32" -> 128 clocks total.
  EXPECT_EQ(clocks_for(TimingClass::Load, 32, 16, 4, 1), 128u);
  // Store: 16 clocks per row through the single write port.
  EXPECT_EQ(clocks_for(TimingClass::Store, 32, 16, 4, 1), 512u);
  // Single-cycle class.
  EXPECT_EQ(clocks_for(TimingClass::Single, 32, 16, 4, 1), 1u);
}

TEST(ClocksFor, WidthFactors) {
  EXPECT_EQ(width_factor_for(TimingClass::Operation, 16, 4, 1), 1u);
  EXPECT_EQ(width_factor_for(TimingClass::Load, 16, 4, 1), 4u);
  EXPECT_EQ(width_factor_for(TimingClass::Store, 16, 4, 1), 16u);
  // Port scaling: an 8R shared memory would halve the load width.
  EXPECT_EQ(width_factor_for(TimingClass::Load, 16, 8, 1), 2u);
  EXPECT_EQ(width_factor_for(TimingClass::Store, 16, 4, 4), 4u);
  // Uneven lane counts round up: ceil(lanes / ports).
  EXPECT_EQ(width_factor_for(TimingClass::Load, 5, 4, 1), 2u);
  EXPECT_EQ(width_factor_for(TimingClass::Store, 1, 4, 1), 1u);
}

TEST(PipelineControl, OperationCountsToDepthMinusTwo) {
  // 32-row operation: the counter counts 0..30 ("0 to (31-1)"), the
  // comparison fires at 30, and the registered signal ends the instruction
  // on clock 32.
  PipelineControl pc;
  pc.start(/*rows=*/32, /*width=*/1);
  unsigned clocks = 0;
  bool fired_at_30 = false;
  while (true) {
    const auto snap = pc.snapshot();
    if (snap.depth_count == 30 && !snap.end_registered) {
      fired_at_30 = true;  // comparison value is rows-2 = 30
    }
    ++clocks;
    if (pc.tick()) {
      break;
    }
  }
  EXPECT_EQ(clocks, 32u);
  EXPECT_TRUE(fired_at_30);
}

TEST(PipelineControl, LoadEndsAtDepth31Width2) {
  // "the end of the load instruction would be signalled when the depth was
  // 31, but the width was only at 2, which is the width and depth
  // combination one cycle before the end."
  PipelineControl pc;
  pc.start(/*rows=*/32, /*width=*/4);
  unsigned clocks = 0;
  unsigned fire_depth = 0, fire_width = 0;
  while (true) {
    const auto before = pc.snapshot();
    ++clocks;
    const bool done = pc.tick();
    const auto after = pc.snapshot();
    if (!before.end_registered && after.end_registered) {
      fire_depth = before.depth_count;
      fire_width = before.width_count;
    }
    if (done) {
      break;
    }
  }
  EXPECT_EQ(clocks, 128u);
  EXPECT_EQ(fire_depth, 31u);
  EXPECT_EQ(fire_width, 2u);
}

TEST(PipelineControl, WidthCounterCountsModulo) {
  // "The width counter would count modulo 3, at which point the load depth
  // counter would be incremented" -- i.e. values 0..3 with depth bumping on
  // wrap.
  PipelineControl pc;
  pc.start(/*rows=*/2, /*width=*/4);
  std::vector<std::pair<unsigned, unsigned>> seq;
  while (true) {
    const auto s = pc.snapshot();
    seq.emplace_back(s.depth_count, s.width_count);
    if (pc.tick()) {
      break;
    }
  }
  const std::vector<std::pair<unsigned, unsigned>> expect = {
      {0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 1}, {1, 2}, {1, 3}};
  EXPECT_EQ(seq, expect);
}

TEST(PipelineControl, MatchesClocksForAcrossShapes) {
  for (const auto tc :
       {TimingClass::Operation, TimingClass::Load, TimingClass::Store}) {
    for (unsigned rows : {1u, 2u, 3u, 8u, 32u, 64u}) {
      const unsigned width = width_factor_for(tc, 16, 4, 1);
      const unsigned expected = clocks_for(tc, rows, 16, 4, 1);
      PipelineControl pc;
      if (expected == 1) {
        pc.start_single_cycle();
      } else {
        pc.start(rows, width);
      }
      unsigned clocks = 0;
      while (true) {
        ++clocks;
        if (pc.tick()) {
          break;
        }
      }
      EXPECT_EQ(clocks, expected) << "rows=" << rows << " width=" << width;
    }
  }
}

TEST(PipelineControl, SingleCycleTrap) {
  // "There is the possibility of an instruction that requires only a single
  // clock cycle, a case which needs separate processing ... trapped by the
  // previous instruction decode pipeline stage."
  PipelineControl pc;
  pc.start_single_cycle();
  EXPECT_TRUE(pc.busy());
  EXPECT_TRUE(pc.tick());
  EXPECT_FALSE(pc.busy());
}

TEST(PipelineControl, TwoClockOperationUsesRegisteredSignal) {
  // rows=2 is the smallest counted case: comparison at depth 0, end at 2.
  PipelineControl pc;
  pc.start(/*rows=*/2, /*width=*/1);
  EXPECT_FALSE(pc.tick());
  EXPECT_TRUE(pc.snapshot().end_registered);
  EXPECT_TRUE(pc.tick());
}

TEST(MinIssueGap, OperationChainNeedsLatencyPlusOne) {
  // op -> dependent op, same width: gap = latency + 1; with a 32-row
  // producer the natural spacing already covers it (no stall).
  EXPECT_EQ(min_issue_gap(1, 1, 32, 8), 9u);
  EXPECT_EQ(min_issue_gap(1, 1, 1, 8), 9u);
}

TEST(MinIssueGap, WideProducerSkewsByRowDistance) {
  // load (width 4) feeding an op (width 1): the producer's last row issues
  // 3*(rows-1) later than the consumer's would, so the gap grows.
  EXPECT_EQ(min_issue_gap(4, 1, 32, 6), 3u * 31u + 7u);
  // Narrow producer feeding a wide consumer needs no skew.
  EXPECT_EQ(min_issue_gap(1, 4, 32, 6), 7u);
}

}  // namespace
}  // namespace simt::core
