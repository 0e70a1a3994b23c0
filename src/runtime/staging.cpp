#include "runtime/staging.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/error.hpp"

namespace simt::runtime {

void RangeSet::insert(std::uint32_t lo, std::uint32_t hi) {
  if (lo >= hi) {
    return;
  }
  // Find the first existing range within the coalescing gap of [lo, hi),
  // absorb every range that touches the growing union, and splice the
  // union back in. Ranges are kept sorted and disjoint.
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), lo,
      [](const WordRange& r, std::uint32_t v) {
        return r.hi + kCoalesceGap < v;
      });
  while (it != ranges_.end() && it->lo <= hi + kCoalesceGap) {
    lo = std::min(lo, it->lo);
    hi = std::max(hi, it->hi);
    it = ranges_.erase(it);
  }
  ranges_.insert(it, WordRange{lo, hi});
}

std::uint64_t RangeSet::words() const {
  std::uint64_t n = 0;
  for (const auto& r : ranges_) {
    n += r.words();
  }
  return n;
}

RangeSet RangeSet::from_sorted(std::vector<WordRange> ranges) {
  RangeSet set;
  set.ranges_ = std::move(ranges);
  return set;
}

RangeSet intersect_sets(const RangeSet& a, const RangeSet& b) {
  std::vector<WordRange> out;
  auto ia = a.ranges().begin();
  auto ib = b.ranges().begin();
  while (ia != a.ranges().end() && ib != b.ranges().end()) {
    const std::uint32_t lo = std::max(ia->lo, ib->lo);
    const std::uint32_t hi = std::min(ia->hi, ib->hi);
    if (lo < hi) {
      out.push_back({lo, hi});
    }
    if (ia->hi < ib->hi) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return RangeSet::from_sorted(std::move(out));
}

RangeSet subtract_sets(const RangeSet& a, const RangeSet& b) {
  std::vector<WordRange> out;
  auto ib = b.ranges().begin();
  for (const auto& r : a.ranges()) {
    std::uint32_t lo = r.lo;
    while (ib != b.ranges().end() && ib->hi <= lo) {
      ++ib;
    }
    auto cut = ib;
    while (cut != b.ranges().end() && cut->lo < r.hi) {
      if (cut->lo > lo) {
        out.push_back({lo, cut->lo});
      }
      lo = std::max(lo, cut->hi);
      ++cut;
    }
    if (lo < r.hi) {
      out.push_back({lo, r.hi});
    }
  }
  return RangeSet::from_sorted(std::move(out));
}

RangeSet union_sets(const RangeSet& a, const RangeSet& b) {
  // Merge two sorted disjoint lists, fusing touching/overlapping ranges
  // (but not coalescing across real gaps).
  std::vector<WordRange> merged;
  merged.reserve(a.ranges().size() + b.ranges().size());
  std::merge(a.ranges().begin(), a.ranges().end(), b.ranges().begin(),
             b.ranges().end(), std::back_inserter(merged),
             [](const WordRange& x, const WordRange& y) {
               return x.lo < y.lo;
             });
  std::vector<WordRange> out;
  for (const auto& r : merged) {
    if (!out.empty() && r.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, r.hi);
    } else {
      out.push_back(r);
    }
  }
  return RangeSet::from_sorted(std::move(out));
}

std::uint64_t staging_cycles(std::uint64_t words, double words_per_cycle) {
  SIMT_CHECK(words_per_cycle > 0.0);
  if (words == 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(words) / words_per_cycle));
}

std::uint64_t dma_burst_cycles(std::uint64_t words, double words_per_cycle) {
  if (words == 0) {
    return 0;
  }
  return kDmaSetupCycles + staging_cycles(words, words_per_cycle);
}

PipelineModel model_pipeline(
    const std::vector<std::vector<RoundCost>>& rounds) {
  PipelineModel model;
  if (rounds.empty()) {
    return model;
  }
  const std::size_t cores = rounds.front().size();

  // Serial: every round pays its slowest stage, exec, and merge in
  // sequence (the per-core DMA engines run in parallel with each other,
  // but never with execution).
  for (const auto& round : rounds) {
    SIMT_CHECK(round.size() == cores);
    std::uint64_t stage = 0, exec = 0, merge = 0;
    for (const auto& c : round) {
      stage = std::max(stage, c.stage_early_cycles + c.stage_late_cycles);
      exec = std::max(exec, c.exec_cycles);
      merge = std::max(merge, c.merge_cycles);
    }
    model.serial_cycles += stage + exec + merge;
  }

  // Overlap: per core, the DMA engine issues early(0), late(0), early(1)
  // [copied during exec(0)], merge(0), late(1) [after every core's
  // merge(0) -- its data dependency], ... Execution of round r starts once
  // its staging is resident, this core's previous round retired, and the
  // round was dispatched (the system joins every core between rounds).
  std::vector<std::uint64_t> dma_free(cores, 0);
  std::vector<std::uint64_t> exec_done(cores, 0);
  std::vector<std::uint64_t> early_done(cores, 0);
  std::vector<std::uint64_t> merge_done(cores, 0);
  std::uint64_t merge_barrier = 0;  // round r-1's merges all complete
  std::uint64_t exec_barrier = 0;   // round r-1's dispatch join
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (std::size_t c = 0; c < cores; ++c) {
      const auto& cost = rounds[r][c];
      if (r == 0) {
        early_done[c] = dma_free[c] + cost.stage_early_cycles;
        dma_free[c] = early_done[c];
      }
      const std::uint64_t late_start = std::max(dma_free[c], merge_barrier);
      const std::uint64_t late_done = late_start + cost.stage_late_cycles;
      dma_free[c] = std::max(dma_free[c], late_done);
      const std::uint64_t stage_done = std::max(early_done[c], late_done);
      const std::uint64_t exec_start =
          std::max({stage_done, exec_done[c], exec_barrier});
      exec_done[c] = exec_start + cost.exec_cycles;
      if (r + 1 < rounds.size()) {
        // Prefetch the next round's independent staging during execution.
        early_done[c] = dma_free[c] + rounds[r + 1][c].stage_early_cycles;
        dma_free[c] = early_done[c];
      }
      const std::uint64_t merge_start = std::max(exec_done[c], dma_free[c]);
      merge_done[c] = merge_start + cost.merge_cycles;
      dma_free[c] = merge_done[c];
    }
    for (std::size_t c = 0; c < cores; ++c) {
      merge_barrier = std::max(merge_barrier, merge_done[c]);
      exec_barrier = std::max(exec_barrier, exec_done[c]);
    }
  }
  model.overlap_cycles = merge_barrier;
  return model;
}

std::uint64_t overlap_words(const RangeSet& a, const RangeSet& b) {
  std::uint64_t words = 0;
  auto ia = a.ranges().begin();
  auto ib = b.ranges().begin();
  while (ia != a.ranges().end() && ib != b.ranges().end()) {
    const std::uint32_t lo = std::max(ia->lo, ib->lo);
    const std::uint32_t hi = std::min(ia->hi, ib->hi);
    if (lo < hi) {
      words += hi - lo;
    }
    if (ia->hi < ib->hi) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return words;
}

}  // namespace simt::runtime
