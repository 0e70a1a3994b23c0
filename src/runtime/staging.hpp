// Shard maps and the double-buffered staging model.
//
// The multicore backend keeps one persistent memory image per core instead
// of re-broadcasting the whole device image every round. A RangeSet per
// core records which words of the master image the core has NOT yet seen
// (host writes and other cores' merged output shards); staging a round
// copies exactly those ranges. model_pipeline() then prices the rounds two
// ways: the serial PR-1 shape (stage, execute, merge back to back) and the
// double-buffered shape, where each core's DMA engine prefetches round
// N+1's staging while round N executes and reads the core's stored words
// back afterwards -- the overlap-adjusted wall clock LaunchStats reports.
#pragma once

#include <cstdint>
#include <vector>

namespace simt::runtime {

/// Half-open word range [lo, hi).
struct WordRange {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  std::uint32_t words() const { return hi - lo; }
};

/// Sorted, disjoint set of word ranges with gap coalescing: ranges closer
/// than kCoalesceGap merge into one burst, since a DMA engine prefers few
/// long transfers over many short ones (and the host-side bookkeeping stays
/// small either way).
class RangeSet {
 public:
  static constexpr std::uint32_t kCoalesceGap = 32;

  void insert(std::uint32_t lo, std::uint32_t hi);
  void clear() { ranges_.clear(); }
  bool empty() const { return ranges_.empty(); }

  /// Total words covered (after coalescing -- i.e. the staging traffic).
  std::uint64_t words() const;

  const std::vector<WordRange>& ranges() const { return ranges_; }

  /// Wrap an already sorted, disjoint range list without re-coalescing.
  /// The set-algebra helpers below use this so their exact results are not
  /// widened back over gaps they just carved out.
  static RangeSet from_sorted(std::vector<WordRange> ranges);

 private:
  std::vector<WordRange> ranges_;
};

/// Exact set algebra over range sets (no gap coalescing on the results).
/// The footprint-driven staging path uses these: the words to stage are
/// `intersect(stale, footprint)`, and the shard map afterwards keeps
/// `subtract(stale, staged)` -- what conservative restaging would have
/// shipped but the declared read/write set let us skip.
RangeSet intersect_sets(const RangeSet& a, const RangeSet& b);
RangeSet subtract_sets(const RangeSet& a, const RangeSet& b);
RangeSet union_sets(const RangeSet& a, const RangeSet& b);

/// Modeled per-core cost of one hardware round. Staging is split by data
/// dependency: the early part (host writes, ranges stale since before the
/// previous round) can be copied in while the previous round executes;
/// the late part re-stages words the previous round's merges produced, so
/// it cannot start before those merges complete.
struct RoundCost {
  std::uint64_t stage_early_cycles = 0;  ///< prefetchable copy-in
  std::uint64_t stage_late_cycles = 0;   ///< depends on round r-1's merges
  std::uint64_t exec_cycles = 0;         ///< the core's kernel run
  std::uint64_t merge_cycles = 0;        ///< stored-word read-back
};

struct PipelineModel {
  std::uint64_t serial_cycles = 0;   ///< stage + exec + merge, back to back
  std::uint64_t overlap_cycles = 0;  ///< double-buffered staging pipeline
};

/// Evaluate the staging pipeline over `rounds[r][c]` (round r, core c; every
/// inner vector must have the same size). Serial charges each round its
/// slowest stage, exec, and merge in sequence. Overlap gives each core a DMA
/// engine and an exec engine: the DMA prefetches round r+1's early staging
/// while round r executes, drains round r's merge, and only then moves the
/// merge-dependent late staging -- the double-buffer schedule with its data
/// dependencies intact. Rounds are dispatched with a join, as the multicore
/// system runs them: a round's execution starts nowhere before the previous
/// round's slowest core finished. The launch ends at the slowest core's
/// final merge.
PipelineModel model_pipeline(const std::vector<std::vector<RoundCost>>& rounds);

/// Words covered by both range sets (exact on the coalesced ranges).
std::uint64_t overlap_words(const RangeSet& a, const RangeSet& b);

/// Modeled cycles to move `words` words at `words_per_cycle` (ceiling; zero
/// words cost zero).
std::uint64_t staging_cycles(std::uint64_t words, double words_per_cycle);

/// Fixed per-transfer cost of one stream-level DMA burst: descriptor setup,
/// channel arbitration, and the first-beat latency a transfer pays no
/// matter how short it is. This is what copy-in fusion amortizes -- N
/// adjacent captured copy-ins pay N setups eagerly but one after they fuse
/// into a single burst at Graph::instantiate() time.
constexpr std::uint64_t kDmaSetupCycles = 16;

/// Modeled cycles for one stream-level DMA burst: the fixed setup plus the
/// streaming time. Zero words cost zero (no burst is issued).
std::uint64_t dma_burst_cycles(std::uint64_t words, double words_per_cycle);

}  // namespace simt::runtime
