// The SIMT processor: a single SM of 16 SPs with multiport shared memory,
// lockstep thread sequencing, and the Fig. 2/3 fetch-decode and pipeline
// control (Section 2: "all threads run in lockstep, i.e. every thread in the
// current instruction is issued before the next instruction is started").
//
// The model is cycle-accurate at the sequencer level: per-instruction clock
// counts follow the pipeline-control arithmetic of Section 3.1 exactly
// (operation = block depth, load = 4 clocks x width, store = 16 clocks x
// width, single-cycle class, branch-taken zeroing bubbles, and the
// register/memory interlocks implied by the deeply pipelined datapath).
// Datapaths are the bit-exact structural models from src/hw.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/decoded_image.hpp"
#include "core/fetch_decode.hpp"
#include "core/imem.hpp"
#include "core/perf.hpp"
#include "core/pipeline_control.hpp"
#include "core/program.hpp"
#include "hw/alu.hpp"
#include "hw/multiport_mem.hpp"

namespace simt::core {

/// Result of a kernel run.
struct RunResult {
  PerfCounters perf;
  bool exited = false;  ///< reached EXIT (vs. hitting the instruction budget)
};

class Gpgpu {
 public:
  explicit Gpgpu(CoreConfig cfg);

  const CoreConfig& config() const { return cfg_; }

  /// Load a program into the (externally re-loadable) I-MEM. Validates the
  /// program against the configuration: predicate use requires
  /// predicates_enabled, register indices must fit, branch targets must be
  /// in range. Throws simt::Error on violations. Decode + validation run
  /// once, into a DecodedImage the interpreter loop executes from.
  void load_program(const Program& program);

  /// Load a prebuilt predecoded image (the decode-once path: a multi-core
  /// system builds one image and shares it across every core; the runtime
  /// shares it across rounds and graph replays). The image must have been
  /// built and validated for a matching configuration
  /// (DecodedImage::validated_for), else simt::Error.
  void load_image(std::shared_ptr<const DecodedImage> image);

  /// The predecoded image currently loaded (null before any load).
  const std::shared_ptr<const DecodedImage>& image() const {
    return decoded_;
  }

  /// Set the launch thread count (the "number of threads" input of Fig. 3;
  /// programs may rescale it with SETT/SETTI when dynamic scaling is on).
  void set_thread_count(unsigned threads);
  unsigned thread_count() const { return launch_threads_; }

  /// Global-tid offset for sharded grids: %tid reads base + local index, so
  /// a host runtime can split one logical launch across cores or rounds
  /// (the CUDA blockIdx analogue for this single-block core).
  void set_thread_base(std::uint32_t base) { thread_base_ = base; }
  std::uint32_t thread_base() const { return thread_base_; }

  /// SM index reported by %smid (set per core by the multi-core system).
  void set_smid(std::uint32_t smid) { smid_ = smid; }
  std::uint32_t smid() const { return smid_; }

  /// Logical grid size reported by %ntid on sharded launches (0 = none):
  /// a runtime splitting one grid across rounds or cores sets this so
  /// kernels read the full grid, not the shard, on every backend. The
  /// override lasts until the program rescales the thread space with
  /// SETT/SETTI -- from then on %ntid tracks the dynamic count, which is
  /// the Section 2 semantics (and such kernels are not shard-safe anyway).
  void set_ntid_override(std::uint32_t ntid) { ntid_override_ = ntid; }
  std::uint32_t ntid_override() const { return ntid_override_; }

  /// Run from `entry` until EXIT or the instruction budget is exhausted.
  RunResult run(std::uint32_t entry = 0,
                std::uint64_t max_instructions = 1'000'000'000);

  /// Sorted, maximal half-open runs [lo, hi) of the shared-memory words the
  /// last run() stored to: the core's exact write set (empty when nothing
  /// was stored). A host runtime merging several cores' results reads back
  /// exactly these words.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dirty_runs() const;

  // ---- host (backdoor) access -------------------------------------------
  std::uint32_t read_shared(std::uint32_t addr) const;
  void write_shared(std::uint32_t addr, std::uint32_t value);
  /// Bulk host staging (rides MultiPortMemory's span fast path).
  void read_shared_span(std::uint32_t base, std::span<std::uint32_t> out) const;
  void write_shared_span(std::uint32_t base,
                         std::span<const std::uint32_t> data);
  std::uint32_t read_reg(unsigned thread, unsigned reg) const;
  void write_reg(unsigned thread, unsigned reg, std::uint32_t value);
  bool read_pred(unsigned thread, unsigned pred) const;
  void write_pred(unsigned thread, unsigned pred, bool value);

  /// Zero registers, predicates, and shared memory.
  void reset_state();

 private:
  struct ProducerRecord {
    std::uint64_t start = 0;   ///< issue-start cycle
    unsigned width = 1;        ///< clocks per row
    unsigned rows = 1;
    unsigned latency = 0;      ///< writeback latency after row issue
    bool valid = false;
  };

  // Functional execution helpers (operate on the full active thread block).
  // Load/store return the number of guard-passing lanes (actual memory
  // operations; lockstep issue cost is independent of the guard mask).
  // The per-lane format/guard dispatch is hoisted out of the thread loop:
  // exec_operation selects a per-(format, guard-class) loop body once per
  // instruction, with an all-lanes-active fast path for unguarded
  // instructions and either the functional ALU thunks or the bit-accurate
  // structural models (CoreConfig::bit_accurate) inside the loop.
  //
  // On top of that, the SIMD lane engine (CoreConfig::simd_lanes, functional
  // engine only) runs every operation as one per-opcode batch over the
  // contiguous per-register lane rows of rf_data_: an unguarded operation
  // writes its destination row directly, a guarded one evaluates into a
  // scratch row and selects per lane on the guard mask (operations cannot
  // trap, so divergence needs no fallback). Loads and stores batch when
  // their guard resolves uniformly over the active block: they gather or
  // scatter directly against the committed shared-memory image after
  // bounds-checking every lane's address up front, so an out-of-bounds lane
  // falls back to the scalar body from untouched state and reproduces its
  // exact trap. The *_batched memory helpers return false on a divergent
  // guard or an out-of-bounds lane, and the caller runs the per-lane scalar
  // body instead -- results are bit-identical either way.
  void exec_operation(const DecodedOp& d, unsigned active);
  void exec_operation_batched(const DecodedOp& d, unsigned active);
  template <bool kGuarded, typename AluPolicy>
  void exec_operation_body(const DecodedOp& d, unsigned active,
                           const AluPolicy& alu);
  unsigned exec_load(const isa::Instr& instr, unsigned active);
  unsigned exec_store(const isa::Instr& instr, unsigned active);
  bool exec_load_batched(const isa::Instr& instr, unsigned active,
                         unsigned& lanes);
  bool exec_store_batched(const isa::Instr& instr, unsigned active,
                          unsigned& lanes);
  template <bool kGuarded>
  unsigned exec_load_body(const isa::Instr& instr, unsigned active);
  template <bool kGuarded>
  unsigned exec_store_body(const isa::Instr& instr, unsigned active);
  std::uint32_t special_value(isa::SpecialReg sr, unsigned thread,
                              unsigned active) const;

  // Register-file plumbing over the flat lane-major layout (see rf_data_).
  std::uint32_t rf_read(unsigned thread, unsigned reg) const {
    return rf_data_[reg * cfg_.max_threads + thread];
  }
  void rf_write(unsigned thread, unsigned reg, std::uint32_t value) {
    rf_data_[reg * cfg_.max_threads + thread] = value;
  }
  const std::uint32_t* rf_row(unsigned reg) const {
    return rf_data_.data() + reg * cfg_.max_threads;
  }
  std::uint32_t* rf_row(unsigned reg) {
    return rf_data_.data() + reg * cfg_.max_threads;
  }

  // Hazard bookkeeping.
  std::uint64_t earliest_start(const isa::Instr& instr, unsigned my_width,
                               unsigned my_rows,
                               std::uint64_t candidate) const;
  void note_writes(const isa::Instr& instr, std::uint64_t start,
                   unsigned width, unsigned rows);
  std::uint64_t producer_bound(const ProducerRecord& p, unsigned my_width,
                               unsigned my_rows) const;

  CoreConfig cfg_;
  InstructionMemory imem_;
  /// Predecoded I-MEM contents, rebuilt/replaced on every load (the only
  /// I-MEM write path) and executed directly by run().
  std::shared_ptr<const DecodedImage> decoded_;
  /// num_sps is a power of two: lane = tid & mask, row = tid >> shift.
  unsigned sp_mask_ = 0;
  unsigned sp_shift_ = 0;
  hw::MultiPortMemory shared_;
  /// Register file, flat and lane-major: rf_data_[reg * max_threads + tid].
  /// For a fixed register every lane's value is contiguous in thread order,
  /// so one batch thunk covers the whole active block of an instruction --
  /// the layout the SIMD lane engine depends on. Scalar access goes through
  /// rf_read/rf_write on the same storage, so both engines see one file.
  std::vector<std::uint32_t> rf_data_;
  /// One word per thread: a guarded batch's results before the masked
  /// select, or the LDS/STS addresses computed and bounds-checked as a block
  /// before the batched gather/scatter mutates anything.
  std::vector<std::uint32_t> lane_scratch_;
  /// A guarded predicate batch's new predicate bytes before the select.
  std::vector<std::uint8_t> pred_scratch_;
  std::vector<hw::Alu> alus_;           ///< one per SP
  std::vector<std::uint8_t> preds_;     ///< 4-bit mask per thread
  FetchDecode fetch_;
  unsigned launch_threads_;
  unsigned active_threads_;
  void mark_dirty(std::uint32_t addr) {
    dirty_[addr >> 6] |= std::uint64_t{1} << (addr & 63);
  }

  std::uint32_t thread_base_ = 0;
  std::uint32_t smid_ = 0;
  std::uint32_t ntid_override_ = 0;
  /// One bit per shared-memory word, set by every store of the last run.
  std::vector<std::uint64_t> dirty_;

  std::vector<ProducerRecord> reg_producer_;   ///< per architectural register
  std::array<ProducerRecord, isa::kNumPredRegs> pred_producer_{};
  ProducerRecord store_producer_{};            ///< last STS (memory ordering)
};

}  // namespace simt::core
