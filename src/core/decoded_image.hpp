// Predecoded instruction image: the host-simulation fast path.
//
// Every execution engine in this repo used to re-run isa::decode (or at
// least isa::op_info) on every *executed* instruction, and the multi-core
// system decoded the same program once per core per load. A DecodedImage
// decodes a Program exactly once into a dense per-pc record carrying the
// decoded Instr, its OpInfo, the pipeline width factor for the owning
// core's port configuration, and resolved functional-ALU thunks (plain C++
// arithmetic, bit-identical to the structural hw::Alu models -- the
// property the differential suites enforce). The image is immutable and
// shared by shared_ptr, so rounds, graph replays, sibling cores, and the
// scalar/reference interpreters all reuse one decode.
//
// Loader argument binding ($param relocation) only rewrites immediate
// fields, so a bound image is derived with patched() -- a copy with the
// affected immediates (and their encoded words) rewritten, no re-decode
// and no re-validation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/program.hpp"
#include "isa/isa.hpp"

namespace simt::core {

/// Functional-ALU thunk types: one resolved function per opcode, so the
/// per-lane hot loop is an indirect call instead of a per-lane opcode
/// switch (and instead of walking the structural DSP/shifter models).
using AluFn = std::uint32_t (*)(std::uint32_t, std::uint32_t);
using CmpFn = bool (*)(std::uint32_t, std::uint32_t);

/// Resolved thunk for an ALU register op (golden ref::alu semantics);
/// nullptr when the opcode computes no general-register ALU result.
AluFn functional_alu(isa::Opcode op);
/// Resolved thunk for a SETP compare; nullptr for non-compare opcodes.
CmpFn functional_cmp(isa::Opcode op);

/// Batched lane thunks: one call evaluates a whole contiguous lane block
/// (the SIMD engine's unit of work -- every active thread of one
/// instruction, laid out contiguously per register in Gpgpu's flat file).
/// The golden semantics are inline constexpr, so each per-opcode
/// instantiation folds to a single arithmetic loop the compiler can
/// vectorise; element-wise aliasing (d == a or d == b) is well-defined,
/// matching the per-lane scalar loop.
using AluBatchRRFn = void (*)(std::uint32_t* d, const std::uint32_t* a,
                              const std::uint32_t* b, unsigned n);
using AluBatchRIFn = void (*)(std::uint32_t* d, const std::uint32_t* a,
                              std::uint32_t b, unsigned n);
/// Batched SETP: out[i] is preds[i] with bit `bit` set to the compare
/// (out == preds updates in place).
using CmpBatchFn = void (*)(std::uint8_t* out, const std::uint8_t* preds,
                            std::uint8_t bit, const std::uint32_t* a,
                            const std::uint32_t* b, unsigned n);

AluBatchRRFn functional_alu_batch_rr(isa::Opcode op);
AluBatchRIFn functional_alu_batch_ri(isa::Opcode op);
CmpBatchFn functional_cmp_batch(isa::Opcode op);

/// One predecoded instruction: everything an interpreter loop needs that
/// does not depend on the dynamic thread count.
struct DecodedOp {
  isa::Instr instr{};
  const isa::OpInfo* info = nullptr;
  AluFn alu = nullptr;  ///< functional ALU result (RRR/RRI/RR/RI forms)
  CmpFn cmp = nullptr;  ///< functional compare (PRR form)
  /// Batched variants of the same thunks, used by the SIMD lane engine
  /// (CoreConfig::simd_lanes): one call per instruction instead of one per
  /// lane; a guarded instruction evaluates into a scratch row and selects
  /// per lane on the guard mask.
  AluBatchRRFn alu_batch_rr = nullptr;  ///< RRR form over lane blocks
  AluBatchRIFn alu_batch_ri = nullptr;  ///< RRI/RR forms over lane blocks
  CmpBatchFn cmp_batch = nullptr;       ///< PRR form over lane blocks
  /// Pipeline width factor (clocks per thread-block row) for the port
  /// configuration the image was built against; 1 for functional builds.
  /// Full width: ceil(num_sps / write_ports) can exceed a byte.
  std::uint32_t width = 1;
  bool single = false;  ///< TimingClass::Single (one clock, no rows)
};

class DecodedImage {
 public:
  /// Decode a program without architectural validation -- the contract of
  /// the functional engines (scalar baseline, reference interpreter),
  /// which trap bad programs at runtime exactly as they always did.
  static std::shared_ptr<const DecodedImage> build(const Program& program);

  /// Decode and validate against a core configuration: register indices
  /// must fit, predicate use requires predicates_enabled, branch/loop
  /// targets must land in the program, SETTI counts must fit the thread
  /// space -- the checks Gpgpu::load_program has always enforced, now run
  /// once per image instead of once per core. Throws simt::Error with the
  /// same diagnostics on violations.
  static std::shared_ptr<const DecodedImage> build(const Program& program,
                                                   const CoreConfig& cfg);

  /// Derive a copy with instruction immediates rewritten (the loader's
  /// $param binding): ops_[pc].instr.imm = imm and the encoded word
  /// re-encoded, for each (pc, imm) pair. Validation carries over because
  /// the assembler can only place $param references in data immediates --
  /// patching a control-flow or thread-scaling immediate throws.
  static std::shared_ptr<const DecodedImage> patched(
      const DecodedImage& base,
      std::span<const std::pair<std::uint32_t, std::int32_t>> patches);

  std::size_t size() const { return ops_.size(); }
  const DecodedOp& at(std::size_t pc) const { return ops_[pc]; }

  /// The decoded program (labels and kernel metadata included).
  const Program& program() const { return program_; }
  /// The 64-bit encoded words (what an I-MEM holds), encoded once.
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// True when the image was validated for a configuration this core's
  /// relevant fields match (architectural checks + width factors).
  bool validated_for(const CoreConfig& cfg) const {
    return key_.validated && key_ == BuildKey::from(cfg);
  }

 private:
  struct BuildKey {
    unsigned num_sps = 0;
    unsigned max_threads = 0;
    unsigned regs_per_thread = 0;
    unsigned shared_read_ports = 0;
    unsigned shared_write_ports = 0;
    bool predicates_enabled = false;
    bool validated = false;

    static BuildKey from(const CoreConfig& cfg) {
      return {cfg.num_sps,           cfg.max_threads,
              cfg.regs_per_thread,   cfg.shared_read_ports,
              cfg.shared_write_ports, cfg.predicates_enabled,
              true};
    }
    friend bool operator==(const BuildKey&, const BuildKey&) = default;
  };

  DecodedImage() = default;
  static std::shared_ptr<const DecodedImage> build_impl(
      const Program& program, const CoreConfig* cfg);

  Program program_;
  std::vector<std::uint64_t> words_;
  std::vector<DecodedOp> ops_;
  BuildKey key_{};
};

}  // namespace simt::core
