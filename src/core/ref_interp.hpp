// Reference functional interpreter.
//
// A deliberately *independent* implementation of the ISA semantics using
// plain C++ arithmetic (int64 multiplies, native shifts) and no structural
// datapath models, no cycle accounting, no pipelines. The property tests run
// every program on both this interpreter and the cycle-accurate Gpgpu and
// require identical architectural state -- catching bugs in either the
// structural datapaths (wrong carry composition, shifter masks) or the
// sequencer (missed writes, guard handling).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "core/config.hpp"
#include "core/program.hpp"

namespace simt::core {

class DecodedImage;

namespace ref {
/// Golden ALU semantics in plain C++ (shared with the scalar baseline and
/// the functional fast path's per-opcode thunks). Inline and constexpr so a
/// compile-time opcode folds the switch away: each batch thunk instantiation
/// becomes one arithmetic loop the compiler can vectorise.
constexpr std::uint32_t alu(isa::Opcode op, std::uint32_t a,
                            std::uint32_t b) {
  using isa::Opcode;
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  switch (op) {
    case Opcode::ADD:
    case Opcode::ADDI:
      return a + b;
    case Opcode::SUB:
    case Opcode::SUBI:
      return a - b;
    case Opcode::MULLO:
    case Opcode::MULI:
      return static_cast<std::uint32_t>(
          static_cast<std::int64_t>(sa) * static_cast<std::int64_t>(sb));
    case Opcode::MULHI:
      return static_cast<std::uint32_t>(
          (static_cast<std::int64_t>(sa) * static_cast<std::int64_t>(sb)) >>
          32);
    case Opcode::MULHIU:
      return static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b)) >>
          32);
    case Opcode::ABS:
      return sa < 0 ? static_cast<std::uint32_t>(-static_cast<std::int64_t>(sa))
                    : a;
    case Opcode::NEG:
      return static_cast<std::uint32_t>(-static_cast<std::int64_t>(sa));
    case Opcode::MIN:
      return static_cast<std::uint32_t>(std::min(sa, sb));
    case Opcode::MAX:
      return static_cast<std::uint32_t>(std::max(sa, sb));
    case Opcode::MINU:
      return std::min(a, b);
    case Opcode::MAXU:
      return std::max(a, b);
    case Opcode::AND:
    case Opcode::ANDI:
      return a & b;
    case Opcode::OR:
    case Opcode::ORI:
      return a | b;
    case Opcode::XOR:
    case Opcode::XORI:
      return a ^ b;
    case Opcode::NOT:
      return ~a;
    case Opcode::CNOT:
      return (b & 1u) ? ~a : a;
    case Opcode::SHL:
    case Opcode::SHLI:
      return b >= 32 ? 0u : a << b;
    case Opcode::SHR:
    case Opcode::SHRI:
      return b >= 32 ? 0u : a >> b;
    case Opcode::SAR:
    case Opcode::SARI: {
      const unsigned amt = std::min<std::uint32_t>(b, 31);
      return static_cast<std::uint32_t>(sa >> amt);
    }
    case Opcode::POPC:
      return static_cast<std::uint32_t>(__builtin_popcount(a));
    case Opcode::CLZ:
      return a == 0 ? 32u : static_cast<std::uint32_t>(__builtin_clz(a));
    case Opcode::BREV: {
      std::uint32_t r = 0;
      for (int i = 0; i < 32; ++i) {
        r = (r << 1) | ((a >> i) & 1u);
      }
      return r;
    }
    case Opcode::MOV:
      return a;
    case Opcode::MOVI:
      return b;
    default:
      SIMT_CHECK(false && "not a reference ALU op");
  }
}
constexpr std::uint32_t alu(const isa::Instr& in, std::uint32_t a,
                            std::uint32_t b) {
  return alu(in.op, a, b);
}

/// Golden compare semantics for the SETP family.
constexpr bool compare(isa::Opcode op, std::uint32_t a, std::uint32_t b) {
  using isa::Opcode;
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  switch (op) {
    case Opcode::SETP_EQ:
      return a == b;
    case Opcode::SETP_NE:
      return a != b;
    case Opcode::SETP_LT:
      return sa < sb;
    case Opcode::SETP_LE:
      return sa <= sb;
    case Opcode::SETP_GT:
      return sa > sb;
    case Opcode::SETP_GE:
      return sa >= sb;
    case Opcode::SETP_LTU:
      return a < b;
    case Opcode::SETP_GEU:
      return a >= b;
    default:
      SIMT_CHECK(false && "not a compare op");
  }
}
}  // namespace ref

class ReferenceInterpreter {
 public:
  explicit ReferenceInterpreter(CoreConfig cfg);

  void load_program(const Program& program);
  /// Share a predecoded image (the decode-once path; the interpreter uses
  /// the cached per-pc records instead of a private decode loop).
  void load_image(std::shared_ptr<const DecodedImage> image);
  void set_thread_count(unsigned threads);

  /// Run to EXIT (or the instruction budget). Returns the number of
  /// instructions executed. Throws simt::Error on traps, mirroring Gpgpu.
  std::uint64_t run(std::uint32_t entry = 0,
                    std::uint64_t max_instructions = 1'000'000'000);

  std::uint32_t read_shared(std::uint32_t addr) const {
    return shared_.at(addr);
  }
  void write_shared(std::uint32_t addr, std::uint32_t value) {
    shared_.at(addr) = value;
  }
  std::uint32_t read_reg(unsigned thread, unsigned reg) const {
    return regs_.at(static_cast<std::size_t>(thread) * cfg_.regs_per_thread +
                    reg);
  }
  void write_reg(unsigned thread, unsigned reg, std::uint32_t value) {
    regs_.at(static_cast<std::size_t>(thread) * cfg_.regs_per_thread + reg) =
        value;
  }
  bool read_pred(unsigned thread, unsigned pred) const {
    return (preds_.at(thread) >> pred) & 1u;
  }

  const CoreConfig& config() const { return cfg_; }

 private:
  bool guard_passes(const isa::Instr& in, unsigned t) const;

  CoreConfig cfg_;
  std::shared_ptr<const DecodedImage> image_;
  unsigned threads_;
  std::vector<std::uint32_t> regs_;
  std::vector<std::uint8_t> preds_;
  std::vector<std::uint32_t> shared_;
};

}  // namespace simt::core
