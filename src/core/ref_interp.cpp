#include "core/ref_interp.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/decoded_image.hpp"

namespace simt::core {

using isa::Format;
using isa::Guard;
using isa::Instr;
using isa::Opcode;

ReferenceInterpreter::ReferenceInterpreter(CoreConfig cfg)
    : cfg_(std::move(cfg)), threads_(cfg_.max_threads) {
  cfg_.validate();
  regs_.assign(static_cast<std::size_t>(cfg_.max_threads) *
                   cfg_.regs_per_thread,
               0);
  preds_.assign(cfg_.max_threads, 0);
  shared_.assign(cfg_.shared_mem_words, 0);
}

void ReferenceInterpreter::load_program(const Program& program) {
  image_ = DecodedImage::build(program);
}

void ReferenceInterpreter::load_image(
    std::shared_ptr<const DecodedImage> image) {
  if (!image) {
    throw Error("reference: null decoded image");
  }
  image_ = std::move(image);
}

void ReferenceInterpreter::set_thread_count(unsigned threads) {
  if (threads == 0 || threads > cfg_.max_threads) {
    throw Error("thread count must be in [1, max_threads]");
  }
  threads_ = threads;
}

bool ReferenceInterpreter::guard_passes(const Instr& in, unsigned t) const {
  if (in.guard == Guard::None) {
    return true;
  }
  const bool bit = (preds_[t] >> in.gpred) & 1u;
  return in.guard == Guard::IfTrue ? bit : !bit;
}

namespace ref {

std::uint32_t alu(isa::Opcode op, std::uint32_t a, std::uint32_t b) {
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

bool compare(Opcode op, std::uint32_t a, std::uint32_t b) {
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

std::uint64_t ReferenceInterpreter::run(std::uint32_t entry,
                                        std::uint64_t max_instructions) {
  std::uint32_t pc = entry;
  unsigned active = threads_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> call_stack;
  struct Loop {
    std::uint32_t start, end, remaining;
  };
  std::vector<Loop> loop_stack;
  std::uint64_t executed = 0;

  auto set_pred = [&](unsigned t, unsigned p, bool v) {
    if (v) {
      preds_[t] |= static_cast<std::uint8_t>(1u << p);
    } else {
      preds_[t] &= static_cast<std::uint8_t>(~(1u << p));
    }
  };

  while (executed < max_instructions) {
    if (!image_ || pc >= image_->size()) {
      throw Error("reference: PC out of program");
    }
    const DecodedOp& d = image_->at(pc);
    const Instr& in = d.instr;
    ++executed;
    const auto& info = *d.info;
    bool redirected = false;

    switch (in.op) {
      case Opcode::EXIT:
        return executed;
      case Opcode::BRA:
        pc = static_cast<std::uint32_t>(in.imm);
        redirected = true;
        break;
      case Opcode::BRP:
      case Opcode::BRN: {
        bool any = false;
        for (unsigned t = 0; t < active && !any; ++t) {
          any = (preds_[t] >> in.pa) & 1u;
        }
        const bool taken = in.op == Opcode::BRP ? any : !any;
        if (taken) {
          pc = static_cast<std::uint32_t>(in.imm);
          redirected = true;
        }
        break;
      }
      case Opcode::CALL:
        if (call_stack.size() >= cfg_.call_stack_depth) {
          throw Error("reference: call stack overflow");
        }
        call_stack.emplace_back(pc + 1, 0);
        pc = static_cast<std::uint32_t>(in.imm);
        redirected = true;
        break;
      case Opcode::RET:
        if (call_stack.empty()) {
          throw Error("reference: return with empty stack");
        }
        pc = call_stack.back().first;
        call_stack.pop_back();
        redirected = true;
        break;
      case Opcode::LOOP:
      case Opcode::LOOPI: {
        std::uint32_t count;
        std::uint32_t end;
        if (in.op == Opcode::LOOP) {
          count = read_reg(0, in.ra);
          end = static_cast<std::uint32_t>(in.imm);
        } else {
          count = static_cast<std::uint32_t>((in.imm >> 16) & 0xffff);
          end = static_cast<std::uint32_t>(in.imm & 0xffff);
        }
        if (count == 0) {
          pc = end;
          redirected = true;
        } else if (count > 1) {
          if (loop_stack.size() >= cfg_.loop_stack_depth) {
            throw Error("reference: loop stack overflow");
          }
          loop_stack.push_back(Loop{pc + 1, end, count});
        }
        break;
      }
      case Opcode::SETT:
        active = std::clamp<std::uint32_t>(read_reg(0, in.ra), 1,
                                           cfg_.max_threads);
        break;
      case Opcode::SETTI:
        active = std::clamp<std::uint32_t>(
            static_cast<std::uint32_t>(in.imm), 1, cfg_.max_threads);
        break;
      case Opcode::NOP:
      case Opcode::BAR:
        break;
      case Opcode::LDS:
        for (unsigned t = 0; t < active; ++t) {
          if (!guard_passes(in, t)) {
            continue;
          }
          const std::uint32_t addr =
              read_reg(t, in.ra) + static_cast<std::uint32_t>(in.imm);
          if (addr >= shared_.size()) {
            throw Error("reference: LDS out of bounds");
          }
          write_reg(t, in.rd, shared_[addr]);
        }
        break;
      case Opcode::STS:
        // A trapped store commits nothing: check every lane, then write.
        for (const bool commit : {false, true}) {
          for (unsigned t = 0; t < active; ++t) {
            if (!guard_passes(in, t)) {
              continue;
            }
            const std::uint32_t addr =
                read_reg(t, in.ra) + static_cast<std::uint32_t>(in.imm);
            if (commit) {
              shared_[addr] = read_reg(t, in.rd);
            } else if (addr >= shared_.size()) {
              throw Error("reference: STS out of bounds");
            }
          }
        }
        break;
      default: {
        // Thread-wide operation class.
        for (unsigned t = 0; t < active; ++t) {
          if (!guard_passes(in, t)) {
            continue;
          }
          switch (info.format) {
            case Format::RRR:
              write_reg(t, in.rd,
                        ref::alu(in, read_reg(t, in.ra), read_reg(t, in.rb)));
              break;
            case Format::RRI:
              write_reg(t, in.rd,
                        ref::alu(in, read_reg(t, in.ra),
                                static_cast<std::uint32_t>(in.imm)));
              break;
            case Format::RR:
              write_reg(t, in.rd, ref::alu(in, read_reg(t, in.ra), 0));
              break;
            case Format::RI:
              write_reg(t, in.rd,
                        ref::alu(in, 0, static_cast<std::uint32_t>(in.imm)));
              break;
            case Format::RS: {
              std::uint32_t v = 0;
              switch (static_cast<isa::SpecialReg>(in.imm)) {
                case isa::SpecialReg::Tid: v = t; break;
                case isa::SpecialReg::Ntid: v = active; break;
                case isa::SpecialReg::Nsp: v = cfg_.num_sps; break;
                case isa::SpecialReg::Lane: v = t % cfg_.num_sps; break;
                case isa::SpecialReg::Row: v = t / cfg_.num_sps; break;
                case isa::SpecialReg::Smid: v = 0; break;
              }
              write_reg(t, in.rd, v);
              break;
            }
            case Format::PRR:
              set_pred(t, in.pd,
                       ref::compare(in.op, read_reg(t, in.ra), read_reg(t, in.rb)));
              break;
            case Format::PPP: {
              const bool a = (preds_[t] >> in.pa) & 1u;
              const bool b = (preds_[t] >> in.pb) & 1u;
              bool r = false;
              if (in.op == Opcode::PAND) r = a && b;
              else if (in.op == Opcode::POR) r = a || b;
              else r = a != b;
              set_pred(t, in.pd, r);
              break;
            }
            case Format::PP:
              set_pred(t, in.pd, !((preds_[t] >> in.pa) & 1u));
              break;
            case Format::SELP:
              write_reg(t, in.rd,
                        ((preds_[t] >> in.pa) & 1u) ? read_reg(t, in.ra)
                                                    : read_reg(t, in.rb));
              break;
            default:
              SIMT_CHECK(false && "unexpected format");
          }
        }
        break;
      }
    }

    if (!redirected) {
      std::uint32_t next = pc + 1;
      while (!loop_stack.empty() && next == loop_stack.back().end) {
        auto& top = loop_stack.back();
        if (--top.remaining > 0) {
          next = top.start;
          break;
        }
        loop_stack.pop_back();
      }
      pc = next;
    }
  }
  throw Error("reference: instruction budget exhausted");
}

}  // namespace simt::core
