#include "core/decoded_image.hpp"

#include <string>

#include "common/error.hpp"
#include "core/pipeline_control.hpp"
#include "core/ref_interp.hpp"

namespace simt::core {

using isa::Format;
using isa::Guard;
using isa::Instr;
using isa::Opcode;
using isa::TimingClass;

namespace {

// Per-opcode thunks: ref::alu / ref::compare are inline constexpr, so the
// compile-time opcode folds their switch away and each instantiation is one
// direct arithmetic function the per-lane loops call through a cached
// pointer.
template <Opcode Op>
std::uint32_t alu_thunk(std::uint32_t a, std::uint32_t b) {
  return ref::alu(Op, a, b);
}

template <Opcode Op>
bool cmp_thunk(std::uint32_t a, std::uint32_t b) {
  return ref::compare(Op, a, b);
}

// Batched thunks: the same fold leaves one arithmetic loop per opcode over
// the contiguous lane rows, the shape the auto-vectoriser turns into SIMD.
// The element-wise body makes d == a / d == b (and out == preds) aliasing
// equivalent to the per-lane scalar loop.
template <Opcode Op>
void alu_batch_rr_thunk(std::uint32_t* d, const std::uint32_t* a,
                        const std::uint32_t* b, unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    d[i] = ref::alu(Op, a[i], b[i]);
  }
}

template <Opcode Op>
void alu_batch_ri_thunk(std::uint32_t* d, const std::uint32_t* a,
                        std::uint32_t b, unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    d[i] = ref::alu(Op, a[i], b);
  }
}

template <Opcode Op>
void cmp_batch_thunk(std::uint8_t* out, const std::uint8_t* preds,
                     std::uint8_t bit, const std::uint32_t* a,
                     const std::uint32_t* b, unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(
        (preds[i] & ~bit) | (ref::compare(Op, a[i], b[i]) ? bit : 0));
  }
}

}  // namespace

AluFn functional_alu(Opcode op) {
#define SIMT_ALU_CASE(OP) \
  case Opcode::OP:        \
    return alu_thunk<Opcode::OP>;
  switch (op) {
    SIMT_ALU_CASE(ADD)
    SIMT_ALU_CASE(SUB)
    SIMT_ALU_CASE(ADDI)
    SIMT_ALU_CASE(SUBI)
    SIMT_ALU_CASE(MULLO)
    SIMT_ALU_CASE(MULHI)
    SIMT_ALU_CASE(MULHIU)
    SIMT_ALU_CASE(MULI)
    SIMT_ALU_CASE(ABS)
    SIMT_ALU_CASE(NEG)
    SIMT_ALU_CASE(MIN)
    SIMT_ALU_CASE(MAX)
    SIMT_ALU_CASE(MINU)
    SIMT_ALU_CASE(MAXU)
    SIMT_ALU_CASE(AND)
    SIMT_ALU_CASE(OR)
    SIMT_ALU_CASE(XOR)
    SIMT_ALU_CASE(NOT)
    SIMT_ALU_CASE(CNOT)
    SIMT_ALU_CASE(ANDI)
    SIMT_ALU_CASE(ORI)
    SIMT_ALU_CASE(XORI)
    SIMT_ALU_CASE(SHL)
    SIMT_ALU_CASE(SHR)
    SIMT_ALU_CASE(SAR)
    SIMT_ALU_CASE(SHLI)
    SIMT_ALU_CASE(SHRI)
    SIMT_ALU_CASE(SARI)
    SIMT_ALU_CASE(POPC)
    SIMT_ALU_CASE(CLZ)
    SIMT_ALU_CASE(BREV)
    SIMT_ALU_CASE(MOV)
    SIMT_ALU_CASE(MOVI)
    default:
      return nullptr;
  }
#undef SIMT_ALU_CASE
}

CmpFn functional_cmp(Opcode op) {
#define SIMT_CMP_CASE(OP) \
  case Opcode::OP:        \
    return cmp_thunk<Opcode::OP>;
  switch (op) {
    SIMT_CMP_CASE(SETP_EQ)
    SIMT_CMP_CASE(SETP_NE)
    SIMT_CMP_CASE(SETP_LT)
    SIMT_CMP_CASE(SETP_LE)
    SIMT_CMP_CASE(SETP_GT)
    SIMT_CMP_CASE(SETP_GE)
    SIMT_CMP_CASE(SETP_LTU)
    SIMT_CMP_CASE(SETP_GEU)
    default:
      return nullptr;
  }
#undef SIMT_CMP_CASE
}

AluBatchRRFn functional_alu_batch_rr(Opcode op) {
#define SIMT_ALU_CASE(OP) \
  case Opcode::OP:        \
    return alu_batch_rr_thunk<Opcode::OP>;
  switch (op) {
    SIMT_ALU_CASE(ADD)
    SIMT_ALU_CASE(SUB)
    SIMT_ALU_CASE(MULLO)
    SIMT_ALU_CASE(MULHI)
    SIMT_ALU_CASE(MULHIU)
    SIMT_ALU_CASE(MIN)
    SIMT_ALU_CASE(MAX)
    SIMT_ALU_CASE(MINU)
    SIMT_ALU_CASE(MAXU)
    SIMT_ALU_CASE(AND)
    SIMT_ALU_CASE(OR)
    SIMT_ALU_CASE(XOR)
    SIMT_ALU_CASE(CNOT)
    SIMT_ALU_CASE(SHL)
    SIMT_ALU_CASE(SHR)
    SIMT_ALU_CASE(SAR)
    default:
      return nullptr;
  }
#undef SIMT_ALU_CASE
}

AluBatchRIFn functional_alu_batch_ri(Opcode op) {
#define SIMT_ALU_CASE(OP) \
  case Opcode::OP:        \
    return alu_batch_ri_thunk<Opcode::OP>;
  switch (op) {
    SIMT_ALU_CASE(ADDI)
    SIMT_ALU_CASE(SUBI)
    SIMT_ALU_CASE(MULI)
    SIMT_ALU_CASE(ABS)
    SIMT_ALU_CASE(NEG)
    SIMT_ALU_CASE(NOT)
    SIMT_ALU_CASE(ANDI)
    SIMT_ALU_CASE(ORI)
    SIMT_ALU_CASE(XORI)
    SIMT_ALU_CASE(SHLI)
    SIMT_ALU_CASE(SHRI)
    SIMT_ALU_CASE(SARI)
    SIMT_ALU_CASE(POPC)
    SIMT_ALU_CASE(CLZ)
    SIMT_ALU_CASE(BREV)
    SIMT_ALU_CASE(MOV)
    default:
      return nullptr;
  }
#undef SIMT_ALU_CASE
}

CmpBatchFn functional_cmp_batch(Opcode op) {
#define SIMT_CMP_CASE(OP) \
  case Opcode::OP:        \
    return cmp_batch_thunk<Opcode::OP>;
  switch (op) {
    SIMT_CMP_CASE(SETP_EQ)
    SIMT_CMP_CASE(SETP_NE)
    SIMT_CMP_CASE(SETP_LT)
    SIMT_CMP_CASE(SETP_LE)
    SIMT_CMP_CASE(SETP_GT)
    SIMT_CMP_CASE(SETP_GE)
    SIMT_CMP_CASE(SETP_LTU)
    SIMT_CMP_CASE(SETP_GEU)
    default:
      return nullptr;
  }
#undef SIMT_CMP_CASE
}

namespace {

/// The architectural checks Gpgpu::load_program has always run, applied to
/// one instruction (diagnostics preserved verbatim).
void validate_instr(const Instr& in, const isa::OpInfo& info,
                    std::uint32_t pc, std::uint32_t program_size,
                    const CoreConfig& cfg) {
  auto fail = [&](const std::string& why) {
    throw Error("program validation failed at pc " + std::to_string(pc) +
                " (" + isa::disassemble(in) + "): " + why);
  };
  auto check_reg = [&](std::uint8_t r, const char* name) {
    if (r >= cfg.regs_per_thread) {
      fail(std::string(name) + " register out of range (" +
           std::to_string(r) + " >= " +
           std::to_string(cfg.regs_per_thread) + ")");
    }
  };
  if (!cfg.predicates_enabled) {
    const bool pred_use =
        in.guard != Guard::None || info.writes_pd ||
        info.format == Format::SELP || in.op == Opcode::BRP ||
        in.op == Opcode::BRN;
    if (pred_use) {
      fail("predicates are disabled in this configuration");
    }
  }
  switch (info.format) {
    case Format::RRR:
      check_reg(in.rd, "rd");
      check_reg(in.ra, "ra");
      check_reg(in.rb, "rb");
      break;
    case Format::RRI:
      check_reg(in.rd, "rd");
      check_reg(in.ra, "ra");
      break;
    case Format::RR:
      check_reg(in.rd, "rd");
      check_reg(in.ra, "ra");
      break;
    case Format::RI:
    case Format::RS:
      check_reg(in.rd, "rd");
      break;
    case Format::PRR:
      check_reg(in.ra, "ra");
      check_reg(in.rb, "rb");
      break;
    case Format::PPP:
    case Format::PP:
      break;
    case Format::SELP:
      check_reg(in.rd, "rd");
      check_reg(in.ra, "ra");
      check_reg(in.rb, "rb");
      break;
    case Format::MEM:
      check_reg(in.rd, "rd");
      check_reg(in.ra, "ra");
      break;
    case Format::B:
    case Format::PB:
      if (in.imm < 0 || static_cast<std::uint32_t>(in.imm) >= program_size) {
        fail("branch target out of range");
      }
      break;
    case Format::LOOPR:
      check_reg(in.ra, "ra");
      [[fallthrough]];
    case Format::LOOPI: {
      const std::uint32_t end =
          in.op == Opcode::LOOPI
              ? static_cast<std::uint32_t>(in.imm & 0xffff)
              : static_cast<std::uint32_t>(in.imm);
      if (end <= pc + 1 || end > program_size) {
        fail("loop end must lie after the loop instruction");
      }
      break;
    }
    case Format::TR:
      check_reg(in.ra, "ra");
      break;
    case Format::TI:
      if (in.imm < 1 || static_cast<unsigned>(in.imm) > cfg.max_threads) {
        fail("setti thread count out of range");
      }
      break;
    case Format::NONE:
      break;
  }
}

}  // namespace

std::shared_ptr<const DecodedImage> DecodedImage::build_impl(
    const Program& program, const CoreConfig* cfg) {
  auto image = std::shared_ptr<DecodedImage>(new DecodedImage());
  image->program_ = program;
  const auto n = static_cast<std::uint32_t>(program.size());
  image->ops_.reserve(n);
  image->words_.reserve(n);
  for (std::uint32_t pc = 0; pc < n; ++pc) {
    const Instr& in = program.at(pc);
    const auto& info = isa::op_info(in.op);
    if (cfg != nullptr) {
      validate_instr(in, info, pc, n, *cfg);
    }
    DecodedOp op;
    op.instr = in;
    op.info = &info;
    op.alu = functional_alu(in.op);
    op.cmp = functional_cmp(in.op);
    op.alu_batch_rr = functional_alu_batch_rr(in.op);
    op.alu_batch_ri = functional_alu_batch_ri(in.op);
    op.cmp_batch = functional_cmp_batch(in.op);
    op.single = info.timing == TimingClass::Single;
    op.width = cfg != nullptr
                   ? width_factor_for(info.timing, cfg->num_sps,
                                      cfg->shared_read_ports,
                                      cfg->shared_write_ports)
                   : 1;
    image->ops_.push_back(op);
    image->words_.push_back(isa::encode(in));
  }
  if (cfg != nullptr) {
    image->key_ = BuildKey::from(*cfg);
  }
  return image;
}

std::shared_ptr<const DecodedImage> DecodedImage::build(
    const Program& program) {
  return build_impl(program, nullptr);
}

std::shared_ptr<const DecodedImage> DecodedImage::build(
    const Program& program, const CoreConfig& cfg) {
  return build_impl(program, &cfg);
}

std::shared_ptr<const DecodedImage> DecodedImage::patched(
    const DecodedImage& base,
    std::span<const std::pair<std::uint32_t, std::int32_t>> patches) {
  auto image = std::shared_ptr<DecodedImage>(new DecodedImage(base));
  for (const auto& [pc, imm] : patches) {
    if (pc >= image->ops_.size()) {
      throw Error("immediate patch at pc " + std::to_string(pc) +
                  " outside the " + std::to_string(image->ops_.size()) +
                  "-instruction image");
    }
    DecodedOp& op = image->ops_[pc];
    switch (op.info->format) {
      case Format::B:
      case Format::PB:
      case Format::LOOPR:
      case Format::LOOPI:
      case Format::TI:
        // Control-flow and thread-scaling immediates were range-validated
        // at build time; rebinding them would invalidate the image (and
        // the assembler never places $param references there).
        throw Error("immediate patch at pc " + std::to_string(pc) +
                    " targets a control-flow immediate");
      default:
        break;
    }
    op.instr.imm = imm;
    image->program_.set_imm(pc, imm);
    image->words_[pc] = isa::encode(op.instr);
  }
  return image;
}

}  // namespace simt::core
