// Tests for the assembled integer ALU: every Operation-class opcode is
// checked against the independent golden semantics (core::ref), with both
// shifter implementations.
#include "hw/alu.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/ref_interp.hpp"

namespace simt::hw {
namespace {

using isa::Opcode;

const Opcode kRegisterOps[] = {
    Opcode::ADD,   Opcode::SUB,    Opcode::MULLO, Opcode::MULHI,
    Opcode::MULHIU, Opcode::ABS,   Opcode::NEG,   Opcode::MIN,
    Opcode::MAX,   Opcode::MINU,   Opcode::MAXU,  Opcode::AND,
    Opcode::OR,    Opcode::XOR,    Opcode::NOT,   Opcode::CNOT,
    Opcode::SHL,   Opcode::SHR,    Opcode::SAR,   Opcode::POPC,
    Opcode::CLZ,   Opcode::BREV,   Opcode::MOV};

const Opcode kCompareOps[] = {
    Opcode::SETP_EQ, Opcode::SETP_NE, Opcode::SETP_LT, Opcode::SETP_LE,
    Opcode::SETP_GT, Opcode::SETP_GE, Opcode::SETP_LTU, Opcode::SETP_GEU};

class AluVsGolden : public ::testing::TestWithParam<ShifterImpl> {};

TEST_P(AluVsGolden, AllRegisterOpsMatchReference) {
  const Alu alu(GetParam());
  Xoshiro256 rng(2024);
  for (const Opcode op : kRegisterOps) {
    isa::Instr in;
    in.op = op;
    for (int i = 0; i < 500; ++i) {
      const auto a = rng.next_u32();
      // Bias some B operands into shift range so shifts get real coverage.
      const auto b = (i % 3 == 0) ? static_cast<std::uint32_t>(
                                        rng.next_below(40))
                                  : rng.next_u32();
      EXPECT_EQ(alu.execute(op, a, b), core::ref::alu(in, a, b))
          << isa::op_info(op).mnemonic << " a=" << std::hex << a
          << " b=" << b;
    }
  }
}

TEST_P(AluVsGolden, AllComparesMatchReference) {
  const Alu alu(GetParam());
  Xoshiro256 rng(2025);
  for (const Opcode op : kCompareOps) {
    for (int i = 0; i < 500; ++i) {
      const auto a = rng.next_u32();
      const auto b = (i % 4 == 0) ? a : rng.next_u32();  // force equality hits
      EXPECT_EQ(alu.compare(op, a, b), core::ref::compare(op, a, b))
          << isa::op_info(op).mnemonic;
    }
  }
}

// The golden semantics are constexpr: the batch thunks fold and vectorise
// only while core::ref::alu / compare stay inline in the header, and these
// pins stop compiling if either moves back out of line.
namespace golden {
using core::ref::alu;
using core::ref::compare;
constexpr std::uint32_t kMinS = 0x80000000u;  // INT32_MIN
constexpr std::uint32_t kNeg1 = 0xffffffffu;
// MULHI is the signed high word, MULHIU the unsigned one.
static_assert(alu(Opcode::MULHI, kNeg1, kNeg1) == 0u);           // -1 * -1
static_assert(alu(Opcode::MULHIU, kNeg1, kNeg1) == 0xfffffffeu);
static_assert(alu(Opcode::MULHI, kNeg1, 2) == kNeg1);            // -2 >> 32
static_assert(alu(Opcode::MULHIU, kNeg1, 2) == 1u);
static_assert(alu(Opcode::MULHI, kMinS, kMinS) == 0x40000000u);  // 2^62
static_assert(alu(Opcode::MULHIU, kMinS, kMinS) == 0x40000000u);
static_assert(alu(Opcode::MULHI, kMinS, 1) == kNeg1);
static_assert(alu(Opcode::MULLO, kMinS, kNeg1) == kMinS);
// Logical shifts saturate to zero from 32 on; SAR clamps at 31.
static_assert(alu(Opcode::SHL, 1, 31) == kMinS);
static_assert(alu(Opcode::SHL, 1, 32) == 0u);
static_assert(alu(Opcode::SHR, kMinS, 31) == 1u);
static_assert(alu(Opcode::SHR, kMinS, 32) == 0u);
static_assert(alu(Opcode::SHRI, kNeg1, 0xffffffffu) == 0u);
static_assert(alu(Opcode::SAR, kMinS, 31) == kNeg1);
static_assert(alu(Opcode::SAR, kMinS, 32) == kNeg1);
static_assert(alu(Opcode::SARI, 0x40000000u, 1000) == 0u);
// CNOT inverts A only when B's low bit is set.
static_assert(alu(Opcode::CNOT, 0x0f0f0f0fu, 1) == 0xf0f0f0f0u);
static_assert(alu(Opcode::CNOT, 0x0f0f0f0fu, 2) == 0x0f0f0f0fu);
// Bit counting, including the CLZ(0) = 32 edge.
static_assert(alu(Opcode::CLZ, 0, 0) == 32u);
static_assert(alu(Opcode::CLZ, 1, 0) == 31u);
static_assert(alu(Opcode::POPC, kNeg1, 0) == 32u);
static_assert(alu(Opcode::BREV, 1, 0) == kMinS);
static_assert(alu(Opcode::ABS, kMinS, 0) == kMinS);  // wraps, like NEG
static_assert(alu(Opcode::NEG, kMinS, 0) == kMinS);
// Signed and unsigned SETP disagree exactly when the sign bits differ.
static_assert(compare(Opcode::SETP_LT, kNeg1, 0));
static_assert(!compare(Opcode::SETP_LTU, kNeg1, 0));
static_assert(!compare(Opcode::SETP_GE, kNeg1, 0));
static_assert(compare(Opcode::SETP_GEU, kNeg1, 0));
static_assert(compare(Opcode::SETP_GT, 0, kMinS));
static_assert(compare(Opcode::SETP_LE, kMinS, 0));
static_assert(compare(Opcode::SETP_EQ, kMinS, kMinS));
static_assert(!compare(Opcode::SETP_NE, kMinS, kMinS));
}  // namespace golden

INSTANTIATE_TEST_SUITE_P(Shifters, AluVsGolden,
                         ::testing::Values(ShifterImpl::Integrated,
                                           ShifterImpl::LogicBarrel));

TEST(Alu, ImmediateFormsShareDatapaths) {
  const Alu alu;
  // The I-forms route the immediate through operand B of the same unit.
  EXPECT_EQ(alu.execute(isa::Opcode::ADDI, 40, 2),
            alu.execute(isa::Opcode::ADD, 40, 2));
  EXPECT_EQ(alu.execute(isa::Opcode::MULI, 6, 7),
            alu.execute(isa::Opcode::MULLO, 6, 7));
  EXPECT_EQ(alu.execute(isa::Opcode::SARI, 0x80000000u, 4),
            alu.execute(isa::Opcode::SAR, 0x80000000u, 4));
}

TEST(Alu, MoviIgnoresOperandA) {
  const Alu alu;
  EXPECT_EQ(alu.execute(isa::Opcode::MOVI, 0xdeadbeefu, 42), 42u);
}

TEST(Alu, LatencyIsDepthMatched) {
  // Soft logic is depth-matched to the DSP datapath (Section 4): a single
  // uniform writeback latency for the whole ALU.
  EXPECT_EQ(Alu::kLatency, Mul33::kPipelineDepth);
}

}  // namespace
}  // namespace simt::hw
