// Differential tests for the predecoded fast-path execution engine.
//
// The functional fast path (CoreConfig::bit_accurate = false: DecodedImage
// per-opcode thunks, specialized lane loops) must be bit-identical to both
// the bit-accurate structural engine (Mul33 / shifter / LogicUnit walked
// per lane) and the independent ReferenceInterpreter -- registers,
// predicates, shared memory, AND perf counters (timing is computed apart
// from lane evaluation, so the cycle model may not shift by engine).
// The fast path itself runs twice: with the SIMD batched lane engine
// (CoreConfig::simd_lanes, the default) and with it pinned off, so the
// batch thunks, the masked-batch select of guarded operations, the LDS/STS
// guard-uniformity prescan, and the scalar fallback all face the same
// exhaustive opcode x guard matrix.
//
// Coverage: an exhaustive opcode x guard sweep over every guardable
// (operation/load/store class) instruction, the same sweep with the guard
// forced to pass every lane, none, or every other lane and with the
// destination aliasing its sources, a control-flow program covering
// the sequencer opcodes, randomized whole-program differentials, the
// exact dirty-word runs scattered and contiguous stores leave (including
// runs at the bitmap's 64-bit word edges), and a runtime-level
// engines-x-backends check on the FIR+scale+reduce mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/decoded_image.hpp"
#include "core/gpgpu.hpp"
#include "core/ref_interp.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/module.hpp"
#include "system/multicore.hpp"

namespace simt::core {
namespace {

using isa::Format;
using isa::Guard;
using isa::Instr;
using isa::Opcode;
using isa::TimingClass;

constexpr unsigned kThreads = 64;
constexpr unsigned kRegs = 16;
constexpr unsigned kSharedWords = 1024;

CoreConfig engine_cfg(bool bit_accurate) {
  CoreConfig cfg;
  cfg.num_sps = 16;
  cfg.max_threads = kThreads;
  cfg.regs_per_thread = kRegs;
  cfg.shared_mem_words = kSharedWords;
  cfg.predicates_enabled = true;
  cfg.bit_accurate = bit_accurate;
  return cfg;
}

void expect_perf_eq(const PerfCounters& a, const PerfCounters& b,
                    const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.issue_cycles, b.issue_cycles) << what;
  EXPECT_EQ(a.flush_cycles, b.flush_cycles) << what;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << what;
  EXPECT_EQ(a.fill_cycles, b.fill_cycles) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.operation_instrs, b.operation_instrs) << what;
  EXPECT_EQ(a.load_instrs, b.load_instrs) << what;
  EXPECT_EQ(a.store_instrs, b.store_instrs) << what;
  EXPECT_EQ(a.single_instrs, b.single_instrs) << what;
  EXPECT_EQ(a.thread_rows, b.thread_rows) << what;
  EXPECT_EQ(a.thread_ops, b.thread_ops) << what;
  EXPECT_EQ(a.operation_thread_ops, b.operation_thread_ops) << what;
  EXPECT_EQ(a.load_thread_ops, b.load_thread_ops) << what;
  EXPECT_EQ(a.store_thread_ops, b.store_thread_ops) << what;
  EXPECT_EQ(a.shm_reads, b.shm_reads) << what;
  EXPECT_EQ(a.shm_writes, b.shm_writes) << what;
  EXPECT_EQ(a.per_opcode, b.per_opcode) << what;
}

/// Run one program on the batched fast engine, the scalar-lane fast engine
/// (simd_lanes pinned off), the bit-accurate engine, and the reference
/// interpreter from identical random initial state; all architectural
/// state must match, and the three Gpgpu engines must agree on every perf
/// counter.
void run_differential(const Program& prog, std::uint64_t seed,
                      const std::string& what) {
  CoreConfig scalar_cfg = engine_cfg(false);
  scalar_cfg.simd_lanes = false;
  Gpgpu fast(engine_cfg(false));
  Gpgpu scalar_fast(scalar_cfg);
  Gpgpu accurate(engine_cfg(true));
  ReferenceInterpreter ref(engine_cfg(false));
  fast.load_program(prog);
  scalar_fast.load_program(prog);
  accurate.load_program(prog);
  ref.load_program(prog);
  fast.set_thread_count(kThreads);
  scalar_fast.set_thread_count(kThreads);
  accurate.set_thread_count(kThreads);
  ref.set_thread_count(kThreads);

  // Identical random registers and shared memory everywhere; predicates
  // start zero (the reference interpreter has no predicate poke) and gain
  // thread-varying state through the programs' SETP instructions.
  Xoshiro256 init(seed ^ 0xfeedULL);
  for (unsigned t = 0; t < kThreads; ++t) {
    for (unsigned r = 0; r < kRegs; ++r) {
      const auto v = init.next_u32();
      fast.write_reg(t, r, v);
      scalar_fast.write_reg(t, r, v);
      accurate.write_reg(t, r, v);
      ref.write_reg(t, r, v);
    }
  }
  for (unsigned a = 0; a < kSharedWords; ++a) {
    const auto v = init.next_u32();
    fast.write_shared(a, v);
    scalar_fast.write_shared(a, v);
    accurate.write_shared(a, v);
    ref.write_shared(a, v);
  }

  const auto rf = fast.run();
  const auto rs = scalar_fast.run();
  const auto ra = accurate.run();
  ref.run();
  ASSERT_TRUE(rf.exited) << what;
  ASSERT_TRUE(rs.exited) << what;
  ASSERT_TRUE(ra.exited) << what;
  expect_perf_eq(rf.perf, ra.perf, what);
  expect_perf_eq(rf.perf, rs.perf, what + " (simd vs scalar lanes)");
  // The exact write set a runtime merges back.
  EXPECT_EQ(fast.dirty_runs(), accurate.dirty_runs())
      << what << " (dirty runs vs bit-accurate)";
  EXPECT_EQ(fast.dirty_runs(), scalar_fast.dirty_runs())
      << what << " (dirty runs vs scalar lanes)";

  for (unsigned t = 0; t < kThreads; ++t) {
    for (unsigned r = 0; r < kRegs; ++r) {
      ASSERT_EQ(fast.read_reg(t, r), accurate.read_reg(t, r))
          << what << " (vs bit-accurate) thread " << t << " reg " << r
          << "\n" << prog.listing();
      ASSERT_EQ(fast.read_reg(t, r), scalar_fast.read_reg(t, r))
          << what << " (vs scalar lanes) thread " << t << " reg " << r
          << "\n" << prog.listing();
      ASSERT_EQ(fast.read_reg(t, r), ref.read_reg(t, r))
          << what << " (vs reference) thread " << t << " reg " << r << "\n"
          << prog.listing();
    }
    for (unsigned p = 0; p < 4; ++p) {
      ASSERT_EQ(fast.read_pred(t, p), accurate.read_pred(t, p))
          << what << " thread " << t << " pred " << p;
      ASSERT_EQ(fast.read_pred(t, p), scalar_fast.read_pred(t, p))
          << what << " (vs scalar lanes) thread " << t << " pred " << p;
      ASSERT_EQ(fast.read_pred(t, p), ref.read_pred(t, p))
          << what << " (vs reference) thread " << t << " pred " << p;
    }
  }
  for (unsigned a = 0; a < kSharedWords; ++a) {
    ASSERT_EQ(fast.read_shared(a), accurate.read_shared(a))
        << what << " addr " << a;
    ASSERT_EQ(fast.read_shared(a), scalar_fast.read_shared(a))
        << what << " (vs scalar lanes) addr " << a;
    ASSERT_EQ(fast.read_shared(a), ref.read_shared(a))
        << what << " (vs reference) addr " << a;
  }
}

// ---- exhaustive opcode x guard matrix --------------------------------------

/// The guard predicate's value over the active block: Random keeps the
/// prologue's compare of random registers (usually divergent); the forced
/// patterns make the guard pass every lane or none (Ones / Zeros, by guard
/// polarity) or alternate by thread parity.
enum class ForcedPred { Random, Ones, Zeros, Alternating };

/// Destination aliasing of the instruction under test. Register forms
/// alias rd with ra, rb, or both (forms without rb, LDS/STS included,
/// alias rd == ra in all three); predicate forms alias pd with pa, pb, or
/// pa == pb == the guard predicate (SETP writes the guard predicate in
/// every aliased case).
enum class Alias { None, DstIsA, DstIsB, DstIsBoth };

/// Build a program exercising `op` under `guard`: a prologue computes a
/// thread-varying predicate mask (then, unless `forced` is Random, pins the
/// guard predicate to a fixed pattern), memory ops get their address
/// register masked in range, then the instruction itself runs, then EXIT.
Program guarded_program(Opcode op, Guard guard, std::uint64_t seed,
                        ForcedPred forced = ForcedPred::Random,
                        Alias alias = Alias::None) {
  Xoshiro256 rng(seed);
  // A forced pattern is built in r14/r15; the instruction under test reads
  // only the random registers below them.
  const unsigned operand_regs =
      forced == ForcedPred::Random ? kRegs : kRegs - 2;
  const auto reg = [&] {
    return static_cast<std::uint8_t>(rng.next_below(operand_regs));
  };
  std::vector<Instr> prog;

  // Thread-varying predicates: p0..p3 from compares of random registers.
  for (std::uint8_t p = 0; p < 4; ++p) {
    Instr setp;
    setp.op = Opcode::SETP_LTU;
    setp.pd = p;
    setp.ra = reg();
    setp.rb = reg();
    prog.push_back(setp);
  }

  Instr in;
  in.op = op;
  in.guard = guard;
  in.gpred = static_cast<std::uint8_t>(rng.next_below(4));
  const auto push = [&](Opcode o, std::uint8_t rd, std::uint8_t ra,
                        std::uint8_t rb, std::int32_t imm) {
    Instr i;
    i.op = o;
    i.pd = in.gpred;
    i.rd = rd;
    i.ra = ra;
    i.rb = rb;
    i.imm = imm;
    prog.push_back(i);
  };
  switch (forced) {
    case ForcedPred::Random:
      break;
    case ForcedPred::Ones:
      push(Opcode::SETP_EQ, 0, 0, 0, 0);
      break;
    case ForcedPred::Zeros:
      push(Opcode::SETP_NE, 0, 0, 0, 0);
      break;
    case ForcedPred::Alternating:  // set on odd threads
      push(Opcode::MOVSR, 15, 0, 0,
           static_cast<std::int32_t>(isa::SpecialReg::Tid));
      push(Opcode::ANDI, 15, 15, 0, 1);
      push(Opcode::MOVI, 14, 0, 0, 1);
      push(Opcode::SETP_EQ, 0, 15, 14, 0);
      break;
  }

  const auto& info = isa::op_info(op);
  switch (info.format) {
    case Format::RRR:
      in.rd = reg();
      in.ra = reg();
      in.rb = reg();
      break;
    case Format::RRI:
      in.rd = reg();
      in.ra = reg();
      in.imm = static_cast<std::int32_t>(rng.next_u32());
      break;
    case Format::RR:
      in.rd = reg();
      in.ra = reg();
      break;
    case Format::RI:
      in.rd = reg();
      in.imm = static_cast<std::int32_t>(rng.next_u32());
      break;
    case Format::RS:
      in.rd = reg();
      in.imm = static_cast<std::int32_t>(
          rng.next_below(isa::kSpecialRegCount));
      break;
    case Format::PRR:
      in.pd = static_cast<std::uint8_t>(rng.next_below(4));
      in.ra = reg();
      in.rb = reg();
      break;
    case Format::PPP:
      in.pd = static_cast<std::uint8_t>(rng.next_below(4));
      in.pa = static_cast<std::uint8_t>(rng.next_below(4));
      in.pb = static_cast<std::uint8_t>(rng.next_below(4));
      break;
    case Format::PP:
      in.pd = static_cast<std::uint8_t>(rng.next_below(4));
      in.pa = static_cast<std::uint8_t>(rng.next_below(4));
      break;
    case Format::SELP:
      in.rd = reg();
      in.ra = reg();
      in.rb = reg();
      in.pa = static_cast<std::uint8_t>(rng.next_below(4));
      break;
    case Format::MEM: {
      Instr mask;
      mask.op = Opcode::ANDI;
      mask.rd = reg();
      mask.ra = reg();
      mask.imm = kSharedWords - 1;
      prog.push_back(mask);
      in.rd = reg();
      in.ra = mask.rd;
      in.imm = 0;
      break;
    }
    default:
      ADD_FAILURE() << "guarded_program only covers guardable formats";
      break;
  }
  if (alias != Alias::None) {
    if (info.writes_pd) {
      switch (alias) {
        case Alias::DstIsA:
          in.pa = in.pd;
          break;
        case Alias::DstIsB:
          (info.format == Format::PP ? in.pa : in.pb) = in.pd;
          break;
        default:
          in.pd = in.pa = in.pb = in.gpred;
          break;
      }
      if (info.format == Format::PRR) {
        in.pd = in.gpred;
      }
    } else if (info.format == Format::MEM) {
      in.rd = in.ra;  // load into / store from the masked address register
    } else {
      const bool has_rb =
          info.format == Format::RRR || info.format == Format::SELP;
      switch (alias) {
        case Alias::DstIsA:
          in.ra = in.rd;
          break;
        case Alias::DstIsB:
          (has_rb ? in.rb : in.ra) = in.rd;
          break;
        default:
          in.ra = in.rb = in.rd;
          break;
      }
      if (info.format == Format::SELP && alias == Alias::DstIsBoth) {
        in.pa = in.gpred;
      }
    }
  }
  prog.push_back(in);

  Instr exit;
  exit.op = Opcode::EXIT;
  prog.push_back(exit);
  return Program(std::move(prog));
}

TEST(FastPathMatrix, EveryGuardableOpcodeUnderEveryGuardClass) {
  unsigned covered = 0;
  for (int o = 0; o < isa::kOpcodeCount; ++o) {
    const auto op = static_cast<Opcode>(o);
    const auto& info = isa::op_info(op);
    if (info.timing != TimingClass::Operation &&
        info.timing != TimingClass::Load &&
        info.timing != TimingClass::Store) {
      continue;  // sequencer opcodes take no guard; covered below
    }
    for (const Guard guard :
         {Guard::None, Guard::IfTrue, Guard::IfFalse}) {
      const auto seed =
          static_cast<std::uint64_t>(o) * 31 +
          static_cast<std::uint64_t>(guard) + 1;
      const std::string what =
          std::string(info.mnemonic) + " guard " +
          std::to_string(static_cast<int>(guard));
      run_differential(guarded_program(op, guard, seed), seed, what);
      ++covered;
    }
  }
  // 61 opcodes minus the 12 sequencer ones (control flow, loops, thread
  // scaling), each under 3 guard classes.
  EXPECT_EQ(covered, 3u * (61u - 12u));
}

TEST(FastPathMatrix, MaskedBatchesUnderForcedMasksAndAliasing) {
  // Every guardable opcode (so every operation format: RRR, RRI, RR, RI,
  // RS, PRR, PPP, PP, SELP, plus LDS/STS) under both guard polarities, with
  // the guard predicate pinned all-set, all-clear, and alternating by
  // thread -- so the guard passes every lane, none, or every other lane --
  // and with the destination aliasing each source.
  unsigned covered = 0;
  for (int o = 0; o < isa::kOpcodeCount; ++o) {
    const auto op = static_cast<Opcode>(o);
    const auto& info = isa::op_info(op);
    if (info.timing != TimingClass::Operation &&
        info.timing != TimingClass::Load &&
        info.timing != TimingClass::Store) {
      continue;
    }
    for (const Guard guard : {Guard::IfTrue, Guard::IfFalse}) {
      for (const ForcedPred forced :
           {ForcedPred::Ones, ForcedPred::Zeros, ForcedPred::Alternating}) {
        for (const Alias alias : {Alias::None, Alias::DstIsA, Alias::DstIsB,
                                  Alias::DstIsBoth}) {
          const auto seed = static_cast<std::uint64_t>(o) * 977 +
                            static_cast<std::uint64_t>(guard) * 101 +
                            static_cast<std::uint64_t>(forced) * 11 +
                            static_cast<std::uint64_t>(alias) + 1;
          const std::string what =
              std::string(info.mnemonic) + " guard " +
              std::to_string(static_cast<int>(guard)) + " pred pattern " +
              std::to_string(static_cast<int>(forced)) + " alias " +
              std::to_string(static_cast<int>(alias));
          run_differential(guarded_program(op, guard, seed, forced, alias),
                           seed, what);
          ++covered;
        }
      }
    }
  }
  EXPECT_EQ(covered, 2u * 3u * 4u * (61u - 12u));
}

TEST(FastPathMatrix, SequencerOpcodesAgreeAcrossEngines) {
  // BRA/BRP/BRN/CALL/RET/LOOP/LOOPI/SETT/SETTI/NOP/BAR in one structured
  // program (EXIT ends it); both engines and the cycle model must agree.
  const auto prog = assembler::assemble(
      "movsr %r0, %tid\n"
      "movi %r1, 32\n"
      "setp.lt %p0, %r0, %r1\n"
      "setp.geu %p1, %r0, %r1\n"
      "brp %p0, taken\n"
      "addi %r2, %r2, 100\n"
      "taken:\n"
      "brn %p3, none_set\n"
      "addi %r2, %r2, 200\n"
      "none_set:\n"
      "bra fwd\n"
      "addi %r2, %r2, 400\n"
      "fwd:\n"
      "call fn\n"
      "movi %r3, 5\n"
      "loop %r3, loopr_end\n"
      "addi %r4, %r4, 1\n"
      "loopr_end:\n"
      "loopi 3, loopi_end\n"
      "addi %r5, %r5, 1\n"
      "loopi_end:\n"
      "sett %r3\n"
      "setti 16\n"
      "nop\n"
      "bar\n"
      "exit\n"
      "fn:\n"
      "addi %r6, %r6, 1\n"
      "ret\n");
  run_differential(prog, 0x5eed, "sequencer program");
}

// ---- randomized whole programs ---------------------------------------------

Program random_program(std::uint64_t seed, int length) {
  Xoshiro256 rng(seed);
  std::vector<Instr> prog;

  const auto reg = [&] {
    return static_cast<std::uint8_t>(rng.next_below(kRegs));
  };
  const auto pred = [&] {
    return static_cast<std::uint8_t>(rng.next_below(4));
  };
  const auto maybe_guard = [&](Instr& in) {
    const auto r = rng.next_below(8);
    if (r == 0) {
      in.guard = Guard::IfTrue;
      in.gpred = pred();
    } else if (r == 1) {
      in.guard = Guard::IfFalse;
      in.gpred = pred();
    }
  };

  const Opcode rrr_ops[] = {Opcode::ADD,   Opcode::SUB,    Opcode::MULLO,
                            Opcode::MULHI, Opcode::MULHIU, Opcode::MIN,
                            Opcode::MAX,   Opcode::MINU,   Opcode::MAXU,
                            Opcode::AND,   Opcode::OR,     Opcode::XOR,
                            Opcode::CNOT,  Opcode::SHL,    Opcode::SHR,
                            Opcode::SAR};
  const Opcode rr_ops[] = {Opcode::ABS,  Opcode::NEG, Opcode::NOT,
                           Opcode::POPC, Opcode::CLZ, Opcode::BREV,
                           Opcode::MOV};
  const Opcode rri_ops[] = {Opcode::ADDI, Opcode::SUBI, Opcode::MULI,
                            Opcode::ANDI, Opcode::ORI,  Opcode::XORI,
                            Opcode::SHLI, Opcode::SHRI, Opcode::SARI};
  const Opcode setp_ops[] = {Opcode::SETP_EQ,  Opcode::SETP_NE,
                             Opcode::SETP_LT,  Opcode::SETP_LE,
                             Opcode::SETP_GT,  Opcode::SETP_GE,
                             Opcode::SETP_LTU, Opcode::SETP_GEU};

  for (int i = 0; i < length; ++i) {
    Instr in;
    switch (rng.next_below(12)) {
      case 0:
      case 1:
      case 2:
        in.op = rrr_ops[rng.next_below(std::size(rrr_ops))];
        in.rd = reg();
        in.ra = reg();
        in.rb = reg();
        maybe_guard(in);
        break;
      case 3:
        in.op = rr_ops[rng.next_below(std::size(rr_ops))];
        in.rd = reg();
        in.ra = reg();
        maybe_guard(in);
        break;
      case 4:
        in.op = rri_ops[rng.next_below(std::size(rri_ops))];
        in.rd = reg();
        in.ra = reg();
        in.imm = static_cast<std::int32_t>(rng.next_u32());
        maybe_guard(in);
        break;
      case 5:
        in.op = rng.chance(0.5) ? Opcode::MOVI : Opcode::MOVSR;
        in.rd = reg();
        in.imm = in.op == Opcode::MOVI
                     ? static_cast<std::int32_t>(rng.next_u32())
                     : static_cast<std::int32_t>(
                           rng.next_below(isa::kSpecialRegCount));
        break;
      case 6:
        in.op = setp_ops[rng.next_below(std::size(setp_ops))];
        in.pd = pred();
        in.ra = reg();
        in.rb = reg();
        maybe_guard(in);
        break;
      case 7:
        switch (rng.next_below(4)) {
          case 0: in.op = Opcode::PAND; break;
          case 1: in.op = Opcode::POR; break;
          case 2: in.op = Opcode::PXOR; break;
          default: in.op = Opcode::PNOT; break;
        }
        in.pd = pred();
        in.pa = pred();
        in.pb = pred();
        maybe_guard(in);
        break;
      case 8:
        in.op = Opcode::SELP;
        in.rd = reg();
        in.ra = reg();
        in.rb = reg();
        in.pa = pred();
        maybe_guard(in);
        break;
      case 9:
      case 10: {
        Instr mask;
        mask.op = Opcode::ANDI;
        mask.rd = reg();
        mask.ra = reg();
        mask.imm = kSharedWords - 1;
        prog.push_back(mask);
        in.op = rng.chance(0.5) ? Opcode::LDS : Opcode::STS;
        in.rd = reg();
        in.ra = mask.rd;
        in.imm = 0;
        maybe_guard(in);
        break;
      }
      default:
        in.op = Opcode::SETTI;
        in.imm =
            static_cast<std::int32_t>(16 + rng.next_below(kThreads - 15));
        break;
    }
    prog.push_back(in);
  }

  if (rng.chance(0.3)) {
    Instr loop;
    loop.op = Opcode::LOOPI;
    const auto end = static_cast<std::int32_t>(prog.size() + 1);
    loop.imm = (static_cast<std::int32_t>(2 + rng.next_below(3)) << 16) | end;
    prog.insert(prog.begin(), loop);
  }

  Instr exit;
  exit.op = Opcode::EXIT;
  prog.push_back(exit);
  return Program(std::move(prog));
}

class FastPathRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastPathRandom, EnginesMatchOnRandomPrograms) {
  const std::uint64_t seed = GetParam();
  run_differential(random_program(seed, 60), seed,
                   "random seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathRandom,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---- dirty-word tracking ---------------------------------------------------

/// `lanes` threads store to `base + stride * %tid`: one word when stride is
/// 0 or lanes is 1, else a span (stride 1 is itself a contiguous run).
struct ScatterStore {
  std::uint32_t base;
  unsigned lanes;
  unsigned stride;
};

/// Each scatter store in order, then one %tid-contiguous STS of `run_lanes`
/// words at `run_base`.
Program store_program(const std::vector<ScatterStore>& scatter,
                      std::uint32_t run_base, unsigned run_lanes) {
  std::string src = "movsr %r0, %tid\n";
  for (const auto& s : scatter) {
    src += "setti " + std::to_string(s.lanes) + "\n";
    src += "muli %r1, %r0, " + std::to_string(s.stride) + "\n";
    src += "sts [%r1 + " + std::to_string(s.base) + "], %r0\n";
  }
  src += "setti " + std::to_string(run_lanes) + "\n";
  src += "sts [%r0 + " + std::to_string(run_base) + "], %r0\n";
  src += "exit\n";
  return assembler::assemble(src);
}

using Runs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// The maximal runs of every address store_program stores to, worked out
/// from the addresses alone.
Runs stored_runs(const std::vector<ScatterStore>& scatter,
                 std::uint32_t run_base, unsigned run_lanes, unsigned words) {
  std::vector<bool> stored(words, false);
  for (const auto& s : scatter) {
    for (unsigned t = 0; t < s.lanes; ++t) {
      stored[s.base + s.stride * t] = true;
    }
  }
  for (unsigned t = 0; t < run_lanes; ++t) {
    stored[run_base + t] = true;
  }
  Runs runs;
  for (std::uint32_t a = 0; a < words; ++a) {
    if (!stored[a]) {
      continue;
    }
    if (!runs.empty() && runs.back().second == a) {
      runs.back().second = a + 1;
    } else {
      runs.emplace_back(a, a + 1);
    }
  }
  return runs;
}

/// dirty_runs() after running `prog` on `threads` threads of `cfg`.
Runs dirty_runs_of(const CoreConfig& cfg, const Program& prog,
                   unsigned threads) {
  Gpgpu gpu(cfg);
  gpu.load_program(prog);
  gpu.set_thread_count(threads);
  EXPECT_TRUE(gpu.run().exited);
  return gpu.dirty_runs();
}

TEST(FastPath, DirtyRunsAreTheExactStoredWords) {
  struct Case {
    const char* what;
    std::vector<ScatterStore> scatter;
    std::uint32_t run_base;
    unsigned run_lanes;
    Runs expected;
  };
  const std::vector<Case> cases = {
      {"run starts inside a stored span", {{100, 10, 1}}, 105, 64,
       {{100, 169}}},
      {"run ends one word short of a stored word", {{300, 1, 0}}, 236, 63,
       {{236, 299}, {300, 301}}},
      {"run ends next to a stored word", {{300, 1, 0}}, 237, 63,
       {{237, 301}}},
      {"run spans two stored spans", {{100, 10, 1}, {150, 10, 1}}, 100, 64,
       {{100, 164}}},
      {"five separate regions",
       {{0, 1, 0}, {100, 1, 0}, {500, 1, 0}, {900, 1, 0}, {50, 1, 0}}, 90,
       20, {{0, 1}, {50, 51}, {90, 110}, {500, 501}, {900, 901}}},
      {"stride-2 span leaves one-word gaps", {{400, 4, 2}, {16, 8, 0}}, 800,
       64, {{16, 17}, {400, 401}, {402, 403}, {404, 405}, {406, 407},
            {800, 864}}},
  };
  for (const auto& c : cases) {
    ASSERT_EQ(stored_runs(c.scatter, c.run_base, c.run_lanes, kSharedWords),
              c.expected)
        << c.what;
    const auto prog = store_program(c.scatter, c.run_base, c.run_lanes);
    EXPECT_EQ(dirty_runs_of(engine_cfg(false), prog, kThreads), c.expected)
        << c.what;
    run_differential(prog, 0x71d5, c.what);
  }

  // Seeded: 1-4 scatter stores (single words, stride-2 and stride-0
  // spans), then a contiguous run anywhere, often landing in or beside
  // the words the scatter stored.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Xoshiro256 rng(seed);
    std::vector<ScatterStore> scatter;
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(4));
    for (unsigned i = 0; i < n; ++i) {
      const unsigned lanes = 1 + static_cast<unsigned>(rng.next_below(16));
      const unsigned stride = static_cast<unsigned>(rng.next_below(3));
      scatter.push_back(
          {static_cast<std::uint32_t>(rng.next_below(kSharedWords - 32)),
           lanes, stride});
    }
    const unsigned run_lanes =
        1 + static_cast<unsigned>(rng.next_below(kThreads));
    auto run_base = static_cast<std::uint32_t>(
        rng.chance(0.5) ? scatter[0].base + rng.next_below(40)
                        : rng.next_below(kSharedWords));
    run_base = std::min<std::uint32_t>(run_base, kSharedWords - run_lanes);
    const auto prog = store_program(scatter, run_base, run_lanes);
    const std::string what = "store seed " + std::to_string(seed);
    EXPECT_EQ(dirty_runs_of(engine_cfg(false), prog, kThreads),
              stored_runs(scatter, run_base, run_lanes, kSharedWords))
        << what;
    run_differential(prog, seed, what);
  }
}

TEST(FastPath, DirtyRunsAtBitmapEdges) {
  // 400 threads over 400 words: one contiguous store can cover the whole
  // memory, and the memory ends 16 words into its last 64-bit bitmap word.
  constexpr unsigned kEdgeWords = 400;
  CoreConfig cfg = engine_cfg(false);
  cfg.max_threads = kEdgeWords;
  cfg.shared_mem_words = kEdgeWords;
  CoreConfig scalar_cfg = cfg;
  scalar_cfg.simd_lanes = false;
  CoreConfig accurate_cfg = cfg;
  accurate_cfg.bit_accurate = true;

  struct Case {
    const char* what;
    std::vector<ScatterStore> scatter;
    std::uint32_t run_base;
    unsigned run_lanes;
  };
  const std::vector<Case> cases = {
      {"run crossing one bitmap word", {}, 60, 8},
      {"runs ending and starting on a bitmap word", {{0, 64, 1}}, 128, 64},
      {"run spanning several bitmap words", {{3, 2, 1}}, 10, 300},
      {"store to the last word", {{0, 1, 0}}, kEdgeWords - 1, 1},
      {"run ending at the last word", {{1, 1, 0}}, kEdgeWords - 77, 77},
      {"full-memory contiguous store", {{7, 1, 0}}, 0, kEdgeWords},
  };
  for (const auto& c : cases) {
    const auto prog = store_program(c.scatter, c.run_base, c.run_lanes);
    const Runs expected =
        stored_runs(c.scatter, c.run_base, c.run_lanes, kEdgeWords);
    EXPECT_EQ(dirty_runs_of(cfg, prog, kEdgeWords), expected) << c.what;
    EXPECT_EQ(dirty_runs_of(scalar_cfg, prog, kEdgeWords), expected)
        << c.what << " (scalar lanes)";
    EXPECT_EQ(dirty_runs_of(accurate_cfg, prog, kEdgeWords), expected)
        << c.what << " (bit-accurate)";
  }
  EXPECT_EQ(stored_runs({}, 0, kEdgeWords, kEdgeWords),
            (Runs{{0, kEdgeWords}}));

  // Each run starts from a clean bitmap, and a trapping store marks nothing.
  Gpgpu gpu(cfg);
  gpu.load_program(store_program({}, 200, 8));
  EXPECT_TRUE(gpu.run().exited);
  gpu.load_program(store_program({}, 20, 4));
  EXPECT_TRUE(gpu.run().exited);
  EXPECT_EQ(gpu.dirty_runs(), (Runs{{20, 24}}));
  gpu.load_program(store_program({{5, 1, 0}}, kEdgeWords - 2, 4));
  EXPECT_THROW(gpu.run(), Error);
  EXPECT_EQ(gpu.dirty_runs(), (Runs{{5, 6}}));
}

// ---- decoded image mechanics -----------------------------------------------

TEST(DecodedImage, MultiCoreSharesOneImageAcrossCores) {
  system::SystemConfig cfg;
  cfg.num_cores = 3;
  cfg.core = engine_cfg(false);
  system::MultiCoreSystem sys(cfg);
  sys.load_kernel_all("movsr %r0, %tid\nexit\n");
  ASSERT_NE(sys.core(0).image(), nullptr);
  EXPECT_EQ(sys.core(0).image().get(), sys.core(1).image().get());
  EXPECT_EQ(sys.core(0).image().get(), sys.core(2).image().get());
}

TEST(DecodedImage, PatchedRewritesOnlyImmediates) {
  const auto prog = assembler::assemble("movi %r1, 7\nexit\n");
  const auto base = DecodedImage::build(prog, engine_cfg(false));
  const std::vector<std::pair<std::uint32_t, std::int32_t>> patches = {
      {0, 42}};
  const auto bound = DecodedImage::patched(*base, patches);
  EXPECT_EQ(base->at(0).instr.imm, 7);
  EXPECT_EQ(bound->at(0).instr.imm, 42);
  EXPECT_EQ(bound->words()[0], isa::encode(bound->at(0).instr));
  EXPECT_EQ(bound->at(0).info, base->at(0).info);
  // A patched image still loads (validation carried over).
  Gpgpu gpu(engine_cfg(false));
  gpu.load_image(bound);
  gpu.set_thread_count(16);
  ASSERT_TRUE(gpu.run().exited);
  EXPECT_EQ(gpu.read_reg(0, 1), 42u);
}

TEST(DecodedImage, PatchingControlFlowImmediatesThrows) {
  const auto prog = assembler::assemble("bra done\ndone:\nexit\n");
  const auto base = DecodedImage::build(prog, engine_cfg(false));
  const std::vector<std::pair<std::uint32_t, std::int32_t>> patches = {
      {0, 1}};
  EXPECT_THROW(DecodedImage::patched(*base, patches), Error);
}

TEST(DecodedImage, WideStoreWidthFactorsSurviveCaching) {
  // ceil(num_sps / write_ports) can exceed a byte: a 256-SP, one-write-
  // port config prices a store at 256 clocks per row, and the cached
  // width factor must carry that without truncation.
  CoreConfig cfg;
  cfg.num_sps = 256;
  cfg.max_threads = 256;
  cfg.regs_per_thread = 16;
  cfg.shared_mem_words = 1024;
  cfg.predicates_enabled = true;
  const auto prog =
      assembler::assemble("movsr %r0, %tid\nsts [%r0], %r0\nexit\n");
  const auto image = DecodedImage::build(prog, cfg);
  EXPECT_EQ(image->at(1).width, 256u);
  Gpgpu gpu(cfg);
  gpu.load_image(image);
  gpu.set_thread_count(256);
  const auto res = gpu.run();
  ASSERT_TRUE(res.exited);
  EXPECT_GE(res.perf.issue_cycles, 256u);
}

TEST(DecodedImage, MismatchedConfigurationRejected) {
  const auto prog = assembler::assemble("exit\n");
  const auto image = DecodedImage::build(prog, engine_cfg(false));
  CoreConfig other = engine_cfg(false);
  other.regs_per_thread = 32;
  Gpgpu gpu(other);
  EXPECT_THROW(gpu.load_image(image), Error);
  // Functional (unvalidated) images are rejected by the cycle-accurate
  // core outright.
  EXPECT_THROW(gpu.load_image(DecodedImage::build(prog)), Error);
}

}  // namespace
}  // namespace simt::core

// ---- runtime-level: engines x backends -------------------------------------

namespace simt::runtime {
namespace {

TEST(FastPathRuntime, EnginesAndBackendsAgreeOnTheServingMix) {
  constexpr unsigned kN = 128;
  constexpr unsigned kTaps = 4;
  constexpr unsigned kChunk = 4;
  constexpr unsigned kParts = kN / kChunk;

  const auto run_mix = [&](const DeviceDescriptor& desc) {
    Device dev(desc);
    auto x = dev.alloc<std::uint32_t>(kN + kTaps);
    auto coef = dev.alloc<std::uint32_t>(kTaps);
    auto y = dev.alloc<std::uint32_t>(kN);
    auto z = dev.alloc<std::uint32_t>(kN);
    auto parts = dev.alloc<std::uint32_t>(kParts);
    auto fir = dev.load_module(kernels::fir_abi(kTaps, 2)).kernel("fir");
    auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
    auto reduce =
        dev.load_module(kernels::reduce_abi(kChunk)).kernel("reduce");
    std::vector<std::uint32_t> xin(kN + kTaps), c(kTaps);
    for (unsigned i = 0; i < xin.size(); ++i) {
      xin[i] = (i * 37 + 11) % 251;
    }
    for (unsigned k = 0; k < kTaps; ++k) {
      c[k] = k + 2;
    }
    x.write(std::span<const std::uint32_t>(xin));
    coef.write(std::span<const std::uint32_t>(c));
    dev.launch_sync(fir, kN, KernelArgs().arg(x).arg(coef).arg(y));
    dev.launch_sync(scale, kN,
                    KernelArgs().arg(y).arg(z).scalar(5).scalar(3));
    dev.launch_sync(reduce, kParts, KernelArgs().arg(z).arg(parts));
    return parts.read();
  };

  core::CoreConfig fast;
  fast.max_threads = 64;
  fast.shared_mem_words = 2048;
  fast.bit_accurate = false;
  core::CoreConfig acc = fast;
  acc.bit_accurate = true;

  const auto golden = run_mix(DeviceDescriptor::simt_core(fast));
  EXPECT_EQ(run_mix(DeviceDescriptor::simt_core(acc)), golden);
  EXPECT_EQ(run_mix(DeviceDescriptor::multi_core(3, fast)), golden);
  EXPECT_EQ(run_mix(DeviceDescriptor::multi_core(3, acc)), golden);
  baseline::ScalarCpuConfig scfg;
  scfg.shared_mem_words = 2048;
  EXPECT_EQ(run_mix(DeviceDescriptor::scalar_cpu(scfg)), golden);
}

TEST(FastPathRuntime, DecodeCacheBuildsOncePerModule) {
  core::CoreConfig cfg;
  cfg.max_threads = 64;
  cfg.shared_mem_words = 1024;
  cfg.bit_accurate = false;  // engine_name check below
  Device dev(DeviceDescriptor::simt_core(cfg));
  auto a = dev.alloc<std::uint32_t>(64);
  auto b = dev.alloc<std::uint32_t>(64);
  auto c = dev.alloc<std::uint32_t>(64);
  auto d = dev.alloc<std::uint32_t>(64);
  Module& mod = dev.load_module(kernels::vecadd_abi());
  EXPECT_EQ(dev.decode_cache_misses(), 0u);

  // Alternating bindings force a repatch + reload every launch, but the
  // module decodes exactly once; every later load is a cache hit.
  const KernelArgs ab = KernelArgs().arg(a).arg(b).arg(c);
  const KernelArgs ba = KernelArgs().arg(b).arg(a).arg(d);
  for (unsigned i = 0; i < 3; ++i) {
    dev.launch_sync(mod.kernel("vecadd"), 64, i % 2 == 0 ? ab : ba);
  }
  EXPECT_EQ(dev.decode_cache_misses(), 1u);
  EXPECT_EQ(dev.decode_cache_hits(), 2u);

  // A second module decodes once more.
  Module& mod2 = dev.load_module(kernels::scale_abi());
  dev.launch_sync(mod2.kernel("scale"), 64,
                  KernelArgs().arg(a).arg(b).scalar(2).scalar(0));
  EXPECT_EQ(dev.decode_cache_misses(), 2u);
  EXPECT_EQ(dev.engine_name(), "fast");
}

}  // namespace
}  // namespace simt::runtime
