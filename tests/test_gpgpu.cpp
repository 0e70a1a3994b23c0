// Integration tests for the SIMT processor: full kernels through the
// assembler, functional results, guards, dynamic thread scaling, control
// flow, and program validation.
#include "core/gpgpu.hpp"

#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "common/error.hpp"

namespace simt::core {
namespace {

CoreConfig test_cfg(unsigned threads = 512) {
  CoreConfig cfg;
  cfg.num_sps = 16;
  cfg.max_threads = threads;
  cfg.regs_per_thread = 16;
  cfg.shared_mem_words = 4096;
  cfg.predicates_enabled = true;
  return cfg;
}

Gpgpu make_gpu(const std::string& src, unsigned threads = 512) {
  Gpgpu gpu(test_cfg(threads));
  gpu.load_program(assembler::assemble(src));
  gpu.set_thread_count(threads);
  return gpu;
}

TEST(Gpgpu, VecAddKernel) {
  const std::string src =
      "movsr %r0, %tid\n"
      "lds %r1, [%r0 + 0]\n"
      "lds %r2, [%r0 + 512]\n"
      "add %r3, %r1, %r2\n"
      "sts [%r0 + 1024], %r3\n"
      "exit\n";
  auto gpu = make_gpu(src);
  for (unsigned i = 0; i < 512; ++i) {
    gpu.write_shared(i, i * 3);
    gpu.write_shared(512 + i, 1000 - i);
  }
  const auto res = gpu.run();
  EXPECT_TRUE(res.exited);
  for (unsigned i = 0; i < 512; ++i) {
    EXPECT_EQ(gpu.read_shared(1024 + i), i * 3 + 1000 - i) << i;
  }
  EXPECT_EQ(res.perf.instructions, 6u);
  EXPECT_EQ(res.perf.load_instrs, 2u);
  EXPECT_EQ(res.perf.store_instrs, 1u);
  EXPECT_EQ(res.perf.operation_instrs, 2u);
  EXPECT_EQ(res.perf.single_instrs, 1u);
  EXPECT_EQ(res.perf.shm_reads, 1024u);
  EXPECT_EQ(res.perf.shm_writes, 512u);
}

TEST(Gpgpu, StoreConflictHighestThreadWins) {
  // All threads store their tid to the same address; the 16:1 write mux
  // serializes lanes in thread order, so the highest tid lands last.
  const std::string src =
      "movsr %r0, %tid\n"
      "movi %r1, 7\n"
      "sts [%r1], %r0\n"
      "exit\n";
  auto gpu = make_gpu(src, 32);
  gpu.run();
  EXPECT_EQ(gpu.read_shared(7), 31u);
}

TEST(Gpgpu, GuardedExecutionMasksPerThread) {
  // Threads with tid < 100 add 1000; others leave their value alone.
  const std::string src =
      "movsr %r0, %tid\n"
      "movi %r1, 100\n"
      "setp.lt %p0, %r0, %r1\n"
      "mov %r2, %r0\n"
      "@p0 addi %r2, %r2, 1000\n"
      "@!p0 addi %r2, %r2, 1\n"
      "sts [%r0], %r2\n"
      "exit\n";
  auto gpu = make_gpu(src, 256);
  gpu.run();
  for (unsigned i = 0; i < 256; ++i) {
    EXPECT_EQ(gpu.read_shared(i), i < 100 ? i + 1000 : i + 1) << i;
  }
}

TEST(Gpgpu, SelpAndPredicateAlu) {
  const std::string src =
      "movsr %r0, %tid\n"
      "movi %r1, 8\n"
      "movi %r2, 111\n"
      "movi %r3, 222\n"
      "setp.lt %p0, %r0, %r1\n"   // tid < 8
      "setp.eq %p1, %r0, %r1\n"   // tid == 8
      "por %p2, %p0, %p1\n"       // tid <= 8
      "pnot %p3, %p2\n"           // tid > 8
      "selp %r4, %r2, %r3, %p2\n"
      "sts [%r0], %r4\n"
      "exit\n";
  auto gpu = make_gpu(src, 32);
  gpu.run();
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(gpu.read_shared(i), i <= 8 ? 111u : 222u) << i;
    EXPECT_EQ(gpu.read_pred(i, 3), i > 8);
  }
}

TEST(Gpgpu, SpecialRegistersPerThread) {
  const std::string src =
      "movsr %r1, %lane\n"
      "movsr %r2, %row\n"
      "movsr %r3, %nsp\n"
      "movsr %r4, %ntid\n"
      "movsr %r5, %smid\n"
      "exit\n";
  auto gpu = make_gpu(src, 64);
  gpu.run();
  for (unsigned t = 0; t < 64; ++t) {
    EXPECT_EQ(gpu.read_reg(t, 1), t % 16);
    EXPECT_EQ(gpu.read_reg(t, 2), t / 16);
    EXPECT_EQ(gpu.read_reg(t, 3), 16u);
    EXPECT_EQ(gpu.read_reg(t, 4), 64u);
    EXPECT_EQ(gpu.read_reg(t, 5), 0u);
  }
}

TEST(Gpgpu, DynamicThreadScalingImmediate) {
  // After SETTI 16 only threads 0..15 execute; NTID reflects the scale.
  const std::string src =
      "movsr %r0, %tid\n"
      "movi %r1, 5\n"
      "setti 16\n"
      "movsr %r2, %ntid\n"
      "addi %r1, %r1, 10\n"
      "exit\n";
  auto gpu = make_gpu(src, 256);
  const auto res = gpu.run();
  EXPECT_TRUE(res.exited);
  EXPECT_EQ(gpu.read_reg(0, 2), 16u);
  EXPECT_EQ(gpu.read_reg(0, 1), 15u);
  // Thread 200 never saw the instructions after the rescale.
  EXPECT_EQ(gpu.read_reg(200, 1), 5u);
  EXPECT_EQ(gpu.read_reg(200, 2), 0u);
}

TEST(Gpgpu, DynamicThreadScalingFromRegister) {
  // SETT samples the count from thread 0's register (the sequencer input).
  const std::string src =
      "movi %r1, 48\n"
      "sett %r1\n"
      "movsr %r2, %ntid\n"
      "exit\n";
  auto gpu = make_gpu(src, 256);
  gpu.run();
  EXPECT_EQ(gpu.read_reg(0, 2), 48u);
}

TEST(Gpgpu, ZeroOverheadLoopAccumulates) {
  const std::string src =
      "movi %r1, 0\n"
      "loopi 10, end\n"
      "addi %r1, %r1, 3\n"
      "end: exit\n";
  auto gpu = make_gpu(src, 16);
  gpu.run();
  EXPECT_EQ(gpu.read_reg(0, 1), 30u);
  EXPECT_EQ(gpu.read_reg(15, 1), 30u);
}

TEST(Gpgpu, NestedLoopsMultiply) {
  const std::string src =
      "movi %r1, 0\n"
      "loopi 5, outer_end\n"
      "loopi 4, inner_end\n"
      "addi %r1, %r1, 1\n"
      "inner_end:\n"
      "addi %r2, %r1, 0\n"
      "outer_end:\n"
      "exit\n";
  auto gpu = make_gpu(src, 16);
  gpu.run();
  EXPECT_EQ(gpu.read_reg(0, 1), 20u);
}

TEST(Gpgpu, LoopCountFromRegister) {
  const std::string src =
      "movi %r7, 6\n"
      "movi %r1, 0\n"
      "loop %r7, end\n"
      "addi %r1, %r1, 1\n"
      "end: exit\n";
  auto gpu = make_gpu(src, 16);
  gpu.run();
  EXPECT_EQ(gpu.read_reg(0, 1), 6u);
}

TEST(Gpgpu, LoopCountZeroSkipsBody) {
  const std::string src =
      "movi %r7, 0\n"
      "movi %r1, 99\n"
      "loop %r7, end\n"
      "movi %r1, 0\n"
      "end: exit\n";
  auto gpu = make_gpu(src, 16);
  const auto res = gpu.run();
  EXPECT_EQ(gpu.read_reg(0, 1), 99u);
  // Skipping the body redirects the PC and pays a flush bubble.
  EXPECT_EQ(res.perf.flush_cycles, test_cfg().decode_depth);
}

TEST(Gpgpu, CallRetSubroutine) {
  const std::string src =
      "movi %r1, 1\n"
      "call sub\n"
      "addi %r1, %r1, 100\n"
      "exit\n"
      "sub:\n"
      "addi %r1, %r1, 10\n"
      "ret\n";
  auto gpu = make_gpu(src, 16);
  gpu.run();
  EXPECT_EQ(gpu.read_reg(0, 1), 111u);
}

TEST(Gpgpu, BranchAnySemantics) {
  // BRP branches when ANY active thread has the predicate set.
  const std::string src =
      "movsr %r0, %tid\n"
      "movi %r1, 31\n"
      "setp.eq %p0, %r0, %r1\n"  // only thread 31 matches
      "brp %p0, taken\n"
      "movi %r2, 1\n"
      "exit\n"
      "taken:\n"
      "movi %r2, 2\n"
      "exit\n";
  auto gpu = make_gpu(src, 32);
  gpu.run();
  EXPECT_EQ(gpu.read_reg(0, 2), 2u);

  // With only 16 threads active, thread 31 never sets p0: not taken.
  auto gpu2 = make_gpu(src, 16);
  gpu2.run();
  EXPECT_EQ(gpu2.read_reg(0, 2), 1u);
}

TEST(Gpgpu, BranchNoneSemantics) {
  const std::string src =
      "movsr %r0, %tid\n"
      "movi %r1, 1000\n"
      "setp.gt %p0, %r0, %r1\n"  // nobody exceeds 1000
      "brn %p0, taken\n"
      "movi %r2, 1\n"
      "exit\n"
      "taken:\n"
      "movi %r2, 2\n"
      "exit\n";
  auto gpu = make_gpu(src, 64);
  gpu.run();
  EXPECT_EQ(gpu.read_reg(0, 2), 2u);
}

TEST(Gpgpu, ConvergenceLoopWithBrp) {
  // Iterate: halve every value until all are zero (BRP back-edge).
  const std::string src =
      "movsr %r0, %tid\n"
      "addi %r1, %r0, 1\n"
      "again:\n"
      "shri %r1, %r1, 1\n"
      "movi %r2, 0\n"
      "setp.ne %p0, %r1, %r2\n"
      "brp %p0, again\n"
      "sts [%r0], %r1\n"
      "exit\n";
  auto gpu = make_gpu(src, 64);
  const auto res = gpu.run();
  EXPECT_TRUE(res.exited);
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(gpu.read_shared(i), 0u);
  }
  EXPECT_GT(res.perf.flush_cycles, 0u);
}

TEST(Gpgpu, DatapathOpsInKernel) {
  const std::string src =
      "movsr %r0, %tid\n"
      "movi %r1, 0x10001\n"
      "mul.lo %r2, %r0, %r1\n"
      "mul.hi %r3, %r1, %r1\n"
      "sari %r4, %r2, 3\n"
      "abs %r5, %r4\n"
      "popc %r6, %r1\n"
      "exit\n";
  auto gpu = make_gpu(src, 32);
  gpu.run();
  for (unsigned t = 0; t < 32; ++t) {
    const std::uint32_t lo = t * 0x10001u;
    EXPECT_EQ(gpu.read_reg(t, 2), lo);
    EXPECT_EQ(gpu.read_reg(t, 3),
              static_cast<std::uint32_t>(
                  (0x10001LL * 0x10001LL) >> 32));
    EXPECT_EQ(gpu.read_reg(t, 4),
              static_cast<std::uint32_t>(static_cast<std::int32_t>(lo) >> 3));
    EXPECT_EQ(gpu.read_reg(t, 6), 2u);
  }
}

TEST(Gpgpu, RunWithoutExitReportsBudgetExhausted) {
  const std::string src =
      "again: movi %r1, 1\n"
      "bra again\n";
  auto gpu = make_gpu(src, 16);
  const auto res = gpu.run(0, /*max_instructions=*/100);
  EXPECT_FALSE(res.exited);
  EXPECT_EQ(res.perf.instructions, 100u);
}

TEST(Gpgpu, PcPastEndTraps) {
  auto gpu = make_gpu("nop\nnop\n", 16);
  EXPECT_THROW(gpu.run(), Error);
}

TEST(Gpgpu, OutOfBoundsAccessTraps) {
  auto gpu = make_gpu("movi %r1, 100000\nlds %r2, [%r1]\nexit\n", 16);
  EXPECT_THROW(gpu.run(), Error);
  auto gpu2 = make_gpu("movi %r1, 100000\nsts [%r1], %r1\nexit\n", 16);
  EXPECT_THROW(gpu2.run(), Error);
}

TEST(Gpgpu, TrappedStoreCommitsNothing) {
  // Lanes 0-5 of this store are in bounds, lane 6 (4090 + 6) is not. The
  // trap reports lane 6 and commits nothing -- not at the throw, not at the
  // next host write, and not at a later launch's first store.
  for (const bool bit_accurate : {false, true}) {
    const std::string what = bit_accurate ? "bit-accurate" : "fast";
    auto cfg = test_cfg(16);
    cfg.bit_accurate = bit_accurate;
    Gpgpu gpu(cfg);
    gpu.load_program(assembler::assemble(
        "movsr %r0, %tid\n"
        "movi %r1, 101\n"
        "sts [%r0 + 4090], %r1\n"
        "exit\n"));
    gpu.set_thread_count(16);
    try {
      gpu.run();
      FAIL() << what << ": the out-of-bounds store did not trap";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("thread 6 addr 4096"),
                std::string::npos)
          << what << ": " << e.what();
    }
    const auto expect_untouched = [&](const std::string& when) {
      for (std::uint32_t a = 4090; a < 4096; ++a) {
        EXPECT_EQ(gpu.read_shared(a), 0u) << what << " " << when << " " << a;
      }
    };
    expect_untouched("after the trap");
    gpu.write_shared(0, 7);
    expect_untouched("after a host write");
    gpu.load_program(assembler::assemble(
        "movsr %r0, %tid\n"
        "sts [%r0 + 100], %r0\n"
        "exit\n"));
    EXPECT_TRUE(gpu.run().exited) << what;
    expect_untouched("after a good launch");
    EXPECT_EQ(gpu.read_shared(0), 7u) << what;
    EXPECT_EQ(gpu.read_shared(115), 15u) << what;
  }
}

TEST(Gpgpu, ValidationRejectsPredicatesWhenDisabled) {
  auto cfg = test_cfg(64);
  cfg.predicates_enabled = false;
  Gpgpu gpu(cfg);
  EXPECT_THROW(
      gpu.load_program(assembler::assemble("setp.eq %p0, %r0, %r1\nexit\n")),
      Error);
  EXPECT_THROW(
      gpu.load_program(assembler::assemble("@p0 add %r0, %r0, %r0\nexit\n")),
      Error);
  EXPECT_THROW(
      gpu.load_program(
          assembler::assemble("x: brp %p0, x\nexit\n")),
      Error);
  // Plain programs still load.
  gpu.load_program(assembler::assemble("add %r0, %r0, %r0\nexit\n"));
}

TEST(Gpgpu, ValidationRejectsOutOfRangeRegisters) {
  auto cfg = test_cfg(64);
  cfg.regs_per_thread = 8;
  Gpgpu gpu(cfg);
  EXPECT_THROW(
      gpu.load_program(assembler::assemble("add %r8, %r0, %r0\nexit\n")),
      Error);
  EXPECT_THROW(
      gpu.load_program(assembler::assemble("add %r0, %r9, %r0\nexit\n")),
      Error);
}

TEST(Gpgpu, ValidationRejectsBadLoopGeometry) {
  Gpgpu gpu(test_cfg(64));
  // Loop end must lie strictly after the loop instruction.
  std::vector<isa::Instr> prog(3);
  prog[0].op = isa::Opcode::LOOPI;
  prog[0].imm = (2 << 16) | 0;  // end_pc == 0 <= pc+1
  prog[1].op = isa::Opcode::NOP;
  prog[2].op = isa::Opcode::EXIT;
  EXPECT_THROW(gpu.load_program(Program(prog)), Error);
}

TEST(Gpgpu, ValidationRejectsSettiOutOfRange) {
  Gpgpu gpu(test_cfg(64));
  std::vector<isa::Instr> prog(2);
  prog[0].op = isa::Opcode::SETTI;
  prog[0].imm = 2000;  // > max_threads of this instance
  prog[1].op = isa::Opcode::EXIT;
  EXPECT_THROW(gpu.load_program(Program(prog)), Error);
}

TEST(Gpgpu, ProgramTooLargeForImem) {
  auto cfg = test_cfg(16);
  cfg.imem_depth = 4;
  Gpgpu gpu(cfg);
  EXPECT_THROW(
      gpu.load_program(assembler::assemble("nop\nnop\nnop\nnop\nexit\n")),
      Error);
}

TEST(Gpgpu, ResetStateZeroesEverything) {
  auto gpu = make_gpu("movsr %r1, %tid\nsts [%r1], %r1\nexit\n", 32);
  gpu.run();
  EXPECT_NE(gpu.read_reg(5, 1), 0u);
  gpu.reset_state();
  EXPECT_EQ(gpu.read_reg(5, 1), 0u);
  EXPECT_EQ(gpu.read_shared(5), 0u);
}

TEST(Gpgpu, HostBackdoorAccessors) {
  Gpgpu gpu(test_cfg(64));
  gpu.write_reg(17, 3, 0xabcdu);
  EXPECT_EQ(gpu.read_reg(17, 3), 0xabcdu);
  gpu.write_pred(9, 2, true);
  EXPECT_TRUE(gpu.read_pred(9, 2));
  gpu.write_pred(9, 2, false);
  EXPECT_FALSE(gpu.read_pred(9, 2));
  gpu.write_shared(123, 0x5555u);
  EXPECT_EQ(gpu.read_shared(123), 0x5555u);
}

TEST(Gpgpu, SetThreadCountValidation) {
  Gpgpu gpu(test_cfg(64));
  EXPECT_THROW(gpu.set_thread_count(0), Error);
  EXPECT_THROW(gpu.set_thread_count(65), Error);
  gpu.set_thread_count(64);
  EXPECT_EQ(gpu.thread_count(), 64u);
}

TEST(Gpgpu, PartialThreadBlockRowsRoundUp) {
  // 40 threads on 16 SPs -> 3 rows; the tail row is partially filled.
  const std::string src = "movsr %r1, %tid\nexit\n";
  auto gpu = make_gpu(src, 64);
  gpu.set_thread_count(40);
  const auto res = gpu.run();
  EXPECT_EQ(res.perf.thread_rows, 3u);
  EXPECT_EQ(gpu.read_reg(39, 1), 39u);
  EXPECT_EQ(gpu.read_reg(40, 1), 0u);  // inactive thread untouched
}

}  // namespace
}  // namespace simt::core
