// Tests for the kernel ABI: assembler metadata directives, launch-time
// argument binding (the loader patch + parameter window), footprint-driven
// multicore staging, module-cache hit accounting, host-thread-safe stream
// submission, and scalar-backend entry points.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "asm/assembler.hpp"
#include "common/error.hpp"
#include "kernels/kernels.hpp"
#include "runtime/args.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/module.hpp"
#include "runtime/stream.hpp"

namespace simt::runtime {
namespace {

core::CoreConfig small_cfg(unsigned threads = 256,
                           unsigned mem_words = 1024) {
  core::CoreConfig c;
  c.max_threads = threads;
  c.shared_mem_words = mem_words;
  c.predicates_enabled = true;
  return c;
}

baseline::ScalarCpuConfig scalar_cfg(unsigned mem_words = 1024) {
  baseline::ScalarCpuConfig c;
  c.shared_mem_words = mem_words;
  return c;
}

// ---- binding and the module cache ------------------------------------------

TEST(KernelAbi, SameSourceDifferentBuffersAssemblesOnce) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto a1 = dev.alloc<std::uint32_t>(64);
  auto b1 = dev.alloc<std::uint32_t>(64);
  auto c1 = dev.alloc<std::uint32_t>(64);
  auto a2 = dev.alloc<std::uint32_t>(64);
  auto b2 = dev.alloc<std::uint32_t>(64);
  auto c2 = dev.alloc<std::uint32_t>(64);

  const std::string src = kernels::vecadd_abi();
  Module& first = dev.load_module(src);
  Module& second = dev.load_module(src);  // different buffers, same source
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(dev.module_cache_size(), 1u);
  EXPECT_EQ(dev.module_cache_misses(), 1u);
  EXPECT_EQ(dev.module_cache_hits(), 1u);

  std::vector<std::uint32_t> ha(64), hb(64);
  std::iota(ha.begin(), ha.end(), 10u);
  std::iota(hb.begin(), hb.end(), 500u);
  a1.write(ha);
  b1.write(hb);
  a2.write(hb);
  b2.write(ha);

  const auto kernel = first.kernel("vecadd");
  ASSERT_NE(kernel.info, nullptr);
  EXPECT_EQ(kernel.info->params.size(), 3u);

  // Two launches of ONE assembled module over two buffer sets.
  dev.launch_sync(kernel, 64, KernelArgs().arg(a1).arg(b1).arg(c1));
  dev.launch_sync(kernel, 64, KernelArgs().arg(a2).arg(b2).arg(c2));
  for (unsigned i = 0; i < 64; ++i) {
    ASSERT_EQ(c1.at(i), ha[i] + hb[i]) << i;
    ASSERT_EQ(c2.at(i), ha[i] + hb[i]) << i;
  }
  EXPECT_EQ(dev.module_cache_misses(), 1u);  // still exactly one assembly
}

TEST(KernelAbi, RepatchOnlyWhenTheBindingChanges) {
  // Same kernel + same args twice, then a different binding: results stay
  // correct either way (the resident-signature check is an optimization,
  // not a semantic).
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto a = dev.alloc<std::uint32_t>(32);
  auto b = dev.alloc<std::uint32_t>(32);
  auto c = dev.alloc<std::uint32_t>(32);
  auto d = dev.alloc<std::uint32_t>(32);
  std::vector<std::uint32_t> ha(32, 7), hb(32, 5);
  a.write(ha);
  b.write(hb);

  Module& mod = dev.load_module(kernels::vecadd_abi());
  const auto kernel = mod.kernel("vecadd");
  dev.launch_sync(kernel, 32, KernelArgs().arg(a).arg(b).arg(c));
  dev.launch_sync(kernel, 32, KernelArgs().arg(a).arg(b).arg(c));
  dev.launch_sync(kernel, 32, KernelArgs().arg(a).arg(b).arg(d));
  EXPECT_EQ(c.at(0), 12u);
  EXPECT_EQ(d.at(0), 12u);
}

TEST(KernelAbi, ArgumentValidation) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto a = dev.alloc<std::uint32_t>(16);
  auto b = dev.alloc<std::uint32_t>(16);
  auto c = dev.alloc<std::uint32_t>(16);
  Module& mod = dev.load_module(kernels::vecadd_abi());
  const auto kernel = mod.kernel("vecadd");

  // Too few, wrong kind, and args against a metadata-free kernel all throw.
  EXPECT_THROW(dev.launch_sync(kernel, 16, KernelArgs().arg(a).arg(b)),
               Error);
  EXPECT_THROW(dev.launch_sync(
                   kernel, 16, KernelArgs().arg(a).arg(b).scalar(3)),
               Error);
  Module& legacy = dev.load_module("movi %r1, 1\nexit\n");
  EXPECT_THROW(dev.launch_sync(legacy.kernel(), 16, KernelArgs().arg(a)),
               Error);
  // The stream validates at enqueue, not at synchronize.
  EXPECT_THROW(dev.stream().launch(kernel, 16, KernelArgs().arg(a)), Error);
  // A matching set is fine.
  dev.launch_sync(kernel, 16, KernelArgs().arg(a).arg(b).arg(c));
}

TEST(KernelAbi, InteriorLabelsCarryTheKernelMetadata) {
  // A label inside a .kernel region resolves with the region's ABI info
  // attached, so launching it without arguments is an error instead of a
  // silent run with unpatched $param immediates.
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto out = dev.alloc<std::uint32_t>(16);
  Module& mod = dev.load_module(
      "nop\n"              // legacy preamble: outside any kernel
      ".kernel k\n"
      ".param out buffer\n"
      "movsr %r0, %tid\n"
      "inner:\n"
      "movi %r1, 9\n"
      "sts [%r0 + $out], %r1\n"
      "exit\n");
  EXPECT_EQ(mod.kernel().info, nullptr);  // entry 0 is before the kernel
  ASSERT_NE(mod.kernel("inner").info, nullptr);
  EXPECT_EQ(mod.kernel("inner").info->name, "k");
  EXPECT_THROW(dev.launch_sync(mod.kernel("inner"), 16), Error);
  // Entering at the interior label skips the movsr, so every thread's %r0
  // is 0 and the store lands at out[0] -- with the $out base patched in.
  dev.launch_sync(mod.kernel("inner"), 16, KernelArgs().arg(out));
  EXPECT_EQ(out.at(0), 9u);
}

TEST(KernelAbi, ParamWindowCollisionThrows) {
  // A buffer bound into (or allocated over) the reserved window is refused.
  Device dev(DeviceDescriptor::simt_core(small_cfg(64, 256)));
  auto a = dev.alloc<std::uint32_t>(64);
  auto b = dev.alloc<std::uint32_t>(64);
  auto c = dev.alloc<std::uint32_t>(64);
  Module& mod = dev.load_module(kernels::vecadd_abi());
  const auto kernel = mod.kernel("vecadd");
  dev.launch_sync(kernel, 16, KernelArgs().arg(a).arg(b).arg(c));

  // 224..256 is the window on a 256-word device; filling the arena up to
  // it makes the next ABI launch throw.
  dev.alloc<std::uint32_t>(256 - 192 - Device::kParamWindowWords + 1);
  EXPECT_THROW(dev.launch_sync(kernel, 16, KernelArgs().arg(a).arg(b).arg(c)),
               Error);
}

// ---- parameter window + differential across backends -----------------------

/// Launch vecadd + saxpy (ABI kernels) on one device; return the outputs
/// and the observed parameter window.
struct AbiDifferential {
  std::vector<std::uint32_t> vecadd;
  std::vector<std::int32_t> saxpy;
  std::vector<std::uint32_t> window;
};

AbiDifferential run_abi_differential(Device& dev, unsigned n) {
  auto a = dev.alloc<std::uint32_t>(n);
  auto b = dev.alloc<std::uint32_t>(n);
  auto c = dev.alloc<std::uint32_t>(n);
  auto x = dev.alloc<std::int32_t>(n);
  auto y = dev.alloc<std::int32_t>(n);
  auto out = dev.alloc<std::int32_t>(n);

  std::vector<std::uint32_t> ha(n), hb(n);
  std::vector<std::int32_t> hx(n), hy(n);
  for (unsigned i = 0; i < n; ++i) {
    ha[i] = 3 * i + 1;
    hb[i] = 1000 + i;
    hx[i] = static_cast<std::int32_t>(i) - static_cast<std::int32_t>(n / 2);
    hy[i] = 7 * static_cast<std::int32_t>(i) - 100;
  }

  const std::int32_t alpha = 3 << 14;  // 0.75 in Q16
  Module& add_mod = dev.load_module(kernels::vecadd_abi());
  Module& saxpy_mod = dev.load_module(kernels::saxpy_abi(16));

  AbiDifferential result;
  result.vecadd.resize(n);
  result.saxpy.resize(n);
  auto& stream = dev.stream();
  stream.copy_in(a, std::span<const std::uint32_t>(ha));
  stream.copy_in(b, std::span<const std::uint32_t>(hb));
  stream.copy_in(x, std::span<const std::int32_t>(hx));
  stream.copy_in(y, std::span<const std::int32_t>(hy));
  stream.launch(add_mod.kernel("vecadd"), n,
                KernelArgs().arg(a).arg(b).arg(c));
  stream.launch(saxpy_mod.kernel("saxpy"), n,
                KernelArgs().arg(x).arg(y).arg(out).scalar(
                    static_cast<std::uint32_t>(alpha)));
  stream.copy_out(c, std::span<std::uint32_t>(result.vecadd));
  stream.copy_out(out, std::span<std::int32_t>(result.saxpy));
  stream.synchronize();

  // The last launch's binding is recorded in the parameter window.
  result.window.resize(4);
  dev.read_words(dev.param_window_base(), result.window);
  return result;
}

TEST(KernelAbi, ParamWindowLaunchesAgreeOnEveryBackend) {
  constexpr unsigned kN = 192;  // not a multiple of the core sizes below

  Device core_dev(DeviceDescriptor::simt_core(small_cfg(256, 2048)));
  Device multi_dev(DeviceDescriptor::multi_core(3, small_cfg(64, 2048)));
  Device scalar_dev(DeviceDescriptor::scalar_cpu(scalar_cfg(2048)));
  const auto core = run_abi_differential(core_dev, kN);
  const auto multi = run_abi_differential(multi_dev, kN);
  const auto scalar = run_abi_differential(scalar_dev, kN);

  for (unsigned i = 0; i < kN; ++i) {
    const std::uint32_t add_golden = (3 * i + 1) + (1000 + i);
    const std::int64_t prod =
        static_cast<std::int64_t>(3 << 14) *
        (static_cast<std::int32_t>(i) - static_cast<std::int32_t>(kN / 2));
    const std::int32_t saxpy_golden =
        static_cast<std::int32_t>(prod >> 16) +
        (7 * static_cast<std::int32_t>(i) - 100);
    ASSERT_EQ(core.vecadd[i], add_golden) << i;
    ASSERT_EQ(core.saxpy[i], saxpy_golden) << i;
  }
  EXPECT_EQ(multi.vecadd, core.vecadd);
  EXPECT_EQ(multi.saxpy, core.saxpy);
  EXPECT_EQ(scalar.vecadd, core.vecadd);
  EXPECT_EQ(scalar.saxpy, core.saxpy);

  // Window word i = argument i of the last (saxpy) launch: x, y, out
  // buffer bases (identical allocation order on every backend) and alpha.
  EXPECT_EQ(core.window, multi.window);
  EXPECT_EQ(core.window, scalar.window);
  EXPECT_EQ(core.window[3], static_cast<std::uint32_t>(3 << 14));
}

// ---- footprint-driven staging ----------------------------------------------

/// Alternate two independent ABI workloads on one multicore device and
/// return (sum of staged words, sum of skipped words). With footprints
/// declared, each launch skips the stale ranges belonging to the OTHER
/// workload; with the directives stripped, every launch restages them.
std::pair<std::uint64_t, std::uint64_t> run_interleaved(
    bool declare_footprints, std::vector<std::uint32_t>* out_result) {
  const unsigned kN = 128;
  Device dev(DeviceDescriptor::multi_core(2, small_cfg(64, 2048)));
  auto a1 = dev.alloc<std::uint32_t>(kN);
  auto b1 = dev.alloc<std::uint32_t>(kN);
  auto c1 = dev.alloc<std::uint32_t>(kN);
  auto in2 = dev.alloc<std::uint32_t>(kN);
  auto out2 = dev.alloc<std::uint32_t>(kN);

  std::string add_src = kernels::vecadd_abi();
  std::string scale_src = kernels::scale_abi();
  if (!declare_footprints) {
    // Strip the .reads/.writes declarations: binding still works, but the
    // staging path falls back to conservative restaging.
    for (auto* src : {&add_src, &scale_src}) {
      std::string stripped;
      std::istringstream in(*src);
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind(".reads", 0) == 0 || line.rfind(".writes", 0) == 0) {
          continue;
        }
        stripped += line + "\n";
      }
      *src = stripped;
    }
  }
  Module& add_mod = dev.load_module(add_src);
  Module& scale_mod = dev.load_module(scale_src);

  std::vector<std::uint32_t> h1(kN), h2(kN);
  std::uint64_t staged = 0, skipped = 0;
  for (unsigned round = 0; round < 4; ++round) {
    for (unsigned i = 0; i < kN; ++i) {
      h1[i] = round * 100 + i;
      h2[i] = round * 7 + i;
    }
    // Host updates BOTH workloads' inputs, then runs them back to back:
    // each launch sees the other workload's fresh writes as stale words it
    // has no use for.
    a1.write(h1);
    b1.write(h1);
    in2.write(h2);
    const auto s1 = dev.launch_sync(add_mod.kernel("vecadd"), kN,
                                    KernelArgs().arg(a1).arg(b1).arg(c1));
    const auto s2 = dev.launch_sync(scale_mod.kernel("scale"), kN,
                                    KernelArgs().arg(in2).arg(out2)
                                        .scalar(3).scalar(round));
    staged += s1.staged_words + s2.staged_words;
    skipped += s1.staged_words_skipped + s2.staged_words_skipped;
    for (unsigned i = 0; i < kN; ++i) {
      EXPECT_EQ(c1.at(i), 2 * h1[i]) << "round " << round << " i " << i;
      EXPECT_EQ(out2.at(i), 3 * h2[i] + round) << "round " << round;
    }
  }
  if (out_result != nullptr) {
    *out_result = out2.read();
  }
  return {staged, skipped};
}

TEST(FootprintStaging, DeclaredReadSetsStageFewerWordsThanConservative) {
  std::vector<std::uint32_t> declared_result, conservative_result;
  const auto declared = run_interleaved(true, &declared_result);
  const auto conservative = run_interleaved(false, &conservative_result);

  // Same results either way; strictly less staging traffic and a nonzero
  // skip count with footprints declared.
  EXPECT_EQ(declared_result, conservative_result);
  EXPECT_LT(declared.first, conservative.first);
  EXPECT_GT(declared.second, 0u);
  EXPECT_EQ(conservative.second, 0u);
}

TEST(FootprintStaging, ExtentLimitsTheDeclaredRange) {
  // A kernel that declares it reads only the first 8 words of its input:
  // staging a 2-core launch ships at most those 8 (+ window + output)
  // words per core even though the whole buffer went stale.
  Device dev(DeviceDescriptor::multi_core(2, small_cfg(16, 1024)));
  auto in = dev.alloc<std::uint32_t>(256);
  auto out = dev.alloc<std::uint32_t>(16);
  Module& mod = dev.load_module(
      ".kernel head8\n"
      ".param in buffer\n"
      ".param out buffer\n"
      ".reads in+8\n"
      ".writes out\n"
      "movsr %r0, %tid\n"
      "movi %r1, 7\n"
      "and %r1, %r0, %r1\n"
      "lds %r2, [%r1 + $in]\n"
      "sts [%r0 + $out], %r2\n"
      "exit\n");
  std::vector<std::uint32_t> host(256);
  std::iota(host.begin(), host.end(), 5u);
  in.write(host);  // all 256 words go stale on both cores

  const auto stats = dev.launch_sync(mod.kernel("head8"), 16,
                                     KernelArgs().arg(in).arg(out));
  for (unsigned i = 0; i < 16; ++i) {
    ASSERT_EQ(out.at(i), host[i % 8]) << i;
  }
  // Conservative would have staged 256 words per core; the declared read
  // set keeps it to the 8 input words (plus the fresh parameter window).
  EXPECT_GT(stats.staged_words_skipped, 0u);
  EXPECT_LT(stats.staged_words, 2u * 64u);
}

TEST(FootprintStaging, PerThreadSlicesStagePerCoreSlices) {
  // An elementwise kernel with @tid footprints on a 2-core device: each
  // core must stage only its thread slice of the input, not the whole
  // range. The whole-launch declaration (the @tid markers downgraded)
  // ships the full input to BOTH cores.
  constexpr unsigned kN = 256;
  const auto run = [](bool sliced) {
    Device dev(DeviceDescriptor::multi_core(2, small_cfg(128, 2048)));
    auto in = dev.alloc<std::uint32_t>(kN);
    auto out = dev.alloc<std::uint32_t>(kN);
    std::string src = kernels::scale_abi();
    if (!sliced) {
      // ".reads in@tid" -> ".reads in": same staging direction, no
      // per-thread scaling.
      std::string stripped;
      for (std::size_t pos = 0; pos < src.size();) {
        const auto at = src.find("@tid", pos);
        stripped += src.substr(pos, at - pos);
        pos = at == std::string::npos ? src.size() : at + 4;
      }
      src = stripped;
    }
    Module& mod = dev.load_module(src);
    std::vector<std::uint32_t> host(kN);
    std::iota(host.begin(), host.end(), 9u);
    in.write(host);  // the whole input goes stale on both cores
    const auto stats = dev.launch_sync(
        mod.kernel("scale"), kN,
        KernelArgs().arg(in).arg(out).scalar(2).scalar(1));
    for (unsigned i = 0; i < kN; ++i) {
      EXPECT_EQ(out.at(i), 2 * host[i] + 1) << i << " sliced=" << sliced;
    }
    return stats.staged_words;
  };
  const auto sliced = run(true);
  const auto whole = run(false);
  // Whole-launch ships ~kN input words to each of the 2 cores; sliced
  // ships each core ~its half. (Exact counts include the param window and
  // RangeSet burst coalescing, so compare, don't pin.)
  EXPECT_LT(sliced, whole);
  EXPECT_LT(sliced, kN + kN / 2 + 64);
  EXPECT_GE(whole, 2u * kN);
}

TEST(FootprintStaging, StridedChunksStagePerCoreChunks) {
  // The chunked reduce kernel: thread t reads in[t*P, (t+1)*P). With the
  // strided declaration (`in@tid*P+P`) a 2-core launch stages each core
  // only its chunk slice; with the whole-buffer downgrade both cores ship
  // the entire input.
  constexpr unsigned kChunk = 4;
  constexpr unsigned kN = 512;
  constexpr unsigned kPartials = kN / kChunk;
  const auto run = [](bool strided) {
    Device dev(DeviceDescriptor::multi_core(2, small_cfg(64, 2048)));
    auto in = dev.alloc<std::uint32_t>(kN);
    auto out = dev.alloc<std::uint32_t>(kPartials);
    std::string src = kernels::reduce_abi(kChunk);
    if (!strided) {
      // ".reads in@tid*4+4" -> ".reads in": the pre-stride declaration.
      const auto pos = src.find("in@tid*");
      EXPECT_NE(pos, std::string::npos) << src;
      const auto eol = src.find('\n', pos);
      src = src.substr(0, pos) + "in" + src.substr(eol);
    }
    Module& mod = dev.load_module(src);
    std::vector<std::uint32_t> host(kN);
    std::iota(host.begin(), host.end(), 1u);
    in.write(host);  // the whole input goes stale on both cores
    const auto stats = dev.launch_sync(mod.kernel("reduce"), kPartials,
                                       KernelArgs().arg(in).arg(out));
    for (unsigned t = 0; t < kPartials; ++t) {
      std::uint32_t want = 0;
      for (unsigned j = 0; j < kChunk; ++j) {
        want += host[t * kChunk + j];
      }
      EXPECT_EQ(out.at(t), want) << t << " strided=" << strided;
    }
    return stats.staged_words;
  };
  const std::uint64_t strided_words = run(true);
  const std::uint64_t whole_words = run(false);
  // Whole-buffer ships ~kN input words to each of the 2 cores; the strided
  // declaration ships each core ~its half of the chunks.
  EXPECT_LT(strided_words, whole_words);
  EXPECT_GE(whole_words, 2u * kN);
  EXPECT_LT(strided_words, kN + kN / 2 + 64);
}

TEST(KernelMetadata, StridedSidecarRoundTrips) {
  // reduce_abi declares the chunked `in@tid*P+P` form; the sidecar text
  // must carry the stride through emit -> parse unchanged.
  const auto program = assembler::assemble(kernels::reduce_abi(4));
  const auto text = core::kernel_metadata_text(program);
  EXPECT_NE(text.find(".reads in@tid*4+4"), std::string::npos) << text;
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  const auto parsed = core::parse_kernel_metadata(lines);
  EXPECT_EQ(parsed, program.kernels());
}

// ---- host-thread-safe submission -------------------------------------------

TEST(ConcurrentSubmit, WorkerThreadsShareOneStream) {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 8;
  constexpr unsigned kN = 32;
  Device dev(DeviceDescriptor::simt_core(small_cfg(64, 4096)));
  Module& mod = dev.load_module(kernels::scale_abi());
  const auto kernel = mod.kernel("scale");

  // Each worker owns a private in/out buffer pair and repeatedly enqueues
  // copy-in + launch + copy-out on the SHARED default stream.
  std::vector<Buffer<std::uint32_t>> ins, outs;
  for (unsigned t = 0; t < kThreads; ++t) {
    ins.push_back(dev.alloc<std::uint32_t>(kN));
    outs.push_back(dev.alloc<std::uint32_t>(kN));
  }
  std::vector<std::vector<std::uint32_t>> results(
      kThreads, std::vector<std::uint32_t>(kN));
  auto& stream = dev.stream();

  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::uint32_t> host(kN);
      for (unsigned r = 0; r < kPerThread; ++r) {
        for (unsigned i = 0; i < kN; ++i) {
          host[i] = t * 1000 + i;
        }
        stream.copy_in(ins[t], std::span<const std::uint32_t>(host));
        stream.launch(kernel, kN,
                      KernelArgs().arg(ins[t]).arg(outs[t])
                          .scalar(2).scalar(t));
        stream.copy_out(outs[t], std::span<std::uint32_t>(results[t]));
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  stream.synchronize();
  EXPECT_EQ(stream.pending(), 0u);
  for (unsigned t = 0; t < kThreads; ++t) {
    for (unsigned i = 0; i < kN; ++i) {
      ASSERT_EQ(results[t][i], 2 * (t * 1000 + i) + t) << t << " " << i;
    }
  }
}

// ---- scalar-backend entry points -------------------------------------------

TEST(ScalarEntry, KernelEntryLabelsWorkOnEveryBackend) {
  // A module with two kernels; launching the second by name must start at
  // its entry on all three backends (the scalar sweep included).
  const std::string src =
      ".kernel first\n"
      ".param out buffer\n"
      ".writes out\n"
      "movsr %r0, %tid\n"
      "movi %r1, 111\n"
      "sts [%r0 + $out], %r1\n"
      "exit\n"
      ".kernel second\n"
      ".param out buffer\n"
      ".writes out\n"
      "movsr %r0, %tid\n"
      "movi %r1, 222\n"
      "sts [%r0 + $out], %r1\n"
      "exit\n";
  const auto run = [&](DeviceDescriptor desc) {
    Device dev(desc);
    auto out = dev.alloc<std::uint32_t>(16);
    Module& mod = dev.load_module(src);
    EXPECT_GT(mod.kernel("second").entry, 0u);
    dev.launch_sync(mod.kernel("second"), 16, KernelArgs().arg(out));
    return out.read();
  };
  const auto core = run(DeviceDescriptor::simt_core(small_cfg(16, 512)));
  const auto multi = run(DeviceDescriptor::multi_core(2, small_cfg(16, 512)));
  const auto scalar = run(DeviceDescriptor::scalar_cpu(scalar_cfg(512)));
  for (unsigned i = 0; i < 16; ++i) {
    ASSERT_EQ(core[i], 222u) << i;
  }
  EXPECT_EQ(multi, core);
  EXPECT_EQ(scalar, core);
}

TEST(ScalarEntry, OutOfProgramEntryThrows) {
  baseline::ScalarSoftCpu cpu(scalar_cfg(512));
  cpu.load_program(assembler::assemble("exit\n"));
  EXPECT_THROW(cpu.run(5), Error);
}

// ---- metadata round trip ---------------------------------------------------

TEST(KernelMetadata, SidecarTextRoundTrips) {
  const auto program = assembler::assemble(kernels::fir_abi(4, 8));
  ASSERT_EQ(program.kernels().size(), 1u);
  const auto text = core::kernel_metadata_text(program);
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  const auto parsed = core::parse_kernel_metadata(lines);
  EXPECT_EQ(parsed, program.kernels());
}

}  // namespace
}  // namespace simt::runtime
