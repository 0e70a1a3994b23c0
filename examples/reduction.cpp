// Parallel tree reduction with dynamic thread scaling -- the workload the
// paper uses to motivate per-instruction thread rescaling (Section 2:
// "writing back only a subset of the threads (this may happen during vector
// reductions) can significantly reduce the number of clocks required for
// the STO instruction").
//
// Computes the maximum AND the sum of 1024 values in one pass: each halving
// step rescales the thread space with SETTI, so the expensive stores only
// sweep the live threads. Runs on the unified device runtime.
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/stream.hpp"

int main() {
  using namespace simt;

  constexpr unsigned kN = 1024;
  core::CoreConfig cfg;
  cfg.max_threads = kN;
  cfg.shared_mem_words = 4096;
  runtime::Device dev(runtime::DeviceDescriptor::simt_core(cfg));

  auto sums = dev.alloc<std::uint32_t>(kN);
  auto maxima = dev.alloc<std::uint32_t>(kN);

  // In-place tree reduction over two parameter buffers: every unrolled
  // halving step addresses `$sums + stride` / `$maxima + stride` -- the
  // strides are compile-time constants, the bases bind at launch, and the
  // buffers are both read and written (declared in both footprints).
  std::string src =
      ".kernel reduce2\n"
      ".param sums buffer\n"
      ".param maxima buffer\n"
      ".reads sums\n"
      ".reads maxima\n"
      ".writes sums\n"
      ".writes maxima\n"
      "movsr %r0, %tid\n";
  for (unsigned stride = kN / 2; stride >= 1; stride /= 2) {
    src += "setti " + std::to_string(stride) + "\n";
    src += "lds %r1, [%r0 + $sums]\n";
    src += "lds %r2, [%r0 + $sums + " + std::to_string(stride) + "]\n";
    src += "add %r3, %r1, %r2\n";
    src += "sts [%r0 + $sums], %r3\n";
    src += "lds %r4, [%r0 + $maxima]\n";
    src += "lds %r5, [%r0 + $maxima + " + std::to_string(stride) + "]\n";
    src += "max %r6, %r4, %r5\n";
    src += "sts [%r0 + $maxima], %r6\n";
  }
  src += "exit\n";
  auto& module = dev.load_module(src);

  std::vector<std::uint32_t> values(kN);
  std::uint64_t golden_sum = 0;
  std::int32_t golden_max = INT32_MIN;
  for (unsigned i = 0; i < kN; ++i) {
    const auto v = static_cast<std::int32_t>((i * 2654435761u) % 100000) -
                   50000;
    values[i] = static_cast<std::uint32_t>(v);
    golden_sum += static_cast<std::uint32_t>(v);
    golden_max = std::max(golden_max, v);
  }

  auto& stream = dev.stream();
  stream.copy_in(sums, std::span<const std::uint32_t>(values));
  stream.copy_in(maxima, std::span<const std::uint32_t>(values));
  auto event = stream.launch(module.kernel("reduce2"), kN,
                             runtime::KernelArgs().arg(sums).arg(maxima));
  stream.synchronize();

  const auto sum = sums.at(0);
  const auto mx = static_cast<std::int32_t>(maxima.at(0));
  if (sum != static_cast<std::uint32_t>(golden_sum) || mx != golden_max) {
    std::printf("MISMATCH: sum %u vs %u, max %d vs %d\n", sum,
                static_cast<std::uint32_t>(golden_sum), mx, golden_max);
    return 1;
  }

  const auto& perf = event.stats().perf;
  std::printf("reduction OK: sum=%u max=%d over %u values\n", sum, mx, kN);
  std::printf("cycles: %llu (%.2f us @ %.0f MHz), stores issued: %llu words\n",
              static_cast<unsigned long long>(perf.cycles), event.wall_us(),
              dev.fmax_mhz(),
              static_cast<unsigned long long>(perf.shm_writes));
  std::puts(
      "every halving step rescales the thread space (SETTI), cutting the\n"
      "16-clock-per-row store sweeps to the live threads only -- see\n"
      "bench_paper's threadscale.* rows for the quantified comparison.");
  return 0;
}
