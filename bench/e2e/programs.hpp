// Kernel sources the workloads run that the kernel library does not hold,
// and the host golden models every output is checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// ---- Mandelbrot (the kernel of examples/mandelbrot.cpp) --------------------

constexpr unsigned kMandelQ = 26;  // Q5.26
constexpr std::uint32_t kMandelMaxIter = 48;

/// Escape bound |z|^2 < 4 in the Q20 of the MULHI halves.
constexpr std::uint32_t mandel_four_q20() {
  return static_cast<std::uint32_t>(std::int64_t{4} << (2 * kMandelQ - 32));
}

/// Divergent predicated loop: each thread iterates z <- z^2 + c for one
/// pixel; escaped threads are masked with @p0 and the block leaves the loop
/// once no thread is active (brp). Params (cre, cim, iters: buffer; four,
/// maxiter: scalar).
inline std::string mandel_source() {
  const std::string hi = std::to_string(32 - kMandelQ);
  const std::string lo = std::to_string(kMandelQ);
  return ".kernel mandel\n"
         ".param cre buffer\n"
         ".param cim buffer\n"
         ".param iters buffer\n"
         ".param four scalar\n"
         ".param maxiter scalar\n"
         ".reads cre\n"
         ".reads cim\n"
         ".writes iters\n"
         "movsr %r0, %tid\n"
         "lds %r3, [%r0 + $cre]\n"
         "lds %r4, [%r0 + $cim]\n"
         "movi %r1, 0\n"
         "movi %r2, 0\n"
         "movi %r5, 0\n"
         "movi %r10, $four\n"
         "movi %r12, $maxiter\n"
         "iterate:\n"
         "mul.hi %r6, %r1, %r1\n"
         "mul.hi %r7, %r2, %r2\n"
         "add %r8, %r6, %r7\n"
         "setp.lt %p0, %r8, %r10\n"
         "setp.lt %p1, %r5, %r12\n"
         "pand %p0, %p0, %p1\n"
         "@p0 addi %r5, %r5, 1\n"
         "mul.lo %r9, %r1, %r1\n"
         "shri %r9, %r9, " + lo + "\n"
         "shli %r6, %r6, " + hi + "\n"
         "or %r6, %r6, %r9\n"
         "mul.lo %r9, %r2, %r2\n"
         "shri %r9, %r9, " + lo + "\n"
         "shli %r7, %r7, " + hi + "\n"
         "or %r7, %r7, %r9\n"
         "mul.hi %r9, %r1, %r2\n"
         "shli %r9, %r9, " + hi + "\n"
         "mul.lo %r11, %r1, %r2\n"
         "shri %r11, %r11, " + lo + "\n"
         "or %r9, %r9, %r11\n"
         "shli %r9, %r9, 1\n"
         "@p0 add %r2, %r9, %r4\n"
         "sub %r6, %r6, %r7\n"
         "@p0 add %r1, %r6, %r3\n"
         "brp %p0, iterate\n"
         "sts [%r0 + $iters], %r5\n"
         "exit\n";
}

/// Bit-identical host model of one pixel's escape count.
inline std::uint32_t mandel_golden(std::int32_t cr, std::int32_t ci) {
  std::int32_t zr = 0, zi = 0;
  for (std::uint32_t it = 0; it < kMandelMaxIter; ++it) {
    const std::int64_t zr2 = static_cast<std::int64_t>(zr) * zr;
    const std::int64_t zi2 = static_cast<std::int64_t>(zi) * zi;
    const std::int32_t mag_q20 = static_cast<std::int32_t>(zr2 >> 32) +
                                 static_cast<std::int32_t>(zi2 >> 32);
    if (mag_q20 >= static_cast<std::int32_t>(mandel_four_q20())) {
      return it;
    }
    const auto t = static_cast<std::int32_t>((zr2 >> kMandelQ) -
                                             (zi2 >> kMandelQ) + cr);
    const std::int64_t cross = static_cast<std::int64_t>(zr) * zi;
    zi = static_cast<std::int32_t>(
        (static_cast<std::int32_t>(cross >> kMandelQ) << 1) + ci);
    zr = t;
  }
  return kMandelMaxIter;
}

// ---- golden models of the kernel library (kernels/kernels.hpp) -------------

/// kernels::fir_abi(taps, q) over `threads` outputs: 32-bit wrapping
/// multiply-accumulate, then an arithmetic shift right by q.
inline std::vector<std::uint32_t> fir_golden(
    const std::vector<std::uint32_t>& x, const std::vector<std::uint32_t>& coef,
    unsigned threads, unsigned q) {
  std::vector<std::uint32_t> y(threads);
  for (unsigned t = 0; t < threads; ++t) {
    std::uint32_t acc = 0;
    for (std::size_t k = 0; k < coef.size(); ++k) {
      acc += x[t + k] * coef[k];
    }
    y[t] = static_cast<std::uint32_t>(static_cast<std::int32_t>(acc) >>
                                      static_cast<int>(q));
  }
  return y;
}

/// kernels::scale_abi: out[i] = mul * in[i] + add (32-bit wrapping).
inline std::vector<std::uint32_t> scale_golden(
    const std::vector<std::uint32_t>& in, std::uint32_t mul,
    std::uint32_t add) {
  std::vector<std::uint32_t> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = mul * in[i] + add;
  }
  return out;
}

/// kernels::reduce_abi(chunk): out[t] = sum of in[t*chunk, (t+1)*chunk).
inline std::vector<std::uint32_t> reduce_golden(
    const std::vector<std::uint32_t>& in, unsigned chunk) {
  std::vector<std::uint32_t> out(in.size() / chunk, 0);
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i / chunk] += in[i];
  }
  return out;
}

}  // namespace e2e
