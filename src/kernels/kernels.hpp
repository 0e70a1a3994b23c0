// Kernel library: reusable assembly generators for the embedded workloads
// the paper motivates (Section 1: signal processing and general-purpose
// algorithms that are "difficult to program in RTL, but easy in software").
//
// Each generator returns assembly source for the two-pass assembler; the
// memory layout is word-addressed shared memory. All kernels are validated
// against golden references in tests/test_kernels.cpp.
#pragma once

#include <cstdint>
#include <string>

namespace simt::kernels {

/// c[i] = a[i] + b[i] for i in [0, threads).
std::string vecadd(std::uint32_t a_base, std::uint32_t b_base,
                   std::uint32_t c_base);

/// y[i] = alpha * x[i] + y0[i] in Qn fixed point (alpha is a Qn immediate;
/// the product keeps the high half, exercising MULHI).
std::string saxpy(std::int32_t alpha_q, unsigned q, std::uint32_t x_base,
                  std::uint32_t y_base, std::uint32_t out_base);

/// FIR filter: y[t] = (sum_k coef[k] * x[t+k]) >> q, fully unrolled taps.
std::string fir(unsigned taps, unsigned q, std::uint32_t x_base,
                std::uint32_t coef_base, std::uint32_t y_base);

/// dim x dim integer matmul C = A x B (row-major), one thread per output,
/// inner product via the zero-overhead loop hardware.
std::string matmul(unsigned dim, std::uint32_t a_base, std::uint32_t b_base,
                   std::uint32_t c_base);

/// In-place tree reduction (sum) over n values at `base` (n = power of two,
/// launched with n threads); result lands at base[0]. Uses dynamic thread
/// scaling to cut the STO sweeps (Section 2).
std::string tree_reduce_sum(std::uint32_t base, unsigned n);

/// Inclusive prefix sum (Hillis-Steele) over n values, in place, guarded
/// per step; launched with n threads. Requires predicates.
std::string inclusive_scan(std::uint32_t base, unsigned n);

/// Histogram of n values into 2^bins_log2 bins. Each thread privatizes a
/// bin row at scratch_base + tid * bins, striding over the data with the
/// zero-overhead loop; bins are then tree-reduced across threads (dynamic
/// thread scaling). Launch with `threads` threads (power of two dividing n).
std::string histogram(std::uint32_t data_base, std::uint32_t hist_base,
                      std::uint32_t scratch_base, unsigned bins_log2,
                      unsigned n, unsigned threads);

// ---- kernel-ABI generators -------------------------------------------------
//
// Parameterized variants: no addresses baked into the source. Each declares
// a `.kernel` with positional `.param`s and read/write footprints; the host
// binds a runtime::KernelArgs at launch. One assembled module serves any
// number of buffer sets (the module cache hits on every reuse), and the
// declared footprints let the multicore backend stage only the ranges the
// kernel touches.

/// c[i] = a[i] + b[i]. Kernel "vecadd"; params (a, b, c: buffer).
std::string vecadd_abi();

/// out[i] = (alpha * x[i]) >> q + y[i] in Qn fixed point. Kernel "saxpy";
/// params (x, y, out: buffer; alpha: scalar Qn immediate).
std::string saxpy_abi(unsigned q);

/// FIR: y[t] = (sum_k coef[k] * x[t+k]) >> q, fully unrolled taps. Kernel
/// "fir"; params (x, coef, y: buffer).
std::string fir_abi(unsigned taps, unsigned q);

/// out[i] = mul * in[i] + add. Kernel "scale"; params (in, out: buffer;
/// mul, add: scalar) -- the elementwise request-serving shape, so several
/// requests coalesce into one launch over concatenated inputs.
std::string scale_abi();

/// out[i] = mul * in[i] + add, computed through the loader prologue
/// (`.prologue %r8`): the parameters are materialized from the device's
/// parameter window into registers at kernel entry and addressed with
/// register arithmetic, so the assembled image carries NO `$param`
/// immediate relocations -- it is fully launch-invariant, and rebinding
/// arguments never re-patches or reloads I-MEM. Kernel "scale"; params
/// (in, out: buffer; mul, add: scalar). Bit-identical to scale_abi().
std::string scale_prologue_abi();

/// Chunked partial-sum reduction: thread t writes
/// out[t] = sum_j in[t * per_thread + j] for j in [0, per_thread)
/// (per_thread a power of two; launch with n / per_thread threads over n
/// inputs). Kernel "reduce"; params (in, out: buffer). Unlike
/// tree_reduce_sum this needs no cross-thread coordination inside the
/// launch, so it shards safely across multicore private memories; the host
/// (or a second pass) folds the partials.
std::string reduce_abi(unsigned per_thread);

}  // namespace simt::kernels
