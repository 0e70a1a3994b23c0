// sim_kernels: the kernel developer's loop. One Table-1-shaped core (16
// SPs, 1,024 threads x 16 registers, 16 KB shared memory, predicates on)
// driven closed-loop through Device::launch_sync on one host thread. One
// item is a kernel suite: for each of 16 views, write a 480-word signal,
// run FIR-32 over 448 threads, write the view's window, and run the
// Mandelbrot kernel over 1,024 threads.
//
// Why: the core engine does essentially all of the host work here -- the
// dispatch and staging layers are a few microseconds per millisecond-long
// launch -- so an engine optimisation shows on this workload and nowhere
// else. The suite pairs a uniform, LDS-heavy FIR with a divergent,
// MUL-heavy predicated Mandelbrot loop, so a change that helps uniform
// lanes but hurts divergent ones shows as well.
#pragma once

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "metrics.hpp"
#include "programs.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "trace.hpp"

namespace e2e {

struct SimKernels {
  static constexpr const char* kName = "sim_kernels";
  static constexpr unsigned kTaps = 32;
  static constexpr unsigned kFirQ = 8;
  static constexpr unsigned kFirThreads = 448;
  static constexpr unsigned kSignal = kFirThreads + kTaps;  // 480 words
  static constexpr unsigned kSide = 32;
  static constexpr unsigned kPixels = kSide * kSide;  // 1,024 threads
  static constexpr unsigned kViews = 16;
  /// Distinct (signal, window) inputs: kSets jittered copies of the views.
  /// One item runs the FIR + Mandelbrot pair on one set's 16 entries, so
  /// every item costs about the same and the latency tail is the host's,
  /// not the input mix's; the timed loop stops at the end of a pass.
  static constexpr unsigned kSets = 4;
  static constexpr unsigned kPool = kSets * kViews;

  struct Inputs {
    std::vector<std::uint32_t> coef;
    // Per pool entry.
    std::vector<std::vector<std::uint32_t>> signal, fir_want;
    std::vector<std::vector<std::int32_t>> cre, cim;
    std::vector<std::vector<std::uint32_t>> iters_want;

    explicit Inputs(std::uint64_t seed) {
      simt::Xoshiro256 rng(seed ^ 0x51c0de);
      coef.resize(kTaps);
      for (auto& c : coef) {
        c = static_cast<std::uint32_t>(rng.next_in(-64, 63));
      }
      for (unsigned k = 0; k < kPool; ++k) {
        std::vector<std::uint32_t> x(kSignal);
        for (auto& v : x) {
          v = static_cast<std::uint32_t>(rng.next_in(-2048, 2047));
        }
        fir_want.push_back(fir_golden(x, coef, kFirThreads, kFirQ));
        signal.push_back(std::move(x));
      }
      // The block loops until its deepest pixel escapes, so a window's
      // cycles follow its deepest pixel. Seven views hold points of the set
      // (the 48-iteration cap), five escape early at a fixed depth, and
      // four sit near the boundary, where the seed's jitter (centre and
      // width +-0.5% of the width) moves the depth -- and so the modeled
      // time -- a little.
      struct View {
        double cx, cy, w;
      };
      static constexpr std::array<View, kViews> kView = {{
          {-0.75, 0.0, 3.0},    {-0.75, 0.1, 0.3},    {-1.25, 0.0, 0.5},
          {0.28, 0.01, 0.1},    {-0.1, 0.9, 0.4},     {0.45, 0.0, 0.1},
          {-0.5, 0.55, 0.3},    {0.0, 1.1, 0.1},      {-0.2, 0.0, 0.6},
          {-2.1, 0.0, 0.1},     {-1.8, 0.2, 0.2},     {-2.0, 1.0, 1.0},
          {-1.404, 0.131, 0.05}, {-1.303, 0.38, 0.05}, {-1.349, 0.283, 0.2},
          {-1.3, 0.422, 0.05},
      }};
      for (unsigned k = 0; k < kPool; ++k) {
        const View& v = kView[k % kViews];
        const double w = v.w * (0.995 + 0.01 * rng.next_double());
        const double cx = v.cx + v.w * (0.01 * rng.next_double() - 0.005);
        const double cy = v.cy + v.w * (0.01 * rng.next_double() - 0.005);
        std::vector<std::int32_t> re(kPixels), im(kPixels);
        std::vector<std::uint32_t> want(kPixels);
        for (unsigned y = 0; y < kSide; ++y) {
          for (unsigned x = 0; x < kSide; ++x) {
            const unsigned p = y * kSide + x;
            re[p] = simt::to_fixed(cx + w * (x / (kSide - 1.0) - 0.5),
                                   kMandelQ);
            im[p] = simt::to_fixed(cy + w * (y / (kSide - 1.0) - 0.5),
                                   kMandelQ);
            want[p] = mandel_golden(re[p], im[p]);
          }
        }
        cre.push_back(std::move(re));
        cim.push_back(std::move(im));
        iters_want.push_back(std::move(want));
      }
    }
  };

  static simt::core::CoreConfig core_config() {
    simt::core::CoreConfig cfg;
    cfg.num_sps = 16;
    cfg.max_threads = kPixels;
    cfg.regs_per_thread = 16;
    cfg.shared_mem_words = 4096;
    cfg.predicates_enabled = true;
    return cfg;
  }

  /// The system under test: device open, both modules assembled, and one
  /// warm-up launch of each kernel (decode cache and I-MEM primed).
  struct State {
    simt::runtime::Device dev{
        simt::runtime::DeviceDescriptor::simt_core(core_config())};
    simt::runtime::Buffer<std::uint32_t> x, coef, y, iters;
    simt::runtime::Buffer<std::int32_t> cre, cim;
    simt::runtime::Kernel fir, mandel;

    explicit State(const Inputs& in) {
      x = dev.alloc<std::uint32_t>(kSignal);
      coef = dev.alloc<std::uint32_t>(kTaps);
      y = dev.alloc<std::uint32_t>(kFirThreads);
      cre = dev.alloc<std::int32_t>(kPixels);
      cim = dev.alloc<std::int32_t>(kPixels);
      iters = dev.alloc<std::uint32_t>(kPixels);
      fir = dev.load_module(simt::kernels::fir_abi(kTaps, kFirQ))
                .kernel("fir");
      mandel = dev.load_module(mandel_source()).kernel("mandel");
      coef.write(in.coef);
      x.write(in.signal[0]);
      dev.launch_sync(fir, kFirThreads, fir_args());
      cre.write(in.cre[0]);
      cim.write(in.cim[0]);
      dev.launch_sync(mandel, kPixels, mandel_args());
    }

    simt::runtime::KernelArgs fir_args() const {
      return simt::runtime::KernelArgs().arg(x).arg(coef).arg(y);
    }
    simt::runtime::KernelArgs mandel_args() const {
      return simt::runtime::KernelArgs()
          .arg(cre)
          .arg(cim)
          .arg(iters)
          .scalar(mandel_four_q20())
          .scalar(kMandelMaxIter);
    }

    Outcome run(const Inputs& in, double seconds, Tracer* tr) {
      Outcome out;
      std::vector<std::uint32_t> got_y(kFirThreads), got_iters(kPixels);
      // First-pass cycles per pool entry: later passes must repeat them.
      std::vector<std::uint64_t> fir_cycles(kPool, 0), mandel_cycles(kPool, 0);
      std::uint64_t fir_ops = 0, mandel_ops = 0;
      double fir_exec_sum = 0.0, mandel_exec_sum = 0.0;
      simt::core::PerfCounters pass{};  // first-pass clock breakdown

      const auto t0 = Clock::now();
      std::uint64_t item = 0;
      for (;; ++item) {
        const unsigned set = static_cast<unsigned>(item % kSets);
        if (set == 0 && item > 0 && seconds_since(t0) >= seconds) {
          break;
        }
        const auto ti = Clock::now();
        bool ok = true;
        Scope s_item(tr, "bench.item", item);
        for (unsigned v = 0; v < kViews; ++v) {
          const unsigned k = set * kViews + v;
          try {
            simt::runtime::LaunchStats fs, ms;
            {
              Scope s(tr, "runtime.write_words", item);
              x.write(in.signal[k]);
            }
            {
              Scope s(tr, "runtime.launch_sync", item);
              fs = dev.launch_sync(fir, kFirThreads, fir_args());
            }
            {
              Scope s(tr, "runtime.read_words", item);
              y.read_into(got_y);
            }
            {
              Scope s(tr, "runtime.write_words", item);
              cre.write(in.cre[k]);
              cim.write(in.cim[k]);
            }
            {
              Scope s(tr, "runtime.launch_sync", item);
              ms = dev.launch_sync(mandel, kPixels, mandel_args());
            }
            {
              Scope s(tr, "runtime.read_words", item);
              iters.read_into(got_iters);
            }
            ok = ok && got_y == in.fir_want[k] && got_iters == in.iters_want[k];
            if (item < kSets) {
              fir_cycles[k] = fs.perf.cycles;
              mandel_cycles[k] = ms.perf.cycles;
              pass.add_work(fs.perf);
              pass.add_work(ms.perf);
              pass.add_clocks(fs.perf);
              pass.add_clocks(ms.perf);
            } else if (fir_cycles[k] != fs.perf.cycles ||
                       mandel_cycles[k] != ms.perf.cycles) {
              std::fprintf(stderr, "sim_kernels: entry %u cycles drifted\n",
                           k);
              ok = false;
            }
            fir_exec_sum += fs.host_exec_us;
            mandel_exec_sum += ms.host_exec_us;
            fir_ops += fs.perf.thread_ops;
            mandel_ops += ms.perf.thread_ops;
          } catch (const std::exception& e) {
            std::fprintf(stderr, "sim_kernels: item %llu: %s\n",
                         static_cast<unsigned long long>(item), e.what());
            ok = false;
          }
        }
        if (!ok) {
          ++out.failed;
        }
        out.throughput.add(us_between(ti, Clock::now()));
      }
      out.seconds = seconds_since(t0);
      out.attempted = item;
      out.latency = out.throughput;

      double fir_sum = 0.0, mandel_sum = 0.0;
      for (unsigned k = 0; k < kPool; ++k) {
        fir_sum += static_cast<double>(fir_cycles[k]);
        mandel_sum += static_cast<double>(mandel_cycles[k]);
      }
      out.modeled_us_per_item = (fir_sum + mandel_sum) / kSets / dev.fmax_mhz();
      // Per launch from here on.
      const double launches = static_cast<double>(item) * kViews;
      out.detail("core.cycles.fir", fir_sum / kPool);
      out.detail("core.cycles.mandel", mandel_sum / kPool);
      out.detail("core.issue_cycles",
                 static_cast<double>(pass.issue_cycles) / kPool);
      out.detail("core.stall_cycles",
                 static_cast<double>(pass.stall_cycles) / kPool);
      out.detail("core.flush_cycles",
                 static_cast<double>(pass.flush_cycles) / kPool);
      out.detail("core.ops_per_cycle", pass.ops_per_cycle());
      out.detail("core.exec_us.fir", fir_exec_sum / launches);
      out.detail("core.exec_us.mandel", mandel_exec_sum / launches);
      out.detail("core.lane_mops.fir",
                 static_cast<double>(fir_ops) / fir_exec_sum);
      out.detail("core.lane_mops.mandel",
                 static_cast<double>(mandel_ops) / mandel_exec_sum);
      out.detail("core.exec_share",
                 (fir_exec_sum + mandel_exec_sum) / 1e6 / out.seconds);
      out.detail("runtime.module_cache_misses",
                 static_cast<double>(dev.module_cache_misses()));
      out.detail("runtime.decode_cache_misses",
                 static_cast<double>(dev.decode_cache_misses()));
      return out;
    }
  };
};

}  // namespace e2e
