// fit_sweep: the architect reproducing the paper. Fitter::sweep over the
// flagship core (Table 1 shape, predicates off), 4 seeds on 4 threads at
// 400 moves per atom; each repetition runs one sweep unconstrained and one
// in a 93% bounding box. One item is one compile.
//
// Why: no runtime code runs here, so this workload is the control for
// every runtime change (the prediction is no change) and the only
// workload for the placer and STA. Its modeled outputs are the paper's
// headline numbers: 956 MHz restricted unconstrained, above 950 MHz at
// 86% utilization, and 927 MHz for the Table 2 best compile.
#pragma once

#include <cstdio>
#include <vector>

#include "core/config.hpp"
#include "fabric/device.hpp"
#include "fit/fitter.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace e2e {

struct FitSweep {
  static constexpr const char* kName = "fit_sweep";
  static constexpr unsigned kSeeds = 4;  ///< compiles (threads) per sweep
  static constexpr double kMoves = 400.0;
  static constexpr double kBox = 0.93;

  /// Repetition r sweeps seeds [seed + 4r, seed + 4r + 4). The timed loop
  /// cycles through `reps` repetitions, completes at least one pass (the
  /// modeled metric averages it), and recompiles the same seeds after
  /// that, which must reproduce them.
  struct Inputs {
    std::uint64_t seed;
    unsigned reps;
    Inputs(std::uint64_t s, bool quick) : seed(s), reps(quick ? 1 : 4) {}
  };

  /// Set-up: the device model, the flagship netlist, and the 93% bounding
  /// box the boxed sweeps place into.
  struct State {
    simt::fabric::Device fabric = simt::fabric::Device::agfd019();
    simt::fit::Fitter fitter{fabric};
    simt::core::CoreConfig cfg = simt::core::CoreConfig::table1_flagship();
    simt::fabric::Netlist netlist = simt::fabric::build_netlist(cfg, {});
    simt::fit::Region box = fitter.box_for(netlist, kBox, 0, 0);

    explicit State(const Inputs&) {}

    Outcome run(const Inputs& in, double seconds, Tracer* tr) {
      Outcome out;
      // Restricted Fmax of every compile of the first pass, in order.
      std::vector<float> first;
      std::size_t compile = 0;
      float best_unc = 0.0f, best_box = 0.0f, best_soft = 0.0f;
      const auto t0 = Clock::now();
      for (unsigned rep = 0;; ++rep) {
        const unsigned r = rep % in.reps;
        if (rep >= in.reps && seconds_since(t0) >= seconds) {
          break;
        }
        if (r == 0) {
          compile = 0;
        }
        for (const bool boxed : {false, true}) {
          simt::fit::CompileOptions opt;
          opt.seed = in.seed + kSeeds * r;
          opt.moves_per_atom = kMoves;
          if (boxed) {
            opt.box_utilization = kBox;
          }
          Scope s_item(tr, "bench.item", rep);
          const auto ts = Clock::now();
          simt::fit::SweepResult sweep;
          try {
            Scope s(tr, "fit.sweep", rep);
            sweep = fitter.sweep(cfg, opt, kSeeds);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "fit_sweep: sweep %u: %s\n", rep, e.what());
            out.failed += kSeeds;
            out.attempted += kSeeds;
            continue;
          }
          const double lat = us_between(ts, Clock::now());
          for (const auto& c : sweep.compiles) {
            const float f = c.timing.fmax_restricted_mhz;
            bool ok = f > 0.0f && f <= c.timing.fmax_soft_mhz + 1e-3f;
            if (rep < in.reps) {
              first.push_back(f);
            } else if (compile >= first.size() || first[compile] != f) {
              std::fprintf(stderr, "fit_sweep: seed %llu recompiled to a "
                                   "different Fmax\n",
                           static_cast<unsigned long long>(c.seed));
              ok = false;
            }
            ++compile;
            (boxed ? best_box : best_unc) =
                std::max(boxed ? best_box : best_unc, f);
            best_soft = std::max(best_soft, c.timing.fmax_soft_mhz);
            ++out.attempted;
            out.failed += ok ? 0 : 1;
          }
          out.throughput.add(lat, kSeeds);
        }
      }
      out.seconds = seconds_since(t0);
      out.latency = out.throughput;

      double period = 0.0;
      for (const float f : first) {
        period += 1.0 / static_cast<double>(f);
      }
      out.modeled_us_per_item =
          first.empty() ? 0.0 : period / static_cast<double>(first.size());
      out.detail("fmax_mhz", best_unc);
      out.detail("fmax_box93_mhz", best_box);
      out.detail("fit.fmax_soft_mhz", best_soft);
      out.detail("fit.mean_restricted_mhz",
                 out.modeled_us_per_item > 0.0 ? 1.0 / out.modeled_us_per_item
                                               : 0.0);
      out.detail("fit.atoms", static_cast<double>(netlist.atoms().size()));
      out.detail("fit.box93_width", box.width());
      out.detail("fit.box93_height", box.height());
      return out;
    }
  };
};

}  // namespace e2e
