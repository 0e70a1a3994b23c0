// The paper ledger: reproduces every number of "A 950 MHz SIMT Soft
// Processor" this repo models -- Table 1's area, Section 3.1's cycle model,
// the Section 2/4/5 ablations and sweeps, the Section 5 Fmax compiles,
// Table 2's stamping and the Section 6 SP-aligned experiment -- as one
// table, one number per row, then prints the Fig. 6/7 and SP-aligned
// floorplans. Rows the paper states carry its value from paper_claims.hpp.
//
// Each (config, options, seed) compiles once: the unconstrained, 86%-box and
// 93%-box 5-seed sweeps also serve Table 2's 1-stamp column, Figs. 6/7
// (seed 1) and the ablations that reuse their seeds 1-3.
//
// Writes BENCH_paper.json (every row). Exits 1 when a row strays further
// from the paper than its stated divergence, when a stated claim goes
// unmeasured, or when the thread-scaling reduction sums wrong.
//
// usage: bench_paper
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "area/resource_model.hpp"
#include "asm/assembler.hpp"
#include "common/bench_json.hpp"
#include "common/table.hpp"
#include "core/gpgpu.hpp"
#include "core/pipeline_control.hpp"
#include "fit/fitter.hpp"
#include "fit/floorplan.hpp"
#include "hw/dsp_block.hpp"
#include "hw/multiport_mem.hpp"
#include "kernels/kernels.hpp"
#include "paper_claims.hpp"

namespace {

using namespace simt;

struct Row {
  std::string id;
  double value;
  int decimals;
};

class Ledger {
 public:
  /// Record one number, rounded to the precision it is reported at.
  void add(std::string id, double value, int decimals = 0) {
    const double scale = std::pow(10.0, decimals);
    rows_.push_back({std::move(id), std::round(value * scale) / scale,
                     decimals});
  }

  /// Timing of one compile under `prefix`.
  void timing(const std::string& prefix, const fit::TimingReport& t) {
    add(prefix + ".fmax_soft_mhz", t.fmax_soft_mhz);
    add(prefix + ".fmax_restricted_mhz", t.fmax_restricted_mhz);
    add(prefix + ".util_pct", 100.0 * t.utilization, 1);
    add(prefix + ".worst_arc_ps", t.worst_soft_ps, 2);
    add(prefix + ".congestion", t.congestion, 5);
  }

  void module(const std::string& prefix, const area::ModuleResources& m,
              unsigned alms) {
    add(prefix + ".alms", alms);
    add(prefix + ".regs", m.regs_total());
    add(prefix + ".m20k", m.m20k);
    add(prefix + ".dsp", m.dsp);
  }

  /// Print every row beside its paper claim, write the JSON, and return
  /// whether every claim was measured and holds within its divergence.
  bool finish() const {
    bool ok = true;
    Table t({"metric", "ours", "paper", "section", "divergence"});
    BenchReport report("paper");
    for (const Row& r : rows_) {
      std::string paper, section, note;
      for (const auto& c : paper::kClaims) {
        if (c.id != r.id) {
          continue;
        }
        section = c.section;
        paper = fmt(c.paper, r.decimals, c.cmp == '>'   ? "> "
                                         : c.cmp == '<' ? "< "
                                                        : "");
        note = c.reason;
        const bool meets = c.cmp == '>'   ? r.value > c.paper
                           : c.cmp == '<' ? r.value < c.paper
                                          : r.value == c.paper;
        if (!meets && !(c.expected && std::abs(r.value - c.paper) <=
                                          std::abs(*c.expected - c.paper))) {
          note = "FAIL: beyond the stated divergence";
          ok = false;
        }
      }
      t.add_row({r.id, fmt(r.value, r.decimals), paper, section, note});
      report.metric(r.id, r.value);
    }
    t.print();
    for (const auto& c : paper::kClaims) {
      if (std::none_of(rows_.begin(), rows_.end(),
                       [&](const Row& r) { return r.id == c.id; })) {
        std::printf("FAIL: claim %s was not measured\n",
                    std::string(c.id).c_str());
        ok = false;
      }
    }
    return report.write() && ok;
  }

 private:
  static std::string fmt(double v, int decimals, const char* prefix = "") {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%.*f", prefix, decimals, v);
    return buf;
  }

  std::vector<Row> rows_;
};

// ---- Section 3.1 cycle model and Section 2 thread scaling -------------------

std::uint64_t cycles_of(const std::string& src, unsigned threads) {
  core::CoreConfig cfg;
  cfg.max_threads = 1024;
  cfg.shared_mem_words = 4096;
  core::Gpgpu gpu(cfg);
  gpu.load_program(assembler::assemble(src));
  gpu.set_thread_count(threads);
  return gpu.run().perf.cycles;
}

// Cost of one instruction = program_with_it - program_without_it.
double marginal(const std::string& instr, unsigned threads) {
  return static_cast<double>(
      cycles_of("movsr %r0, %tid\n" + instr + "\nexit\n", threads) -
      cycles_of("movsr %r0, %tid\nexit\n", threads));
}

// Tree reduction of n values. With dynamic scaling each halving step
// rescales the thread space with SETTI; without it, the same kernel guards
// the inactive threads but still sweeps the full thread block.
std::string reduction_kernel(bool dynamic_scaling, unsigned n) {
  std::string src = "movsr %r0, %tid\n";
  for (unsigned stride = n / 2; stride >= 1; stride /= 2) {
    const std::string s = std::to_string(stride);
    if (dynamic_scaling) {
      src += "setti " + s + "\nlds %r1, [%r0]\nlds %r2, [%r0 + " + s +
             "]\nadd %r1, %r1, %r2\nsts [%r0], %r1\n";
    } else {
      src += "movi %r3, " + s + "\nsetp.lt %p0, %r0, %r3\n@p0 lds %r1, "
             "[%r0]\n@p0 lds %r2, [%r0 + " + s +
             "]\n@p0 add %r1, %r1, %r2\n@p0 sts [%r0], %r1\n";
    }
  }
  return src + "exit\n";
}

bool cycle_rows(Ledger& l) {
  for (const unsigned threads : {16u, 64u, 256u, 512u, 1024u}) {
    const std::string p = "cycle.t" + std::to_string(threads);
    l.add(p + ".op", marginal("addi %r1, %r0, 1", threads));
    l.add(p + ".load", marginal("lds %r1, [%r0]", threads));
    l.add(p + ".store", marginal("sts [%r0], %r0", threads));
  }
  l.add("cycle.branch_taken",
        static_cast<double>(cycles_of("bra skip\nnop\nskip: exit\n", 16) -
                            cycles_of("exit\n", 16)));
  const double zol =
      cycles_of("loopi 8, end\naddi %r1, %r0, 1\nend: exit\n", 16);
  const double branch_loop = cycles_of(
      "movi %r1, 8\nmovi %r3, 0\nagain:\naddi %r2, %r0, 1\n"
      "subi %r1, %r1, 1\nsetp.ne %p0, %r1, %r3\nbrp %p0, again\nexit\n",
      16);
  l.add("cycle.loop8.zero_overhead", zol);
  l.add("cycle.loop8.counter_branch", branch_loop);
  l.add("cycle.loop8.branch_over_zero_overhead", branch_loop / zol, 1);

  // Section 2 dynamic thread scaling: a 512-element reduction.
  constexpr unsigned kN = 512;
  core::CoreConfig cfg;
  cfg.max_threads = kN;
  cfg.shared_mem_words = 2048;
  cfg.predicates_enabled = true;
  double scaled = 0, guarded = 0;
  for (const bool scaling : {true, false}) {
    core::Gpgpu gpu(cfg);
    gpu.load_program(assembler::assemble(reduction_kernel(scaling, kN)));
    gpu.set_thread_count(kN);
    for (unsigned i = 0; i < kN; ++i) {
      gpu.write_shared(i, i + 1);
    }
    const auto perf = gpu.run().perf;
    const std::string p =
        scaling ? "threadscale.scaled" : "threadscale.guarded";
    (scaling ? scaled : guarded) = static_cast<double>(perf.cycles);
    l.add(p + ".cycles", static_cast<double>(perf.cycles));
    l.add(p + ".issue_cycles", static_cast<double>(perf.issue_cycles));
    l.add(p + ".sum", gpu.read_shared(0));
    if (gpu.read_shared(0) != kN * (kN + 1) / 2) {
      std::printf("FAIL: %s reduction summed to %u, not %u\n", p.c_str(),
                  gpu.read_shared(0), kN * (kN + 1) / 2);
      return false;
    }
  }
  l.add("threadscale.guarded_over_scaled", guarded / scaled, 2);
  return true;
}

// ---- Table 1, Sections 2 and 4: area, ports and thread spaces ---------------

void area_rows(Ledger& l, const core::CoreConfig& flagship) {
  const auto r = area::estimate(flagship, {});
  l.module("table1.gpgpu", r.gpgpu, r.in_box_alms);
  l.module("table1.sp", r.sp_total, r.sp_total.alms);
  l.module("table1.sp_mul_shift", r.sp_mul_shift, r.sp_mul_shift.alms);
  l.module("table1.sp_logic", r.sp_logic, r.sp_logic.alms);
  l.module("table1.inst", r.inst, r.inst.alms);
  l.module("table1.shared", r.shared, r.shared.alms);
  l.add("table1.gpgpu.placed_alms", r.gpgpu.alms);
  l.add("sec5.sp_regs.primary", r.sp_total.regs_primary);
  l.add("sec5.sp_regs.secondary", r.sp_total.regs_secondary);
  l.add("sec5.sp_regs.hyper", r.sp_total.regs_hyper);

  auto with_predicates = flagship;
  with_predicates.predicates_enabled = true;
  const auto p = area::estimate(with_predicates, {});
  l.add("predicates.sp.alms", p.sp_total.alms);
  l.add("predicates.sp.regs", p.sp_total.regs_total());
  l.add("predicates.gpgpu.alms", p.in_box_alms);
  l.add("predicates.gpgpu.placed_alms", p.gpgpu.alms);
  l.add("predicates.sp_alms_growth",
        static_cast<double>(p.sp_total.alms) / r.sp_total.alms, 2);

  area::AreaOptions barrel;
  barrel.shifter = hw::ShifterImpl::LogicBarrel;
  const auto b = area::estimate(flagship, barrel);
  l.add("shifter.barrel.alms_per_sp", b.sp_shifter.alms);
  l.add("shifter.barrel.gpgpu.alms", b.in_box_alms);
  l.add("shifter.barrel.share_pct",
        100.0 * flagship.num_sps * b.sp_shifter.alms / b.in_box_alms);
  l.add("shifter.integrated.extra_alms_per_sp",
        static_cast<double>(r.sp_mul_shift.alms) - b.sp_mul_shift.alms);

  // Section 2: shared-memory porting. vecadd on 512 threads is movsr + 2
  // loads + add + store + exit over 32 rows.
  struct Ports {
    unsigned r, w;
  };
  for (const auto& [rd, wr] : {Ports{1, 1}, Ports{2, 1}, Ports{4, 1},
                               Ports{8, 1}, Ports{4, 2}, Ports{16, 1}}) {
    const std::string p =
        "ports." + std::to_string(rd) + "r" + std::to_string(wr) + "w";
    const unsigned ld =
        core::width_factor_for(isa::TimingClass::Load, 16, rd, wr);
    const unsigned st =
        core::width_factor_for(isa::TimingClass::Store, 16, rd, wr);
    l.add(p + ".load_clocks", ld);
    l.add(p + ".store_clocks", st);
    l.add(p + ".m20k", hw::multiport_m20k_blocks(4096, rd));
    l.add(p + ".vecadd_cycles", 32 * (1 + 2 * ld + st) + 32 + 7);
  }

  // Section 2: thread and register spaces up to 4096 threads / 64K regs.
  struct Space {
    unsigned threads, regs;
  };
  for (const auto& [threads, regs] :
       {Space{256, 16}, Space{512, 16}, Space{1024, 16}, Space{1024, 32},
        Space{2048, 16}, Space{4096, 16}}) {
    core::CoreConfig cfg;
    cfg.max_threads = threads;
    cfg.regs_per_thread = regs;
    cfg.shared_mem_words = 4096;
    cfg.predicates_enabled = false;
    const auto res = area::estimate(cfg, {});
    core::Gpgpu gpu(cfg);
    gpu.load_program(assembler::assemble(kernels::vecadd(0, 1024, 2048)));
    gpu.set_thread_count(std::min(threads, 1024u));
    const std::string p = "threadspace.t" + std::to_string(threads) + "r" +
                          std::to_string(regs);
    l.add(p + ".sp_rf_m20k", res.sp_other.m20k);
    l.add(p + ".core_m20k", res.gpgpu.m20k);
    l.add(p + ".vecadd_cycles", static_cast<double>(gpu.run().perf.cycles));
  }
}

// ---- Sections 4-6: compiles -------------------------------------------------

/// Fitter::sweep's pick (first highest restricted Fmax) over seeds 1..n.
const fit::CompileResult& best_of(const fit::SweepResult& s, std::size_t n) {
  return *std::max_element(
      s.compiles.begin(), s.compiles.begin() + n,
      [](const auto& a, const auto& b) {
        return a.timing.fmax_restricted_mhz < b.timing.fmax_restricted_mhz;
      });
}

}  // namespace

int main() {
  const auto dev = fabric::Device::agfd019();
  const fit::Fitter fitter(dev);
  const auto cfg = core::CoreConfig::table1_flagship();
  Ledger l;

  area_rows(l, cfg);
  if (!cycle_rows(l)) {
    return 1;
  }

  // Section 5: 5-seed sweeps, unconstrained and in 86%/93% boxes.
  fit::CompileOptions unboxed;
  unboxed.moves_per_atom = 400;
  auto box86 = unboxed, box93 = unboxed;
  box86.box_utilization = 0.86;
  box93.box_utilization = 0.93;
  const auto un = fitter.sweep(cfg, unboxed, 5);
  const auto b86 = fitter.sweep(cfg, box86, 5);
  const auto b93 = fitter.sweep(cfg, box93, 5);
  for (const auto& [name, sweep] :
       {std::pair{"unconstrained", &un}, std::pair{"box86", &b86},
        std::pair{"box93", &b93}}) {
    const std::string p = std::string("sec5.") + name;
    for (const auto& c : sweep->compiles) {
      l.timing(p + ".seed" + std::to_string(c.seed), c.timing);
    }
    l.add(p + ".fmax_soft_mhz", sweep->best().timing.fmax_soft_mhz);
    if (sweep != &b93) {  // the 93% box's is Table 2's 1-stamp row
      l.add(p + ".fmax_restricted_mhz",
            sweep->best().timing.fmax_restricted_mhz);
    }
  }

  // Table 2: the 93% sweep is the 1-stamp column.
  const auto stamped = fitter.sweep_stamps(cfg, box93, 3, 5);
  const double one = b93.best().timing.fmax_restricted_mhz;
  double three = 0;
  for (const auto& s : stamped) {
    l.add("table2.stamp3.seed" + std::to_string(s.seed) +
              ".fmax_restricted_mhz",
          s.fmax_restricted_mhz);
    three = std::max<double>(three, s.fmax_restricted_mhz);
  }
  l.add("sec5.box93.clock_hit_pct",
        100.0 * (1.0 - one / un.best().timing.fmax_restricted_mhz), 1);
  l.add("table2.stamp1.fmax_restricted_mhz", one);
  l.add("table2.stamp3.fmax_restricted_mhz", three);
  l.add("table2.penalty_pct", 100.0 * (1.0 - three / one), 1);

  // Section 2.1: fp32 vs the integer datapath (unconstrained seeds 1-3).
  auto fp = unboxed;
  fp.fp_datapath = true;
  const double fp_mhz =
      fitter.sweep(cfg, fp, 3).best().timing.fmax_restricted_mhz;
  const double int_mhz = best_of(un, 3).timing.fmax_restricted_mhz;
  l.add("dsp.fp32_fmax_mhz", hw::dsp_fmax_mhz(hw::DspMode::Fp32));
  l.add("dsp.int_fmax_mhz", hw::dsp_fmax_mhz(hw::DspMode::SumOfTwo18x19));
  l.add("ablation.fp32.fmax_restricted_mhz", fp_mhz);
  l.add("ablation.int32_srr_off.fmax_soft_mhz",
        best_of(un, 3).timing.fmax_soft_mhz);
  l.add("ablation.int32_srr_off.fmax_restricted_mhz", int_mhz);
  l.add("ablation.int_over_fp32", int_mhz / fp_mhz, 2);

  // Section 5: auto shift-register replacement (unconstrained seeds 1-3);
  // its OFF row is the int32 row.
  auto srr = unboxed;
  srr.netlist.auto_shift_register_replacement = true;
  const auto srr_on = fitter.sweep(cfg, srr, 3).best().timing;
  l.add("ablation.srr_on.fmax_soft_mhz", srr_on.fmax_soft_mhz);
  l.add("ablation.srr_on.fmax_restricted_mhz", srr_on.fmax_restricted_mhz);

  // Section 4: the barrel shifter, on a single SP and on the full SM in the
  // 93% box (seeds 1-3).
  auto barrel = box93;
  barrel.netlist.shifter = hw::ShifterImpl::LogicBarrel;
  const auto sm_barrel = fitter.sweep(cfg, barrel, 3).best().timing;
  l.timing("shifter.sm.barrel", sm_barrel);
  l.add("shifter.sm.integrated.fmax_soft_mhz",
        best_of(b93, 3).timing.fmax_soft_mhz);
  auto sp1 = cfg;
  sp1.num_sps = 1;
  sp1.max_threads = 64;
  sp1.regs_per_thread = 16;
  auto sp1_barrel = unboxed;
  sp1_barrel.netlist.shifter = hw::ShifterImpl::LogicBarrel;
  l.add("shifter.sp1.barrel.fmax_soft_mhz",
        fitter.sweep(sp1, sp1_barrel, 3).best().timing.fmax_soft_mhz);
  l.add("shifter.sp1.integrated.fmax_soft_mhz",
        fitter.sweep(sp1, unboxed, 3).best().timing.fmax_soft_mhz);

  // Section 6: each SP bound to its own two-row band, against the macro box
  // (93% box seeds 1-3, best soft Fmax of each).
  fit::CompileResult aligned;
  double macro_soft = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto o = box93;
    o.seed = seed;
    auto c = fitter.compile_sp_aligned(cfg, o);
    if (c.timing.fmax_soft_mhz > aligned.timing.fmax_soft_mhz) {
      aligned = std::move(c);
    }
    macro_soft = std::max<double>(
        macro_soft, b93.compiles[seed - 1].timing.fmax_soft_mhz);
  }
  l.add("future.macro.fmax_soft_mhz", macro_soft);
  l.timing("future.sp_aligned", aligned.timing);

  // Figs. 6 and 7 are seed 1 of the unconstrained and 93% sweeps. A placed
  // box's utilization is its compile's util_pct row.
  struct Plan {
    const char* id;
    const char* title;
    const fit::CompileResult& c;
  };
  const Plan plans[] = {
      {"fig6", "Fig. 6: unconstrained placement (seed 1)", un.compiles[0]},
      {"fig7", "Fig. 7: 93% bounding box (seed 1)", b93.compiles[0]},
      {"future.sp_aligned", "Sec. 6: SP-aligned bands (best of seeds 1-3)",
       aligned}};
  for (const auto& p : plans) {
    const auto b = p.c.placement.bounds(dev, p.c.netlist);
    l.add(std::string(p.id) + ".box_cols", b.x1 - b.x0 + 1);
    l.add(std::string(p.id) + ".box_rows", b.y1 - b.y0 + 1);
  }

  std::puts("== Paper ledger: A 950 MHz SIMT Soft Processor ==\n");
  const bool ok = l.finish();
  std::printf("\nfull SM with the barrel shifter: %s\n",
              sm_barrel.summary().c_str());
  std::puts(
      "\nfloorplan legend: S/s shared memory (M20K / mux logic), I/i "
      "instruction block,\nc control delay chain, 0-9A-F the sixteen SPs, "
      "D used DSP blocks, | empty DSP\ncolumn, m empty M20K site, . empty "
      "LAB");
  for (const auto& p : plans) {
    std::printf("\n== %s ==\n%s\n\n%s", p.title, p.c.timing.summary().c_str(),
                fit::render_floorplan(dev, p.c.netlist, p.c.placement).c_str());
  }
  return ok ? 0 : 1;
}
