#include "area/resource_model.hpp"

#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "hw/m20k.hpp"
#include "hw/multiport_mem.hpp"

namespace simt::area {
namespace {

/// Register-style split reported in Section 5 for the SP: 763 primary, 154
/// secondary, 420 hyper of 1337 total.
constexpr double kPrimaryFrac = 763.0 / 1337.0;
constexpr double kSecondaryFrac = 154.0 / 1337.0;

void split_registers(ModuleResources& m, unsigned total) {
  m.regs_primary = static_cast<unsigned>(std::lround(total * kPrimaryFrac));
  m.regs_secondary =
      static_cast<unsigned>(std::lround(total * kSecondaryFrac));
  SIMT_CHECK(m.regs_primary + m.regs_secondary <= total);
  m.regs_hyper = total - m.regs_primary - m.regs_secondary;
}

/// The word width is architecturally fixed at 32 bits, but the component
/// formulas are written in terms of W so the structure is visible.
constexpr unsigned W = 32;

ModuleResources mul_shift_resources(bool integrated_shifter) {
  ModuleResources m;
  // One-hot decode of the shift value: one 5-LUT per output bit pair.
  const unsigned onehot = integrated_shifter ? W / 2 : 0;
  // Unary mask generation + reversal OR stage for arithmetic right shifts.
  const unsigned unary_or = integrated_shifter ? W / 2 : 0;
  // Operand half-select and sign-extension for the four 18x19 ports.
  const unsigned operand_prep = 33 * 2 / 2;
  // 66-bit final adder: bits above the 16-bit passthrough at 2 bits/ALM.
  const unsigned adder_stage1 = (66 - 16) / 2;
  // Carry resolve ({g,p} single-gate inserts) and high/low writeback mux.
  const unsigned carry_and_mux = W / 2 + 9;
  // Pipeline balancing / control decode local to the datapath.
  const unsigned misc = integrated_shifter ? 30 : 28;
  m.alms = onehot + unary_or + operand_prep + adder_stage1 + carry_and_mux +
           misc;
  // Input registers (2x33), DSP I/O margin registers (2x37), two adder
  // stage registers (66 each), output register (64) and control staging.
  const unsigned regs = 66 + 74 + 132 + 64 + (integrated_shifter ? 88 : 60);
  split_registers(m, regs);
  m.dsp = 2;
  return m;
}

ModuleResources logic_alu_resources() {
  ModuleResources m;
  const unsigned bitwise = W / 2;             // 2 bits per fractured ALM
  const unsigned adder = 2 * (W / 4);         // two-stage 16-bit halves
  const unsigned minmax_flags = W / 2 + 1;    // compare decode + select
  const unsigned bitops = 18;                 // popc tree + clz + brev wiring
  const unsigned result_mux = W / 2;
  m.alms = bitwise + adder + minmax_flags + bitops + result_mux;
  // Depth-matched delay chain: the soft-logic result must arrive in the same
  // stage as the DSP datapath result (Section 4).
  split_registers(m, 424);
  return m;
}

ModuleResources barrel_shifter_resources() {
  ModuleResources m;
  // "A 32-bit shifter requires approximately 50 ALMs, or 100 ALMs for a
  // left and right shift pair." (Section 4)
  m.alms = 100;
  split_registers(m, 2 * W);  // one internal stage per direction
  return m;
}

ModuleResources sp_other_resources(const core::CoreConfig& cfg) {
  ModuleResources m;
  const unsigned operand_fetch = 64;
  const unsigned writeback_mux = W;
  const unsigned rf_addressing = 24;
  const unsigned lane_control = 23;
  m.alms = operand_fetch + writeback_mux + rf_addressing + lane_control;
  split_registers(m, 489);
  // The register space is striped across the SPs: thread t's registers live
  // in SP (t mod num_sps), so each SP's file is (max_threads / num_sps) x
  // regs_per_thread deep and 32 wide. Its two read ports (operands A and B)
  // are two replicated copies of a simple-dual-port memory, which is where
  // Table 1's 4 M20K per SP come from (1024 deep x 32 wide = 2 blocks, x2).
  const unsigned rf_depth =
      cfg.max_threads / cfg.num_sps * cfg.regs_per_thread;
  m.m20k = 2 * hw::m20k_blocks_for(rf_depth, 32);
  return m;
}

ModuleResources inst_resources(const core::CoreConfig& cfg) {
  ModuleResources m;
  const unsigned decode = 96;
  const unsigned pipeline_advance = 58;  // the Fig. 3 counters/compares
  const unsigned pc_stack_history = 41;
  const unsigned branch_zeroing = 48;
  const unsigned loop_hw = 32;
  m.alms = decode + pipeline_advance + pc_stack_history + branch_zeroing +
           loop_hw;
  split_registers(m, 651);
  // I-MEM (64-bit instruction words) + one block for the stack/history.
  m.m20k = hw::m20k_blocks_for(cfg.imem_depth, 64) + 1;
  return m;
}

ModuleResources shared_resources(const core::CoreConfig& cfg) {
  ModuleResources m;
  const unsigned read_addr_mux = cfg.shared_read_ports * 10;  // 16:4 x addr
  const unsigned write_data_mux = 53;                         // 16:1 x 32b
  const unsigned write_addr_mux = 20;
  const unsigned control = 20;
  m.alms = read_addr_mux + write_data_mux + write_addr_mux + control;
  split_registers(m, 233);
  m.m20k =
      hw::multiport_m20k_blocks(cfg.shared_mem_words, cfg.shared_read_ports);
  return m;
}

ModuleResources delay_chain_resources(const core::CoreConfig& cfg) {
  ModuleResources m;
  // Decoded control bits and buses to the main core ride a register delay
  // chain (Section 3): ~376 bits of control/write-data/address per stage,
  // plus the registered pipeline enable pair.
  const unsigned bus_width = 376;
  split_registers(m, cfg.decode_depth * bus_width + 2);
  return m;
}

}  // namespace

ModuleResources& ModuleResources::operator+=(const ModuleResources& o) {
  alms += o.alms;
  regs_primary += o.regs_primary;
  regs_secondary += o.regs_secondary;
  regs_hyper += o.regs_hyper;
  m20k += o.m20k;
  dsp += o.dsp;
  return *this;
}

CoreResources estimate(const core::CoreConfig& cfg, const AreaOptions& opt) {
  cfg.validate();
  CoreResources r;
  const bool integrated = opt.shifter == hw::ShifterImpl::Integrated;

  r.sp_mul_shift = mul_shift_resources(integrated);
  r.sp_logic = logic_alu_resources();
  if (!integrated) {
    r.sp_shifter = barrel_shifter_resources();
  }
  r.sp_other = sp_other_resources(cfg);

  r.sp_total = ModuleResources{};
  r.sp_total += r.sp_mul_shift;
  r.sp_total += r.sp_logic;
  r.sp_total += r.sp_shifter;
  r.sp_total += r.sp_other;

  r.inst = inst_resources(cfg);
  r.shared = shared_resources(cfg);
  r.delay_chain = delay_chain_resources(cfg);

  // "Predicates ... typically increase the logic resources of the processor
  // by 50%" (Section 2): scale the soft-logic modules.
  if (cfg.predicates_enabled) {
    auto scale = [](ModuleResources& m) {
      m.alms = static_cast<unsigned>(std::lround(m.alms * 1.5));
      const unsigned regs =
          static_cast<unsigned>(std::lround(m.regs_total() * 1.2));
      split_registers(m, regs);
    };
    scale(r.sp_mul_shift);
    scale(r.sp_logic);
    scale(r.sp_shifter);
    scale(r.sp_other);
    r.sp_total = ModuleResources{};
    r.sp_total += r.sp_mul_shift;
    r.sp_total += r.sp_logic;
    r.sp_total += r.sp_shifter;
    r.sp_total += r.sp_other;
    scale(r.inst);
  }

  r.gpgpu = ModuleResources{};
  for (unsigned i = 0; i < cfg.num_sps; ++i) {
    r.gpgpu += r.sp_total;
  }
  r.gpgpu += r.inst;
  r.gpgpu += r.shared;
  r.gpgpu += r.delay_chain;

  // Bounding-box ALMs: the box height is pinned to `box_rows` by the DSP
  // column geometry; width rounds up to whole LAB columns at the requested
  // utilization. The excess over placed ALMs is the "unreachable" logic the
  // paper includes in Table 1.
  const double needed =
      static_cast<double>(r.gpgpu.alms) / opt.box_utilization;
  const unsigned cols = static_cast<unsigned>(std::ceil(
      needed / (static_cast<double>(opt.box_rows) * 10.0)));
  r.in_box_alms = cols * opt.box_rows * 10;
  return r;
}

}  // namespace simt::area
