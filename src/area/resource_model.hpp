// Analytical resource model (Table 1 and the Section 5 register census).
//
// Computes ALM / register / M20K / DSP usage per module from the processor
// configuration. The component formulas follow the structures described in
// the paper (e.g. the integrated shifter's one-hot decode is W/2 ALMs, the
// 66-bit segmented adder's upper 50 bits cost 25 ALMs at two bits per ALM,
// a logic barrel shifter costs ~50 ALMs per direction) and are calibrated so
// the flagship instance (16 SPs, 16K registers, 16 KB shared memory,
// predicates off) reproduces Table 1 -- the rows of bench/paper_claims.hpp,
// which also state where the model departs from the paper (the shared
// memory's M20K count, the box-rounded GPGPU ALMs).
//
// Registers are split into primary / secondary / hyper in the proportions
// the paper reports for the SP (763 / 154 / 420 of 1337): registers are
// specified without resets wherever possible so they can retime into
// Agilex hyper-registers (Section 5).
#pragma once

#include "core/config.hpp"

namespace simt::area {

struct ModuleResources {
  unsigned alms = 0;
  unsigned regs_primary = 0;
  unsigned regs_secondary = 0;
  unsigned regs_hyper = 0;
  unsigned m20k = 0;
  unsigned dsp = 0;

  unsigned regs_total() const {
    return regs_primary + regs_secondary + regs_hyper;
  }
  ModuleResources& operator+=(const ModuleResources& o);
};

struct AreaOptions {
  hw::ShifterImpl shifter = hw::ShifterImpl::Integrated;
  /// Bounding-box logic utilization used to report "in-box" ALMs (the
  /// paper's Table 1 "includes unreachable ALMs inside the bounding box").
  double box_utilization = 0.93;
  unsigned box_rows = 32;  ///< forced by the DSP column geometry (Section 5)
};

struct CoreResources {
  ModuleResources sp_mul_shift;   ///< per SP
  ModuleResources sp_logic;       ///< per SP
  ModuleResources sp_shifter;     ///< per SP; nonzero only for LogicBarrel
  ModuleResources sp_other;       ///< per SP
  ModuleResources sp_total;       ///< per SP
  ModuleResources inst;
  ModuleResources shared;
  ModuleResources delay_chain;    ///< top-level control-bus delay chain
  ModuleResources gpgpu;          ///< totals (placed resources)
  unsigned in_box_alms = 0;       ///< bounding-box ALMs incl. unreachable
};

/// Estimate resources for a configuration.
CoreResources estimate(const core::CoreConfig& cfg, const AreaOptions& opt);

}  // namespace simt::area
