// Tests for the analytical resource model against Table 1 and the Section 5
// register census, whose values come from the paper ledger's claims table.
#include "area/resource_model.hpp"

#include <gtest/gtest.h>

#include "../bench/paper_claims.hpp"

namespace simt::area {
namespace {

CoreResources flagship(AreaOptions opt = {}) {
  return estimate(core::CoreConfig::table1_flagship(), opt);
}

/// The value the model reproduces for a paper claim (exact, or the row's
/// stated divergence).
unsigned claim(std::string_view id) {
  return static_cast<unsigned>(paper::reproduced(id));
}

void expect_row(const ModuleResources& m, unsigned alms,
                const std::string& row) {
  SCOPED_TRACE("Table 1 row " + row);
  EXPECT_EQ(alms, claim("table1." + row + ".alms"));
  EXPECT_EQ(m.regs_total(), claim("table1." + row + ".regs"));
  EXPECT_EQ(m.m20k, claim("table1." + row + ".m20k"));
  EXPECT_EQ(m.dsp, claim("table1." + row + ".dsp"));
}

TEST(Area, Table1SpRow) {
  const auto r = flagship();
  expect_row(r.sp_total, r.sp_total.alms, "sp");
}

TEST(Area, Table1MulShiftRow) {
  const auto r = flagship();
  expect_row(r.sp_mul_shift, r.sp_mul_shift.alms, "sp_mul_shift");
}

TEST(Area, Table1LogicRow) {
  const auto r = flagship();
  expect_row(r.sp_logic, r.sp_logic.alms, "sp_logic");
}

TEST(Area, Table1InstRow) {
  const auto r = flagship();
  expect_row(r.inst, r.inst.alms, "inst");
}

TEST(Area, Table1SharedRow) {
  // Self-consistent M20K accounting: 4 read copies x 8 blocks for 16 KB,
  // the claims table's stated divergence from the paper's 64.
  const auto r = flagship();
  expect_row(r.shared, r.shared.alms, "shared");
}

TEST(Area, Table1GpgpuTotals) {
  // Table 1's GPGPU ALMs include the unreachable ALMs inside the bounding
  // box; the placed ALMs are the modules' sum.
  const auto r = flagship();
  expect_row(r.gpgpu, r.in_box_alms, "gpgpu");
  EXPECT_EQ(r.gpgpu.alms, 16u * claim("table1.sp.alms") +
                              claim("table1.inst.alms") +
                              claim("table1.shared.alms"));
}

TEST(Area, RegisterStyleCensus) {
  // Section 5: "the number of primary registers used was 763, the secondary
  // registers 154 ... and 420 hyper registers" for the SP.
  const auto r = flagship();
  EXPECT_EQ(r.sp_total.regs_primary, claim("sec5.sp_regs.primary"));
  EXPECT_EQ(r.sp_total.regs_secondary, claim("sec5.sp_regs.secondary"));
  EXPECT_EQ(r.sp_total.regs_hyper, claim("sec5.sp_regs.hyper"));
}

TEST(Area, PredicatesCostFiftyPercentMoreLogic) {
  // Section 2: "they typically increase the logic resources of the
  // processor by 50%."
  auto cfg = core::CoreConfig::table1_flagship();
  cfg.predicates_enabled = true;
  const auto with = estimate(cfg, {});
  const auto without = flagship();
  const double ratio = static_cast<double>(with.sp_total.alms) /
                       static_cast<double>(without.sp_total.alms);
  EXPECT_NEAR(ratio, paper::reproduced("predicates.sp_alms_growth"), 0.02);
}

TEST(Area, BarrelShifterVariantAddsHundredAlmsPerSp) {
  // Section 4: "A 32-bit shifter requires approximately 50 ALMs, or 100
  // ALMs for a left and right shift pair."
  AreaOptions opt;
  opt.shifter = hw::ShifterImpl::LogicBarrel;
  const auto barrel = flagship(opt);
  EXPECT_EQ(barrel.sp_shifter.alms, claim("shifter.barrel.alms_per_sp"));
  // The integrated variant drops the pair but adds the one-hot/unary logic.
  const auto integrated = flagship();
  EXPECT_EQ(integrated.sp_shifter.alms, 0u);
  EXPECT_GT(barrel.sp_total.alms, integrated.sp_total.alms);
}

TEST(Area, ShiftersAreAboutAQuarterOfSoftLogicInBarrelVariant) {
  // "the shift pairs in the 16 SPs make up almost 1/4 the total soft logic
  // (c. 7000 ALMs) of the processor."
  AreaOptions opt;
  opt.shifter = hw::ShifterImpl::LogicBarrel;
  const auto r = flagship(opt);
  const double frac =
      (16.0 * r.sp_shifter.alms) / static_cast<double>(r.in_box_alms);
  EXPECT_GT(frac, 0.18);
  EXPECT_LT(frac, 0.28);
}

TEST(Area, ScalesWithThreadSpace) {
  // Quadrupling the thread space grows the register files (M20K), not the
  // datapath logic.
  auto small = core::CoreConfig::table1_flagship();
  auto large = small;
  large.max_threads = 4096;
  large.regs_per_thread = 16;  // 64K registers -- the maximum configuration
  const auto rs = estimate(small, {});
  const auto rl = estimate(large, {});
  EXPECT_EQ(rs.sp_mul_shift.alms, rl.sp_mul_shift.alms);
  EXPECT_GT(rl.sp_total.m20k, rs.sp_total.m20k);
}

TEST(Area, SharedMemoryM20kScalesWithCapacity) {
  auto cfg = core::CoreConfig::table1_flagship();
  cfg.shared_mem_words = 8192;  // 32 KB
  const auto r = estimate(cfg, {});
  EXPECT_EQ(r.shared.m20k, 64u);
}

}  // namespace
}  // namespace simt::area
