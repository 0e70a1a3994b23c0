// Shifter implementations (Sections 4 and 4.2).
//
// The paper describes two designs:
//
//  1. LogicBarrelShifter -- the conventional 5-level binary shifter in soft
//     logic (1/2/4/8/16-bit stages). It closes 1 GHz standalone but its long
//     horizontal 8- and 16-bit stage connections become the critical path
//     when 16 SPs are assembled into an SM, "typically reducing the
//     performance below 850 MHz". It also costs ~50 ALMs per direction.
//     We keep it as the ablation baseline (bench_paper's shifter.* rows)
//     and as a cross-check implementation.
//
//  2. IntegratedShifter -- the paper's solution: fold the shifter into the
//     multiplier datapath. The shift amount is decoded to one-hot (a single
//     logic level); a left shift is the multiplication AA * onehot; a right
//     logical shift bit-reverses AA before and the low multiplier half after;
//     an arithmetic right shift additionally ORs in a bit-reversed unary
//     (thermometer) mask of the shift amount when the input is negative
//     (Fig. 5 walks 0b110001101111 >> 5 = -913 >> 5 -> -29).
//     Out-of-range amounts (>= 32) decode to an all-zero one-hot, giving 0
//     for logical shifts and all-ones (i.e. -1) for arithmetic right shifts
//     of negative values.
#pragma once

#include <cstdint>

#include "hw/mul33.hpp"

namespace simt::hw {

enum class ShiftKind : std::uint8_t { Lsl, Lsr, Asr };

/// Classic 5-level binary barrel shifter. The per-level trace is exposed so
/// the fabric netlist generator can model each level's routing span.
class LogicBarrelShifter {
 public:
  static constexpr int kLevels = 5;  ///< 1, 2, 4, 8, 16-bit stages

  struct Trace {
    std::uint32_t level[kLevels + 1];  ///< level[0]=input, level[5]=output
  };

  static Trace shift_traced(std::uint32_t value, std::uint32_t amount,
                            ShiftKind kind);
  static std::uint32_t shift(std::uint32_t value, std::uint32_t amount,
                             ShiftKind kind);
};

/// The multiplier-integrated shifter of Section 4.2.
class IntegratedShifter {
 public:
  explicit IntegratedShifter(const Mul33* mul) : mul_(mul) {}

  struct Trace {
    std::uint32_t onehot;        ///< one-hot shift value (0 if out of range)
    std::uint32_t mul_input;     ///< AA, bit-reversed for right shifts
    std::uint32_t mul_low;       ///< low 32 bits of the multiplier result
    std::uint32_t unary_mask;    ///< bit-reversed unary mask (ASR only)
    std::uint32_t result;
  };

  Trace shift_traced(std::uint32_t value, std::uint32_t amount,
                     ShiftKind kind) const;
  std::uint32_t shift(std::uint32_t value, std::uint32_t amount,
                      ShiftKind kind) const;

 private:
  const Mul33* mul_;
};

}  // namespace simt::hw
