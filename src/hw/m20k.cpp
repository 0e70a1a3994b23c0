#include "hw/m20k.hpp"

#include <limits>

#include "common/bits.hpp"

namespace simt::hw {

M20kMode m20k_best_mode(unsigned depth, unsigned width) {
  M20kMode best{512, 40};
  unsigned best_count = std::numeric_limits<unsigned>::max();
  for (const auto& mode : kM20kModes) {
    const unsigned count =
        ceil_div(depth, mode.depth) * ceil_div(width, mode.width);
    if (count < best_count) {
      best_count = count;
      best = mode;
    }
  }
  return best;
}

unsigned m20k_blocks_for(unsigned depth, unsigned width) {
  const M20kMode mode = m20k_best_mode(depth, width);
  return ceil_div(depth, mode.depth) * ceil_div(width, mode.width);
}

}  // namespace simt::hw
