// Shared-memory porting sweep (Section 2): the eGPU uses a replicated
// multi-port memory "configured as 4R-1W" -- lower potential bandwidth than
// a banked design, but trivially simple arbitration. This sweep quantifies
// the trade the designers made: read/write clocks per 16-lane row vs M20K
// replication cost, across port configurations.
#include <cstdio>

#include "common/table.hpp"
#include "core/pipeline_control.hpp"
#include "hw/multiport_mem.hpp"

int main() {
  using namespace simt;

  std::puts("== Shared-memory porting sweep (16 KB, 16 lanes) ==\n");

  Table t({"Ports", "load clk/row", "store clk/row", "M20K blocks",
           "vecadd cycles*"});
  struct Config {
    unsigned r, w;
  };
  const Config configs[] = {{1, 1}, {2, 1}, {4, 1}, {8, 1}, {4, 2}, {16, 1}};
  for (const auto& [r, w] : configs) {
    const unsigned ld = core::width_factor_for(isa::TimingClass::Load, 16, r, w);
    const unsigned st =
        core::width_factor_for(isa::TimingClass::Store, 16, r, w);
    // vecadd on 512 threads: 1 op + 2 loads + 1 store over 32 rows + 1.
    const unsigned cycles = 32 * (1 + 2 * ld + st) + 32 + 7;
    std::string name = std::to_string(r) + "R-" + std::to_string(w) + "W";
    if (r == 4 && w == 1) {
      name += " (paper)";
    }
    t.add_row({name, fmt_int(ld), fmt_int(st),
               fmt_int(hw::multiport_m20k_blocks(4096, r)), fmt_int(cycles)});
  }
  t.print();

  std::puts("\n(*) vecadd, 512 threads: movsr + 2 loads + add + store + exit.");
  std::puts(
      "\nthe paper's 4R-1W point services a 16-lane load in 4 clocks for a\n"
      "4x M20K replication; full-rate 16R would cost 128 blocks for the\n"
      "16 KB memory -- more than the entire Table 1 core uses (99). The\n"
      "store port stays single because dynamic thread scaling absorbs most\n"
      "of the write-back cost (bench/thread_scaling).");
  return 0;
}
