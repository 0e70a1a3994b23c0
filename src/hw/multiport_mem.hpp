// The multi-port shared memory (Section 2).
//
// The eGPU departs from the banked shared memory of commercial GPGPUs and
// uses a replicated multi-port memory configured as 4R-1W: four read ports
// (each a physical M20K copy of the data, kept coherent by writing all
// copies) and one write port. The bandwidth is lower than a banked design
// but the arbitration is trivial -- a 16:4 read address mux and a 16:1
// write mux in front of the SPs (Fig. 1) -- saving logic, routing, and
// latency.
//
// Replication buys ports; it adds no state. The model therefore stores the
// data once, and the port counts drive only the timing and the area:
//   * a load for 16 lanes takes 16/4 = 4 clocks per thread-block row;
//   * a store takes 16/1 = 16 clocks per row (dynamic thread scaling exists
//     largely to cut this cost when only a few threads write back);
//   * the M20K bill is one copy per read port (multiport_m20k_blocks).
// The core prices both port costs with core::width_factor_for.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace simt::hw {

/// M20K blocks of a `words`-deep, 32-bit memory with `read_ports` read
/// ports: one replicated copy per read port (4R at 4,096 words = 32).
unsigned multiport_m20k_blocks(unsigned words, unsigned read_ports);

class MultiPortMemory {
 public:
  /// words: capacity in 32-bit words; read_ports bounds the port index
  /// read() accepts (4 in the shipped 4R-1W configuration).
  explicit MultiPortMemory(unsigned words, unsigned read_ports = 4);

  /// Read through one of the read ports. Every port sees the same image;
  /// the port index models arbitration and is bounds-checked.
  std::uint32_t read(unsigned port, std::uint32_t addr) const;

  /// Stage a write (single write port). Committed at commit().
  void write(std::uint32_t addr, std::uint32_t data);

  /// Clock edge: apply staged writes in staging order (the last write to
  /// an address wins).
  void commit();

  /// Host-side backdoor accessors (no port arbitration; used by the runtime
  /// to stage inputs and collect results).
  std::uint32_t peek(std::uint32_t addr) const;
  void poke(std::uint32_t addr, std::uint32_t data);

  /// Bulk backdoor transfers: one bounds check and a direct copy, bypassing
  /// the per-word write staging. This is the host-staging fast path the
  /// runtime Buffer copies ride on.
  void peek_span(std::uint32_t base, std::span<std::uint32_t> out) const;
  void poke_span(std::uint32_t base, std::span<const std::uint32_t> data);

  /// Zero the whole image and drop any staged writes.
  void clear();

  /// Per-lane gather/scatter fast path for the batched SIMD engine: the
  /// caller bounds-checks the whole address block up front, then reads and
  /// writes the committed image directly (no staging; a sequential
  /// thread-order scatter keeps the highest-lane-wins conflict semantics of
  /// the staged write port).
  std::uint32_t read_lane(std::uint32_t addr) const { return image_[addr]; }
  void write_lane(std::uint32_t addr, std::uint32_t data) {
    image_[addr] = data;
  }

  unsigned words() const { return static_cast<unsigned>(image_.size()); }
  unsigned read_ports() const { return read_ports_; }

 private:
  unsigned read_ports_;
  std::vector<std::uint32_t> image_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> staged_;
};

}  // namespace simt::hw
