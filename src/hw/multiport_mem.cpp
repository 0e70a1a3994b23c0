#include "hw/multiport_mem.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "hw/m20k.hpp"

namespace simt::hw {

unsigned multiport_m20k_blocks(unsigned words, unsigned read_ports) {
  return read_ports * m20k_blocks_for(words, 32);
}

MultiPortMemory::MultiPortMemory(unsigned words, unsigned read_ports)
    : read_ports_(read_ports), image_(words, 0) {
  SIMT_CHECK(words > 0);
  SIMT_CHECK(read_ports_ >= 1);
}

std::uint32_t MultiPortMemory::read(unsigned port, std::uint32_t addr) const {
  SIMT_CHECK(port < read_ports_);
  SIMT_CHECK(addr < image_.size());
  return image_[addr];
}

void MultiPortMemory::write(std::uint32_t addr, std::uint32_t data) {
  SIMT_CHECK(addr < image_.size());
  staged_.emplace_back(addr, data);
}

void MultiPortMemory::commit() {
  for (const auto& [addr, value] : staged_) {
    image_[addr] = value;
  }
  staged_.clear();
}

std::uint32_t MultiPortMemory::peek(std::uint32_t addr) const {
  return read(0, addr);
}

void MultiPortMemory::poke(std::uint32_t addr, std::uint32_t data) {
  write(addr, data);
  commit();
}

void MultiPortMemory::peek_span(std::uint32_t base,
                                std::span<std::uint32_t> out) const {
  SIMT_CHECK(base <= image_.size() && out.size() <= image_.size() - base);
  std::copy_n(image_.begin() + base, out.size(), out.begin());
}

void MultiPortMemory::poke_span(std::uint32_t base,
                                std::span<const std::uint32_t> data) {
  SIMT_CHECK(base <= image_.size() && data.size() <= image_.size() - base);
  std::copy(data.begin(), data.end(), image_.begin() + base);
}

void MultiPortMemory::clear() {
  std::fill(image_.begin(), image_.end(), 0);
  staged_.clear();
}

}  // namespace simt::hw
