#include "common/crc.hpp"

#include <array>

namespace carpool {
namespace {

std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const auto table = make_crc32_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint16_t BitCrc::compute(std::span<const std::uint8_t> bits) const {
  // The width_-bit register sits in the top bits of `reg`. Whole bytes of
  // input (first bit as the byte's MSB) fold in through the table; the
  // leftover bits go one at a time.
  const unsigned shift = 16 - width_;
  unsigned reg = (0xFFFFu << shift) & 0xFFFFu;  // all-ones init
  std::size_t i = 0;
  for (; i + 8 <= bits.size(); i += 8) {
    unsigned byte = 0;
    for (std::size_t k = 0; k < 8; ++k) byte = (byte << 1) | (bits[i + k] & 1u);
    reg = ((reg << 8) & 0xFFFFu) ^ table_[(reg >> 8) ^ byte];
  }
  for (; i < bits.size(); ++i) {
    const unsigned feedback = ((reg >> 15) ^ bits[i]) & 1u;
    reg = ((reg << 1) & 0xFFFFu) ^ (aligned_poly_ & (0u - feedback));
  }
  return static_cast<std::uint16_t>(reg >> shift);
}

}  // namespace carpool
