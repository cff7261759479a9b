#include "common/bits.hpp"

#include <algorithm>

namespace carpool {

Bits bytes_to_bits(std::span<const std::uint8_t> bytes) {
  Bits out(bytes.size() * 8);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (std::size_t b = 0; b < 8; ++b) {
      out[8 * i + b] = static_cast<std::uint8_t>((bytes[i] >> b) & 1u);
    }
  }
  return out;
}

Bytes bits_to_bytes(std::span<const std::uint8_t> bits) {
  if (bits.size() % 8 != 0) {
    throw std::invalid_argument("bits_to_bytes: size not a multiple of 8");
  }
  Bytes out(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out[i / 8] |= static_cast<std::uint8_t>((bits[i] & 1u) << (i % 8));
  }
  return out;
}

std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b) {
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t distance = a.size() > b.size() ? a.size() - b.size()
                                             : b.size() - a.size();
  for (std::size_t i = 0; i < common; ++i) {
    distance += static_cast<std::size_t>((a[i] ^ b[i]) & 1u);
  }
  return distance;
}

}  // namespace carpool
