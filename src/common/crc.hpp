#pragma once

// Cyclic redundancy checks.
//
// Two families are provided:
//  - crc32 over bytes: the FCS that protects whole (sub)frames, as in
//    IEEE 802.11.
//  - BitCrc: a small generic CRC over bit strings, used for the
//    *symbol-level* checksums carried over the phase offset side channel
//    (the paper's CRC-2 per OFDM symbol, Sec. 5.2).

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "common/bits.hpp"

namespace carpool {

/// IEEE 802.3/802.11 CRC-32 (reflected, poly 0xEDB88320), over bytes.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Generic CRC of up to 16 bits over a bit string.
///
/// `width` is the CRC size in bits; `poly` is the generator polynomial
/// without the leading x^width term (normal, non-reflected form). The
/// register starts at all-ones, which protects leading-zero bit strings.
/// Each input byte carries one bit, its lowest (`bit & 1`).
class BitCrc {
 public:
  constexpr BitCrc(unsigned width, std::uint16_t poly) : width_(width) {
    if (width == 0 || width > 16) {
      throw std::invalid_argument("BitCrc: width must be in [1,16]");
    }
    // compute() runs the register aligned to bit 15, so one byte table
    // serves every width: entry n is n << 8 shifted through eight
    // feedback steps of the aligned polynomial.
    const unsigned mask = (1u << width) - 1u;
    aligned_poly_ = static_cast<std::uint16_t>((poly & mask) << (16 - width));
    for (unsigned n = 0; n < 256; ++n) {
      unsigned reg = n << 8;
      for (int step = 0; step < 8; ++step) {
        reg = (reg & 0x8000u) ? (reg << 1) ^ aligned_poly_ : reg << 1;
      }
      table_[n] = static_cast<std::uint16_t>(reg);
    }
  }

  [[nodiscard]] std::uint16_t compute(std::span<const std::uint8_t> bits) const;

  [[nodiscard]] unsigned width() const noexcept { return width_; }

 private:
  unsigned width_;
  std::uint16_t aligned_poly_ = 0;
  std::array<std::uint16_t, 256> table_{};
};

/// CRC-2 with polynomial x^2 + x + 1: the per-symbol checksum the paper
/// settles on for the phase offset side channel.
inline const BitCrc& crc2() {
  static const BitCrc kCrc2{2, 0x3};
  return kCrc2;
}

/// CRC-4-ITU (x^4 + x + 1), used in the granularity trade-off study.
inline const BitCrc& crc4() {
  static const BitCrc kCrc4{4, 0x3};
  return kCrc4;
}

/// CRC-8 (x^8 + x^2 + x + 1).
inline const BitCrc& crc8() {
  static const BitCrc kCrc8{8, 0x07};
  return kCrc8;
}

/// CRC-16-CCITT (x^16 + x^12 + x^5 + 1).
inline const BitCrc& crc16() {
  static const BitCrc kCrc16{16, 0x1021};
  return kCrc16;
}

}  // namespace carpool
