#pragma once

// Bit-level containers and I/O used throughout the PHY: frames are byte
// vectors at the MAC boundary and bit vectors (`Bits`, one bit per element)
// inside the coding/modulation chain.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace carpool {

/// One bit per element; value is 0 or 1. A plain vector keeps the coding
/// chain simple and fast enough for simulation purposes.
using Bits = std::vector<std::uint8_t>;
using Bytes = std::vector<std::uint8_t>;

/// Expand bytes to bits, LSB-first within each byte (802.11 convention).
Bits bytes_to_bits(std::span<const std::uint8_t> bytes);

/// Pack bits (LSB-first per byte) back to bytes. Throws
/// std::invalid_argument if bits.size() is not a multiple of 8.
Bytes bits_to_bytes(std::span<const std::uint8_t> bits);

/// 1 when `value` has an odd number of set bits: the XOR a convolutional
/// encoder forms over its generator taps. __builtin_parity compiles
/// inline (xor folds and setnp on x86-64), where std::popcount without
/// -mpopcnt calls into libgcc once per coded bit.
[[nodiscard]] constexpr std::uint8_t parity(unsigned value) noexcept {
  return static_cast<std::uint8_t>(__builtin_parity(value));
}

/// Number of positions where the two bit strings differ, compared over the
/// shorter length. Size mismatch beyond that counts as errors too.
std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b);

/// Sequential bit writer (LSB-first per byte).
class BitWriter {
 public:
  void put_bit(std::uint8_t bit) { bits_.push_back(bit & 1u); }

  /// Write `count` bits of `value`, least-significant bit first.
  void put_bits(std::uint64_t value, std::size_t count) {
    if (count > 64) throw std::invalid_argument("BitWriter: count > 64");
    for (std::size_t i = 0; i < count; ++i) put_bit((value >> i) & 1u);
  }

  void append(std::span<const std::uint8_t> more) {
    bits_.insert(bits_.end(), more.begin(), more.end());
  }

  [[nodiscard]] const Bits& bits() const noexcept { return bits_; }
  [[nodiscard]] Bits take() noexcept { return std::move(bits_); }
  [[nodiscard]] std::size_t size() const noexcept { return bits_.size(); }

 private:
  Bits bits_;
};

/// Sequential bit reader (LSB-first per byte).
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bits) : bits_(bits) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bits_.size() - pos_;
  }

  std::uint8_t get_bit() {
    if (pos_ >= bits_.size()) throw std::out_of_range("BitReader exhausted");
    return bits_[pos_++] & 1u;
  }

  /// Read `count` bits, least-significant bit first.
  std::uint64_t get_bits(std::size_t count) {
    if (count > 64) throw std::invalid_argument("BitReader: count > 64");
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < count; ++i) {
      value |= static_cast<std::uint64_t>(get_bit()) << i;
    }
    return value;
  }

  void skip(std::size_t count) {
    if (count > remaining()) throw std::out_of_range("BitReader skip");
    pos_ += count;
  }

 private:
  std::span<const std::uint8_t> bits_;
  std::size_t pos_ = 0;
};

}  // namespace carpool
