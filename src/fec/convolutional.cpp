#include "fec/convolutional.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace carpool {
namespace {

// Puncturing patterns over one period of the rate-1/2 output stream
// (A1 B1 A2 B2 ... order). `true` = transmitted, `false` = punctured.
// 2/3: keep A1 B1 A2 (drop B2).  3/4: keep A1 B1 A2 B3 (drop B2, A3).
// 5/6 (802.11n HT): keep A1 B1 A2 B3 A4 B5 out of ten.
constexpr std::array<bool, 4> kKeep23{true, true, true, false};
constexpr std::array<bool, 6> kKeep34{true, true, true, false, false, true};
constexpr std::array<bool, 10> kKeep56{true,  true,  true,  false, false,
                                       true,  true,  false, false, true};

std::span<const bool> keep_mask(CodeRate rate) {
  switch (rate) {
    case CodeRate::kHalf:
      return {};
    case CodeRate::kTwoThirds:
      return kKeep23;
    case CodeRate::kThreeQuarters:
      return kKeep34;
    case CodeRate::kFiveSixths:
      return kKeep56;
  }
  throw std::logic_error("unknown CodeRate");
}

/// How many of the first `n` rate-1/2 positions `mask` keeps.
std::size_t kept_bits(std::span<const bool> mask, std::size_t n) {
  const auto per_period = static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), true));
  const auto rest = static_cast<std::size_t>(std::count(
      mask.begin(), mask.begin() + static_cast<long>(n % mask.size()), true));
  return n / mask.size() * per_period + rest;
}

}  // namespace

RateFraction rate_fraction(CodeRate rate) noexcept {
  switch (rate) {
    case CodeRate::kHalf:
      return {1, 2};
    case CodeRate::kTwoThirds:
      return {2, 3};
    case CodeRate::kThreeQuarters:
      return {3, 4};
    case CodeRate::kFiveSixths:
      return {5, 6};
  }
  return {1, 2};
}

double rate_value(CodeRate rate) noexcept {
  const RateFraction f = rate_fraction(rate);
  return static_cast<double>(f.numerator) / static_cast<double>(f.denominator);
}

SoftBits bits_to_soft(std::span<const std::uint8_t> bits) {
  SoftBits out;
  out.reserve(bits.size());
  for (const std::uint8_t bit : bits) out.push_back(bit ? 1.0 : -1.0);
  return out;
}

Bits ConvolutionalCode::encode(std::span<const std::uint8_t> data) {
  Bits out(data.size() * 2);
  unsigned shift = 0;  // holds the last K-1 input bits
  for (std::size_t i = 0; i < data.size(); ++i) {
    const unsigned window =
        ((data[i] & 1u) << (kConstraintLength - 1)) | shift;
    out[2 * i] = parity(window & kG0);
    out[2 * i + 1] = parity(window & kG1);
    shift = window >> 1;
  }
  return out;
}

Bits ConvolutionalCode::encode_terminated(std::span<const std::uint8_t> data,
                                          CodeRate rate) {
  Bits padded(data.begin(), data.end());
  padded.insert(padded.end(), kConstraintLength - 1, 0);
  return puncture(encode(padded), rate);
}

Bits ConvolutionalCode::puncture(std::span<const std::uint8_t> coded,
                                 CodeRate rate) {
  if (rate == CodeRate::kHalf) return Bits(coded.begin(), coded.end());
  const auto mask = keep_mask(rate);
  Bits out(kept_bits(mask, coded.size()));
  std::size_t kept = 0;
  std::size_t phase = 0;  // position within the mask period
  for (const std::uint8_t bit : coded) {
    if (mask[phase]) out[kept++] = bit;
    if (++phase == mask.size()) phase = 0;
  }
  return out;
}

SoftBits ConvolutionalCode::depuncture(std::span<const double> soft,
                                       CodeRate rate) {
  if (rate == CodeRate::kHalf) return SoftBits(soft.begin(), soft.end());
  const auto mask = keep_mask(rate);
  SoftBits out;
  out.reserve(soft.size() * 2);
  std::size_t phase = 0;
  for (std::size_t in = 0; in < soft.size();) {
    // A punctured position is an erasure.
    out.push_back(mask[phase] ? soft[in++] : 0.0);
    if (++phase == mask.size()) phase = 0;
  }
  // Complete the trailing period with erasures so length is a multiple of 2.
  if (out.size() % 2 != 0) out.push_back(0.0);
  return out;
}

std::size_t ConvolutionalCode::coded_length(std::size_t data_bits,
                                            CodeRate rate) {
  const std::size_t full = 2 * (data_bits + kConstraintLength - 1);
  if (rate == CodeRate::kHalf) return full;
  return kept_bits(keep_mask(rate), full);
}

}  // namespace carpool
