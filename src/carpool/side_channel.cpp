#include "carpool/side_channel.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/registry.hpp"

namespace carpool {
namespace {

constexpr double deg(double degrees) { return degrees * kPi / 180.0; }

}  // namespace

std::size_t side_bits_per_symbol(PhaseMod mod) noexcept {
  return mod == PhaseMod::kOneBit ? 1 : 2;
}

double phase_delta_for_bits(PhaseMod mod, unsigned bits) {
  if (mod == PhaseMod::kOneBit) {
    return (bits & 1u) ? deg(90.0) : deg(-90.0);
  }
  // Two-bit Table 1 rows, with the first-written bit stored as bit 0:
  //   "11" -> both bits 1 -> value 3 -> +45
  //   "01" -> first 0, second 1 -> value 2 -> +135
  //   "00" -> value 0 -> -135
  //   "10" -> first 1, second 0 -> value 1 -> -45
  switch (bits & 0x3u) {
    case 0b11:
      return deg(45.0);
    case 0b10:
      return deg(135.0);
    case 0b00:
      return deg(-135.0);
    default:  // 0b01
      return deg(-45.0);
  }
}

unsigned bits_for_phase_delta(PhaseMod mod, double delta) noexcept {
  const double d = wrap_angle(delta);
  if (mod == PhaseMod::kOneBit) {
    return d >= 0.0 ? 1u : 0u;
  }
  if (d >= 0.0) {
    return d < deg(90.0) ? 0b11u : 0b10u;  // +45 vs +135
  }
  return d > -deg(90.0) ? 0b01u : 0b00u;  // -45 vs -135
}

const BitCrc* find_crc_for_width(std::size_t width) noexcept {
  static const BitCrc crc1{1, 0x1};  // parity
  static const BitCrc crc3{3, 0x3};  // x^3 + x + 1
  static const BitCrc crc5{5, 0x05};
  static const BitCrc crc6{6, 0x03};
  switch (width) {
    case 1:
      return &crc1;
    case 2:
      return &crc2();
    case 3:
      return &crc3;
    case 4:
      return &crc4();
    case 5:
      return &crc5;
    case 6:
      return &crc6;
    case 8:
      return &crc8();
    case 16:
      return &crc16();
    default:
      return nullptr;
  }
}

const BitCrc& crc_for_width(std::size_t width) {
  const BitCrc* crc = find_crc_for_width(width);
  if (crc == nullptr) {
    throw std::invalid_argument("crc_for_width: unsupported width");
  }
  return *crc;
}

std::vector<double> encode_side_channel(const std::vector<Bits>& symbol_bits,
                                        const SymbolCrcScheme& scheme,
                                        double start_offset) {
  if (scheme.group_symbols == 0) {
    throw std::invalid_argument("encode_side_channel: empty group");
  }
  const std::size_t bits_per_sym = side_bits_per_symbol(scheme.mod);
  const BitCrc& crc = crc_for_width(scheme.crc_width());

  std::vector<double> offsets;
  offsets.reserve(symbol_bits.size());
  double cumulative = start_offset;
  for (std::size_t g = 0; g < symbol_bits.size();
       g += scheme.group_symbols) {
    // Concatenate the group's coded bits and checksum them.
    Bits group;
    const std::size_t end =
        std::min(g + scheme.group_symbols, symbol_bits.size());
    for (std::size_t s = g; s < end; ++s) {
      group.insert(group.end(), symbol_bits[s].begin(), symbol_bits[s].end());
    }
    const std::uint16_t checksum = crc.compute(group);
    // Spread the checksum bits over the group's symbols, LSB first.
    for (std::size_t s = g; s < end; ++s) {
      const std::size_t pos = (s - g) * bits_per_sym;
      const unsigned bits =
          static_cast<unsigned>(checksum >> pos) &
          ((1u << bits_per_sym) - 1u);
      cumulative =
          wrap_angle(cumulative + phase_delta_for_bits(scheme.mod, bits));
      offsets.push_back(cumulative);
    }
  }
  return offsets;
}

SideChannelDecoder::SideChannelDecoder(const SymbolCrcScheme& scheme)
    : scheme_(scheme) {
  if (scheme.group_symbols == 0) {
    throw std::invalid_argument("SideChannelDecoder: empty group");
  }
}

void SideChannelDecoder::set_reference_phase(double phase) {
  prev_phase_ = phase;
  have_reference_ = true;
}

SideChannelDecoder::SymbolOutcome SideChannelDecoder::next_symbol(
    double measured_phase, std::span<const std::uint8_t> demapped_bits) {
  if (!have_reference_) {
    throw std::logic_error("SideChannelDecoder: no reference phase set");
  }
  const double delta = wrap_angle(measured_phase - prev_phase_);
  prev_phase_ = measured_phase;

  SymbolOutcome outcome;
  outcome.side_bits = bits_for_phase_delta(scheme_.mod, delta);

  const std::size_t bits_per_sym = side_bits_per_symbol(scheme_.mod);
  received_crc_ |= outcome.side_bits
                   << (symbol_in_group_ * bits_per_sym);
  group_bits_.insert(group_bits_.end(), demapped_bits.begin(),
                     demapped_bits.end());
  ++symbol_in_group_;

  if (symbol_in_group_ == scheme_.group_symbols) {
    const BitCrc& crc = crc_for_width(scheme_.crc_width());
    outcome.group_verified = crc.compute(group_bits_) == received_crc_;
    group_bits_.clear();
    received_crc_ = 0;
    symbol_in_group_ = 0;
    obs::Registry& reg = obs::Registry::current();
    obs::Counter& verified = reg.counter("carpool.side_groups_verified");
    obs::Counter& failed = reg.counter("carpool.side_groups_failed");
    (*outcome.group_verified ? verified : failed).add();
  }
  return outcome;
}

void SideChannelDecoder::reset() {
  have_reference_ = false;
  group_bits_.clear();
  received_crc_ = 0;
  symbol_in_group_ = 0;
}

}  // namespace carpool
