#pragma once

// Phase offset side channel (paper Sec. 5.2, Table 1).
//
// The transmitter rotates all data + pilot subcarriers of each payload
// symbol by an injected phase. Because the receiver's pilot tracker
// measures and compensates the *total* common phase before demodulation,
// the injection is invisible to data decoding; but the *difference* of the
// measured phase between consecutive symbols recovers the injected delta
// (the inherent residual-CFO drift between adjacent symbols is small).
//
// Modulation (Table 1):
//   one-bit:  +90 deg -> 1, -90 deg -> 0
//   two-bit:  +45 -> 11, +135 -> 01, -135 -> 00, -45 -> 10
//   (bit strings written as in the paper; we store the first-written bit
//   as bit 0 of the unsigned value)
//
// The side channel carries a symbol-level CRC over each symbol group's
// coded (post-interleaving) bits, so a receiver can verify symbols
// *before* FEC and use verified symbols as "data pilots" for real-time
// channel estimation (Sec. 5.1).

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bits.hpp"
#include "common/crc.hpp"
#include "dsp/complex_vec.hpp"

namespace carpool {

enum class PhaseMod { kOneBit, kTwoBit };

/// Side-channel bits carried per OFDM symbol (1 or 2).
std::size_t side_bits_per_symbol(PhaseMod mod) noexcept;

/// Injected phase delta (radians) for a bit group (Table 1).
double phase_delta_for_bits(PhaseMod mod, unsigned bits);

/// Decision: nearest Table-1 delta for a measured phase difference.
unsigned bits_for_phase_delta(PhaseMod mod, double delta) noexcept;

/// Symbol-level CRC scheme: `group_symbols` consecutive symbols share one
/// CRC whose width is the group's total side-channel capacity. The paper
/// evaluates {one,two}-bit x {1,2,3}-symbol groups and settles on
/// two-bit / 1-symbol (CRC-2 per symbol).
struct SymbolCrcScheme {
  PhaseMod mod = PhaseMod::kTwoBit;
  std::size_t group_symbols = 1;

  [[nodiscard]] std::size_t crc_width() const {
    return side_bits_per_symbol(mod) * group_symbols;
  }
};

/// CRC engine for a scheme's width (1..6 bits arise in the paper's sweep;
/// 8 and 16 are served too), or null for any other width.
const BitCrc* find_crc_for_width(std::size_t width) noexcept;

/// find_crc_for_width that throws std::invalid_argument for a width with
/// no engine.
const BitCrc& crc_for_width(std::size_t width);

/// Transmitter side: compute the absolute phase offset to inject into each
/// payload symbol. `symbol_bits[i]` are the coded (post-interleaving) bits
/// of payload symbol i. Each group of `scheme.group_symbols` symbols
/// carries the CRC of its own bits, spread across the group's deltas; a
/// trailing partial group is checksummed over its shorter span.
/// `start_offset` continues the cumulative phase from preceding symbols
/// (subframes of one Carpool frame share a continuous phase chain).
std::vector<double> encode_side_channel(const std::vector<Bits>& symbol_bits,
                                        const SymbolCrcScheme& scheme,
                                        double start_offset = 0.0);

/// Receiver side: consumes measured per-symbol common phases and the hard
/// demapped bits, reporting per-group verification.
class SideChannelDecoder {
 public:
  explicit SideChannelDecoder(const SymbolCrcScheme& scheme);

  /// Provide the measured phase of the reference symbol preceding the
  /// first payload symbol (A-HDR / SIG, which carries no injection).
  void set_reference_phase(double phase);

  struct SymbolOutcome {
    unsigned side_bits = 0;  ///< decoded side-channel bits this symbol
    /// Set when this symbol completes a CRC group: true if the group's
    /// demapped bits are verified by the received checksum — the signal
    /// that the group can serve as a data pilot.
    std::optional<bool> group_verified;
  };

  /// Feed the next payload symbol: its measured common phase and its hard
  /// demapped coded bits.
  SymbolOutcome next_symbol(double measured_phase,
                            std::span<const std::uint8_t> demapped_bits);

  void reset();

 private:
  SymbolCrcScheme scheme_;
  double prev_phase_ = 0.0;
  bool have_reference_ = false;
  Bits group_bits_;
  unsigned received_crc_ = 0;
  std::size_t symbol_in_group_ = 0;
};

}  // namespace carpool
