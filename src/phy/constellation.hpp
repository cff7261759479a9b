#pragma once

// IEEE 802.11a/g/n constellation mappings with standard Gray coding and
// unit-average-power normalisation (Clause 17.3.5.8):
//   BPSK {+-1}, QPSK (+-1 +-j)/sqrt(2), 16-QAM {+-1,+-3}/sqrt(10),
//   64-QAM {+-1,..,+-7}/sqrt(42).

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/bits.hpp"
#include "dsp/complex_vec.hpp"
#include "fec/convolutional.hpp"

namespace carpool {

enum class Modulation { kBpsk, kQpsk, kQam16, kQam64 };

/// Coded bits per subcarrier (N_BPSC): 1, 2, 4, 6.
std::size_t bits_per_symbol(Modulation mod) noexcept;

std::string_view modulation_name(Modulation mod) noexcept;

class Interleaver;

class Constellation {
 public:
  explicit Constellation(Modulation mod);

  [[nodiscard]] Modulation modulation() const noexcept { return mod_; }
  [[nodiscard]] std::size_t bits_per_point() const noexcept { return nbits_; }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

  /// All constellation points indexed by their bit label (LSB-first).
  [[nodiscard]] std::span<const Cx> points() const noexcept { return points_; }

  /// Map `nbits` bits (LSB-first) to a point.
  [[nodiscard]] Cx map(std::span<const std::uint8_t> bits) const;

  /// Map a full bit stream; size must be a multiple of bits_per_point().
  [[nodiscard]] CxVec map_all(std::span<const std::uint8_t> bits) const;

  /// Hard decision: the label of the nearest point. Labels are scanned in
  /// ascending order with a strict `<` on the squared distance, so a tie
  /// goes to the lower label and a NaN input gives label 0.
  [[nodiscard]] std::size_t nearest(Cx received) const noexcept;

  /// Hard decision as bits: nearest()'s label, LSB first.
  [[nodiscard]] Bits demap_hard(Cx received) const;

  /// Max-log soft demapping: writes one soft value per bit to `llr`
  /// (bits_per_point() entries), positive = bit 1. `gain` scales
  /// confidence (use |H_k|^2 so faded subcarriers count less after
  /// zero-forcing equalisation).
  void demap_soft(Cx received, double gain, std::span<double> llr) const;

 private:
  Modulation mod_;
  std::size_t nbits_;
  CxVec points_;
  // Point `label` is (level_i_[label & I mask], level_q_[label >> I bits]):
  // the I-axis bits are the label's low bits. BPSK has one Q level, 0.
  std::array<double, 8> level_i_{};
  std::array<double, 8> level_q_{};
};

/// Shared immutable instance per modulation.
const Constellation& constellation(Modulation mod);

/// Shared immutable 802.11 interleaver for one 48-subcarrier symbol at
/// this modulation (n_cbps = 48 * bits_per_symbol(mod)).
const Interleaver& interleaver_for(Modulation mod);

}  // namespace carpool
