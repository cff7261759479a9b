#pragma once

// IEEE 802.11a/g block interleaver (Clause 17.3.5.7). Operates on one OFDM
// symbol's worth of coded bits (N_CBPS). Two permutations: the first
// spreads adjacent coded bits across nonadjacent subcarriers, the second
// alternates them between significant/insignificant constellation bits.

#include <cstddef>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "fec/convolutional.hpp"

namespace carpool {

class Interleaver {
 public:
  /// `n_cbps`: coded bits per OFDM symbol; `n_bpsc`: coded bits per
  /// subcarrier (1/2/4/6 for BPSK/QPSK/16-QAM/64-QAM). n_cbps must be a
  /// multiple of both 16 and n_bpsc.
  Interleaver(std::size_t n_cbps, std::size_t n_bpsc);

  [[nodiscard]] std::size_t block_size() const noexcept { return forward_.size(); }

  /// Interleave exactly one block of n_cbps bits.
  [[nodiscard]] Bits interleave(std::span<const std::uint8_t> block) const;

  /// Deinterleave one block of soft values.
  [[nodiscard]] SoftBits deinterleave(std::span<const double> block) const;

  /// Deinterleave one block of hard bits.
  [[nodiscard]] Bits deinterleave(std::span<const std::uint8_t> block) const;

  /// inverse()[j]: the deinterleaved position of interleaved bit j, for
  /// callers that write demapped bits straight to their final slots.
  [[nodiscard]] std::span<const std::size_t> inverse() const noexcept {
    return inverse_;
  }

 private:
  // forward_[k] = output position of input bit k.
  std::vector<std::size_t> forward_;
  std::vector<std::size_t> inverse_;
};

}  // namespace carpool
