#include "carpool/ahdr.hpp"

#include "fec/convolutional.hpp"
#include "fec/interleaver.hpp"
#include "fec/viterbi.hpp"
#include "phy/constellation.hpp"
#include "phy/frame.hpp"

namespace carpool {

std::array<CxVec, kAhdrSymbols> encode_ahdr(
    const AggregationBloomFilter& filter) {
  const Bits bits = filter.to_bits();
  const Bits coded = ConvolutionalCode::encode(bits);  // 96 bits
  const Constellation& bpsk = constellation(Modulation::kBpsk);
  std::array<CxVec, kAhdrSymbols> symbols;
  for (std::size_t s = 0; s < kAhdrSymbols; ++s) {
    const Bits block = interleaver_for(Modulation::kBpsk).interleave(
        std::span<const std::uint8_t>(coded).subspan(48 * s, 48));
    symbols[s] = bpsk.map_all(block);
  }
  return symbols;
}

Bits decode_ahdr(std::span<const Cx> symbol0, std::span<const double> gains0,
                 std::span<const Cx> symbol1,
                 std::span<const double> gains1) {
  SoftBits soft;
  soft.reserve(96);
  // demap_symbol_soft rejects point or gain spans that are not 48 long.
  demap_symbol_soft(symbol0, gains0, Modulation::kBpsk, soft);
  demap_symbol_soft(symbol1, gains1, Modulation::kBpsk, soft);
  static const ViterbiDecoder viterbi;
  return viterbi.decode(soft, /*terminated=*/false);
}

}  // namespace carpool
