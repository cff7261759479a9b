#include "phy/sig.hpp"

#include <array>
#include <stdexcept>

#include "fec/interleaver.hpp"
#include "fec/viterbi.hpp"
#include "phy/frame.hpp"

namespace carpool {
namespace {

// RATE field codes (R1..R4 transmitted first-to-last), Clause 17.3.4.2,
// indexed by MCS table position (6..54 Mbit/s).
constexpr std::array<std::uint8_t, 8> kRateCodes{
    0b1011,  // 6  Mbit/s: R1=1 R2=1 R3=0 R4=1 stored LSB-first
    0b1111,  // 9
    0b1010,  // 12
    0b1110,  // 18
    0b1001,  // 24
    0b1101,  // 36
    0b1000,  // 48
    0b1100,  // 54
};

Bits sig_bits(const SigInfo& info) {
  if (info.mcs_index >= kRateCodes.size()) {
    throw std::invalid_argument("encode_sig: bad mcs index");
  }
  if (info.length_bytes == 0 || info.length_bytes > kMaxSigLength) {
    throw std::invalid_argument("encode_sig: length out of range");
  }
  BitWriter w;
  w.put_bits(kRateCodes[info.mcs_index], 4);
  w.put_bit(0);  // reserved
  w.put_bits(info.length_bytes, 12);
  // Even parity over the first 17 bits.
  std::uint8_t parity = 0;
  for (const std::uint8_t b : w.bits()) parity ^= (b & 1u);
  w.put_bit(parity);
  w.put_bits(0, 6);  // tail
  return w.take();
}

}  // namespace

Bits sig_coded_bits(const SigInfo& info) {
  // Rate-1/2 encoding; the 6 tail bits terminate the trellis, so no extra
  // tail is appended.
  return ConvolutionalCode::encode(sig_bits(info));
}

CxVec encode_sig(const SigInfo& info) {
  const Bits interleaved =
      interleaver_for(Modulation::kBpsk).interleave(sig_coded_bits(info));
  return constellation(Modulation::kBpsk).map_all(interleaved);
}

std::optional<SigInfo> decode_sig(std::span<const Cx> points,
                                  std::span<const double> gains) {
  SoftBits soft;
  soft.reserve(48);
  // demap_symbol_soft rejects point or gain spans that are not 48 long.
  demap_symbol_soft(points, gains, Modulation::kBpsk, soft);
  static const ViterbiDecoder viterbi;
  const Bits decoded = viterbi.decode(soft, /*terminated=*/true);

  BitReader r(decoded);
  const auto rate_code = static_cast<std::uint8_t>(r.get_bits(4));
  const std::uint8_t reserved = r.get_bit();
  const std::size_t length = r.get_bits(12);
  const std::uint8_t parity = r.get_bit();

  std::uint8_t expect = 0;
  for (std::size_t i = 0; i < 17; ++i) expect ^= (decoded[i] & 1u);
  if (expect != (parity & 1u) || reserved != 0) return std::nullopt;
  if (length == 0) return std::nullopt;

  for (std::size_t idx = 0; idx < kRateCodes.size(); ++idx) {
    if (kRateCodes[idx] == rate_code) return SigInfo{idx, length};
  }
  return std::nullopt;
}

}  // namespace carpool
