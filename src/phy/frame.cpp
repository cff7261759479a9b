#include "phy/frame.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "common/crc.hpp"
#include "fec/interleaver.hpp"
#include "fec/scrambler.hpp"
#include "fec/viterbi.hpp"

namespace carpool {
namespace {

const ViterbiDecoder& viterbi() {
  static const ViterbiDecoder decoder;
  return decoder;
}

}  // namespace

std::string_view to_string(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kTruncated:
      return "truncated";
    case DecodeStatus::kSyncLost:
      return "sync_lost";
    case DecodeStatus::kSigCorrupt:
      return "sig_corrupt";
    case DecodeStatus::kAhdrMiss:
      return "ahdr_miss";
    case DecodeStatus::kFcsFail:
      return "fcs_fail";
    case DecodeStatus::kBadConfig:
      return "bad_config";
    case DecodeStatus::kInternalError:
      return "internal_error";
  }
  return "unknown";
}

Bytes append_fcs(std::span<const std::uint8_t> body) {
  Bytes out(body.begin(), body.end());
  const std::uint32_t crc = crc32(body);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFFu));
  }
  return out;
}

bool check_fcs(std::span<const std::uint8_t> frame_with_fcs) {
  if (frame_with_fcs.size() < 4) return false;
  const auto body = frame_with_fcs.first(frame_with_fcs.size() - 4);
  const std::uint32_t crc = crc32(body);
  for (int i = 0; i < 4; ++i) {
    if (frame_with_fcs[body.size() + static_cast<std::size_t>(i)] !=
        static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFFu)) {
      return false;
    }
  }
  return true;
}

Bits build_data_bits(std::span<const std::uint8_t> psdu, const Mcs& m) {
  const std::size_t n_sym = num_data_symbols(m, psdu.size());
  // SERVICE (16 zero bits: scrambler init + reserved), the PSDU, then the
  // zero tail and pad.
  Bits bits(n_sym * m.n_dbps, 0);
  const Bits psdu_bits = bytes_to_bits(psdu);
  std::copy(psdu_bits.begin(), psdu_bits.end(), bits.begin() + 16);
  const std::size_t tail_pos = 16 + psdu_bits.size();

  Scrambler scrambler(kScramblerSeed);
  Bits scrambled = scrambler.process(bits);
  // Tail bits are reset to zero after scrambling (Clause 17.3.5.3) so the
  // trellis reaches the zero state at the end of the PSDU.
  for (std::size_t i = tail_pos; i < tail_pos + 6; ++i) scrambled[i] = 0;
  return scrambled;
}

Bits code_data_bits(std::span<const std::uint8_t> data_bits, const Mcs& m) {
  const Bits coded = ConvolutionalCode::encode(data_bits);
  return ConvolutionalCode::puncture(coded, m.code_rate);
}

CxVec modulate_coded(std::span<const std::uint8_t> coded, const Mcs& m) {
  if (coded.size() % m.n_cbps != 0) {
    throw std::invalid_argument("modulate_coded: not a whole symbol count");
  }
  // Point i of a symbol carries interleaved bits i*nbits.., which are the
  // block's bits at slot[i*nbits + b] (LSB of the label first).
  const Constellation& con = constellation(m.modulation);
  const std::span<const std::size_t> slot =
      interleaver_for(m.modulation).inverse();
  const std::size_t nbits = con.bits_per_point();
  CxVec points(coded.size() / m.n_cbps * kNumDataSubcarriers);
  Cx* out = points.data();
  for (std::size_t off = 0; off < coded.size(); off += m.n_cbps) {
    const std::uint8_t* block = coded.data() + off;
    for (std::size_t i = 0; i < kNumDataSubcarriers; ++i) {
      unsigned label = 0;
      for (std::size_t b = 0; b < nbits; ++b) {
        label |= static_cast<unsigned>(block[slot[i * nbits + b]] & 1u) << b;
      }
      *out++ = con.points()[label];
    }
  }
  return points;
}

void demap_symbol_soft(std::span<const Cx> points,
                       std::span<const double> gains, Modulation mod,
                       SoftBits& out) {
  if (points.size() != kNumDataSubcarriers ||
      gains.size() != kNumDataSubcarriers) {
    throw std::invalid_argument("demap_symbol_soft: need 48 points");
  }
  const Constellation& con = constellation(mod);
  const std::span<const std::size_t> slot = interleaver_for(mod).inverse();
  const std::size_t nbits = con.bits_per_point();
  const std::size_t base = out.size();
  out.resize(base + slot.size());
  std::array<double, 6> llr{};
  for (std::size_t i = 0; i < points.size(); ++i) {
    con.demap_soft(points[i], gains[i], std::span(llr).first(nbits));
    for (std::size_t b = 0; b < nbits; ++b) {
      out[base + slot[i * nbits + b]] = llr[b];
    }
  }
}

Bits demap_symbol_hard(std::span<const Cx> points, Modulation mod,
                       std::span<Cx> decided) {
  if (points.size() != kNumDataSubcarriers ||
      (!decided.empty() && decided.size() != kNumDataSubcarriers)) {
    throw std::invalid_argument("demap_symbol_hard: need 48 points");
  }
  const Constellation& con = constellation(mod);
  const std::span<const std::size_t> slot = interleaver_for(mod).inverse();
  const std::size_t nbits = con.bits_per_point();
  Bits out(slot.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t label = con.nearest(points[i]);
    for (std::size_t b = 0; b < nbits; ++b) {
      out[slot[i * nbits + b]] = static_cast<std::uint8_t>((label >> b) & 1u);
    }
    if (!decided.empty()) decided[i] = con.points()[label];
  }
  return out;
}

std::optional<Bytes> decode_data_bits(std::span<const double> soft,
                                      const Mcs& m, std::size_t psdu_len) {
  const SoftBits full = ConvolutionalCode::depuncture(soft, m.code_rate);
  const std::size_t needed_bits = 16 + 8 * psdu_len;
  if (full.size() / 2 < needed_bits) return std::nullopt;
  Bits decoded = viterbi().decode(full, /*terminated=*/false);

  Scrambler scrambler(kScramblerSeed);
  const Bits descrambled = scrambler.process(decoded);
  if (descrambled.size() < needed_bits) return std::nullopt;
  return bits_to_bytes(std::span<const std::uint8_t>(
      descrambled.data() + 16, 8 * psdu_len));
}

CxVec LegacyTransmitter::build(std::span<const std::uint8_t> psdu,
                               const Mcs& m) const {
  const Bits data_bits = build_data_bits(psdu, m);
  const Bits coded = code_data_bits(data_bits, m);
  const CxVec points = modulate_coded(coded, m);
  const std::size_t n_sym = points.size() / kNumDataSubcarriers;

  OfdmModulator modulator(preamble_waveform(), 1 + n_sym);
  modulator.add(encode_sig(SigInfo{mcs_index(m), psdu.size()}),
                /*symbol_index=*/0);
  for (std::size_t i = 0; i < n_sym; ++i) {
    modulator.add(std::span(points).subspan(i * kNumDataSubcarriers,
                                            kNumDataSubcarriers),
                  /*symbol_index=*/i + 1);
  }
  return modulator.finish();
}

Frontend receive_frontend(std::span<const Cx> waveform) {
  Frontend fe;
  if (waveform.size() < kPreambleLen) {
    // Length is checked up front so the STF/LTF estimators below always
    // see full spans; a short capture reports kTruncated instead of the
    // std::invalid_argument the estimators reserve for contract misuse.
    fe.status = DecodeStatus::kTruncated;
    return fe;
  }
  fe.waveform_ = waveform;
  std::array<Cx, kPreambleLen> corrected;
  std::copy(waveform.begin(), waveform.begin() + kPreambleLen,
            corrected.begin());
  const std::span<const Cx> preamble(corrected);

  fe.coarse_cfo_ = estimate_coarse_cfo(preamble.first(kStfLen));
  fe.coarse_phase_ = apply_cfo_correction(corrected, fe.coarse_cfo_);
  fe.fine_cfo_ = estimate_fine_cfo(preamble.subspan(kStfLen, kLtfLen));
  fe.fine_phase_ = apply_cfo_correction(corrected, fe.fine_cfo_);
  fe.cursor_ = kPreambleLen;

  fe.cfo_radians_per_sample = fe.coarse_cfo_ + fe.fine_cfo_;

  // Post-correction LTF repeat correlation: the two 64-sample FFT windows
  // are identical on the air, so |corr| / power ~ S/(S+N). Pure noise or a
  // grossly mistimed capture scores near zero — below the threshold there
  // is no preamble to estimate a channel from.
  const std::span<const Cx> ltf = preamble.subspan(kStfLen, kLtfLen);
  Cx corr{};
  double power = 0.0;
  for (std::size_t n = kLtfCpLen; n < kLtfCpLen + kFftSize; ++n) {
    corr += std::conj(ltf[n]) * ltf[n + kFftSize];
    power += 0.5 * (std::norm(ltf[n]) + std::norm(ltf[n + kFftSize]));
  }
  fe.sync_quality = power > 0.0 ? std::abs(corr) / power : 0.0;
  // Pure noise scores ~1/sqrt(64) ≈ 0.12 on this 64-lag statistic, so the
  // threshold sits well above the noise floor. 0.3 corresponds to roughly
  // -4 dB SNR — frames that weak cannot be decoded anyway.
  if (fe.sync_quality < 0.3) {
    fe.status = DecodeStatus::kSyncLost;
    return fe;
  }

  fe.h = estimate_channel_from_ltf(ltf);
  return fe;
}

CxVec Frontend::symbols(std::size_t start, std::size_t count) {
  if (start > waveform_.size() ||
      count > (waveform_.size() - start) / kSymbolLen) {
    throw std::out_of_range("Frontend::symbols: past the end of the waveform");
  }
  if (start < cursor_) {
    // The phases only step forward: replay them from sample 0.
    cursor_ = 0;
    coarse_phase_ = 0.0;
    fine_phase_ = 0.0;
  }
  double coarse = coarse_phase_;
  double fine = fine_phase_;
  const auto step = [&] {
    coarse += coarse_cfo_;
    fine += fine_cfo_;
  };
  for (std::size_t i = cursor_; i < start; ++i) step();
  CxVec bins(count * kFftSize);
  for (std::size_t s = 0; s < count; ++s) {
    // The FFT skips the cyclic prefix; the phases still step through it.
    for (std::size_t i = 0; i < kCpLen; ++i) step();
    const Cx* x = waveform_.data() + start + s * kSymbolLen + kCpLen;
    const std::span<Cx> out(bins.data() + s * kFftSize, kFftSize);
    std::copy(x, x + kFftSize, out.begin());
    coarse = apply_cfo_correction(out, coarse_cfo_, coarse);
    fine = apply_cfo_correction(out, fine_cfo_, fine);
  }
  cursor_ = start + count * kSymbolLen;
  coarse_phase_ = coarse;
  fine_phase_ = fine;
  demodulate_windows(bins);
  return bins;
}

LegacyRxResult LegacyReceiver::receive(std::span<const Cx> waveform) const {
  LegacyRxResult result;
  if (waveform.size() < kPreambleLen + kSymbolLen) {
    result.status = DecodeStatus::kTruncated;
    return result;
  }
  Frontend fe = receive_frontend(waveform);
  if (!fe.ok()) {
    result.status = fe.status;
    return result;
  }

  // SIG.
  const CxVec sig_bins = fe.symbols(fe.data_start, 1);
  const SymbolEqualization sig_eq = equalize_symbol(sig_bins, fe.h, 0);
  const auto sig = decode_sig(sig_eq.data, sig_eq.gains);
  if (!sig) {
    result.status = DecodeStatus::kSigCorrupt;
    return result;
  }
  result.sig_ok = true;
  result.sig = *sig;

  const Mcs& m = mcs(sig->mcs_index);
  const std::size_t n_sym = num_data_symbols(m, sig->length_bytes);
  const std::size_t frame_end =
      fe.data_start + kSymbolLen + n_sym * kSymbolLen;
  if (waveform.size() < frame_end) {
    result.status = DecodeStatus::kTruncated;
    return result;
  }

  SoftBits soft;
  soft.reserve(n_sym * m.n_cbps);
  const CxVec all_bins = fe.symbols(fe.data_start + kSymbolLen, n_sym);
  for (std::size_t i = 0; i < n_sym; ++i) {
    const std::span<const Cx> bins(all_bins.data() + i * kFftSize, kFftSize);
    const SymbolEqualization eq = equalize_symbol(bins, fe.h, i + 1);
    result.phase_offsets.push_back(eq.phase_offset);
    result.raw_symbol_bits.push_back(demap_symbol_hard(eq.data, m.modulation));
    demap_symbol_soft(eq.data, eq.gains, m.modulation, soft);
  }

  auto psdu = decode_data_bits(soft, m, sig->length_bytes);
  if (!psdu) {
    result.status = DecodeStatus::kFcsFail;
    return result;
  }
  result.decoded = true;
  result.psdu = std::move(*psdu);
  result.fcs_ok = check_fcs(result.psdu);
  if (!result.fcs_ok) result.status = DecodeStatus::kFcsFail;
  return result;
}

}  // namespace carpool
