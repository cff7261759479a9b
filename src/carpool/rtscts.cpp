#include "carpool/rtscts.hpp"

#include <stdexcept>

namespace carpool {
namespace {

/// Serialize the RTS body (address + duration), FCS appended by caller.
Bytes rts_body(const RtsInfo& info) {
  Bytes body;
  const auto octets = info.transmitter.octets();
  body.insert(body.end(), octets.begin(), octets.end());
  for (int i = 0; i < 4; ++i) {
    body.push_back(
        static_cast<std::uint8_t>((info.duration_us >> (8 * i)) & 0xFFu));
  }
  return body;
}

std::optional<RtsInfo> parse_rts_body(std::span<const std::uint8_t> psdu) {
  if (psdu.size() < 10 + 4 || !check_fcs(psdu)) return std::nullopt;
  RtsInfo info;
  std::array<std::uint8_t, 6> octets{};
  for (int i = 0; i < 6; ++i) octets[static_cast<std::size_t>(i)] = psdu[i];
  info.transmitter = MacAddress(octets);
  info.duration_us = 0;
  for (int i = 0; i < 4; ++i) {
    info.duration_us |= static_cast<std::uint32_t>(psdu[6 + i]) << (8 * i);
  }
  return info;
}

}  // namespace

CxVec build_carpool_rts(std::span<const SubframeSpec> data_subframes,
                        const RtsInfo& info, std::size_t bloom_hashes) {
  if (data_subframes.empty()) {
    throw std::invalid_argument("build_carpool_rts: no data subframes");
  }
  // One control subframe at the basic rate, carrying the RTS body; the
  // *Bloom filter* names the data frame's receivers, so we build a frame
  // whose A-HDR uses their MAC addresses but whose single subframe is the
  // control body addressed to everyone (index beyond receivers is never
  // matched, so we reuse subframe 0's slot for the body and receivers
  // locate it by convention: an RTS has exactly one subframe).
  AggregationBloomFilter bloom(bloom_hashes);
  for (std::size_t i = 0; i < data_subframes.size(); ++i) {
    bloom.insert(data_subframes[i].receiver, i);
  }

  const Bytes psdu = append_fcs(rts_body(info));
  const Mcs& m = basic_mcs();
  const Bits coded = code_data_bits(build_data_bits(psdu, m), m);
  const CxVec points = modulate_coded(coded, m);
  const std::size_t n_sym = points.size() / kNumDataSubcarriers;

  OfdmModulator modulator(preamble_waveform(), kAhdrSymbols + 1 + n_sym);
  std::size_t sym_idx = 0;
  for (const CxVec& ahdr : encode_ahdr(bloom)) modulator.add(ahdr, sym_idx++);
  modulator.add(encode_sig(SigInfo{0, psdu.size()}), sym_idx++);
  for (std::size_t i = 0; i < n_sym; ++i) {
    modulator.add(std::span(points).subspan(i * kNumDataSubcarriers,
                                            kNumDataSubcarriers),
                  sym_idx++);
  }
  return modulator.finish();
}

CarpoolRtsResult receive_carpool_rts(std::span<const Cx> waveform,
                                     const MacAddress& self,
                                     std::size_t bloom_hashes) {
  CarpoolRtsResult result;
  if (waveform.size() < kPreambleLen + 3 * kSymbolLen) return result;
  Frontend fe = receive_frontend(waveform);
  if (!fe.ok()) return result;  // jammed preamble: no NAV, no slots

  std::size_t pos = fe.data_start;
  std::size_t sym_idx = 0;
  const CxVec ahdr_bins = fe.symbols(pos, kAhdrSymbols);
  const std::span<const Cx> bins0(ahdr_bins.data(), kFftSize);
  const std::span<const Cx> bins1(ahdr_bins.data() + kFftSize, kFftSize);
  const SymbolEqualization eq0 = equalize_symbol(bins0, fe.h, sym_idx++);
  const SymbolEqualization eq1 = equalize_symbol(bins1, fe.h, sym_idx++);
  pos += kAhdrSymbols * kSymbolLen;
  const Bits ahdr = decode_ahdr(eq0.data, eq0.gains, eq1.data, eq1.gains);
  const auto bloom = AggregationBloomFilter::from_bits(ahdr, bloom_hashes);
  result.my_slots = bloom.matched_subframes(self);

  // Control body (always present; every station may read it to set NAV).
  const CxVec sig_bins = fe.symbols(pos, 1);
  const SymbolEqualization sig_eq = equalize_symbol(sig_bins, fe.h, sym_idx);
  const auto sig = decode_sig(sig_eq.data, sig_eq.gains);
  if (!sig || sig->mcs_index != 0) return result;
  const Mcs& m = basic_mcs();
  const std::size_t n_sym = num_data_symbols(m, sig->length_bytes);
  if (pos + (1 + n_sym) * kSymbolLen > waveform.size()) return result;

  SoftBits soft;
  const CxVec body_bins = fe.symbols(pos + kSymbolLen, n_sym);
  for (std::size_t j = 0; j < n_sym; ++j) {
    const std::span<const Cx> bins(body_bins.data() + j * kFftSize, kFftSize);
    const SymbolEqualization eq = equalize_symbol(bins, fe.h, sym_idx + 1 + j);
    demap_symbol_soft(eq.data, eq.gains, m.modulation, soft);
  }
  const auto psdu = decode_data_bits(soft, m, sig->length_bytes);
  if (!psdu) return result;
  const auto info = parse_rts_body(*psdu);
  if (!info) return result;
  result.valid = true;
  result.info = *info;
  return result;
}

CxVec build_cts(const MacAddress& receiver, std::uint32_t nav_us) {
  Bytes body;
  const auto octets = receiver.octets();
  body.insert(body.end(), octets.begin(), octets.end());
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<std::uint8_t>((nav_us >> (8 * i)) & 0xFFu));
  }
  const LegacyTransmitter tx;
  return tx.build(append_fcs(body), basic_mcs());
}

CtsResult receive_cts(std::span<const Cx> waveform) {
  CtsResult result;
  const LegacyReceiver rx;
  const LegacyRxResult r = rx.receive(waveform);
  if (!r.fcs_ok || r.psdu.size() < 14) return result;
  std::array<std::uint8_t, 6> octets{};
  for (int i = 0; i < 6; ++i) {
    octets[static_cast<std::size_t>(i)] = r.psdu[static_cast<std::size_t>(i)];
  }
  result.receiver = MacAddress(octets);
  result.nav_us = 0;
  for (int i = 0; i < 4; ++i) {
    result.nav_us |= static_cast<std::uint32_t>(r.psdu[6 + i]) << (8 * i);
  }
  result.valid = true;
  return result;
}

}  // namespace carpool
