#include "carpool/compat.hpp"

#include "phy/sync.hpp"

namespace carpool {

FrameKind classify_waveform(std::span<const Cx> waveform) {
  if (waveform.size() < kPreambleLen + kSymbolLen) {
    return FrameKind::kUndecodable;
  }
  // A frame must announce itself with an STF; random noise occasionally
  // yields a parseable SIG, so gate on packet detection first.
  const auto sync = detect_frame(
      waveform.first(std::min(waveform.size(), kPreambleLen)));
  if (!sync || sync->frame_start > 32) return FrameKind::kUndecodable;
  Frontend fe = receive_frontend(waveform);
  if (!fe.ok()) return FrameKind::kUndecodable;

  // Hypothesis 1: legacy — the first symbol is a valid SIG.
  {
    const CxVec bins = fe.symbols(fe.data_start, 1);
    const SymbolEqualization eq = equalize_symbol(bins, fe.h, 0);
    if (decode_sig(eq.data, eq.gains).has_value()) {
      return FrameKind::kLegacy;
    }
  }

  // Hypothesis 2: Carpool — two A-HDR symbols followed by a valid SIG.
  if (waveform.size() >= fe.data_start + 3 * kSymbolLen) {
    const CxVec bins = fe.symbols(fe.data_start + 2 * kSymbolLen, 1);
    const SymbolEqualization eq = equalize_symbol(bins, fe.h, 2);
    if (decode_sig(eq.data, eq.gains).has_value()) {
      return FrameKind::kCarpool;
    }
  }
  return FrameKind::kUndecodable;
}

UniversalRxResult UniversalReceiver::receive(
    std::span<const Cx> waveform) const {
  UniversalRxResult result;
  result.kind = classify_waveform(waveform);
  switch (result.kind) {
    case FrameKind::kLegacy:
      result.legacy = legacy_rx_.receive(waveform);
      break;
    case FrameKind::kCarpool:
      result.carpool = carpool_rx_.receive(waveform);
      break;
    case FrameKind::kUndecodable:
      break;
  }
  return result;
}

}  // namespace carpool
