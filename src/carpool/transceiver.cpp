#include "carpool/transceiver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/timer.hpp"
#include "phy/equalizer.hpp"

namespace carpool {
namespace {

void validate_subframes(std::span<const SubframeSpec> subframes) {
  if (subframes.empty()) {
    throw std::invalid_argument("Carpool frame needs at least one subframe");
  }
  if (subframes.size() > kMaxReceivers) {
    throw std::invalid_argument("Carpool frame exceeds kMaxReceivers");
  }
  for (const SubframeSpec& s : subframes) {
    if (s.psdu.empty() || s.psdu.size() > kMaxSigLength) {
      throw std::invalid_argument("subframe PSDU size out of range");
    }
    (void)mcs(s.mcs_index);  // throws on bad index
  }
}

/// A verified symbol buffered until its CRC group completes.
struct PendingPilot {
  std::array<Cx, kFftSize> bins;  // raw frequency bins
  std::array<Cx, kNumDataSubcarriers> points;  // re-modulated hard decisions
  double phase;     // measured common phase
  std::size_t symbol_index;
  double evm;       // equalized points vs re-modulated reference
};

/// Eq. (3): fold a data-pilot estimate into the running channel estimate
/// (alpha = 0.5 reproduces the paper's 50/50 average). `max_delta` bounds
/// the per-bin move (relative to the current magnitude): a CRC false
/// accept can hand us an arbitrarily wrong estimate, and an unbounded
/// update would poison every later symbol's equalization. Returns the
/// number of bins skipped by the bound.
std::size_t rte_update(CxVec& h, const PendingPilot& pilot, double alpha,
                       double max_delta) {
  const std::array<Cx, kFftSize> ref =
      reference_bins(pilot.points, pilot.symbol_index, 0.0);
  const Cx derotate = cx_exp(-pilot.phase);
  std::size_t clamped = 0;
  auto update_bin = [&](std::size_t bin) {
    if (ref[bin] == Cx{}) return;
    const Cx estimate = pilot.bins[bin] * derotate / ref[bin];
    if (max_delta > 0.0 && rte_delta_exceeds(estimate, h[bin], max_delta)) {
      ++clamped;
      return;
    }
    h[bin] = (1.0 - alpha) * h[bin] + alpha * estimate;
  };
  for (const std::size_t bin : data_bins()) update_bin(bin);
  for (const std::size_t bin : pilot_bins()) update_bin(bin);
  return clamped;
}

}  // namespace

bool rte_delta_exceeds(Cx estimate, Cx h, double max_delta) noexcept {
  // Squared magnitudes carry a few ulps (~1e-15) of rounding, as do the
  // two std::abs values, so wherever the squares differ by more than a
  // relative 1e-9 both forms give the same verdict. The range bounds keep
  // underflow and overflow out of the squares, and NaN fails them; a
  // non-positive bound would lose its sign in the square.
  const double lhs = std::norm(estimate - h);
  const double rhs = max_delta * max_delta * std::max(std::norm(h), 1e-6);
  constexpr double kLo = 1e-280;
  constexpr double kHi = 1e280;
  if (max_delta > 0.0 && lhs >= kLo && lhs <= kHi && rhs >= kLo &&
      rhs <= kHi && std::abs(lhs - rhs) > 1e-9 * std::max(lhs, rhs)) {
    return lhs > rhs;
  }
  return std::abs(estimate - h) > max_delta * std::max(std::abs(h), 1e-3);
}

CarpoolTransmitter::CarpoolTransmitter(CarpoolFrameConfig config)
    : config_(config) {}

std::size_t CarpoolTransmitter::frame_symbols(
    std::span<const SubframeSpec> subframes) {
  std::size_t symbols = kAhdrSymbols;
  for (const SubframeSpec& s : subframes) {
    symbols += 1 + num_data_symbols(mcs(s.mcs_index), s.psdu.size());
  }
  return symbols;
}

double CarpoolTransmitter::frame_airtime(
    std::span<const SubframeSpec> subframes) {
  const double preamble =
      static_cast<double>(kPreambleLen) / kSampleRate;
  return preamble +
         static_cast<double>(frame_symbols(subframes)) * kSymbolDuration;
}

CxVec CarpoolTransmitter::build(std::span<const SubframeSpec> subframes) const {
  validate_subframes(subframes);

  AggregationBloomFilter bloom(config_.bloom_hashes);
  for (std::size_t i = 0; i < subframes.size(); ++i) {
    bloom.insert(subframes[i].receiver, i);
  }

  OfdmModulator modulator(preamble_waveform(), frame_symbols(subframes));
  std::size_t sym_idx = 0;
  for (const CxVec& points : encode_ahdr(bloom)) {
    modulator.add(points, sym_idx++);
  }

  double cumulative = 0.0;
  for (const SubframeSpec& spec : subframes) {
    const Mcs& m = mcs(spec.mcs_index);
    const SigInfo sig{spec.mcs_index, spec.psdu.size()};

    const Bits data_bits = build_data_bits(spec.psdu, m);
    const Bits coded = code_data_bits(data_bits, m);

    // Per-symbol coded-bit blocks for the side channel: the SIG's block
    // followed by each data symbol's n_cbps slice.
    std::vector<Bits> blocks;
    blocks.push_back(sig_coded_bits(sig));
    for (std::size_t off = 0; off < coded.size(); off += m.n_cbps) {
      blocks.emplace_back(coded.begin() + static_cast<long>(off),
                          coded.begin() + static_cast<long>(off + m.n_cbps));
    }

    std::vector<double> offsets(blocks.size(), 0.0);
    if (config_.inject_side_channel) {
      offsets = encode_side_channel(blocks, config_.crc_scheme, cumulative);
      cumulative = offsets.back();
    }

    modulator.add(encode_sig(sig), sym_idx++, offsets[0]);
    const CxVec points = modulate_coded(coded, m);
    for (std::size_t j = 1; j < blocks.size(); ++j) {
      modulator.add(std::span(points).subspan((j - 1) * kNumDataSubcarriers,
                                              kNumDataSubcarriers),
                    sym_idx++, offsets[j]);
    }
  }
  return modulator.finish();
}

CarpoolReceiver::CarpoolReceiver(CarpoolRxConfig config) noexcept
    : config_(config) {
  // Config problems are diagnosed here (once) instead of throwing: the
  // receiver stays constructible so callers can surface config_error()
  // through their own error path, and receive() reports kBadConfig.
  if (config_.crc_scheme.group_symbols == 0) {
    config_error_ = "empty side-channel CRC group";
  } else if (find_crc_for_width(config_.crc_scheme.crc_width()) == nullptr) {
    config_error_ = "no CRC engine for the side-channel group width";
  } else if (config_.bloom_hashes == 0 ||
             config_.bloom_hashes > kAhdrBits) {
    config_error_ = "Bloom hash count out of range";
  } else if (config_.rte_alpha < 0.0 || config_.rte_alpha > 1.0) {
    config_error_ = "rte_alpha outside [0, 1]";
  }
}

CarpoolRxResult CarpoolReceiver::receive(std::span<const Cx> waveform) const {
  // Frame-decode span: wall-clock interval of the whole receive attempt,
  // carrying the final DecodeStatus. Child spans (per-subframe decodes,
  // OBS_TIMED_SPAN leaf stages like fec.viterbi_decode) nest underneath.
  obs::Span frame_span("carpool.rx_frame");
  // Backstop: no exception may escape a decode. Anything the structured
  // paths missed is contained here and reported as kInternalError.
  try {
    CarpoolRxResult result = receive_impl(waveform);
    frame_span.outcome(to_string(result.status));
    return result;
  } catch (...) {
    obs::Registry::current().counter("phy.decode_exceptions").add();
    CarpoolRxResult result;
    result.status = DecodeStatus::kInternalError;
    frame_span.outcome(to_string(result.status));
    return result;
  }
}

CarpoolRxResult CarpoolReceiver::receive_impl(
    std::span<const Cx> waveform) const {
  CarpoolRxResult result;
  if (!config_error_.empty()) {
    result.status = DecodeStatus::kBadConfig;
    return result;
  }
  if (waveform.size() < kPreambleLen + kAhdrSymbols * kSymbolLen) {
    result.status = DecodeStatus::kTruncated;
    return result;
  }
  Frontend fe = receive_frontend(waveform);
  result.sync_quality = fe.sync_quality;
  if (!fe.ok()) {
    result.status = fe.status;
    return result;
  }
  CxVec h = fe.h;  // running channel estimate H~

  // Poisoning guard state (spans subframes; see CarpoolRxConfig).
  CxVec h_last_good = h;       // estimate before the last verified group
  std::size_t failed_groups = 0;  // consecutive failed CRC groups
  bool rte_frozen = false;

  std::size_t pos = fe.data_start;
  std::size_t sym_idx = 0;

  // A-HDR (two BPSK symbols, never phase-injected).
  const CxVec ahdr_bins = fe.symbols(pos, kAhdrSymbols);
  const std::span<const Cx> bins0(ahdr_bins.data(), kFftSize);
  const std::span<const Cx> bins1(ahdr_bins.data() + kFftSize, kFftSize);
  const SymbolEqualization eq0 = equalize_symbol(bins0, h, sym_idx++);
  const SymbolEqualization eq1 = equalize_symbol(bins1, h, sym_idx++);
  pos += kAhdrSymbols * kSymbolLen;

  const Bits ahdr_bits =
      decode_ahdr(eq0.data, eq0.gains, eq1.data, eq1.gains);
  result.ahdr_decoded = true;
  const auto bloom =
      AggregationBloomFilter::from_bits(ahdr_bits, config_.bloom_hashes);
  result.matched = bloom.matched_subframes(config_.self);
  if (result.matched.empty()) {
    result.status = DecodeStatus::kAhdrMiss;
    return result;  // drop without decoding
  }
  const std::size_t last_wanted = result.matched.back();

  double prev_phase = eq1.phase_offset;
  std::size_t k = 0;  // subframe index while walking

  while (k <= last_wanted) {
    if (pos + kSymbolLen > waveform.size()) {
      // Frame ended before this subframe's SIG. Subframes already decoded
      // stay in `result`; only the walk past this point is lost.
      result.status = DecodeStatus::kTruncated;
      break;
    }
    const CxVec sig_bins = fe.symbols(pos, 1);
    const SymbolEqualization sig_eq = equalize_symbol(sig_bins, h, sym_idx);
    const auto sig = decode_sig(sig_eq.data, sig_eq.gains);
    if (!sig) {
      // A corrupted SIG breaks the length chain: later subframes cannot
      // be located, but earlier decodes survive untouched.
      result.status = DecodeStatus::kSigCorrupt;
      obs::Registry::current().counter("phy.sig_failures").add();
      break;
    }
    ++result.subframes_walked;

    const Mcs& m = mcs(sig->mcs_index);
    const std::size_t n_sym = num_data_symbols(m, sig->length_bytes);
    const bool truncated = pos + (1 + n_sym) * kSymbolLen > waveform.size();
    // Data symbols actually present when the capture ends mid-subframe.
    const std::size_t n_avail =
        truncated ? (waveform.size() - pos) / kSymbolLen - 1 : n_sym;

    const bool mine = std::find(result.matched.begin(), result.matched.end(),
                                k) != result.matched.end();
    if (truncated && !mine) {
      // Nothing of ours is reachable past the cut.
      result.status = DecodeStatus::kTruncated;
      break;
    }
    if (!mine) {
      // Skip: track the common phase only (cheap, keeps the side-channel
      // reference chain alive and mirrors the paper's sampling-without-
      // decoding energy optimisation). The tracked phase is the last data
      // symbol's pilot phase (n_sym >= 1), so only that symbol is read.
      const CxVec last_bins = fe.symbols(pos + n_sym * kSymbolLen, 1);
      prev_phase = equalize_symbol(last_bins, h, sym_idx + n_sym).phase_offset;
      result.symbols_pilot_only += 1 + n_sym;
      pos += (1 + n_sym) * kSymbolLen;
      sym_idx += 1 + n_sym;
      ++k;
      continue;
    }

    // Decode this subframe.
    obs::Span sub_span("carpool.rx_subframe");
    sub_span.ids({.subframe = static_cast<std::int64_t>(k)});
    DecodedSubframe sub;
    sub.index = k;
    sub.sig = *sig;

    SideChannelDecoder side(config_.crc_scheme);
    side.set_reference_phase(prev_phase);
    std::vector<PendingPilot> pending;

    auto handle_side = [&](const SideChannelDecoder::SymbolOutcome& outcome) {
      if (!outcome.group_verified.has_value()) return;
      sub.group_verified.push_back(*outcome.group_verified);
      if (!*outcome.group_verified) {
        ++failed_groups;
        if (config_.use_rte && config_.rte_freeze_after > 0 &&
            !rte_frozen && failed_groups >= config_.rte_freeze_after) {
          // A failure run this long often starts with a false-accepted
          // group (CRC-2 passes ~25% of corrupted symbols) whose updates
          // poisoned H~ — undo the last applied group and stop touching
          // the estimate until a group verifies again.
          h = h_last_good;
          rte_frozen = true;
          ++result.rte_freezes;
          ++result.rte_rollbacks;
          obs::Registry& reg = obs::Registry::current();
          reg.counter("phy.rte_freeze").add();
          reg.counter("phy.rte_rollback").add();
        }
        pending.clear();
        return;
      }
      failed_groups = 0;
      rte_frozen = false;  // a verified group re-arms the estimator
      if (config_.use_rte) {
        // Snapshot BEFORE applying: if the next rte_freeze_after groups
        // all fail, this group is the rollback suspect.
        h_last_good = h;
        std::size_t applied = 0;
        std::size_t clamped = 0;
        for (const PendingPilot& pilot : pending) {
          if (config_.pilot_evm_gate > 0.0 &&
              pilot.evm > config_.pilot_evm_gate) {
            continue;  // likely a CRC false accept; do not touch H~
          }
          clamped +=
              rte_update(h, pilot, config_.rte_alpha, config_.rte_max_delta);
          ++sub.rte_updates;
          ++applied;
        }
        if (applied > 0) {
          obs::Registry::current().counter("phy.rte_updates").add(applied);
        }
        if (clamped > 0) {
          obs::Registry::current()
              .counter("phy.rte_delta_clamped")
              .add(clamped);
        }
      }
      pending.clear();
    };

    // A symbol entering the side channel: its hard bits feed the CRC group
    // and the points they decide become its data-pilot reference.
    auto verify_symbol = [&](std::span<const Cx> bins,
                             const SymbolEqualization& eq,
                             std::size_t symbol_index, Modulation mod) {
      PendingPilot& pilot = pending.emplace_back();
      Bits hard = demap_symbol_hard(eq.data, mod, pilot.points);
      std::copy(bins.begin(), bins.end(), pilot.bins.begin());
      pilot.phase = eq.phase_offset;
      pilot.symbol_index = symbol_index;
      pilot.evm = evm(eq.data, pilot.points);
      const auto outcome = side.next_symbol(eq.phase_offset, hard);
      sub.side_bits.push_back(outcome.side_bits);
      handle_side(outcome);  // may clear `pending`
      return hard;
    };

    if (config_.side_channel_present) {
      pending.reserve(config_.crc_scheme.group_symbols);
      verify_symbol(sig_bins, sig_eq, sym_idx, Modulation::kBpsk);
    }
    prev_phase = sig_eq.phase_offset;

    SoftBits soft;
    soft.reserve(n_avail * m.n_cbps);
    const CxVec sub_bins = fe.symbols(pos + kSymbolLen, n_avail);
    for (std::size_t j = 0; j < n_avail; ++j) {
      const std::span<const Cx> bins(sub_bins.data() + j * kFftSize,
                                     kFftSize);
      const SymbolEqualization eq = equalize_symbol(bins, h, sym_idx + 1 + j);
      sub.raw_symbol_bits.push_back(
          config_.side_channel_present
              ? verify_symbol(bins, eq, sym_idx + 1 + j, m.modulation)
              : demap_symbol_hard(eq.data, m.modulation));
      demap_symbol_soft(eq.data, eq.gains, m.modulation, soft);
      prev_phase = eq.phase_offset;
    }

    // A truncated subframe is still worth the attempt: short PSDUs can
    // survive losing tail pad symbols, and a partial decode feeds the
    // retransmission decision either way.
    auto psdu = decode_data_bits(soft, m, sig->length_bytes);
    if (psdu) {
      sub.decoded = true;
      sub.psdu = std::move(*psdu);
      sub.fcs_ok = check_fcs(sub.psdu);
    }
    sub.status = truncated ? DecodeStatus::kTruncated
                 : sub.fcs_ok ? DecodeStatus::kOk
                              : DecodeStatus::kFcsFail;
    sub_span.outcome(to_string(sub.status));
    obs::Registry& reg = obs::Registry::current();
    reg.counter("phy.subframes_decoded").add();
    obs::Counter& fcs_failures = reg.counter("phy.fcs_failures");
    if (!sub.fcs_ok) fcs_failures.add();
    result.symbols_full_decoded += 1 + n_avail;
    result.subframes.push_back(std::move(sub));
    if (truncated) {
      result.status = DecodeStatus::kTruncated;
      break;
    }

    pos += (1 + n_sym) * kSymbolLen;
    sym_idx += 1 + n_sym;
    ++k;
  }
  if (!h.empty()) {
    double sum_sq = 0.0;
    for (const Cx& bin : h) sum_sq += std::norm(bin);
    result.rte_estimate_norm =
        std::sqrt(sum_sq / static_cast<double>(h.size()));
  }
  return result;
}

std::vector<unsigned> expected_side_bits(const SubframeSpec& spec,
                                         const SymbolCrcScheme& scheme) {
  const Mcs& m = mcs(spec.mcs_index);
  const SigInfo sig{spec.mcs_index, spec.psdu.size()};
  const Bits coded = code_data_bits(build_data_bits(spec.psdu, m), m);

  std::vector<Bits> blocks;
  blocks.push_back(sig_coded_bits(sig));
  for (std::size_t off = 0; off < coded.size(); off += m.n_cbps) {
    blocks.emplace_back(coded.begin() + static_cast<long>(off),
                        coded.begin() + static_cast<long>(off + m.n_cbps));
  }

  const std::size_t bits_per_sym = side_bits_per_symbol(scheme.mod);
  const BitCrc& crc = crc_for_width(scheme.crc_width());
  std::vector<unsigned> out;
  out.reserve(blocks.size());
  for (std::size_t g = 0; g < blocks.size(); g += scheme.group_symbols) {
    Bits group;
    const std::size_t end =
        std::min(g + scheme.group_symbols, blocks.size());
    for (std::size_t s = g; s < end; ++s) {
      group.insert(group.end(), blocks[s].begin(), blocks[s].end());
    }
    const std::uint16_t checksum = crc.compute(group);
    for (std::size_t s = g; s < end; ++s) {
      const std::size_t pos = (s - g) * bits_per_sym;
      out.push_back(static_cast<unsigned>(checksum >> pos) &
                    ((1u << bits_per_sym) - 1u));
    }
  }
  return out;
}

}  // namespace carpool
