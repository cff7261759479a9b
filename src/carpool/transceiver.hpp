#pragma once

// The Carpool PHY transceiver (paper Sections 3-6).
//
// Frame on the air (Fig. 4):
//   [preamble][A-HDR: 2 sym][SIG_0][data_0 ...][SIG_1][data_1 ...] ...
//
// Each subframe has its own SIG (MCS + length, so receivers can skip
// subframes they do not own) and its own scrambled/coded payload. The
// phase offset side channel runs over every post-A-HDR symbol, carrying a
// symbol-level CRC; receivers use verified symbols as data pilots for
// real-time channel estimation (RTE, Sec. 5.1):
//     H~_n = (H~_{n-1} + H^_n)/2   if symbol n verified.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "carpool/ahdr.hpp"
#include "carpool/side_channel.hpp"
#include "common/mac_address.hpp"
#include "phy/frame.hpp"

namespace carpool {

/// One receiver's share of a Carpool frame.
struct SubframeSpec {
  MacAddress receiver;
  Bytes psdu;              ///< MAC data unit incl. FCS (1..4095 bytes)
  std::size_t mcs_index = 0;
};

struct CarpoolFrameConfig {
  SymbolCrcScheme crc_scheme{};        ///< side-channel scheme
  bool inject_side_channel = true;     ///< false = plain PHY (baselines)
  std::size_t bloom_hashes = 4;        ///< h (paper fixes 4 for N <= 8)
};

class CarpoolTransmitter {
 public:
  explicit CarpoolTransmitter(CarpoolFrameConfig config = {});

  /// Build the aggregate waveform. Throws std::invalid_argument if there
  /// are no subframes, more than kMaxReceivers, or any PSDU is oversized.
  [[nodiscard]] CxVec build(std::span<const SubframeSpec> subframes) const;

  /// OFDM symbol count after the preamble (A-HDR + per-subframe SIG+data).
  static std::size_t frame_symbols(std::span<const SubframeSpec> subframes);

  /// Airtime of the whole frame in seconds.
  static double frame_airtime(std::span<const SubframeSpec> subframes);

  [[nodiscard]] const CarpoolFrameConfig& config() const noexcept {
    return config_;
  }

 private:
  CarpoolFrameConfig config_;
};

struct CarpoolRxConfig {
  MacAddress self;
  bool use_rte = true;             ///< update H from verified data pilots
  bool side_channel_present = true;///< frame carries injected offsets
  SymbolCrcScheme crc_scheme{};
  std::size_t bloom_hashes = 4;
  /// Data-pilot sanity gate: a CRC-verified symbol is only used as a data
  /// pilot when its error vector magnitude against the re-modulated points
  /// is below this threshold. Precaution against CRC-2 false accepts
  /// (~25% of corrupted symbols) contaminating the channel estimate;
  /// measured effect in operational regimes is neutral (see
  /// bench_ablation). 0 disables the gate.
  double pilot_evm_gate = 0.35;
  /// Weight of the new data-pilot estimate in the Eq. (3) update
  /// H~ = (1-a) H~ + a H^. The paper uses a = 0.5; the ablation bench
  /// sweeps it.
  double rte_alpha = 0.5;

  /// RTE poisoning guard (docs/ROBUSTNESS.md). After this many consecutive
  /// failed CRC groups the estimate rolls back to the snapshot taken
  /// before the last verified group's updates (a burst that defeats the
  /// side-channel CRC right after a false accept is the poisoning vector)
  /// and freezes until a group verifies again. 0 disables the guard.
  std::size_t rte_freeze_after = 3;
  /// Per-bin update bound: a data-pilot estimate that moves a bin by more
  /// than this factor of its current magnitude is discarded (counter
  /// `phy.rte_delta_clamped`). Bounds the damage of any single false
  /// accept. 0 disables the bound.
  double rte_max_delta = 4.0;
};

/// Decode outcome of one matched subframe.
struct DecodedSubframe {
  std::size_t index = 0;
  SigInfo sig;
  /// kOk, kTruncated (frame ended mid-subframe; partial decode attempted)
  /// or kFcsFail. A bad subframe never aborts its siblings: every matched
  /// subframe the walk reaches gets its own entry and verdict.
  DecodeStatus status = DecodeStatus::kOk;
  bool decoded = false;  ///< PSDU extracted
  bool fcs_ok = false;
  Bytes psdu;
  std::vector<Bits> raw_symbol_bits;   ///< hard coded bits per data symbol
  std::vector<bool> group_verified;    ///< side-channel verdicts (per group)
  std::vector<unsigned> side_bits;     ///< decoded side-channel bits per
                                       ///< symbol (SIG first, then data)
  std::size_t rte_updates = 0;         ///< symbols that served as data pilots
};

struct CarpoolRxResult {
  /// Frame-level verdict. kOk even when individual subframes failed their
  /// FCS — per-subframe outcomes live in DecodedSubframe::status; this
  /// field reports conditions that stopped the walk itself (kTruncated,
  /// kSyncLost, kSigCorrupt, kAhdrMiss, kBadConfig, kInternalError).
  DecodeStatus status = DecodeStatus::kOk;
  double sync_quality = 0.0;             ///< from the preamble front end
  bool ahdr_decoded = false;
  std::vector<std::size_t> matched;      ///< Bloom-matched subframe indices
  std::vector<DecodedSubframe> subframes;///< decodes of reachable matches
  std::size_t subframes_walked = 0;      ///< SIGs read while scanning
  std::size_t symbols_full_decoded = 0;  ///< payload symbols demodulated
  std::size_t symbols_pilot_only = 0;    ///< skipped (pilot tracking only)
  std::size_t rte_freezes = 0;           ///< poisoning-guard freezes
  std::size_t rte_rollbacks = 0;         ///< estimate rollbacks performed
  /// RMS magnitude of the running channel estimate when the walk finished
  /// (0 when the front end never produced an estimate). A bounded, finite
  /// value is a cross-layer invariant the chaos soak checks: RTE updates
  /// must never drive the estimate to NaN/Inf or let it blow up.
  double rte_estimate_norm = 0.0;

  [[nodiscard]] bool ok() const noexcept {
    return status == DecodeStatus::kOk;
  }
};

class CarpoolReceiver {
 public:
  /// Never throws: an invalid configuration (e.g. a zero-symbol CRC group)
  /// is recorded and every receive() reports kBadConfig. Callers that
  /// build configs from untrusted input check config_error() up front.
  explicit CarpoolReceiver(CarpoolRxConfig config) noexcept;

  /// Decode a received Carpool waveform starting at sample 0. Never
  /// throws: malformed input maps to CarpoolRxResult::status and anything
  /// unexpected is contained as kInternalError (counter
  /// `phy.decode_exceptions`).
  [[nodiscard]] CarpoolRxResult receive(std::span<const Cx> waveform) const;

  [[nodiscard]] const CarpoolRxConfig& config() const noexcept {
    return config_;
  }

  /// Empty when the configuration is valid; otherwise a description of
  /// what is wrong (receive() then reports kBadConfig).
  [[nodiscard]] std::string_view config_error() const noexcept {
    return config_error_;
  }

 private:
  [[nodiscard]] CarpoolRxResult receive_impl(
      std::span<const Cx> waveform) const;

  CarpoolRxConfig config_;
  std::string_view config_error_;  ///< static-duration message or empty
};

/// The RTE update bound's verdict for one bin (CarpoolRxConfig::
/// rte_max_delta): whether `estimate` lies further than `max_delta` *
/// max(|h|, 1e-3) from `h`. Returns exactly what that std::abs expression
/// returns, but decides on squared magnitudes (no hypot) whenever they
/// are far enough apart that rounding cannot flip the verdict.
[[nodiscard]] bool rte_delta_exceeds(Cx estimate, Cx h,
                                     double max_delta) noexcept;

/// The side-channel bits a transmitter injects for one subframe (SIG
/// symbol first, then each data symbol), given the scheme. Used by tests
/// and benches to measure side-channel BER against the decoded bits.
std::vector<unsigned> expected_side_bits(const SubframeSpec& spec,
                                         const SymbolCrcScheme& scheme);

}  // namespace carpool
