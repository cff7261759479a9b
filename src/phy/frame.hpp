#pragma once

// Legacy PPDU assembly and reception: preamble + SIG + DATA. The DATA path
// helpers are shared with the Carpool transceiver, which inserts an A-HDR
// and per-subframe SIGs and injects side-channel phase offsets.

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/bits.hpp"
#include "dsp/complex_vec.hpp"
#include "phy/equalizer.hpp"
#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "phy/preamble.hpp"
#include "phy/sig.hpp"

namespace carpool {

/// Fixed scrambler seed used by both ends (a real receiver recovers the
/// seed from the SERVICE field; fixing it keeps simulations deterministic
/// without changing any error behaviour).
inline constexpr std::uint8_t kScramblerSeed = 0x5D;

/// Structured decode outcome for the reception paths. Real captures are
/// truncated, jammed, and corrupted; receivers report what went wrong
/// instead of throwing, so one bad (sub)frame never takes down a decode
/// loop (see docs/ROBUSTNESS.md).
enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kTruncated,      ///< waveform shorter than the span a field required
  kSyncLost,       ///< preamble unusable (no LTF periodicity to lock to)
  kSigCorrupt,     ///< a SIG failed parity/rate checks; cannot walk past it
  kAhdrMiss,       ///< A-HDR decoded but no Bloom match for this receiver
  kFcsFail,        ///< payload demodulated but its FCS (or Viterbi) failed
  kBadConfig,      ///< receiver configuration invalid (see config_error())
  kInternalError,  ///< unexpected exception contained by the decode path
};

[[nodiscard]] std::string_view to_string(DecodeStatus status) noexcept;

/// MAC-level FCS helpers (CRC-32 appended little-endian).
Bytes append_fcs(std::span<const std::uint8_t> body);
bool check_fcs(std::span<const std::uint8_t> frame_with_fcs);

/// --- TX data path (shared with Carpool) ---

/// SERVICE + PSDU + tail + pad, scrambled, tail bits re-zeroed; output
/// length is num_data_symbols(mcs, psdu.size()) * n_dbps.
Bits build_data_bits(std::span<const std::uint8_t> psdu, const Mcs& m);

/// Convolutional-encode (unterminated) and puncture; output length is a
/// multiple of n_cbps.
Bits code_data_bits(std::span<const std::uint8_t> data_bits, const Mcs& m);

/// Constellation points: interleave + map each n_cbps block. Returns 48
/// points per OFDM symbol, symbol s at offset s * 48.
CxVec modulate_coded(std::span<const std::uint8_t> coded, const Mcs& m);

/// --- RX data path (shared with Carpool) ---

/// Inverse of modulate_coded for one symbol: soft demap (weighted by
/// per-subcarrier gain), each value written straight to its deinterleaved
/// slot. Appends n_cbps soft values to `out`.
void demap_symbol_soft(std::span<const Cx> points,
                       std::span<const double> gains, Modulation mod,
                       SoftBits& out);

/// Hard demap + deinterleave one symbol (n_cbps bits): the bits a
/// symbol-level CRC covers. One nearest-point decision per subcarrier
/// gives its bits; when `decided` is non-empty (48 entries) it also
/// receives that point, which is the symbol re-modulated from the hard
/// bits (a Carpool data pilot's reference).
Bits demap_symbol_hard(std::span<const Cx> points, Modulation mod,
                       std::span<Cx> decided = {});

/// Viterbi-decode a soft coded stream and descramble; returns the PSDU
/// (length from SIG). Returns nullopt if the stream is too short.
std::optional<Bytes> decode_data_bits(std::span<const double> soft,
                                      const Mcs& m, std::size_t psdu_len);

/// --- Full legacy transceiver ---

class LegacyTransmitter {
 public:
  /// Build a complete PPDU waveform for one PSDU at the given MCS.
  [[nodiscard]] CxVec build(std::span<const std::uint8_t> psdu,
                            const Mcs& m) const;
};

/// Result of the shared preamble front end. It keeps a view of the
/// caller's waveform and CFO-corrects samples past the preamble only when
/// a receiver reads them, through symbols().
struct Frontend {
  CxVec h;  ///< initial channel estimate (64 bins)
  double cfo_radians_per_sample = 0.0;
  std::size_t data_start = kPreambleLen;  ///< index of the first symbol
  DecodeStatus status = DecodeStatus::kOk;
  /// Normalised correlation of the two LTF repeats (1 = textbook
  /// preamble, ~0 = noise). Diagnostic behind the kSyncLost verdict.
  double sync_quality = 0.0;

  [[nodiscard]] bool ok() const noexcept {
    return status == DecodeStatus::kOk;
  }

  /// The 64 frequency bins of each of `count` OFDM symbols starting at
  /// sample `start`, symbol s at offset s * kFftSize: bit for bit what
  /// extract_symbols gives over the waveform CFO-corrected by a coarse
  /// and then a fine pass of apply_cfo_correction over all of it, in any
  /// order of calls. Only the 64 samples of each symbol the FFT reads are
  /// derotated, by those two apply_cfo_correction calls in the FFT's
  /// buffer. The waveform given to receive_frontend must outlive the
  /// call. Throws std::out_of_range for symbols past the end.
  [[nodiscard]] CxVec symbols(std::size_t start, std::size_t count);

 private:
  friend Frontend receive_frontend(std::span<const Cx> waveform);

  std::span<const Cx> waveform_;
  double coarse_cfo_ = 0.0;  ///< radians per sample, each pass's rate
  double fine_cfo_ = 0.0;
  // Each pass's phase at sample `cursor_`: its rate added once per sample
  // from 0, the same `+=` sequence a whole-waveform pass runs.
  std::size_t cursor_ = 0;
  double coarse_phase_ = 0.0;
  double fine_phase_ = 0.0;
};

/// Run STF/LTF processing on a received waveform that starts at sample 0.
/// Only the preamble is CFO-corrected here; Frontend::symbols corrects the
/// rest on demand. Never throws on malformed input: a waveform shorter
/// than the preamble comes back as kTruncated (with empty estimates) and a
/// destroyed preamble as kSyncLost; callers check Frontend::ok() before
/// using the estimates.
Frontend receive_frontend(std::span<const Cx> waveform);

struct LegacyRxResult {
  DecodeStatus status = DecodeStatus::kOk;
  bool sig_ok = false;
  SigInfo sig;
  bool decoded = false;  ///< PSDU extracted (correctness judged by FCS)
  bool fcs_ok = false;
  Bytes psdu;
  std::vector<double> phase_offsets;   ///< measured common phase per symbol
  std::vector<Bits> raw_symbol_bits;   ///< hard coded bits per data symbol
};

class LegacyReceiver {
 public:
  /// Decode a waveform (frame assumed to start at sample 0, as the MAC
  /// simulator provides exact timing; see phy/sync.hpp for detection).
  [[nodiscard]] LegacyRxResult receive(std::span<const Cx> waveform) const;
};

}  // namespace carpool
