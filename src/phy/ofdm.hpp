#pragma once

// OFDM symbol construction for the 20 MHz 802.11a/g PHY: 64-point FFT,
// 48 data subcarriers, 4 pilot subcarriers at {-21,-7,+7,+21}, 16-sample
// cyclic prefix (symbol = 80 samples = 4 us at 20 Msps).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/complex_vec.hpp"

namespace carpool {

inline constexpr std::size_t kFftSize = 64;
inline constexpr std::size_t kCpLen = 16;
inline constexpr std::size_t kSymbolLen = kFftSize + kCpLen;  // 80
inline constexpr std::size_t kNumDataSubcarriers = 48;
inline constexpr std::size_t kNumPilots = 4;
inline constexpr double kSymbolDuration = 4e-6;  // seconds
inline constexpr double kSampleRate = 20e6;

/// FFT bin indices of the 48 data subcarriers, in transmit order
/// (subcarrier -26 first, +26 last, skipping DC and pilots).
std::span<const std::size_t> data_bins() noexcept;

/// FFT bin indices of the pilot subcarriers {-21,-7,+7,+21}.
std::span<const std::size_t> pilot_bins() noexcept;

/// Base pilot values {+1,+1,+1,-1} before the polarity sequence.
std::span<const double> pilot_base() noexcept;

/// Pilot polarity p_n (127-periodic sequence of +-1, Clause 17.3.5.9).
/// Index 0 is used by the SIG symbol.
double pilot_polarity(std::size_t symbol_index) noexcept;

/// Modulates a frame's OFDM symbols into one waveform. Each symbol is
/// queued as its 48 data points, symbol index and side-channel phase; a
/// full group is inverse-transformed with one dsp::fft_batch sweep and
/// written, cyclic prefix first, into a waveform reserved at its final
/// length. The output is bit for bit what a per-symbol IFFT gives.
class OfdmModulator {
 public:
  /// Symbols per IFFT sweep: a multiple of 8, so every SIMD tier fills
  /// its lanes.
  static constexpr std::size_t kGroup = 32;

  /// Start a waveform with `head` (a preamble, or nothing) and room for
  /// `symbols` OFDM symbols after it.
  OfdmModulator(std::span<const Cx> head, std::size_t symbols);

  /// Queue one symbol.
  ///  - `data`: 48 complex points mapped onto the data subcarriers
  ///  - `symbol_index`: selects pilot polarity
  ///  - `phase_offset`: extra rotation applied to *all* data and pilot
  ///    subcarriers — the Carpool side-channel injection (0 for legacy)
  void add(std::span<const Cx> data, std::size_t symbol_index,
           double phase_offset = 0.0);

  /// Modulate whatever is still queued and hand over the waveform.
  [[nodiscard]] CxVec finish();

 private:
  struct Queued {
    std::array<Cx, kNumDataSubcarriers> data;
    std::size_t symbol_index;
    double phase_offset;
  };

  void flush();

  CxVec wave_;
  std::vector<Queued> queue_;
  CxVec bins_;  ///< one group's 64-point transforms, back to back
};

/// Build one OFDM symbol (80 time samples): the one-symbol case of
/// OfdmModulator, same arguments as OfdmModulator::add.
CxVec assemble_symbol(std::span<const Cx> data, std::size_t symbol_index,
                      double phase_offset = 0.0);

/// Undo the CP and FFT: 80 time samples -> 64 frequency bins (normalised
/// so an ideal channel returns the transmitted points). Receivers read
/// through Frontend::symbols; this is the one-symbol form tests use.
CxVec extract_symbol(std::span<const Cx> samples);

/// Batched extract_symbol over `count` back-to-back 80-sample symbols
/// (samples must hold at least count * kSymbolLen entries): returns
/// count * kFftSize bins, symbol s at offset s * kFftSize. One
/// dsp::fft_batch sweep — the SIMD tiers carry one symbol per vector
/// lane — with bit-identical bins to per-symbol extraction. Kept as the
/// reference the FrontendWindow tests compare Frontend::symbols against.
CxVec extract_symbols(std::span<const Cx> samples, std::size_t count);

/// The transform half of extract_symbols: turns whole 64-sample FFT
/// windows, back to back, into their normalised bins in place.
void demodulate_windows(std::span<Cx> windows);

/// Gather the data subcarriers (48) out of 64 frequency bins.
CxVec gather_data(std::span<const Cx> bins);

/// Gather the pilot subcarriers (4) out of 64 frequency bins.
CxVec gather_pilots(std::span<const Cx> bins);

}  // namespace carpool
