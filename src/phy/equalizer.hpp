#pragma once

// Per-symbol equalisation and pilot phase tracking.
//
// The receiver divides each subcarrier by the channel estimate (zero
// forcing), then measures the residual *common* phase of the symbol from
// the four pilot subcarriers and derotates the data subcarriers by it.
// This common phase is the sum of residual-CFO drift and any phase the
// transmitter injected — which is exactly the observable the Carpool side
// channel modulates (paper Sec. 5.2).

#include <array>
#include <span>

#include "dsp/complex_vec.hpp"
#include "phy/ofdm.hpp"

namespace carpool {

struct SymbolEqualization {
  /// Equalized, phase-compensated points.
  std::array<Cx, kNumDataSubcarriers> data{};
  /// |H_k|^2 per data subcarrier (soft weights).
  std::array<double, kNumDataSubcarriers> gains{};
  double phase_offset = 0.0;  ///< measured common phase (radians)
  double pilot_quality = 0.0; ///< magnitude of the pilot correlation (0..1)
};

/// Equalize one OFDM symbol.
///  - `bins`: 64 frequency bins from extract_symbol()
///  - `h`: channel estimate on the 64-bin grid
///  - `symbol_index`: selects the expected pilot polarity
SymbolEqualization equalize_symbol(std::span<const Cx> bins,
                                   std::span<const Cx> h,
                                   std::size_t symbol_index);

/// Reconstruct the 64-bin frequency-domain view a transmitter would have
/// produced for these 48 data points (plus pilots), including an injected
/// phase offset; used to form "data pilot" channel estimates.
std::array<Cx, kFftSize> reference_bins(std::span<const Cx> data_points,
                                        std::size_t symbol_index,
                                        double phase_offset);

}  // namespace carpool
