#include "phy/equalizer.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "dsp/kernels.hpp"
#include "obs/timer.hpp"

namespace carpool {

SymbolEqualization equalize_symbol(std::span<const Cx> bins,
                                   std::span<const Cx> h,
                                   std::size_t symbol_index) {
  if (bins.size() != kFftSize || h.size() != kFftSize) {
    throw std::invalid_argument("equalize_symbol: need 64-bin inputs");
  }
  OBS_SCOPED_TIMER("phy.equalize");
  // Pilot phase estimate: correlate equalized pilots against expectation.
  const double polarity = pilot_polarity(symbol_index);
  const auto pbins = pilot_bins();
  const auto pbase = pilot_base();
  std::array<Cx, kNumPilots> pilot_rx;
  std::array<Cx, kNumPilots> pilot_h;
  std::array<double, kNumPilots> expected;
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    pilot_rx[i] = bins[pbins[i]];
    pilot_h[i] = h[pbins[i]];
    expected[i] = pbase[i] * polarity;
  }
  const dsp::PilotEstimate pilots = dsp::pilot_estimate(
      pilot_rx.data(), pilot_h.data(), expected.data(), kNumPilots);
  SymbolEqualization out;
  out.phase_offset = std::arg(pilots.corr);
  // |sum| / sum|.| is 1 when all pilots agree in phase, < 1 otherwise.
  out.pilot_quality = pilots.magnitude_sum > 0.0
                          ? std::abs(pilots.corr) / pilots.magnitude_sum
                          : 0.0;

  // Gather the 48 data subcarriers into contiguous arrays and equalize
  // and derotate them in one sweep. h == 0 marks an erased subcarrier
  // (data 0, gain 0).
  const Cx derotate = cx_exp(-out.phase_offset);
  const auto dbins = data_bins();
  std::array<Cx, kNumDataSubcarriers> data_rx;
  std::array<Cx, kNumDataSubcarriers> data_h;
  for (std::size_t i = 0; i < kNumDataSubcarriers; ++i) {
    data_rx[i] = bins[dbins[i]];
    data_h[i] = h[dbins[i]];
  }
  dsp::equalize(data_rx.data(), data_h.data(), kNumDataSubcarriers,
                derotate, out.data.data(), out.gains.data());
  return out;
}

std::array<Cx, kFftSize> reference_bins(std::span<const Cx> data_points,
                                        std::size_t symbol_index,
                                        double phase_offset) {
  if (data_points.size() != kNumDataSubcarriers) {
    throw std::invalid_argument("reference_bins: need 48 data points");
  }
  std::array<Cx, kFftSize> bins{};
  const Cx rotation = cx_exp(phase_offset);
  const auto dbins = data_bins();
  for (std::size_t i = 0; i < kNumDataSubcarriers; ++i) {
    bins[dbins[i]] = data_points[i] * rotation;
  }
  const double polarity = pilot_polarity(symbol_index);
  const auto pbins = pilot_bins();
  const auto pbase = pilot_base();
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    bins[pbins[i]] = Cx{pbase[i] * polarity, 0.0} * rotation;
  }
  return bins;
}

}  // namespace carpool
