#pragma once

// Time-varying frequency-selective channel model. This is the stand-in for
// the paper's indoor USRP links: a tapped-delay-line Rayleigh channel with
// an exponential power-delay profile whose taps evolve as a first-order
// Gauss-Markov process parameterised by coherence time, plus carrier
// frequency offset (CFO) and AWGN.
//
// The intra-frame tap evolution is what produces the paper's "BER bias"
// (Fig. 3): the preamble-based estimate goes stale over a long frame.
// Coherence times are swept over the 10 us - 100 ms range the paper cites.

#include <cstdint>
#include <span>

#include "channel/awgn.hpp"
#include "common/rng.hpp"
#include "dsp/complex_vec.hpp"

namespace carpool {

struct FadingConfig {
  double snr_db = 25.0;           ///< mean SNR at the receiver
  std::size_t num_taps = 4;       ///< multipath taps (1 = flat fading)
  double tap_decay = 0.5;         ///< power ratio between consecutive taps
  double coherence_time = 5e-3;   ///< seconds; smaller = faster variation
  double cfo_hz = 0.0;            ///< residual carrier frequency offset
  double sample_rate = 20e6;      ///< baseband sample rate (20 MHz channel)
  std::size_t update_interval = 80;  ///< samples between tap updates
                                     ///< (80 = one OFDM symbol incl. CP)
  bool rician_los = false;        ///< add a fixed line-of-sight component
  double rician_k_db = 6.0;       ///< LOS-to-scatter power ratio if rician
  /// Receiver sampling offset in whole samples (positive = the receiver's
  /// notion of "sample 0" is this many samples early). Small offsets stay
  /// inside the cyclic prefix and are absorbed by channel estimation.
  std::size_t timing_offset_samples = 0;
  std::uint64_t seed = 1;
};

class FadingChannel {
 public:
  explicit FadingChannel(const FadingConfig& config);

  /// Pass a waveform through the channel. Tap state, CFO phase and time
  /// advance across calls, so back-to-back frames see a continuously
  /// evolving channel, as on a real link.
  [[nodiscard]] CxVec transmit(std::span<const Cx> tx);

  /// Advance the channel state by `seconds` of idle air time.
  void idle(double seconds);

  /// Current frequency response sampled on an `n`-point grid (the true
  /// channel; used by tests and oracle decoding, never by receivers).
  [[nodiscard]] CxVec frequency_response(std::size_t n) const;

  [[nodiscard]] const FadingConfig& config() const noexcept { return config_; }

 private:
  void init_taps();
  void evolve(std::size_t samples);
  /// The current taps applied to output samples [begin, end), where
  /// output n reads in[n - offset]; accumulates into rx, which starts at 0.
  void convolve(std::span<const Cx> in, std::size_t offset, std::size_t begin,
                std::size_t end, CxVec& rx) const;

  FadingConfig config_;
  Rng rng_;
  CxVec taps_;
  CxVec los_taps_;       // fixed LOS component (zero if not rician)
  double scatter_scale_ = 1.0;  // scale of the diffuse component
  std::vector<double> tap_sigma_;  // per-axis std-dev of each tap's scatter
  double rho_ = 1.0;     // AR(1) coefficient per update interval
  double cfo_phase_ = 0.0;
  double cfo_step_ = 0.0;  // radians per sample
  std::size_t samples_since_update_ = 0;
};

}  // namespace carpool
