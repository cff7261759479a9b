#include "channel/fading.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "dsp/fft.hpp"

namespace carpool {

FadingChannel::FadingChannel(const FadingConfig& config)
    : config_(config), rng_(config.seed) {
  if (config.num_taps == 0) {
    throw std::invalid_argument("FadingChannel: num_taps must be >= 1");
  }
  if (config.coherence_time <= 0.0 || config.sample_rate <= 0.0 ||
      config.update_interval == 0) {
    throw std::invalid_argument("FadingChannel: invalid timing config");
  }
  if (config.tap_decay <= 0.0 || config.tap_decay > 1.0) {
    throw std::invalid_argument("FadingChannel: tap_decay in (0,1]");
  }
  const double dt =
      static_cast<double>(config.update_interval) / config.sample_rate;
  rho_ = std::exp(-dt / config.coherence_time);
  cfo_step_ = kTwoPi * config.cfo_hz / config.sample_rate;
  init_taps();
}

void FadingChannel::init_taps() {
  const std::size_t L = config_.num_taps;
  // Exponential power-delay profile, normalised to unit total power.
  std::vector<double> power(L);
  double total = 0.0;
  for (std::size_t l = 0; l < L; ++l) {
    power[l] = std::pow(config_.tap_decay, static_cast<double>(l));
    total += power[l];
  }
  for (double& p : power) p /= total;

  double los_fraction = 0.0;
  if (config_.rician_los) {
    const double k = db_to_linear(config_.rician_k_db);
    los_fraction = k / (k + 1.0);
  }
  scatter_scale_ = 1.0 - los_fraction;

  taps_.assign(L, Cx{});
  los_taps_.assign(L, Cx{});
  // The LOS ray arrives on the first tap with a random but fixed phase.
  if (config_.rician_los) {
    los_taps_[0] = cx_exp(rng_.uniform(0.0, kTwoPi)) *
                   std::sqrt(power[0] * los_fraction);
  }
  tap_sigma_.resize(L);
  for (std::size_t l = 0; l < L; ++l) {
    tap_sigma_[l] = std::sqrt(power[l] * scatter_scale_ / 2.0);
    taps_[l] = los_taps_[l] + Cx{rng_.gaussian(0.0, tap_sigma_[l]),
                                 rng_.gaussian(0.0, tap_sigma_[l])};
  }
}

void FadingChannel::evolve(std::size_t samples) {
  samples_since_update_ += samples;
  while (samples_since_update_ >= config_.update_interval) {
    samples_since_update_ -= config_.update_interval;
    const double innovation = std::sqrt(1.0 - rho_ * rho_);
    for (std::size_t l = 0; l < config_.num_taps; ++l) {
      const double sigma = tap_sigma_[l];
      const Cx diffuse = taps_[l] - los_taps_[l];
      taps_[l] = los_taps_[l] + rho_ * diffuse +
                 innovation * Cx{rng_.gaussian(0.0, sigma),
                                 rng_.gaussian(0.0, sigma)};
    }
  }
}

CxVec FadingChannel::transmit(std::span<const Cx> tx) {
  // Receiver timing offset: output sample n carries input sample n - k, so
  // every sample appears `k` positions late from the receiver's point of
  // view and the receiver window keeps its length.
  const std::size_t offset = std::min(config_.timing_offset_samples, tx.size());
  const std::span<const Cx> in = tx.first(tx.size() - offset);
  CxVec rx(tx.size());
  std::size_t processed = 0;
  while (processed < rx.size()) {
    const std::size_t chunk =
        std::min(rx.size() - processed,
                 config_.update_interval - samples_since_update_);
    convolve(in, offset, processed, processed + chunk, rx);
    evolve(chunk);
    processed += chunk;
  }

  // With no CFO the phase stays at 0, so the rotation is one constant.
  Cx rotation = cx_exp(cfo_phase_);
  if (cfo_step_ == 0.0) {
    for (Cx& s : rx) s *= rotation;
  } else {
    for (Cx& s : rx) {
      s *= rotation;
      cfo_phase_ = wrap_angle(cfo_phase_ + cfo_step_);
      rotation = cx_exp(cfo_phase_);
    }
  }

  // The delayed waveform's power: its leading zeros add nothing to the
  // energy, but they count in the mean.
  const double signal_power =
      rx.empty() ? 0.0 : energy(in) / static_cast<double>(rx.size());
  if (signal_power > 0.0) {
    add_awgn(rx, noise_power_for_snr(signal_power, config_.snr_db), rng_);
  }
  return rx;
}

void FadingChannel::convolve(std::span<const Cx> in, std::size_t offset,
                             std::size_t begin, std::size_t end,
                             CxVec& rx) const {
  // rx[n] = sum over taps l of taps_[l] * in[n - offset - l], summed from
  // +0 in tap order, with the operations of std::complex's `acc += t * x`
  // for finite samples and no FMA contraction. A term whose input sample
  // lies before the waveform (or in the offset's zeros) adds an exact
  // zero to a sum that is never -0, so it is skipped: only the first
  // L - 1 samples after the offset run short of taps. Each tap sweeps the
  // whole chunk, so the inner loop runs across samples.
  double* out = reinterpret_cast<double*>(rx.data());
  const double* x = reinterpret_cast<const double*>(in.data());
  for (std::size_t l = 0; l < taps_.size(); ++l) {
    const double tr = taps_[l].real();
    const double ti = taps_[l].imag();
    for (std::size_t n = std::max(begin, offset + l); n < end; ++n) {
      const double xr = x[2 * (n - offset - l)];
      const double xi = x[2 * (n - offset - l) + 1];
      out[2 * n] = out[2 * n] + (tr * xr - ti * xi);
      out[2 * n + 1] = out[2 * n + 1] + (tr * xi + ti * xr);
    }
  }
}

void FadingChannel::idle(double seconds) {
  if (seconds < 0.0) throw std::invalid_argument("idle: negative duration");
  const auto samples = static_cast<std::size_t>(seconds * config_.sample_rate);
  evolve(samples);
  cfo_phase_ = wrap_angle(cfo_phase_ +
                          cfo_step_ * static_cast<double>(samples));
}

CxVec FadingChannel::frequency_response(std::size_t n) const {
  CxVec padded(n, Cx{});
  for (std::size_t l = 0; l < taps_.size() && l < n; ++l) padded[l] = taps_[l];
  fft_inplace(padded);
  return padded;
}

}  // namespace carpool
