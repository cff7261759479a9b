#include "channel/awgn.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace carpool {

void add_awgn(std::span<Cx> samples, double noise_power, Rng& rng) {
  if (noise_power < 0.0) throw std::invalid_argument("negative noise power");
  if (noise_power == 0.0) return;
  const double sigma = std::sqrt(noise_power / 2.0);
  // A block of draws at a time, I then Q per sample: the values and the
  // arithmetic of rng.gaussian(0.0, sigma) called twice per sample.
  std::array<double, Rng::kGaussianBlock> draws;
  for (std::size_t done = 0; done < samples.size();) {
    const std::size_t n = std::min(samples.size() - done, draws.size() / 2);
    rng.gaussians(std::span(draws).first(2 * n));
    for (std::size_t k = 0; k < n; ++k) {
      samples[done + k] +=
          Cx{0.0 + sigma * draws[2 * k], 0.0 + sigma * draws[2 * k + 1]};
    }
    done += n;
  }
}

double noise_power_for_snr(double signal_power, double snr_db) {
  return signal_power / db_to_linear(snr_db);
}

}  // namespace carpool
