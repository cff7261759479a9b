#include "common/rng.hpp"

#include <algorithm>

namespace carpool {

void Rng::gaussians(std::span<double> out) noexcept {
  std::size_t i = 0;
  if (have_spare_ && !out.empty()) {
    have_spare_ = false;
    out[i++] = spare_;
  }
  std::array<PolarPoint, kGaussianBlock / 2> points;
  std::array<double, kGaussianBlock / 2> log_s;
  while (i < out.size()) {
    const std::size_t want = out.size() - i;
    const std::size_t count = std::min((want + 1) / 2, points.size());
    // A rejected draw is overwritten by the next one, so the accepted
    // points fill the block in draw order.
    for (std::size_t j = 0; j < count;) {
      j += polar_candidate(points[j]) ? 1 : 0;
    }
    for (std::size_t j = 0; j < count; ++j) {
      log_s[j] = std::log(points[j].s);
    }
    const std::size_t pairs = std::min(want / 2, count);
    for (std::size_t j = 0; j < pairs; ++j) {
      polar_finish(points[j], log_s[j], out[i + 2 * j], out[i + 2 * j + 1]);
    }
    i += 2 * pairs;
    if (pairs < count) {  // one value short of a pair: keep the spare
      polar_finish(points[pairs], log_s[pairs], out[i++], spare_);
      have_spare_ = true;
    }
  }
}

}  // namespace carpool
