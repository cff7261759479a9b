#include "mac/rate_adaptation.hpp"

#include <iterator>

namespace carpool::mac {

double rate_for_snr(double snr_db) {
  double rate = kHtRates[0];
  for (std::size_t i = 0; i < std::size(kHtRates); ++i) {
    if (snr_db >= kHtThresholds[i]) rate = kHtRates[i];
  }
  return rate;
}

}  // namespace carpool::mac
