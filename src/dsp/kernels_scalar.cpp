// Portable scalar reference backend. Each kernel is a plain loop over
// the shared element operations in kernels_internal.hpp; the SIMD tiers
// replicate the identical operation sequence across lanes, so this file
// defines the semantics the parity suite holds every backend to.
//
// Compiled with -ffp-contract=off (src/dsp/CMakeLists.txt): contraction
// to FMA would change rounding and break the cross-backend bit-identity
// contract.

#include <cstring>

#include "dsp/kernels.hpp"
#include "dsp/kernels_internal.hpp"

namespace carpool::dsp {
namespace {

void fft_scalar(Cx* data, std::size_t n, int sign) {
  detail::bit_reverse(data, n);
  const Cx* tw = fft_twiddles(n, sign);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const Cx* w = tw + (len / 2 - 1);  // stage-major layout
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        detail::butterfly(data[i + k], data[i + k + half], w[k]);
      }
    }
  }
}

void fft_batch_scalar(Cx* data, std::size_t n, std::size_t count,
                      int sign) {
  for (std::size_t s = 0; s < count; ++s) {
    fft_scalar(data + s * n, n, sign);
  }
}

void viterbi_forward_scalar(const double* soft, std::size_t steps,
                            std::uint64_t* sel, double* final_metric) {
  const ViterbiTables& tb = viterbi_tables();
  double metric[kViterbiStates];
  double next_metric[kViterbiStates];
  for (std::size_t s = 0; s < kViterbiStates; ++s) {
    metric[s] = detail::kViterbiInf;
  }
  metric[0] = 0.0;  // encoder starts in the all-zero state

  for (std::size_t t = 0; t < steps; ++t) {
    const double r0 = soft[2 * t];
    const double r1 = soft[2 * t + 1];
    std::uint64_t word = 0;
    for (std::size_t n = 0; n < kViterbiStates; ++n) {
      const std::size_t p0 = 2 * (n & 31);
      double next = 0.0;
      bool pick_odd = false;
      detail::viterbi_step_one(tb, n, metric[p0], metric[p0 + 1], r0, r1,
                               next, pick_odd);
      next_metric[n] = next;
      if (pick_odd) word |= std::uint64_t{1} << n;
    }
    sel[t] = word;
    std::memcpy(metric, next_metric, sizeof(metric));
  }
  std::memcpy(final_metric, metric, sizeof(metric));
}

constexpr KernelBackend kScalarBackend{"scalar", fft_scalar, fft_batch_scalar,
                                       viterbi_forward_scalar};

}  // namespace

const KernelBackend& scalar_backend() noexcept { return kScalarBackend; }

}  // namespace carpool::dsp
