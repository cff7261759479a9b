#pragma once

// Shared element-wise kernel operations (internal to src/dsp).
//
// Every function here defines THE operation sequence for one output
// element; the scalar backend and dsp::equalize are plain loops over
// these, and the SIMD backends replicate the identical sequence across
// vector lanes (plus these exact functions on remainder tails). Keeping
// them in one header included by every kernel translation unit — all
// compiled with -ffp-contract=off — is what makes the bit-identity
// contract hold: no TU may reassociate, contract to FMA, or reorder the
// arithmetic.

#include <cmath>
#include <cstddef>
#include <limits>

#include "common/bits.hpp"
#include "dsp/complex_vec.hpp"
#include "dsp/kernels.hpp"

namespace carpool::dsp::detail {

/// Naive complex multiply: re = ar*br - ai*bi, im = ar*bi + ai*br.
/// Matches what GCC inlines for finite std::complex operands on targets
/// without FMA, and what the SIMD lanes compute via mul/addsub.
inline Cx cx_mul(Cx a, Cx b) noexcept {
  const double ar = a.real(), ai = a.imag();
  const double br = b.real(), bi = b.imag();
  return Cx{ar * br - ai * bi, ar * bi + ai * br};
}

/// One radix-2 butterfly: (u, v) -> (u + v*w, u - v*w).
inline void butterfly(Cx& u, Cx& v, Cx w) noexcept {
  const Cx t = cx_mul(v, w);
  const Cx a = u;
  u = Cx{a.real() + t.real(), a.imag() + t.imag()};
  v = Cx{a.real() - t.real(), a.imag() - t.imag()};
}

/// In-place bit-reversal permutation (pure swaps — no arithmetic).
inline void bit_reverse(Cx* data, std::size_t n) noexcept {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      const Cx tmp = data[i];
      data[i] = data[j];
      data[j] = tmp;
    }
  }
}

/// Smith's-algorithm complex division (a + bi) / (c + di):
///   swap = !(|c| < |d|)  — operand pair reversed, quotient imag negated
///   ratio = cc/dd; denom = cc*ratio + dd
///   x = (aa*ratio + bb)/denom; y = (bb*ratio - aa)/denom  (y = -y when
///   swapped)
inline void smith_div(double a, double b, double c, double d, double& x,
                      double& y) noexcept {
  const bool swap = !(std::fabs(c) < std::fabs(d));
  const double aa = swap ? b : a;
  const double bb = swap ? a : b;
  const double cc = swap ? d : c;
  const double dd = swap ? c : d;
  const double ratio = cc / dd;
  const double denom = cc * ratio + dd;
  x = (aa * ratio + bb) / denom;
  const double y0 = (bb * ratio - aa) / denom;
  y = swap ? -y0 : y0;
}

/// One equalized subcarrier: data_out = (bin / h) * derotate,
/// gain_out = |h|^2; h == 0 is an erased subcarrier (0, 0).
inline void equalize_one(Cx bin, Cx h, Cx derotate, Cx& data_out,
                         double& gain_out) noexcept {
  const double c = h.real(), d = h.imag();
  gain_out = c * c + d * d;
  if (c == 0.0 && d == 0.0) {
    data_out = Cx{0.0, 0.0};
    return;
  }
  double qr, qi;
  smith_div(bin.real(), bin.imag(), c, d, qr, qi);
  data_out = cx_mul(Cx{qr, qi}, derotate);
}

/// The Viterbi branch tables (viterbi_tables() holds one copy). A
/// constant expression, so the SIMD tiers can plan their branch sums at
/// compile time.
constexpr ViterbiTables make_viterbi_tables() noexcept {
  ViterbiTables tb{};
  for (std::size_t n = 0; n < kViterbiStates; ++n) {
    const unsigned bit = static_cast<unsigned>(n >> 5);
    const unsigned p0 = static_cast<unsigned>(2 * (n & 31));
    const unsigned w0 = (bit << 6) | p0;        // window of the even edge
    const unsigned w1 = (bit << 6) | (p0 + 1);  // window of the odd edge
    tb.s00[n] = parity(w0 & kViterbiG0) ? 1.0 : -1.0;
    tb.s01[n] = parity(w0 & kViterbiG1) ? 1.0 : -1.0;
    tb.s10[n] = parity(w1 & kViterbiG0) ? 1.0 : -1.0;
    tb.s11[n] = parity(w1 & kViterbiG1) ? 1.0 : -1.0;
  }
  return tb;
}

/// Shared Viterbi forward-pass scaffolding: initial metrics and the
/// per-step element recurrence for next-state n given predecessors'
/// metrics pm0/pm1 and this step's soft pair (r0, r1).
inline constexpr double kViterbiInf =
    std::numeric_limits<double>::infinity();

inline void viterbi_step_one(const ViterbiTables& tb, std::size_t n,
                             double pm0, double pm1, double r0, double r1,
                             double& next, bool& sel) noexcept {
  const double m0 = pm0 - (tb.s00[n] * r0 + tb.s01[n] * r1);
  const double m1 = pm1 - (tb.s10[n] * r0 + tb.s11[n] * r1);
  sel = m1 < m0;  // strict: ties keep the even predecessor
  next = sel ? m1 : m0;
}

}  // namespace carpool::dsp::detail
