// Width-generic SIMD kernel implementation (internal to src/dsp).
//
// Included by one translation unit per tier with
//   CARPOOL_KV_LANES  — doubles per vector (2 = SSE2, 4 = AVX2, 8 = AVX-512)
//   CARPOOL_KV_NS     — tier namespace (simd_sse2, simd_avx2, simd_avx512)
//   CARPOOL_KV_NAME   — backend display name string
// and compiled with that tier's -m flags plus -ffp-contract=off.
//
// The code uses GCC/Clang vector extensions, not intrinsics: every
// arithmetic statement is an element-wise IEEE-754 operation the
// compiler may not reassociate or contract, so each lane computes the
// exact operation sequence the scalar reference runs per element
// (kernels_internal.hpp). Shuffles, sign-bit flips, and mask blends are
// bit-exact data movement. That is the whole bit-identity argument; the
// parity suite (tests/test_dsp_kernels.cpp) checks it on random inputs.
//
// All loads/stores go through memcpy helpers: the hot arrays are
// std::complex<double> buffers with no vector alignment guarantee, and
// the sanitizer lanes run these kernels with alignment checks on.

#if !defined(CARPOOL_KV_LANES) || !defined(CARPOOL_KV_NS) || \
    !defined(CARPOOL_KV_NAME)
#error "kernels_simd_impl.hpp requires CARPOOL_KV_* macros"
#endif

#include <cstring>
#include <utility>

#include "dsp/kernels.hpp"
#include "dsp/kernels_internal.hpp"

namespace carpool::dsp::detail {
namespace CARPOOL_KV_NS {

inline constexpr std::size_t kLanes = CARPOOL_KV_LANES;  // doubles
inline constexpr std::size_t kCplx = kLanes / 2;  // complexes per vector

typedef double vd __attribute__((vector_size(kLanes * 8)));
typedef long long vi __attribute__((vector_size(kLanes * 8)));
typedef unsigned long long vu __attribute__((vector_size(kLanes * 8)));

#if CARPOOL_KV_LANES == 2
#define KV_SWAP_PAIRS {1, 0}
#define KV_DUP_EVEN {0, 0}
#define KV_DUP_ODD {1, 1}
#define KV_DEINT_EVEN {0, 2}
#define KV_DEINT_ODD {1, 3}
#elif CARPOOL_KV_LANES == 4
#define KV_SWAP_PAIRS {1, 0, 3, 2}
#define KV_DUP_EVEN {0, 0, 2, 2}
#define KV_DUP_ODD {1, 1, 3, 3}
#define KV_DEINT_EVEN {0, 2, 4, 6}
#define KV_DEINT_ODD {1, 3, 5, 7}
#elif CARPOOL_KV_LANES == 8
#define KV_SWAP_PAIRS {1, 0, 3, 2, 5, 4, 7, 6}
#define KV_DUP_EVEN {0, 0, 2, 2, 4, 4, 6, 6}
#define KV_DUP_ODD {1, 1, 3, 3, 5, 5, 7, 7}
#define KV_DEINT_EVEN {0, 2, 4, 6, 8, 10, 12, 14}
#define KV_DEINT_ODD {1, 3, 5, 7, 9, 11, 13, 15}
#else
#error "unsupported CARPOOL_KV_LANES"
#endif

inline vd loadu(const double* p) noexcept {
  vd v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void storeu(double* p, vd v) noexcept { std::memcpy(p, &v, sizeof v); }

/// Every lane x, bit for bit (adding x to a zero vector would turn -0.0
/// into +0.0).
inline vd splat(double x) noexcept {
  return __builtin_shuffle(vd{x}, vi{});  // lane 0 into every lane
}

/// [a0,a1,a2,a3] -> [a1,a0,a3,a2] (re/im swap of each complex pair).
inline vd swap_pairs(vd v) noexcept {
  return __builtin_shuffle(v, vi KV_SWAP_PAIRS);
}

/// Duplicate the real (even) lane of each pair into both lanes.
inline vd dup_even(vd v) noexcept {
  return __builtin_shuffle(v, vi KV_DUP_EVEN);
}

/// Duplicate the imag (odd) lane of each pair into both lanes.
inline vd dup_odd(vd v) noexcept {
  return __builtin_shuffle(v, vi KV_DUP_ODD);
}

/// Even lanes of the (a, b) concatenation: [a0, a2, .., b0, b2, ..].
inline vd deint_even(vd a, vd b) noexcept {
  return __builtin_shuffle(a, b, vi KV_DEINT_EVEN);
}

inline vd deint_odd(vd a, vd b) noexcept {
  return __builtin_shuffle(a, b, vi KV_DEINT_ODD);
}

/// Sign-bit constant with -0.0 in even (real) lanes — XORing with it
/// negates the even lanes exactly.
inline vd neg_even_mask() noexcept {
  vd m{};
  for (std::size_t l = 0; l < kLanes; l += 2) m[l] = -0.0;
  return m;
}

/// The OR of all lanes.
inline std::uint64_t or_lanes(vu v) noexcept {
#if CARPOOL_KV_LANES == 8
  v |= __builtin_shuffle(v, vi{4, 5, 6, 7, 0, 1, 2, 3});
  v |= __builtin_shuffle(v, vi{2, 3, 0, 1, 6, 7, 4, 5});
#elif CARPOOL_KV_LANES == 4
  v |= __builtin_shuffle(v, vi{2, 3, 0, 1});
#endif
  return v[0] | v[1];
}

/// In-place kLanes x kLanes double-matrix transpose of vector rows:
/// after the call t[j][l] holds what t[l][j] held before. Pure shuffle
/// data movement (no arithmetic), so bit-exact. This is what turns the
/// batched FFT's AoS<->SoA conversion into vector ops instead of a
/// per-element scalar gather.
inline void transpose(vd* t) noexcept {
#if CARPOOL_KV_LANES == 2
  const vd r0 = __builtin_shuffle(t[0], t[1], vi{0, 2});
  const vd r1 = __builtin_shuffle(t[0], t[1], vi{1, 3});
  t[0] = r0;
  t[1] = r1;
#elif CARPOOL_KV_LANES == 4
  const vd u0 = __builtin_shuffle(t[0], t[1], vi{0, 4, 2, 6});
  const vd u1 = __builtin_shuffle(t[0], t[1], vi{1, 5, 3, 7});
  const vd u2 = __builtin_shuffle(t[2], t[3], vi{0, 4, 2, 6});
  const vd u3 = __builtin_shuffle(t[2], t[3], vi{1, 5, 3, 7});
  t[0] = __builtin_shuffle(u0, u2, vi{0, 1, 4, 5});
  t[1] = __builtin_shuffle(u1, u3, vi{0, 1, 4, 5});
  t[2] = __builtin_shuffle(u0, u2, vi{2, 3, 6, 7});
  t[3] = __builtin_shuffle(u1, u3, vi{2, 3, 6, 7});
#elif CARPOOL_KV_LANES == 8
  // Recursive-doubling network: unpack 1-lane pairs, then 2-lane
  // blocks, then 4-lane halves — 24 two-source shuffles total.
  const vi lo1{0, 8, 2, 10, 4, 12, 6, 14};
  const vi hi1{1, 9, 3, 11, 5, 13, 7, 15};
  const vd u0 = __builtin_shuffle(t[0], t[1], lo1);
  const vd u1 = __builtin_shuffle(t[0], t[1], hi1);
  const vd u2 = __builtin_shuffle(t[2], t[3], lo1);
  const vd u3 = __builtin_shuffle(t[2], t[3], hi1);
  const vd u4 = __builtin_shuffle(t[4], t[5], lo1);
  const vd u5 = __builtin_shuffle(t[4], t[5], hi1);
  const vd u6 = __builtin_shuffle(t[6], t[7], lo1);
  const vd u7 = __builtin_shuffle(t[6], t[7], hi1);
  const vi lo2{0, 1, 8, 9, 4, 5, 12, 13};
  const vi hi2{2, 3, 10, 11, 6, 7, 14, 15};
  const vd v0 = __builtin_shuffle(u0, u2, lo2);
  const vd v2 = __builtin_shuffle(u0, u2, hi2);
  const vd v1 = __builtin_shuffle(u1, u3, lo2);
  const vd v3 = __builtin_shuffle(u1, u3, hi2);
  const vd v4 = __builtin_shuffle(u4, u6, lo2);
  const vd v6 = __builtin_shuffle(u4, u6, hi2);
  const vd v5 = __builtin_shuffle(u5, u7, lo2);
  const vd v7 = __builtin_shuffle(u5, u7, hi2);
  const vi lo4{0, 1, 2, 3, 8, 9, 10, 11};
  const vi hi4{4, 5, 6, 7, 12, 13, 14, 15};
  t[0] = __builtin_shuffle(v0, v4, lo4);
  t[4] = __builtin_shuffle(v0, v4, hi4);
  t[1] = __builtin_shuffle(v1, v5, lo4);
  t[5] = __builtin_shuffle(v1, v5, hi4);
  t[2] = __builtin_shuffle(v2, v6, lo4);
  t[6] = __builtin_shuffle(v2, v6, hi4);
  t[3] = __builtin_shuffle(v3, v7, lo4);
  t[7] = __builtin_shuffle(v3, v7, hi4);
#endif
}

/// Element-wise complex multiply of pair-vectors: for each pair,
/// re = ar*br - ai*bi, im = ai*br + ar*bi — the same two products and
/// one add/sub per component as detail::cx_mul (addition commutes
/// bit-exactly for the finite inputs these kernels see).
inline vd cx_mul_v(vd a, vd b) noexcept {
  const vd br = dup_even(b);
  const vd bi = dup_odd(b);
  const vd as = swap_pairs(a);
  const vd t1 = a * br;                               // [ar*br, ai*br]
  const vd t2 = as * bi;                              // [ai*bi, ar*bi]
  return t1 + (vd)((vi)t2 ^ (vi)neg_even_mask());     // [t1-t2, t1+t2]
}

// ----------------------------------------------------------------- FFT

void fft_simd(Cx* data, std::size_t n, int sign) {
  bit_reverse(data, n);
  const Cx* tw = fft_twiddles(n, sign);
  double* raw = reinterpret_cast<double*>(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const Cx* w = tw + (half - 1);
    if (half < kCplx) {
      // Stage span shorter than a vector: run the scalar reference ops.
      for (std::size_t i = 0; i < n; i += len) {
        for (std::size_t k = 0; k < half; ++k) {
          butterfly(data[i + k], data[i + k + half], w[k]);
        }
      }
      continue;
    }
    const double* wraw = reinterpret_cast<const double*>(w);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; k += kCplx) {
        double* up = raw + 2 * (i + k);
        double* vp = raw + 2 * (i + k + half);
        const vd u = loadu(up);
        const vd v = loadu(vp);
        const vd wv = loadu(wraw + 2 * k);
        const vd t = cx_mul_v(v, wv);
        storeu(up, u + t);
        storeu(vp, u - t);
      }
    }
  }
}

/// Batched transform: groups of kLanes symbols are transposed into
/// structure-of-arrays form (separate re/im planes, one vector lane per
/// symbol) so every butterfly is a pure element-wise vector op — the
/// same mul/sub/add sequence per lane that detail::cx_mul/butterfly run
/// per symbol, hence bit-identical to the scalar per-symbol transform.
void fft_batch_simd(Cx* data, std::size_t n, std::size_t count, int sign) {
  const Cx* tw = fft_twiddles(n, sign);
  std::size_t s = 0;
  if (count >= kLanes && n >= kLanes) {
    static thread_local std::vector<double> scratch;
    static thread_local std::vector<std::uint32_t> rev;
    scratch.resize(2 * n * kLanes);
    double* re = scratch.data();
    double* im = scratch.data() + n * kLanes;
    // Bit-reversal index table: rev[i] is i with its log2(n) bits
    // reversed — the same involution bit_reverse applies in place.
    rev.resize(n);
    rev[0] = 0;
    for (std::size_t i = 1; i < n; ++i) {
      rev[i] = static_cast<std::uint32_t>(
          (rev[i >> 1] >> 1) | ((i & 1) ? n >> 1 : 0));
    }
    for (; s + kLanes <= count; s += kLanes) {
      double* braw = reinterpret_cast<double*>(data + s * n);
      // AoS -> SoA: in-register transposes of kLanes x kLanes tiles
      // (kCplx complexes per symbol at a time), storing each position's
      // re/im rows at the bit-reversed plane index so the separate
      // per-symbol bit_reverse pass disappears into the store address.
      vd t[kLanes];
      for (std::size_t i = 0; i < n; i += kCplx) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          t[l] = loadu(braw + 2 * (l * n + i));
        }
        transpose(t);
        for (std::size_t j = 0; j < kCplx; ++j) {
          const std::size_t d = rev[i + j];
          storeu(re + d * kLanes, t[2 * j]);
          storeu(im + d * kLanes, t[2 * j + 1]);
        }
      }
      // SoA butterfly: the same mul/sub/add sequence per lane that
      // detail::cx_mul + butterfly run per symbol.
      const auto bfly = [](vd& ur, vd& ui, vd& vr, vd& vi_, vd wr,
                           vd wi) {
        const vd tr = vr * wr - vi_ * wi;
        const vd ti = vr * wi + vi_ * wr;
        vr = ur - tr;
        vi_ = ui - ti;
        ur = ur + tr;
        ui = ui + ti;
      };
      std::size_t len = 2;
      // Three stages per pass (radix-8 register blocking): 8 position
      // vectors stay in registers across 12 butterflies, cutting the
      // stage-loop memory traffic 3x. Each butterfly is the identical
      // element-wise sequence in the identical stage order, so the
      // fusion is pure register reuse and bit-identity holds.
      for (; 4 * len <= n; len <<= 3) {
        const std::size_t h = len / 2;
        const Cx* w1 = tw + (h - 1);        // stage len     (half = h)
        const Cx* w2 = tw + (len - 1);      // stage 2*len   (half = 2h)
        const Cx* w3 = tw + (2 * len - 1);  // stage 4*len   (half = 4h)
        for (std::size_t k = 0; k < h; ++k) {
          // k-outer so the seven twiddle broadcasts hoist out of the
          // block loop (the first pass has h == 1 and many blocks).
          const vd w1r = splat(w1[k].real());
          const vd w1i = splat(w1[k].imag());
          const vd w2ar = splat(w2[k].real());
          const vd w2ai = splat(w2[k].imag());
          const vd w2br = splat(w2[k + h].real());
          const vd w2bi = splat(w2[k + h].imag());
          const vd w3ar = splat(w3[k].real());
          const vd w3ai = splat(w3[k].imag());
          const vd w3br = splat(w3[k + h].real());
          const vd w3bi = splat(w3[k + h].imag());
          const vd w3cr = splat(w3[k + 2 * h].real());
          const vd w3ci = splat(w3[k + 2 * h].imag());
          const vd w3dr = splat(w3[k + 3 * h].real());
          const vd w3di = splat(w3[k + 3 * h].imag());
          for (std::size_t i = 0; i < n; i += 8 * h) {
            vd xr[8], xi[8];
            for (std::size_t j = 0; j < 8; ++j) {
              const std::size_t p = (i + k + j * h) * kLanes;
              xr[j] = loadu(re + p);
              xi[j] = loadu(im + p);
            }
            bfly(xr[0], xi[0], xr[1], xi[1], w1r, w1i);
            bfly(xr[2], xi[2], xr[3], xi[3], w1r, w1i);
            bfly(xr[4], xi[4], xr[5], xi[5], w1r, w1i);
            bfly(xr[6], xi[6], xr[7], xi[7], w1r, w1i);
            bfly(xr[0], xi[0], xr[2], xi[2], w2ar, w2ai);
            bfly(xr[1], xi[1], xr[3], xi[3], w2br, w2bi);
            bfly(xr[4], xi[4], xr[6], xi[6], w2ar, w2ai);
            bfly(xr[5], xi[5], xr[7], xi[7], w2br, w2bi);
            bfly(xr[0], xi[0], xr[4], xi[4], w3ar, w3ai);
            bfly(xr[1], xi[1], xr[5], xi[5], w3br, w3bi);
            bfly(xr[2], xi[2], xr[6], xi[6], w3cr, w3ci);
            bfly(xr[3], xi[3], xr[7], xi[7], w3dr, w3di);
            for (std::size_t j = 0; j < 8; ++j) {
              const std::size_t p = (i + k + j * h) * kLanes;
              storeu(re + p, xr[j]);
              storeu(im + p, xi[j]);
            }
          }
        }
      }
      for (; len <= n; len <<= 1) {  // leftover stages, one at a time
        const std::size_t half = len / 2;
        const Cx* w = tw + (half - 1);
        for (std::size_t k = 0; k < half; ++k) {
          const vd wr = splat(w[k].real());
          const vd wi = splat(w[k].imag());
          for (std::size_t i = 0; i < n; i += len) {
            vd ur = loadu(re + (i + k) * kLanes);
            vd ui = loadu(im + (i + k) * kLanes);
            vd vr = loadu(re + (i + k + half) * kLanes);
            vd vi_ = loadu(im + (i + k + half) * kLanes);
            bfly(ur, ui, vr, vi_, wr, wi);
            storeu(re + (i + k) * kLanes, ur);
            storeu(im + (i + k) * kLanes, ui);
            storeu(re + (i + k + half) * kLanes, vr);
            storeu(im + (i + k + half) * kLanes, vi_);
          }
        }
      }
      // SoA -> AoS: the same tile transpose run the other way round
      // (rows alternate re/im planes, columns come out per symbol).
      for (std::size_t i = 0; i < n; i += kCplx) {
        for (std::size_t j = 0; j < kCplx; ++j) {
          t[2 * j] = loadu(re + (i + j) * kLanes);
          t[2 * j + 1] = loadu(im + (i + j) * kLanes);
        }
        transpose(t);
        for (std::size_t l = 0; l < kLanes; ++l) {
          storeu(braw + 2 * (l * n + i), t[l]);
        }
      }
    }
  }
  for (; s < count; ++s) {  // remainder symbols: single-symbol kernel
    fft_simd(data + s * n, n, sign);
  }
}

// ------------------------------------------------------------- Viterbi

inline constexpr std::size_t kBlocks = kViterbiStates / kLanes;

/// The branch sums a step needs. Each block of kLanes next states takes
/// from the sign tables one (sa, sb) lane pattern per predecessor, and
/// on every tier only four patterns occur: a step computes sa * r0 +
/// sb * r1 once per pattern (the tables' own operands in their order)
/// and each block subtracts the sum its pattern names.
struct BranchSumPlan {
  std::size_t count = 0;  ///< distinct patterns
  /// Where pattern k's signs sit in the tables: predecessor parity and
  /// the first next state of a block that uses it.
  std::size_t pred[2 * kBlocks] = {};
  std::size_t state[2 * kBlocks] = {};
  std::size_t pattern[2][kBlocks] = {};  ///< [predecessor parity][block]
};

constexpr BranchSumPlan make_branch_sum_plan() noexcept {
  constexpr ViterbiTables tb = make_viterbi_tables();
  const auto signs = [&](std::size_t p, std::size_t n, std::size_t l) {
    return p == 0 ? std::pair{tb.s00[n + l], tb.s01[n + l]}
                  : std::pair{tb.s10[n + l], tb.s11[n + l]};
  };
  BranchSumPlan plan{};
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const std::size_t n = b * kLanes;
      std::size_t k = 0;
      for (; k < plan.count; ++k) {
        bool same = true;
        for (std::size_t l = 0; l < kLanes; ++l) {
          same = same &&
                 signs(p, n, l) == signs(plan.pred[k], plan.state[k], l);
        }
        if (same) break;
      }
      if (k == plan.count) {
        plan.pred[k] = p;
        plan.state[k] = n;
        ++plan.count;
      }
      plan.pattern[p][b] = k;
    }
  }
  return plan;
}

inline constexpr BranchSumPlan kBranchSums = make_branch_sum_plan();

void viterbi_forward_simd(const double* soft, std::size_t steps,
                          std::uint64_t* sel, double* final_metric) {
  static_assert(kLanes <= 32, "block must not cross the input-bit halves");
  constexpr std::size_t kHalf = kBlocks / 2;  // blocks of states below 32
  constexpr std::size_t kSums = kBranchSums.count;
  // The signs are read from the run-time tables, not from the plan's
  // constants: see viterbi_tables().
  const ViterbiTables& tb = viterbi_tables();
  vd sa[kSums];
  vd sb[kSums];
  for (std::size_t k = 0; k < kSums; ++k) {
    const std::size_t n = kBranchSums.state[k];
    sa[k] = loadu(kBranchSums.pred[k] == 0 ? tb.s00 + n : tb.s10 + n);
    sb[k] = loadu(kBranchSums.pred[k] == 0 ? tb.s01 + n : tb.s11 + n);
  }
  // The 64 path metrics as kBlocks vectors, block b holding states
  // b*kLanes..: local values the step loop keeps in registers (the
  // narrower tiers spill what does not fit) instead of an array it
  // stores and copies back every step.
  vd metric[kBlocks];
  for (vd& m : metric) m = splat(kViterbiInf);
  metric[0][0] = 0.0;

  // lane_bit[l] = 1 << l; shifted by the block base n it turns a
  // comparison mask into the select bits for states n..n+kLanes-1.
  vu lane_bit{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    lane_bit[l] = std::uint64_t{1} << l;
  }

  for (std::size_t t = 0; t < steps; ++t) {
    const vd r0 = splat(soft[2 * t]);
    const vd r1 = splat(soft[2 * t + 1]);
    vd sums[kSums];
    for (std::size_t k = 0; k < kSums; ++k) sums[k] = sa[k] * r0 + sb[k] * r1;
    vd next[kBlocks];
    vu word_acc{};
    // Add-compare-select for next-state block b from its predecessors'
    // metrics, even (pm0) and odd (pm1).
    const auto acs = [&](std::size_t b, vd pm0, vd pm1) {
      const vd m0 = pm0 - sums[kBranchSums.pattern[0][b]];
      const vd m1 = pm1 - sums[kBranchSums.pattern[1][b]];
      const vi pick_odd = m1 < m0;  // ties keep the even pred
      next[b] = pick_odd ? m1 : m0;
      word_acc |= (vu)pick_odd & (lane_bit << (b * kLanes));
    };
#pragma GCC unroll 16
    for (std::size_t b = 0; b < kHalf; ++b) {
      // States b*kLanes.. and 32 more share their predecessors
      // 2*b*kLanes..: one deinterleave serves both blocks.
      const vd pm0 = deint_even(metric[2 * b], metric[2 * b + 1]);
      const vd pm1 = deint_odd(metric[2 * b], metric[2 * b + 1]);
      acs(b, pm0, pm1);
      acs(b + kHalf, pm0, pm1);
    }
    sel[t] = or_lanes(word_acc);
#pragma GCC unroll 32
    for (std::size_t b = 0; b < kBlocks; ++b) metric[b] = next[b];
  }
  for (std::size_t b = 0; b < kBlocks; ++b) {
    storeu(final_metric + b * kLanes, metric[b]);
  }
}

constexpr KernelBackend kBackend{CARPOOL_KV_NAME, fft_simd, fft_batch_simd,
                                 viterbi_forward_simd};

}  // namespace CARPOOL_KV_NS
}  // namespace carpool::dsp::detail

#undef KV_SWAP_PAIRS
#undef KV_DUP_EVEN
#undef KV_DUP_ODD
#undef KV_DEINT_EVEN
#undef KV_DEINT_ODD
