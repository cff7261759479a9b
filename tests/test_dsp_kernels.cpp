// Kernel-dispatch parity suite (docs/KERNELS.md): every SIMD tier's FFT
// and Viterbi forward pass must be *bit-identical* to the scalar
// reference backend on randomized inputs — including remainder lanes,
// soft-bit erasures, and path-metric ties — plus feature detection and
// the strict --kernel / CARPOOL_KERNEL selection semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "dsp/kernels.hpp"
#include "dsp/kernels_backends.hpp"
#include "obs/registry.hpp"

namespace {

using carpool::Cx;
using carpool::CxVec;
namespace dsp = carpool::dsp;

/// The SIMD tiers usable on this host (empty on non-x86). Scalar is
/// excluded: it is the reference the others are diffed against.
std::vector<const dsp::KernelBackend*> simd_tiers() {
  std::vector<const dsp::KernelBackend*> out;
  for (const dsp::KernelBackend* backend : dsp::available_backends()) {
    if (std::strcmp(backend->name, "scalar") != 0) out.push_back(backend);
  }
  return out;
}

CxVec random_cx(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  CxVec out(n);
  for (Cx& x : out) x = Cx{dist(rng), dist(rng)};
  return out;
}

template <typename T>
void expect_bits_equal(const std::vector<T>& a, const std::vector<T>& b,
                       const char* what, const char* tier) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T)))
      << what << " diverges between scalar and " << tier;
}

TEST(KernelParity, FftAllSizesAllTiers) {
  std::mt19937_64 rng(0xfeedULL);
  for (std::size_t n = 2; n <= 256; n <<= 1) {
    const CxVec input = random_cx(rng, n);
    for (const int sign : {-1, +1}) {
      CxVec ref = input;
      dsp::scalar_backend().fft(ref.data(), n, sign);
      for (const dsp::KernelBackend* tier : simd_tiers()) {
        CxVec got = input;
        tier->fft(got.data(), n, sign);
        expect_bits_equal(ref, got, "fft", tier->name);
      }
    }
  }
}

TEST(KernelParity, FftBatchMatchesPerSymbolScalar) {
  std::mt19937_64 rng(0xdadULL);
  const std::size_t n = 64;
  // Counts straddling every lane width, so each tier runs both its
  // transposed full-group body and the single-symbol remainder path.
  for (const std::size_t count :
       {1UL, 2UL, 3UL, 4UL, 5UL, 7UL, 8UL, 9UL, 17UL}) {
    const CxVec input = random_cx(rng, n * count);
    for (const int sign : {-1, +1}) {
      CxVec ref = input;
      for (std::size_t s = 0; s < count; ++s) {
        dsp::scalar_backend().fft(ref.data() + s * n, n, sign);
      }
      CxVec scalar_batch = input;
      dsp::scalar_backend().fft_batch(scalar_batch.data(), n, count, sign);
      expect_bits_equal(ref, scalar_batch, "scalar fft_batch", "scalar");
      for (const dsp::KernelBackend* tier : simd_tiers()) {
        CxVec got = input;
        tier->fft_batch(got.data(), n, count, sign);
        expect_bits_equal(ref, got, "fft_batch", tier->name);
      }
    }
  }
}

/// Runs every SIMD tier's forward pass over `soft` and memcmp-compares
/// its select words and final path metrics with the scalar reference's.
void expect_viterbi_parity(const std::vector<double>& soft, const char* what) {
  const std::size_t steps = soft.size() / 2;
  std::vector<std::uint64_t> ref_sel(steps);
  std::vector<double> ref_metric(dsp::kViterbiStates);
  dsp::scalar_backend().viterbi_forward(soft.data(), steps, ref_sel.data(),
                                        ref_metric.data());
  for (const dsp::KernelBackend* tier : simd_tiers()) {
    std::vector<std::uint64_t> sel(steps);
    std::vector<double> metric(dsp::kViterbiStates);
    tier->viterbi_forward(soft.data(), steps, sel.data(), metric.data());
    SCOPED_TRACE(what);
    expect_bits_equal(ref_sel, sel, "viterbi select words", tier->name);
    expect_bits_equal(ref_metric, metric, "viterbi path metrics",
                      tier->name);
  }
}

TEST(KernelParity, ViterbiForwardRandomSoft) {
  std::mt19937_64 rng(0xbeefULL);
  std::uniform_real_distribution<double> dist(-1.5, 1.5);
  std::bernoulli_distribution erase(0.1);
  for (const std::size_t steps : {1UL, 7UL, 64UL, 130UL}) {
    std::vector<double> soft(2 * steps);
    for (double& s : soft) s = erase(rng) ? 0.0 : dist(rng);
    expect_viterbi_parity(soft, "random soft bits");
  }
}

TEST(KernelParity, ViterbiEdgeSoftValues) {
  // Branch sums of exactly zero (r0 == r1 and r0 == -r1), signed zeros,
  // overflow to infinity, infinities whose sums are NaN, and NaN LLRs of
  // either sign (a NaN capture reaches the decoder through demap_soft):
  // the tiers must reproduce the scalar reference's every bit, NaN signs
  // included. No pair holds NaNs of both signs: IEEE 754 leaves open
  // which of two NaNs a sum returns, and compilers commute the addition
  // (an ASan+UBSan build of the scalar reference adds in the other order).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values{0.0,   -0.0,    0.75,   -0.75,  1e300,
                                   -1e300, inf,    -inf,   nan,    -nan};
  const auto opposite_nans = [](double a, double b) {
    return std::isnan(a) && std::isnan(b) &&
           std::signbit(a) != std::signbit(b);
  };
  std::mt19937_64 rng(0xed6eULL);
  std::uniform_int_distribution<std::size_t> pick(0, values.size() - 1);
  std::uniform_int_distribution<int> shape(0, 2);
  for (const std::size_t steps : {1UL, 9UL, 64UL, 200UL}) {
    std::vector<double> soft(2 * steps);
    for (std::size_t t = 0; t < steps; ++t) {
      const double r0 = values[pick(rng)];
      const int s = shape(rng);
      double r1 = s == 0 ? r0 : s == 1 ? -r0 : values[pick(rng)];
      if (opposite_nans(r0, r1)) r1 = r0;
      soft[2 * t] = r0;
      soft[2 * t + 1] = r1;
    }
    expect_viterbi_parity(soft, "mixed edge values");
  }
  // Each value alone for a whole run, once as r0 == r1, once as r0 ==
  // -r1, and once against a finite partner.
  for (const double v : values) {
    for (const double partner : {v, -v, 0.5}) {
      if (opposite_nans(v, partner)) continue;
      std::vector<double> soft;
      for (std::size_t t = 0; t < 40; ++t) {
        soft.push_back(v);
        soft.push_back(partner);
      }
      expect_viterbi_parity(soft, "one value throughout");
    }
  }
}

TEST(KernelParity, ViterbiTieBreakKeepsEvenPredecessor) {
  // All-erasure input makes every branch metric 0, so every ACS step is
  // a tie among reachable predecessors; all backends must agree on the
  // "keep the even predecessor" rule bit for bit.
  expect_viterbi_parity(std::vector<double>(2 * 48, 0.0), "all erasures");
}

TEST(KernelParity, ConcurrentBackendsStayBitIdentical) {
  // The kernels share only immutable tables, so parity must hold when
  // many threads run different backends at once (the soak campaigns do
  // exactly this at --threads 2/4/8).
  const std::size_t n = 64;
  std::mt19937_64 rng(0x77ULL);
  const CxVec input = random_cx(rng, n);
  CxVec ref = input;
  dsp::scalar_backend().fft(ref.data(), n, -1);
  for (const unsigned threads : {1U, 2U, 4U, 8U}) {
    std::vector<std::thread> pool;
    std::vector<int> ok(threads, 0);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const auto tiers = simd_tiers();
        const dsp::KernelBackend* backend =
            tiers.empty() ? &dsp::scalar_backend() : tiers[t % tiers.size()];
        for (int iter = 0; iter < 50; ++iter) {
          CxVec got = input;
          backend->fft(got.data(), n, -1);
          if (std::memcmp(ref.data(), got.data(), n * sizeof(Cx)) != 0) {
            return;
          }
        }
        ok[t] = 1;
      });
    }
    for (std::thread& th : pool) th.join();
    for (unsigned t = 0; t < threads; ++t) {
      EXPECT_EQ(1, ok[t]) << "thread " << t << " of " << threads;
    }
  }
}

TEST(KernelDispatch, FeatureDetectionMatchesTiers) {
  const std::string features = dsp::cpu_features();
  const auto backends = dsp::available_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ("scalar", backends.front()->name);
#if defined(__x86_64__)
  // x86-64 guarantees SSE2, so a SIMD tier is always available.
  ASSERT_NE(nullptr, dsp::simd_backend());
  EXPECT_NE(std::string::npos, features.find("sse2"));
  EXPECT_GE(backends.size(), 2U);
#endif
  for (const dsp::KernelBackend* backend : backends) {
    EXPECT_EQ(backend, dsp::backend_by_name(backend->name));
  }
  EXPECT_NE(std::string::npos, dsp::kernel_info().find("cpu: "));
}

TEST(KernelDispatch, SelectKernelStrictNames) {
  EXPECT_EQ(dsp::KernelSelect::kUnknown, dsp::select_kernel("turbo"));
  EXPECT_EQ(dsp::KernelSelect::kUnknown, dsp::select_kernel(""));
  EXPECT_EQ(dsp::KernelSelect::kUnknown, dsp::select_kernel("Scalar"));

  ASSERT_EQ(dsp::KernelSelect::kOk, dsp::select_kernel("scalar"));
  EXPECT_STREQ("scalar", dsp::active_backend().name);
  if (dsp::simd_backend() != nullptr) {
    ASSERT_EQ(dsp::KernelSelect::kOk, dsp::select_kernel("simd"));
    EXPECT_STREQ(dsp::simd_backend()->name, dsp::active_backend().name);
  } else {
    EXPECT_EQ(dsp::KernelSelect::kUnavailable, dsp::select_kernel("simd"));
  }
  EXPECT_EQ(dsp::KernelSelect::kOk, dsp::select_kernel("auto"));
}

TEST(KernelDispatch, ScopedKernelRestoresSelection) {
  ASSERT_EQ(dsp::KernelSelect::kOk, dsp::select_kernel("auto"));
  const dsp::KernelBackend* before = &dsp::active_backend();
  {
    dsp::ScopedKernel scoped(dsp::scalar_backend());
    EXPECT_STREQ("scalar", dsp::active_backend().name);
    {
      const dsp::KernelBackend* inner =
          dsp::simd_backend() ? dsp::simd_backend() : &dsp::scalar_backend();
      dsp::ScopedKernel nested(*inner);
      EXPECT_STREQ(inner->name, dsp::active_backend().name);
    }
    EXPECT_STREQ("scalar", dsp::active_backend().name);
  }
  EXPECT_EQ(before, &dsp::active_backend());
}

TEST(KernelDispatch, EnvResolutionFlagHardening) {
  namespace detail = carpool::dsp::detail;
  // unset / auto / explicit names resolve without touching the counter.
  const dsp::KernelBackend* best =
      dsp::simd_backend() ? dsp::simd_backend() : &dsp::scalar_backend();
  EXPECT_EQ(best, detail::resolve_env_value(nullptr));
  EXPECT_EQ(best, detail::resolve_env_value(""));
  EXPECT_EQ(best, detail::resolve_env_value("auto"));
  EXPECT_EQ(&dsp::scalar_backend(), detail::resolve_env_value("scalar"));
  if (dsp::simd_backend() != nullptr) {
    EXPECT_EQ(dsp::simd_backend(), detail::resolve_env_value("simd"));
  }

  // Garbage: conservative scalar fallback + ops triage counter, the
  // resolve_threads convention for environment (vs strict CLI) input.
  carpool::obs::Registry& registry = carpool::obs::Registry::current();
  const std::uint64_t before =
      registry.counter_value("dsp.kernel_env_invalid");
  EXPECT_EQ(&dsp::scalar_backend(), detail::resolve_env_value("warp9"));
  EXPECT_EQ(&dsp::scalar_backend(), detail::resolve_env_value("SIMD"));
  EXPECT_EQ(before + 2, registry.counter_value("dsp.kernel_env_invalid"));

  // A recognized-but-unsupported tier name is not garbage: it degrades
  // to the best available backend without bumping the counter.
  const std::uint64_t after =
      registry.counter_value("dsp.kernel_env_invalid");
  const dsp::KernelBackend* resolved = detail::resolve_env_value("avx512");
  EXPECT_NE(nullptr, resolved);
  EXPECT_EQ(after, registry.counter_value("dsp.kernel_env_invalid"));
}

}  // namespace
