#include "dsp/kernels.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>

#include "common/bits.hpp"
#include "dsp/kernels_backends.hpp"
#include "dsp/kernels_internal.hpp"
#include "obs/registry.hpp"

namespace carpool::dsp {
namespace {

struct CpuSupport {
  bool sse2 = false;
  bool avx2 = false;
  bool avx512f = false;
};

CpuSupport detect_cpu() noexcept {
  CpuSupport out;
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports consults XCR0, so an OS that does not save
  // the AVX/AVX-512 register state reports the tier unsupported.
  out.sse2 = __builtin_cpu_supports("sse2") != 0;
  out.avx2 = __builtin_cpu_supports("avx2") != 0;
  out.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
  return out;
}

const CpuSupport& cpu() noexcept {
  static const CpuSupport support = detect_cpu();
  return support;
}

ViterbiTables build_viterbi_tables() noexcept {
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

/// Twiddles via the same serial recurrence the pre-kernel FFT ran inline:
/// w starts at 1 and is multiplied by w_len per butterfly, so backends
/// that read the table reproduce the historical rounding exactly.
CxVec build_twiddles(std::size_t n, int sign) {
  CxVec tw;
  tw.reserve(n > 0 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        static_cast<double>(sign) * kTwoPi / static_cast<double>(len);
    const Cx wlen = cx_exp(angle);
    Cx w{1.0, 0.0};
    for (std::size_t k = 0; k < len / 2; ++k) {
      tw.push_back(w);
      w = detail::cx_mul(w, wlen);
    }
  }
  return tw;
}

std::atomic<const KernelBackend*> g_selected{nullptr};

}  // namespace

namespace detail {

const KernelBackend* resolve_env_value(const char* env) {
  if (env == nullptr || *env == '\0') {
    const KernelBackend* simd = simd_backend();
    return simd != nullptr ? simd : &scalar_backend();
  }
  const std::string_view name(env);
  if (name == "auto") {
    const KernelBackend* simd = simd_backend();
    return simd != nullptr ? simd : &scalar_backend();
  }
  if (name == "scalar") return &scalar_backend();
  if (name == "simd") {
    const KernelBackend* simd = simd_backend();
    if (simd != nullptr) return simd;
    std::fprintf(stderr,
                 "carpool: CARPOOL_KERNEL=simd but no SIMD tier is usable "
                 "on this CPU; running the scalar backend\n");
    return &scalar_backend();
  }
  if (const KernelBackend* tier = backend_by_name(name); tier != nullptr) {
    return tier;
  }
  if (name == "sse2" || name == "avx2" || name == "avx512") {
    // Recognized tier, unsupported CPU: degrade to the best we have.
    const KernelBackend* simd = simd_backend();
    const KernelBackend* best = simd != nullptr ? simd : &scalar_backend();
    std::fprintf(stderr,
                 "carpool: CARPOOL_KERNEL=%s is not supported on this CPU; "
                 "running the %s backend\n",
                 env, best->name);
    return best;
  }
  // Garbage: warn once, leave a triage counter, and fall back to the
  // conservative scalar reference — the resolve_threads convention
  // (docs/FAULT_TOLERANCE.md, "flag hardening").
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "carpool: ignoring invalid CARPOOL_KERNEL=\"%s\" (want "
                 "auto|scalar|simd|sse2|avx2|avx512); running the scalar "
                 "backend\n",
                 env);
  }
  try {
    obs::Registry::current().counter("dsp.kernel_env_invalid").add();
  } catch (...) {
    // active_backend() is noexcept; the stderr warning already landed.
  }
  return &scalar_backend();
}

}  // namespace detail

namespace {

const KernelBackend* env_default() {
  static const KernelBackend* resolved =
      detail::resolve_env_value(std::getenv("CARPOOL_KERNEL"));
  return resolved;
}

}  // namespace

const ViterbiTables& viterbi_tables() noexcept {
  static const ViterbiTables tables = build_viterbi_tables();
  return tables;
}

const Cx* fft_twiddles(std::size_t n, int sign) {
  // The OFDM hot path is n == 64; give it lock-free magic statics and
  // push every other (test-only) size through a mutexed cache.
  if (n == 64) {
    static const CxVec fwd = build_twiddles(64, -1);
    static const CxVec inv = build_twiddles(64, +1);
    return (sign < 0 ? fwd : inv).data();
  }
  static std::mutex mutex;
  static std::map<std::pair<std::size_t, int>, CxVec> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto [it, inserted] = cache.try_emplace({n, sign < 0 ? -1 : +1});
  if (inserted) it->second = build_twiddles(n, sign < 0 ? -1 : +1);
  return it->second.data();
}

const KernelBackend* simd_backend() noexcept {
  static const KernelBackend* best = []() -> const KernelBackend* {
    const CpuSupport& support = cpu();
    if (support.avx512f) {
      if (const KernelBackend* b = detail::avx512_backend()) return b;
    }
    if (support.avx2) {
      if (const KernelBackend* b = detail::avx2_backend()) return b;
    }
    if (support.sse2) {
      if (const KernelBackend* b = detail::sse2_backend()) return b;
    }
    return nullptr;
  }();
  return best;
}

std::vector<const KernelBackend*> available_backends() {
  std::vector<const KernelBackend*> out{&scalar_backend()};
  const CpuSupport& support = cpu();
  if (support.sse2) {
    if (const KernelBackend* b = detail::sse2_backend()) out.push_back(b);
  }
  if (support.avx2) {
    if (const KernelBackend* b = detail::avx2_backend()) out.push_back(b);
  }
  if (support.avx512f) {
    if (const KernelBackend* b = detail::avx512_backend()) out.push_back(b);
  }
  return out;
}

std::string cpu_features() {
  const CpuSupport& support = cpu();
  std::string out;
  if (support.sse2) out += "sse2 ";
  if (support.avx2) out += "avx2 ";
  if (support.avx512f) out += "avx512f ";
  if (out.empty()) return "none";
  out.pop_back();
  return out;
}

const KernelBackend* backend_by_name(std::string_view name) noexcept {
  if (name == "scalar") return &scalar_backend();
  const CpuSupport& support = cpu();
  if (name == "sse2" && support.sse2) return detail::sse2_backend();
  if (name == "avx2" && support.avx2) return detail::avx2_backend();
  if (name == "avx512" && support.avx512f) return detail::avx512_backend();
  return nullptr;
}

const KernelBackend& active_backend() noexcept {
  const KernelBackend* selected = g_selected.load(std::memory_order_acquire);
  if (selected != nullptr) return *selected;
  return *env_default();
}

KernelSelect select_kernel(std::string_view name) noexcept {
  if (name == "auto") {
    const KernelBackend* simd = simd_backend();
    g_selected.store(simd != nullptr ? simd : &scalar_backend(),
                     std::memory_order_release);
    return KernelSelect::kOk;
  }
  if (name == "scalar") {
    g_selected.store(&scalar_backend(), std::memory_order_release);
    return KernelSelect::kOk;
  }
  if (name == "simd") {
    const KernelBackend* simd = simd_backend();
    if (simd == nullptr) return KernelSelect::kUnavailable;
    g_selected.store(simd, std::memory_order_release);
    return KernelSelect::kOk;
  }
  if (name == "sse2" || name == "avx2" || name == "avx512") {
    const KernelBackend* tier = backend_by_name(name);
    if (tier == nullptr) return KernelSelect::kUnavailable;
    g_selected.store(tier, std::memory_order_release);
    return KernelSelect::kOk;
  }
  return KernelSelect::kUnknown;
}

std::string select_kernel_flag(const char* name) {
  const std::string value = name == nullptr ? "" : name;
  switch (select_kernel(value)) {
    case KernelSelect::kOk:
      return "";
    case KernelSelect::kUnavailable:
      return "--kernel " + value + " is not supported on this CPU (" +
             kernel_info() + ")";
    case KernelSelect::kUnknown:
      break;
  }
  return "--kernel wants auto|scalar|simd|sse2|avx2|avx512, got \"" +
         value + "\"";
}

ScopedKernel::ScopedKernel(const KernelBackend& backend) noexcept
    : previous_(g_selected.load(std::memory_order_acquire)) {
  g_selected.store(&backend, std::memory_order_release);
}

ScopedKernel::~ScopedKernel() {
  g_selected.store(previous_, std::memory_order_release);
}

std::string kernel_info() {
  std::string out = "kernel backend: ";
  out += active_backend().name;
  out += g_selected.load(std::memory_order_acquire) != nullptr
             ? " (selected)"
             : (std::getenv("CARPOOL_KERNEL") != nullptr ? " (env)"
                                                         : " (auto)");
  out += "; cpu: ";
  out += cpu_features();
  out += "; tiers:";
  for (const KernelBackend* backend : available_backends()) {
    out += ' ';
    out += backend->name;
  }
  return out;
}

Cx div_smith(Cx num, Cx den) noexcept {
  double x = 0.0, y = 0.0;
  detail::smith_div(num.real(), num.imag(), den.real(), den.imag(), x, y);
  return Cx{x, y};
}

void equalize(const Cx* bins, const Cx* h, std::size_t n, Cx derotate,
              Cx* data_out, double* gains_out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    detail::equalize_one(bins[i], h[i], derotate, data_out[i],
                         gains_out[i]);
  }
}

PilotEstimate pilot_estimate(const Cx* bins, const Cx* h,
                             const double* expected,
                             std::size_t n) noexcept {
  PilotEstimate out;
  for (std::size_t i = 0; i < n; ++i) {
    if (h[i] == Cx{}) continue;
    const Cx eq = div_smith(bins[i], h[i]);
    // expected[i] is real +-1: componentwise multiply, exact.
    out.corr += Cx{eq.real() * expected[i], eq.imag() * expected[i]};
    out.magnitude_sum += std::abs(eq);
  }
  return out;
}

}  // namespace carpool::dsp
