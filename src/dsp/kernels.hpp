#pragma once

// Runtime-dispatched PHY/FEC compute kernels (docs/KERNELS.md).
//
// The receiver spends most of its cycles in two scalar leaves: the
// radix-2 FFT and the soft Viterbi add-compare-select. This module puts
// those leaves behind a `KernelBackend` table with a portable scalar
// reference implementation and SIMD tiers (SSE2 / AVX2 / AVX-512, built
// from one width-generic source), selected at runtime by CPU feature
// detection and overridable via CARPOOL_KERNEL / --kernel. The
// per-subcarrier equalizer (dsp::equalize) is one plain loop: a SIMD
// form of it bought about 1% end to end, which is not worth a slot.
//
// Bit-identity contract: every backend produces *bit-identical* outputs
// for the same inputs. The kernels are written so each output element is
// computed by the same sequence of IEEE-754 operations in every backend
// (shared twiddle/branch tables, no reassociation, no FMA contraction —
// the kernel translation units compile with -ffp-contract=off), which is
// what lets the soak fingerprint canary and the kernel-parity CI gate
// diff campaigns across backends. tests/test_dsp_kernels.cpp asserts the
// contract on randomized inputs, including remainder lanes.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dsp/complex_vec.hpp"

namespace carpool::dsp {

/// 802.11 K=7 convolutional code trellis: 64 states, generators
/// g0=0133/g1=0171 (octal). Mirrors ConvolutionalCode in src/fec; the
/// values are re-stated here because dsp must not depend on fec (fec
/// links against dsp's kernels).
inline constexpr std::size_t kViterbiStates = 64;
inline constexpr unsigned kViterbiG0 = 0133;
inline constexpr unsigned kViterbiG1 = 0171;

/// Branch-metric sign tables, indexed by *next* state n in [0, 64).
/// The two predecessors of n are p0 = 2*(n & 31) and p1 = p0 + 1; the
/// encoder input bit on both incoming edges is n >> 5. sAB[n] is the
/// +1/-1 expectation of coded bit B on the edge from predecessor pA.
struct ViterbiTables {
  alignas(64) double s00[kViterbiStates];
  alignas(64) double s01[kViterbiStates];
  alignas(64) double s10[kViterbiStates];
  alignas(64) double s11[kViterbiStates];
};

/// The process-wide branch tables (computed once).
const ViterbiTables& viterbi_tables() noexcept;

/// Twiddle factors for a size-n transform (n a power of two), stage-major:
/// for each stage len = 2, 4, ..., n the len/2 factors w_k, so the stage
/// with span `len` starts at offset len/2 - 1 and the table holds n - 1
/// entries. Built by the same serial w *= w_len recurrence the scalar
/// reference uses, so every backend multiplies by the identical values.
/// sign = -1 forward, +1 inverse. Thread-safe; pointers stay valid for
/// the process lifetime.
const Cx* fft_twiddles(std::size_t n, int sign);

/// One backend = one table of kernel entry points. All pointers are
/// non-null in every registered backend.
struct KernelBackend {
  const char* name;  ///< "scalar", "sse2", "avx2", "avx512"

  /// In-place radix-2 transform, bit-reversal included; n must be a
  /// nonzero power of two (validated by the caller). sign = -1 forward,
  /// +1 inverse (unscaled).
  void (*fft)(Cx* data, std::size_t n, int sign);

  /// Batched in-place transform of `count` independent n-point symbols
  /// stored back to back (symbol s at data + s*n) — the OFDM demodulator
  /// hands a whole frame's symbols over at once. Bit-identical to
  /// calling fft() per symbol; the SIMD tiers transpose groups of
  /// symbols into structure-of-arrays form so every vector lane carries
  /// one symbol through the shared butterfly sequence.
  void (*fft_batch)(Cx* data, std::size_t n, std::size_t count, int sign);

  /// Viterbi forward pass (add-compare-select) over `steps` trellis
  /// steps of rate-1/2 soft input (soft[2t], soft[2t+1]; 0.0 = erasure).
  /// Writes one select word per step: bit n of sel[t] is 1 when the
  /// surviving edge into next-state n comes from predecessor
  /// 2*(n & 31) + 1 (0 = the even predecessor, ties keep the even one).
  /// final_metric receives the 64 path metrics after the last step.
  void (*viterbi_forward)(const double* soft, std::size_t steps,
                          std::uint64_t* sel, double* final_metric);
};

/// The portable scalar reference backend (always available).
const KernelBackend& scalar_backend() noexcept;

/// The best SIMD tier compiled in *and* supported by this CPU, or null
/// when none is (non-x86 builds, or x86 without SSE2 — i.e. never on
/// x86-64).
const KernelBackend* simd_backend() noexcept;

/// A specific backend by name ("scalar", "sse2", "avx2", "avx512"), or
/// null when that tier is not compiled in / not supported by this CPU.
/// Parity tests use this to diff tiers pairwise.
const KernelBackend* backend_by_name(std::string_view name) noexcept;

/// Every backend usable on this CPU, scalar first, then ascending SIMD
/// tiers.
std::vector<const KernelBackend*> available_backends();

/// The backend the PHY/FEC wrappers dispatch to. Resolution order:
///   1. the most recent successful select_kernel() call,
///   2. $CARPOOL_KERNEL ("auto" | "scalar" | "simd" | a tier name) —
///      an unparseable value warns once, bumps dsp.kernel_env_invalid,
///      and conservatively falls back to scalar; a recognized but
///      unsupported tier warns once and falls back to the best
///      available tier,
///   3. auto: the best SIMD tier, else scalar.
const KernelBackend& active_backend() noexcept;

enum class KernelSelect {
  kOk,           ///< selection applied
  kUnknown,      ///< not a recognized kernel name (CLI: usage + exit 2)
  kUnavailable,  ///< recognized tier, but not supported on this CPU
};

/// Select the active backend by name: "auto", "scalar", "simd", or a
/// specific tier ("sse2", "avx2", "avx512"). Strict: garbage returns
/// kUnknown and leaves the selection unchanged — CLIs translate that to
/// usage + exit 2 (the resolve_threads flag-hardening convention).
KernelSelect select_kernel(std::string_view name) noexcept;

/// select_kernel() for a --kernel command-line value (null reads as
/// ""): the empty string when the selection applied, else the error
/// text, e.g. `--kernel wants auto|scalar|simd|sse2|avx2|avx512, got
/// "x"`. Each CLI prints it after its own name and exits 2.
std::string select_kernel_flag(const char* name);

/// RAII backend override for benchmarks and parity tests: forces the
/// given backend for the current process, restores the previous
/// selection on destruction. Not thread-scoped — do not interleave with
/// concurrent select_kernel calls.
class ScopedKernel {
 public:
  explicit ScopedKernel(const KernelBackend& backend) noexcept;
  ~ScopedKernel();
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  const KernelBackend* previous_;
};

/// Detected CPU SIMD features, e.g. "sse2 avx2 avx512f" ("none" when no
/// tier is usable).
std::string cpu_features();

/// One-line dispatch summary for CLI banners and the CI job summary:
/// active backend, how it was chosen, CPU features, compiled tiers.
std::string kernel_info();

/// Smith's-algorithm complex division shared by the equalizer and the
/// pilot phase estimate (detail::smith_div). An exact zero denominator
/// yields garbage (callers mask h == 0 beforehand).
Cx div_smith(Cx num, Cx den) noexcept;

/// Per-subcarrier equalization of n gathered bins: for each i,
/// data_out[i] = (bins[i] / h[i]) * derotate and gains_out[i] =
/// |h[i]|^2, with h[i] == 0 treated as an erased subcarrier (data_out 0,
/// gains_out 0). Division follows Smith's algorithm (see div_smith).
void equalize(const Cx* bins, const Cx* h, std::size_t n, Cx derotate,
              Cx* data_out, double* gains_out) noexcept;

struct PilotEstimate {
  Cx corr;
  double magnitude_sum = 0.0;
};

/// Serial pilot correlation against the expected +-1 pattern:
/// corr = sum_i (bins[i] / h[i]) * expected[i], magnitude_sum =
/// sum_i |bins[i] / h[i]|, skipping pilots with h[i] == 0 (n is 4).
PilotEstimate pilot_estimate(const Cx* bins, const Cx* h,
                             const double* expected, std::size_t n) noexcept;

}  // namespace carpool::dsp
