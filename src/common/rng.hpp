#pragma once

// Deterministic pseudo-random number generation for reproducible
// experiments. Every stochastic component in the library takes an explicit
// 64-bit seed; independent sub-streams are derived with split().

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "common/hash.hpp"

namespace carpool {

/// SplitMix64: used for seeding and stream-splitting. Passes BigCrush when
/// used as a generator on its own; here it mainly whitens user seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  return mix64(state);
}

/// One seed per (seed, index, salt) triple: XOR-fold the coordinates with
/// odd constants, then one splitmix64 step. The +1 offsets keep (0, 0)
/// from collapsing to the raw seed. The soak runner's episode, probe and
/// shadowing seeds and the multi-BSS domain seeds all come from it.
constexpr std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index,
                                    std::uint64_t salt) noexcept {
  std::uint64_t sm = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)) ^
                     (0xbf58476d1ce4e5b9ULL * (salt + 1));
  return splitmix64(sm);
}

/// xoshiro256** PRNG (Blackman & Vigna). Fast, high quality, 2^256-1
/// period. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derive an independent child stream. Children of distinct tags (or of
  /// RNGs in different states) are statistically independent for our
  /// purposes.
  [[nodiscard]] Rng split(std::uint64_t tag = 0) noexcept {
    std::uint64_t sm = (*this)() ^ (tag * 0x9e3779b97f4a7c15ULL + 0x1234abcdULL);
    Rng child(splitmix64(sm));
    return child;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Unbiased via rejection.
  std::uint64_t uniform_int(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Standard normal via Marsaglia polar method. Each accepted point
  /// gives two values; the second is kept as a spare for the next call.
  double gaussian() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    PolarPoint p;
    while (!polar_candidate(p)) {
    }
    double first = 0.0;
    polar_finish(p, std::log(p.s), first, spare_);
    have_spare_ = true;
    return first;
  }

  /// Values gaussians() draws per block.
  static constexpr std::size_t kGaussianBlock = 128;

  /// Fill `out` with standard normals: exactly the values of out.size()
  /// gaussian() calls, spare included, leaving the same state behind. A
  /// block of points is drawn first, then their logs are taken, then they
  /// are finished, so the rejection branch and the log calls do not stall
  /// each other.
  void gaussians(std::span<double> out) noexcept;

  double gaussian(double mean, double stddev) noexcept {
    return mean + stddev * gaussian();
  }

  /// Exponential with given mean (mean = 1/rate).
  double exponential(double mean) noexcept {
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  /// A point accepted by the polar method: (u, v) uniform in the unit
  /// disc without its centre, s = u^2 + v^2.
  struct PolarPoint {
    double u;
    double v;
    double s;
  };

  /// Draw one candidate point into `p`; true when the polar method
  /// accepts it (0 < s < 1). Branch-free, so a block of draws can keep
  /// the accepted ones without a mispredicted branch per rejection.
  bool polar_candidate(PolarPoint& p) noexcept {
    p.u = uniform(-1.0, 1.0);
    p.v = uniform(-1.0, 1.0);
    p.s = p.u * p.u + p.v * p.v;
    return (p.s < 1.0) & (p.s != 0.0);
  }

  /// The two normals of an accepted point, given log(s).
  static void polar_finish(const PolarPoint& p, double log_s, double& first,
                           double& second) noexcept {
    const double factor = std::sqrt(-2.0 * log_s / p.s);
    first = p.u * factor;
    second = p.v * factor;
  }

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace carpool
