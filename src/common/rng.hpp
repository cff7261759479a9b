#pragma once

// Deterministic pseudo-random number generation for reproducible
// experiments. Every stochastic component in the library takes an explicit
// 64-bit seed; independent sub-streams are derived with split().

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

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

  /// Standard normal via Marsaglia polar method.
  double gaussian() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u = 0, v = 0, s = 0;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    have_spare_ = true;
    return u * factor;
  }

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
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace carpool
