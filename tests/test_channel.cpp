#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "channel/awgn.hpp"
#include "channel/fading.hpp"
#include "channel/pathloss.hpp"
#include "channel/shadowing.hpp"
#include "common/hash.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace carpool {
namespace {

TEST(Awgn, NoisePowerMatchesTarget) {
  Rng rng(1);
  CxVec samples(200000, Cx{});
  add_awgn(samples, 0.25, rng);
  EXPECT_NEAR(mean_power(samples), 0.25, 0.01);
}

TEST(Awgn, ZeroPowerIsNoOp) {
  Rng rng(2);
  CxVec samples(100, Cx{1.0, 1.0});
  add_awgn(samples, 0.0, rng);
  for (const Cx& s : samples) EXPECT_EQ(s, (Cx{1.0, 1.0}));
}

TEST(Awgn, NegativePowerThrows) {
  Rng rng(3);
  CxVec samples(4);
  EXPECT_THROW(add_awgn(samples, -1.0, rng), std::invalid_argument);
}

TEST(Awgn, SnrHelper) {
  EXPECT_NEAR(noise_power_for_snr(1.0, 20.0), 0.01, 1e-12);
  EXPECT_NEAR(noise_power_for_snr(2.0, 3.0), 1.0024, 1e-3);
}

TEST(Fading, UnitAverageGain) {
  // Across many independent realisations, E[sum |h_l|^2] = 1.
  RunningStats gains;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    FadingConfig cfg;
    cfg.seed = seed;
    cfg.snr_db = 200.0;  // effectively noise-free
    FadingChannel ch(cfg);
    const CxVec h = ch.frequency_response(64);
    gains.add(mean_power(h));
  }
  EXPECT_NEAR(gains.mean(), 1.0, 0.1);
}

TEST(Fading, DeterministicPerSeed) {
  FadingConfig cfg;
  cfg.seed = 77;
  FadingChannel a(cfg), b(cfg);
  const CxVec tx(100, Cx{1.0, 0.0});
  const CxVec ra = a.transmit(tx);
  const CxVec rb = b.transmit(tx);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], rb[i]);
}

TEST(Fading, SnrControlsNoise) {
  // Compare received error power against a noise-free run.
  const CxVec tx(20000, Cx{1.0, 0.0});
  FadingConfig clean_cfg;
  clean_cfg.seed = 5;
  clean_cfg.snr_db = 300.0;
  FadingChannel clean(clean_cfg);
  const CxVec ref = clean.transmit(tx);

  for (const double snr_db : {10.0, 20.0}) {
    FadingConfig cfg;
    cfg.seed = 5;  // same fading realisation
    cfg.snr_db = snr_db;
    FadingChannel noisy(cfg);
    const CxVec rx = noisy.transmit(tx);
    double err = 0.0;
    for (std::size_t i = 0; i < rx.size(); ++i) err += std::norm(rx[i] - ref[i]);
    err /= static_cast<double>(rx.size());
    EXPECT_NEAR(err, db_to_linear(-snr_db), db_to_linear(-snr_db) * 0.15);
  }
}

TEST(Fading, ChannelVariesFasterWithShorterCoherence) {
  // Measure decorrelation of H over 2 ms for two coherence times.
  auto decorrelation = [](double coherence) {
    FadingConfig cfg;
    cfg.seed = 9;
    cfg.coherence_time = coherence;
    FadingChannel ch(cfg);
    const CxVec h0 = ch.frequency_response(64);
    ch.idle(2e-3);
    const CxVec h1 = ch.frequency_response(64);
    double num = 0.0, den = 0.0;
    for (std::size_t k = 0; k < 64; ++k) {
      num += std::norm(h1[k] - h0[k]);
      den += std::norm(h0[k]);
    }
    return num / den;
  };
  const double fast = decorrelation(0.5e-3);
  const double slow = decorrelation(50e-3);
  EXPECT_GT(fast, 4.0 * slow);
}

TEST(Fading, FlatWhenSingleTap) {
  FadingConfig cfg;
  cfg.seed = 11;
  cfg.num_taps = 1;
  FadingChannel ch(cfg);
  const CxVec h = ch.frequency_response(64);
  for (std::size_t k = 1; k < 64; ++k) {
    EXPECT_NEAR(std::abs(h[k]), std::abs(h[0]), 1e-9);
  }
}

TEST(Fading, MultipathIsFrequencySelective) {
  FadingConfig cfg;
  cfg.seed = 12;
  cfg.num_taps = 6;
  FadingChannel ch(cfg);
  const CxVec h = ch.frequency_response(64);
  double min_mag = 1e9, max_mag = 0.0;
  for (const Cx& hk : h) {
    min_mag = std::min(min_mag, std::abs(hk));
    max_mag = std::max(max_mag, std::abs(hk));
  }
  EXPECT_GT(max_mag / min_mag, 1.5);
}

TEST(Fading, CfoRotatesPhase) {
  FadingConfig cfg;
  cfg.seed = 13;
  cfg.num_taps = 1;
  cfg.coherence_time = 1e3;  // effectively static taps
  cfg.snr_db = 300.0;
  cfg.cfo_hz = 10e3;
  FadingChannel ch(cfg);
  const CxVec tx(2000, Cx{1.0, 0.0});
  const CxVec rx = ch.transmit(tx);
  // Phase advance over 600 samples at 10 kHz / 20 MHz (stays away from
  // the +-pi wrap boundary).
  const double expected = kTwoPi * 10e3 * 600.0 / 20e6;
  const double measured =
      wrap_angle(std::arg(rx[1100]) - std::arg(rx[500]));
  EXPECT_NEAR(measured, wrap_angle(expected), 0.05);
}

TEST(Fading, OutputPinned) {
  // FNV-1a over the bits of every output sample of two frames with an idle
  // gap between them, so the CFO rotation, the tap recursion and the
  // timing offset are each held to the exact output.
  struct Case {
    double cfo_hz;
    bool rician;
    std::size_t timing_offset;
    std::uint64_t digest;
    std::size_t num_taps = 4;
    std::size_t length = 1000;
  };
  const Case cases[] = {
      {0.0, false, 0, 0x13f5178aaafb6367ULL},
      {0.0, true, 7, 0x9835fe68777ff364ULL},
      {6e3, false, 7, 0xf494105a2e850cfaULL},
      {6e3, true, 0, 0x3e399f630922de31ULL},
      // Flat fading, and a long delay line under CFO.
      {0.0, false, 0, 0x179c1da84dc39c93ULL, 1},
      {6e3, true, 3, 0x3f6dde4a8bde3df6ULL, 8},
      // A waveform shorter than the delay line: every sample takes the
      // partial-sum path.
      {0.0, true, 2, 0x98d281eea6efb74dULL, 8, 5},
      // An offset at least as long as the waveform: nothing but zeros
      // reaches the taps, so no noise is added either.
      {6e3, false, 1000, 0xd1ceb52a1dee2a25ULL, 4, 1000},
      {0.0, false, 12, 0x81b169c331cabfa5ULL, 8, 5},
  };
  Rng rng(91);
  CxVec tx(1000);
  for (Cx& s : tx) s = Cx{rng.gaussian(0.0, 1.0), rng.gaussian(0.0, 1.0)};
  for (const Case& c : cases) {
    FadingConfig cfg;
    cfg.seed = 92;
    cfg.cfo_hz = c.cfo_hz;
    cfg.rician_los = c.rician;
    cfg.timing_offset_samples = c.timing_offset;
    cfg.num_taps = c.num_taps;
    FadingChannel ch(cfg);
    std::uint64_t h = kFnv1aBasis;
    for (int frame = 0; frame < 2; ++frame) {
      for (const Cx& s : ch.transmit(std::span(tx).first(c.length))) {
        h = fnv1a64_u64(std::bit_cast<std::uint64_t>(s.real()), h);
        h = fnv1a64_u64(std::bit_cast<std::uint64_t>(s.imag()), h);
      }
      ch.idle(1e-5);  // 200 samples: the next frame starts mid-update
    }
    EXPECT_EQ(h, c.digest) << "cfo " << c.cfo_hz << " rician " << c.rician
                           << " offset " << c.timing_offset << " taps "
                           << c.num_taps << " length " << c.length;
  }
}

TEST(Fading, RicianHasSmallerFadeDepth) {
  // LOS component should reduce the spread of channel magnitudes.
  RunningStats rayleigh_mag, rician_mag;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    FadingConfig cfg;
    cfg.seed = seed;
    cfg.num_taps = 1;
    FadingChannel ray(cfg);
    cfg.rician_los = true;
    cfg.rician_k_db = 10.0;
    FadingChannel ric(cfg);
    rayleigh_mag.add(std::abs(ray.frequency_response(64)[0]));
    rician_mag.add(std::abs(ric.frequency_response(64)[0]));
  }
  EXPECT_LT(rician_mag.stddev(), rayleigh_mag.stddev() * 0.75);
}

TEST(Fading, InvalidConfigThrows) {
  FadingConfig cfg;
  cfg.num_taps = 0;
  EXPECT_THROW(FadingChannel{cfg}, std::invalid_argument);
  cfg = FadingConfig{};
  cfg.coherence_time = -1.0;
  EXPECT_THROW(FadingChannel{cfg}, std::invalid_argument);
  cfg = FadingConfig{};
  cfg.tap_decay = 0.0;
  EXPECT_THROW(FadingChannel{cfg}, std::invalid_argument);
}


TEST(Fading, TimingOffsetDelaysWaveform) {
  FadingConfig cfg;
  cfg.seed = 55;
  cfg.num_taps = 1;
  cfg.snr_db = 300.0;
  cfg.coherence_time = 1e3;
  FadingChannel aligned(cfg);
  cfg.timing_offset_samples = 5;
  FadingChannel offset(cfg);
  CxVec tx(50, Cx{});
  tx[0] = Cx{1.0, 0.0};
  const CxVec a = aligned.transmit(tx);
  const CxVec b = offset.transmit(tx);
  // The impulse lands 5 samples later through the offset channel.
  std::size_t peak_a = 0, peak_b = 0;
  for (std::size_t i = 1; i < 50; ++i) {
    if (std::abs(a[i]) > std::abs(a[peak_a])) peak_a = i;
    if (std::abs(b[i]) > std::abs(b[peak_b])) peak_b = i;
  }
  EXPECT_EQ(peak_b, peak_a + 5);
}

TEST(PathLoss, MonotoneInDistance) {
  const PathLossModel model;
  EXPECT_LT(model.loss_db(1.0), model.loss_db(3.0));
  EXPECT_LT(model.loss_db(3.0), model.loss_db(10.0));
}

TEST(PathLoss, ExponentSlope) {
  PathLossConfig cfg;
  cfg.exponent = 3.0;
  const PathLossModel model(cfg);
  // 10x distance -> 30 dB extra loss at exponent 3.
  EXPECT_NEAR(model.loss_db(10.0) - model.loss_db(1.0), 30.0, 1e-9);
}

TEST(PathLoss, SnrDecreasesWithDistance) {
  const PathLossModel model;
  EXPECT_GT(model.snr_db(20.0, 1.0), model.snr_db(20.0, 8.0));
}

TEST(PathLoss, UsrpPowerMagnitudeMapping) {
  // Full scale = 20 dBm; 0.1 magnitude = -20 dB amplitude.
  EXPECT_NEAR(usrp_power_magnitude_to_dbm(1.0), 20.0, 1e-9);
  EXPECT_NEAR(usrp_power_magnitude_to_dbm(0.1), 0.0, 1e-9);
  // Each doubling of magnitude is +6 dB (paper sweeps 0.0125..0.2).
  EXPECT_NEAR(usrp_power_magnitude_to_dbm(0.2) -
                  usrp_power_magnitude_to_dbm(0.1),
              6.0, 0.05);
  EXPECT_THROW(usrp_power_magnitude_to_dbm(0.0), std::invalid_argument);
  EXPECT_THROW(usrp_power_magnitude_to_dbm(1.5), std::invalid_argument);
}

// -------------------------------------------- correlated shadowing

TEST(Shadowing, SameSeedBitIdenticalOffsets) {
  const channel::ShadowingConfig cfg{};
  const std::vector<std::pair<double, double>> pos{{0, 0}, {3, 4}, {8, 1}};
  const channel::CorrelatedShadowing a(cfg, pos, 5.0, 77);
  const channel::CorrelatedShadowing b(cfg, pos, 5.0, 77);
  for (double t = 0.0; t < 5.0; t += 0.37) {
    for (std::size_t i = 0; i < pos.size(); ++i) {
      ASSERT_EQ(a.offset_db(i, t), b.offset_db(i, t))
          << "sta " << i << " t " << t;
    }
  }
}

TEST(Shadowing, DifferentSeedsDecorrelate) {
  const channel::ShadowingConfig cfg{};
  const std::vector<std::pair<double, double>> pos{{0, 0}, {5, 5}};
  const channel::CorrelatedShadowing a(cfg, pos, 5.0, 1);
  const channel::CorrelatedShadowing b(cfg, pos, 5.0, 2);
  bool any_diff = false;
  for (double t = 0.0; t < 5.0 && !any_diff; t += 0.5) {
    any_diff = a.offset_db(0, t) != b.offset_db(0, t);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Shadowing, CoLocatedStationsShadowTogether) {
  // d = 0 => spatial correlation exp(-0/d0) = 1. The singular matrix
  // forces the Cholesky's diagonal-jitter retry, so the two stations are
  // near-identical (within the jitter's footprint), not bit-equal.
  const channel::ShadowingConfig cfg{};
  const std::vector<std::pair<double, double>> pos{{2, 2}, {2, 2}};
  const channel::CorrelatedShadowing sh(cfg, pos, 4.0, 9);
  for (double t = 0.0; t < 4.0; t += 0.21) {
    EXPECT_NEAR(sh.offset_db(0, t), sh.offset_db(1, t), 1e-2) << t;
  }
}

TEST(Shadowing, NearbyStationsCorrelateMoreThanDistantOnes) {
  channel::ShadowingConfig cfg;
  cfg.decorr_distance_m = 5.0;
  cfg.decorr_time_s = 0.05;  // fast temporal churn -> many samples
  cfg.sample_interval_s = 0.05;
  const std::vector<std::pair<double, double>> pos{
      {0, 0}, {0.5, 0}, {50, 0}};
  const channel::CorrelatedShadowing sh(cfg, pos, 400.0, 13);
  double c_near = 0.0, c_far = 0.0, v0 = 0.0, v1 = 0.0, v2 = 0.0;
  std::size_t n = 0;
  for (double t = 0.0; t < 400.0; t += 0.05, ++n) {
    const double a = sh.offset_db(0, t);
    const double b = sh.offset_db(1, t);
    const double c = sh.offset_db(2, t);
    c_near += a * b;
    c_far += a * c;
    v0 += a * a;
    v1 += b * b;
    v2 += c * c;
  }
  const double rho_near = c_near / std::sqrt(v0 * v1);
  const double rho_far = c_far / std::sqrt(v0 * v2);
  EXPECT_GT(rho_near, 0.7);          // 0.5 m apart, d0 = 5 m
  EXPECT_LT(rho_far, 0.3);           // 50 m apart: essentially independent
  EXPECT_GT(rho_near, rho_far + 0.3);
}

TEST(Shadowing, MarginalStdDevTracksSigma) {
  channel::ShadowingConfig cfg;
  cfg.sigma_db = 4.0;
  cfg.decorr_time_s = 0.05;
  cfg.sample_interval_s = 0.05;
  const std::vector<std::pair<double, double>> pos{{0, 0}};
  const channel::CorrelatedShadowing sh(cfg, pos, 500.0, 21);
  double sum = 0.0, sum_sq = 0.0;
  std::size_t n = 0;
  for (double t = 0.0; t < 500.0; t += 0.05, ++n) {
    const double x = sh.offset_db(0, t);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / static_cast<double>(n);
  const double sd =
      std::sqrt(sum_sq / static_cast<double>(n) - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.5);
  EXPECT_NEAR(sd, cfg.sigma_db, 0.8);
}

TEST(Shadowing, OutOfRangeAndDegenerateInputsAreZero) {
  const channel::ShadowingConfig cfg{};
  const channel::CorrelatedShadowing sh(
      cfg, {{0, 0}}, 2.0, 3);
  EXPECT_EQ(sh.offset_db(5, 1.0), 0.0);  // index past the last station
  // Time clamping at the grid ends: finite values, no crash.
  EXPECT_TRUE(std::isfinite(sh.offset_db(0, -10.0)));
  EXPECT_TRUE(std::isfinite(sh.offset_db(0, 100.0)));

  const channel::CorrelatedShadowing empty(cfg, {}, 2.0, 3);
  EXPECT_EQ(empty.num_stations(), 0u);
  EXPECT_EQ(empty.offset_db(0, 1.0), 0.0);

  const channel::CorrelatedShadowing flat(cfg, {{0, 0}}, 0.0, 3);
  EXPECT_TRUE(std::isfinite(flat.offset_db(0, 0.0)));
}

}  // namespace
}  // namespace carpool
