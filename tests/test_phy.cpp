#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "channel/fading.hpp"
#include "common/rng.hpp"
#include "fec/interleaver.hpp"
#include "phy/constellation.hpp"
#include "phy/equalizer.hpp"
#include "phy/frame.hpp"
#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "phy/preamble.hpp"
#include "phy/sig.hpp"
#include "phy/sync.hpp"

namespace carpool {
namespace {

Bytes random_psdu(std::size_t n, Rng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return out;
}

class ConstellationParam : public ::testing::TestWithParam<Modulation> {};

TEST_P(ConstellationParam, MapDemapRoundTrip) {
  const Constellation& con = constellation(GetParam());
  Rng rng(17);
  for (int t = 0; t < 200; ++t) {
    Bits bits(con.bits_per_point());
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    EXPECT_EQ(con.demap_hard(con.map(bits)), bits);
  }
}

TEST_P(ConstellationParam, UnitAveragePower) {
  const Constellation& con = constellation(GetParam());
  double power = 0.0;
  for (const Cx& p : con.points()) power += std::norm(p);
  EXPECT_NEAR(power / static_cast<double>(con.size()), 1.0, 1e-12);
}

TEST_P(ConstellationParam, GrayCodingNeighborsDifferByOneBit) {
  // Nearest distinct neighbours of every point differ in exactly one bit.
  const Constellation& con = constellation(GetParam());
  const auto points = con.points();
  for (std::size_t a = 0; a < points.size(); ++a) {
    double min_d = 1e18;
    for (std::size_t b = 0; b < points.size(); ++b) {
      if (a != b) min_d = std::min(min_d, std::abs(points[a] - points[b]));
    }
    for (std::size_t b = 0; b < points.size(); ++b) {
      if (a == b || std::abs(points[a] - points[b]) > min_d * 1.001) continue;
      EXPECT_EQ(std::popcount(a ^ b), 1)
          << modulation_name(GetParam()) << " labels " << a << "," << b;
    }
  }
}

TEST_P(ConstellationParam, SoftDemapSignsMatchHardDecision) {
  const Constellation& con = constellation(GetParam());
  Rng rng(18);
  for (int t = 0; t < 100; ++t) {
    Bits bits(con.bits_per_point());
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    const Cx point = con.map(bits);
    SoftBits soft(con.bits_per_point());
    con.demap_soft(point, 1.0, soft);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      EXPECT_EQ(soft[i] > 0.0, bits[i] == 1);
    }
  }
}

// ------------------------------------------ demapper reference checks

constexpr Modulation kAllModulations[] = {Modulation::kBpsk, Modulation::kQpsk,
                                          Modulation::kQam16,
                                          Modulation::kQam64};

/// The full-search hard demapper the per-axis one replaced: every label's
/// std::norm distance, scanned in label order with a strict `<`.
std::size_t full_search_label(const Constellation& con, Cx r) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  const auto points = con.points();
  for (std::size_t label = 0; label < points.size(); ++label) {
    const double d = std::norm(r - points[label]);
    if (d < best_dist) {
      best_dist = d;
      best = label;
    }
  }
  return best;
}

/// The full-search max-log soft demapper, appending one value per bit.
void full_search_soft(const Constellation& con, Cx r, double gain,
                      SoftBits& out) {
  const auto points = con.points();
  for (std::size_t bit = 0; bit < con.bits_per_point(); ++bit) {
    double min0 = std::numeric_limits<double>::infinity();
    double min1 = std::numeric_limits<double>::infinity();
    for (std::size_t label = 0; label < points.size(); ++label) {
      const double d = std::norm(r - points[label]);
      if ((label >> bit) & 1u) {
        min1 = std::min(min1, d);
      } else {
        min0 = std::min(min0, d);
      }
    }
    out.push_back(gain * (min0 - min1));
  }
}

/// Received points that stress the decision: the cross product of axis
/// coordinates at every level and decision midpoint (each +- 1..3 ulps),
/// +-0, subnormals, 1e+-300, +-DBL_MAX, +-inf and NaN, then `random`
/// uniform points around the constellation.
std::vector<Cx> demap_probe_points(const Constellation& con,
                                   std::size_t random, Rng& rng) {
  using lim = std::numeric_limits<double>;
  std::vector<double> levels;
  for (const Cx& p : con.points()) {
    levels.push_back(p.real());
    levels.push_back(p.imag());
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  std::vector<double> coords = {0.0,          -0.0,
                                lim::denorm_min(), -lim::denorm_min(),
                                lim::min(),   -lim::min(),
                                1e-300,       -1e-300,
                                1e300,        -1e300,
                                lim::max(),   -lim::max(),
                                lim::infinity(), -lim::infinity(),
                                lim::quiet_NaN()};
  auto add_around = [&](double x) {
    coords.push_back(x);
    double up = x;
    double down = x;
    for (int k = 0; k < 3; ++k) {
      up = std::nextafter(up, lim::infinity());
      down = std::nextafter(down, -lim::infinity());
      coords.push_back(up);
      coords.push_back(down);
    }
  };
  for (std::size_t k = 0; k < levels.size(); ++k) {
    add_around(levels[k]);
    if (k + 1 < levels.size()) add_around((levels[k] + levels[k + 1]) / 2.0);
  }
  std::vector<Cx> points;
  for (const double re : coords) {
    for (const double im : coords) points.emplace_back(re, im);
  }
  for (std::size_t i = 0; i < random; ++i) {
    points.emplace_back(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6));
  }
  return points;
}

TEST(DemapReference, HardLabelsMatchFullSearch) {
  Rng rng(301);
  for (const Modulation mod : kAllModulations) {
    const Constellation& con = constellation(mod);
    std::size_t mismatches = 0;
    const std::vector<Cx> points = demap_probe_points(con, 200000, rng);
    for (const Cx& p : points) {
      if (con.nearest(p) != full_search_label(con, p)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << modulation_name(mod) << " over "
                              << points.size() << " points";
  }
}

TEST(DemapReference, SoftLlrsMatchFullSearchBitwise) {
  Rng rng(302);
  const double gains[] = {1.0, 0.0, 2.5, 1e-300,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (const Modulation mod : kAllModulations) {
    const Constellation& con = constellation(mod);
    std::size_t mismatches = 0;
    const std::vector<Cx> points = demap_probe_points(con, 200000, rng);
    SoftBits got(con.bits_per_point());
    SoftBits want;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const double gain = i % 4 == 0 ? gains[(i / 4) % std::size(gains)]
                                     : rng.uniform(0.0, 4.0);
      con.demap_soft(points[i], gain, got);
      want.clear();
      full_search_soft(con, points[i], gain, want);
      if (std::memcmp(got.data(), want.data(), got.size() * sizeof(double))) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << modulation_name(mod) << " over "
                              << points.size() << " points";
  }
}

TEST(DemapReference, SymbolDemapMatchesPerPointDeinterleave) {
  // The symbol demappers write each bit straight to its deinterleaved
  // slot; the reference demaps point by point, then deinterleaves.
  Rng rng(303);
  for (const Modulation mod : kAllModulations) {
    const Constellation& con = constellation(mod);
    const Interleaver& il = interleaver_for(mod);
    const std::vector<Cx> pool = demap_probe_points(con, 2000, rng);
    for (std::size_t first = 0; first + kNumDataSubcarriers <= pool.size();
         first += 17 * kNumDataSubcarriers) {
      const std::span<const Cx> points(pool.data() + first,
                                       kNumDataSubcarriers);
      std::vector<double> gains(kNumDataSubcarriers);
      for (double& g : gains) g = rng.uniform(0.0, 4.0);

      Bits hard_interleaved;
      SoftBits soft_interleaved;
      CxVec want_decided;
      for (std::size_t i = 0; i < points.size(); ++i) {
        const std::size_t label = full_search_label(con, points[i]);
        for (std::size_t b = 0; b < con.bits_per_point(); ++b) {
          hard_interleaved.push_back(
              static_cast<std::uint8_t>((label >> b) & 1u));
        }
        want_decided.push_back(con.points()[label]);
        full_search_soft(con, points[i], gains[i], soft_interleaved);
      }
      CxVec decided(kNumDataSubcarriers);
      EXPECT_EQ(demap_symbol_hard(points, mod, decided),
                il.deinterleave(std::span<const std::uint8_t>(
                    hard_interleaved)));
      EXPECT_EQ(decided, want_decided);

      SoftBits soft{-1.0};  // the demapper appends after existing values
      demap_symbol_soft(points, gains, mod, soft);
      const SoftBits want =
          il.deinterleave(std::span<const double>(soft_interleaved));
      ASSERT_EQ(soft.size(), want.size() + 1);
      EXPECT_EQ(std::memcmp(soft.data() + 1, want.data(),
                            want.size() * sizeof(double)),
                0)
          << modulation_name(mod) << " at point " << first;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModulations, ConstellationParam,
                         ::testing::Values(Modulation::kBpsk, Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

TEST(Mcs, TableConsistency) {
  for (const Mcs& m : mcs_table()) {
    EXPECT_EQ(m.n_bpsc, bits_per_symbol(m.modulation));
    EXPECT_EQ(m.n_cbps, m.n_bpsc * kNumDataSubcarriers);
    EXPECT_NEAR(static_cast<double>(m.n_dbps),
                static_cast<double>(m.n_cbps) * rate_value(m.code_rate),
                1e-9);
    // data rate = n_dbps / 4us.
    EXPECT_NEAR(m.data_rate_bps, static_cast<double>(m.n_dbps) / 4e-6, 1.0);
  }
}

TEST(Mcs, NumDataSymbols) {
  // 100 bytes at 6M (24 dbps): (16+800+6)/24 = 34.25 -> 35 symbols.
  EXPECT_EQ(num_data_symbols(mcs(0), 100), 35u);
  // 1500 bytes at 54M (216 dbps): (16+12000+6)/216 = 55.7 -> 56.
  EXPECT_EQ(num_data_symbols(mcs(7), 1500), 56u);
}

TEST(Ofdm, SymbolRoundTripCleanChannel) {
  Rng rng(21);
  const Constellation& con = constellation(Modulation::kQam64);
  CxVec data(kNumDataSubcarriers);
  for (Cx& d : data) {
    d = con.points()[rng.uniform_int(con.size())];
  }
  const CxVec symbol = assemble_symbol(data, 3);
  const CxVec bins = extract_symbol(symbol);
  const CxVec got = gather_data(bins);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(got[i].real(), data[i].real(), 1e-9);
    EXPECT_NEAR(got[i].imag(), data[i].imag(), 1e-9);
  }
}

TEST(Ofdm, SymbolHasUnitMeanPower) {
  Rng rng(22);
  const Constellation& con = constellation(Modulation::kQpsk);
  CxVec data(kNumDataSubcarriers);
  for (Cx& d : data) d = con.points()[rng.uniform_int(con.size())];
  const CxVec symbol = assemble_symbol(data, 0);
  EXPECT_NEAR(mean_power(symbol), 1.0, 0.35);
}

TEST(Ofdm, PhaseOffsetRotatesAllSubcarriers) {
  Rng rng(23);
  const Constellation& con = constellation(Modulation::kQpsk);
  CxVec data(kNumDataSubcarriers);
  for (Cx& d : data) d = con.points()[rng.uniform_int(con.size())];
  const double theta = kPi / 3;
  const CxVec plain = extract_symbol(assemble_symbol(data, 2, 0.0));
  const CxVec rotated = extract_symbol(assemble_symbol(data, 2, theta));
  for (const std::size_t bin : data_bins()) {
    EXPECT_NEAR(wrap_angle(std::arg(rotated[bin]) - std::arg(plain[bin])),
                theta, 1e-9);
  }
  for (const std::size_t bin : pilot_bins()) {
    EXPECT_NEAR(wrap_angle(std::arg(rotated[bin]) - std::arg(plain[bin])),
                theta, 1e-9);
  }
}

TEST(Ofdm, PilotPolarityPeriodic) {
  for (std::size_t n = 0; n < 10; ++n) {
    EXPECT_EQ(pilot_polarity(n), pilot_polarity(n + 127));
  }
  // First elements of the Clause 17.3.5.9 sequence: 1 1 1 1 -1 -1 -1 1.
  const double expected[] = {1, 1, 1, 1, -1, -1, -1, 1};
  for (std::size_t n = 0; n < 8; ++n) {
    EXPECT_DOUBLE_EQ(pilot_polarity(n), expected[n]);
  }
}

TEST(Preamble, LtfChannelEstimateIdentityChannel) {
  const CxVec ltf = ltf_waveform();
  const CxVec h = estimate_channel_from_ltf(ltf);
  for (const std::size_t bin : data_bins()) {
    EXPECT_NEAR(std::abs(h[bin]), 1.0, 1e-9);
    EXPECT_NEAR(std::arg(h[bin]), 0.0, 1e-9);
  }
}

TEST(Preamble, CfoEstimationAccuracy) {
  // Apply a known CFO and check both estimators recover it.
  const double cfo = 0.01;  // radians per sample (~31.8 kHz at 20 Msps)
  CxVec pre = preamble_waveform();
  double phase = 0.0;
  for (Cx& s : pre) {
    s *= cx_exp(phase);
    phase += cfo;
  }
  const double coarse =
      estimate_coarse_cfo(std::span<const Cx>(pre).first(kStfLen));
  EXPECT_NEAR(coarse, cfo, 5e-4);
  apply_cfo_correction(pre, coarse);
  const double fine = estimate_fine_cfo(
      std::span<const Cx>(pre).subspan(kStfLen, kLtfLen));
  EXPECT_NEAR(coarse + fine, cfo, 5e-5);
}

TEST(Preamble, WaveformLengths) {
  EXPECT_EQ(stf_waveform().size(), kStfLen);
  EXPECT_EQ(ltf_waveform().size(), kLtfLen);
  EXPECT_EQ(preamble_waveform().size(), kPreambleLen);
}

TEST(Preamble, StfIsPeriodic16) {
  const CxVec stf = stf_waveform();
  for (std::size_t n = 0; n + 16 < stf.size(); ++n) {
    EXPECT_NEAR(std::abs(stf[n] - stf[n + 16]), 0.0, 1e-9);
  }
}

TEST(Equalizer, RecoversInjectedPhase) {
  Rng rng(31);
  const Constellation& con = constellation(Modulation::kQpsk);
  CxVec data(kNumDataSubcarriers);
  for (Cx& d : data) d = con.points()[rng.uniform_int(con.size())];
  const double injected = kPi / 4;
  const CxVec bins = extract_symbol(assemble_symbol(data, 5, injected));
  const CxVec h(kFftSize, Cx{1.0, 0.0});
  const SymbolEqualization eq = equalize_symbol(bins, h, 5);
  EXPECT_NEAR(eq.phase_offset, injected, 1e-9);
  // Data fully compensated.
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(eq.data[i].real(), data[i].real(), 1e-9);
    EXPECT_NEAR(eq.data[i].imag(), data[i].imag(), 1e-9);
  }
}

TEST(Sig, EncodeDecodeRoundTrip) {
  for (std::size_t idx = 0; idx < 8; ++idx) {
    for (const std::size_t len : {1u, 100u, 1500u, 4095u}) {
      const SigInfo info{idx, len};
      const CxVec points = encode_sig(info);
      const std::vector<double> gains(48, 1.0);
      const auto decoded = decode_sig(points, gains);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->mcs_index, idx);
      EXPECT_EQ(decoded->length_bytes, len);
    }
  }
}

TEST(Sig, RejectsInvalidLength) {
  EXPECT_THROW((void)encode_sig(SigInfo{0, 0}), std::invalid_argument);
  EXPECT_THROW((void)encode_sig(SigInfo{0, 4096}), std::invalid_argument);
  EXPECT_THROW((void)encode_sig(SigInfo{9, 100}), std::invalid_argument);
}

TEST(Fcs, AppendAndCheck) {
  Rng rng(41);
  const Bytes body = random_psdu(64, rng);
  Bytes framed = append_fcs(body);
  EXPECT_EQ(framed.size(), body.size() + 4);
  EXPECT_TRUE(check_fcs(framed));
  framed[10] ^= 0x01;
  EXPECT_FALSE(check_fcs(framed));
  EXPECT_FALSE(check_fcs(Bytes{1, 2, 3}));
}

class LegacyLoopback : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LegacyLoopback, PerfectChannelRoundTrip) {
  Rng rng(GetParam() + 50);
  const Mcs& m = mcs(GetParam());
  const Bytes psdu = append_fcs(random_psdu(300, rng));
  const LegacyTransmitter tx;
  const CxVec wave = tx.build(psdu, m);
  const LegacyReceiver rx;
  const LegacyRxResult result = rx.receive(wave);
  ASSERT_TRUE(result.sig_ok);
  EXPECT_EQ(result.sig.mcs_index, GetParam());
  EXPECT_EQ(result.sig.length_bytes, psdu.size());
  ASSERT_TRUE(result.decoded);
  EXPECT_TRUE(result.fcs_ok);
  EXPECT_EQ(result.psdu, psdu);
}

TEST_P(LegacyLoopback, HighSnrFadingRoundTrip) {
  Rng rng(GetParam() + 60);
  const Mcs& m = mcs(GetParam());
  const Bytes psdu = append_fcs(random_psdu(200, rng));
  const LegacyTransmitter tx;
  const CxVec wave = tx.build(psdu, m);

  FadingConfig cfg;
  cfg.seed = GetParam() + 7;
  cfg.snr_db = 35.0;
  cfg.coherence_time = 50e-3;
  cfg.cfo_hz = 5e3;
  FadingChannel channel(cfg);
  const CxVec rx_wave = channel.transmit(wave);

  const LegacyReceiver rx;
  const LegacyRxResult result = rx.receive(rx_wave);
  ASSERT_TRUE(result.sig_ok);
  ASSERT_TRUE(result.decoded);
  EXPECT_TRUE(result.fcs_ok) << m.name;
}

INSTANTIATE_TEST_SUITE_P(AllMcs, LegacyLoopback,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

TEST(LegacyReceiver, LowSnrFailsGracefully) {
  Rng rng(71);
  const Bytes psdu = append_fcs(random_psdu(500, rng));
  const LegacyTransmitter tx;
  const CxVec wave = tx.build(psdu, mcs(7));
  FadingConfig cfg;
  cfg.seed = 3;
  cfg.snr_db = -5.0;
  FadingChannel channel(cfg);
  const LegacyReceiver rx;
  const LegacyRxResult result = rx.receive(channel.transmit(wave));
  // At -5 dB SNR with 64-QAM the frame must not pass the FCS.
  EXPECT_FALSE(result.fcs_ok);
}

TEST(LegacyReceiver, TooShortWaveform) {
  const LegacyReceiver rx;
  const CxVec wave(100, Cx{});
  const LegacyRxResult result = rx.receive(wave);
  EXPECT_FALSE(result.sig_ok);
  EXPECT_FALSE(result.decoded);
}

TEST(Sync, DetectsFrameAtKnownOffset) {
  Rng rng(81);
  const Bytes psdu = append_fcs(random_psdu(64, rng));
  const LegacyTransmitter tx;
  const CxVec wave = tx.build(psdu, mcs(2));

  CxVec padded(500, Cx{});
  add_awgn(padded, 1e-4, rng);
  padded.insert(padded.end(), wave.begin(), wave.end());

  const auto sync = detect_frame(padded);
  ASSERT_TRUE(sync.has_value());
  EXPECT_NEAR(static_cast<double>(sync->frame_start), 500.0, 24.0);
}

TEST(Sync, NoFalseDetectionOnNoise) {
  Rng rng(82);
  CxVec noise(4000, Cx{});
  add_awgn(noise, 1.0, rng);
  EXPECT_FALSE(detect_frame(noise).has_value());
}

TEST(DataPath, BuildDataBitsLengthAndPadding) {
  const Mcs& m = mcs(0);  // 24 dbps
  const Bytes psdu(10, 0xFF);
  const Bits bits = build_data_bits(psdu, m);
  EXPECT_EQ(bits.size(), num_data_symbols(m, 10) * m.n_dbps);
}

TEST(DataPath, CodedStreamIsWholeSymbols) {
  for (const Mcs& m : mcs_table()) {
    const Bytes psdu(57, 0xA5);
    const Bits data = build_data_bits(psdu, m);
    const Bits coded = code_data_bits(data, m);
    EXPECT_EQ(coded.size() % m.n_cbps, 0u) << m.name;
  }
}

TEST(DataPath, HardDemapMatchesTxCodedBits) {
  // demap_symbol_hard must invert modulate_coded exactly (clean points),
  // and the points it decides are the transmitted ones.
  Rng rng(91);
  for (const Mcs& m : mcs_table()) {
    Bits coded(m.n_cbps * 2);
    for (auto& b : coded) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    const CxVec points = modulate_coded(coded, m);
    ASSERT_EQ(points.size(), 2 * kNumDataSubcarriers);
    for (std::size_t s = 0; s < 2; ++s) {
      const std::span<const Cx> symbol = std::span(points).subspan(
          s * kNumDataSubcarriers, kNumDataSubcarriers);
      CxVec decided(kNumDataSubcarriers);
      const Bits back = demap_symbol_hard(symbol, m.modulation, decided);
      const Bits expect(coded.begin() + static_cast<long>(s * m.n_cbps),
                        coded.begin() + static_cast<long>((s + 1) * m.n_cbps));
      EXPECT_EQ(back, expect) << m.name;
      EXPECT_EQ(decided, CxVec(symbol.begin(), symbol.end())) << m.name;
    }
  }
}

}  // namespace
}  // namespace carpool
