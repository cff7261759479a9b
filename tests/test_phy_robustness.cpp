// Second-wave PHY tests: synchronization sweeps, channel-estimation
// fidelity against the true channel, cyclic-prefix timing robustness,
// equalizer weighting behaviour, and the hardened decode paths (structured
// DecodeStatus, per-subframe isolation, RTE poisoning guard) under
// injected faults.

#include <gtest/gtest.h>

#include <cmath>

#include "carpool/transceiver.hpp"
#include "channel/awgn.hpp"
#include "channel/fading.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "fec/viterbi.hpp"
#include "common/rng.hpp"
#include "impair/impair.hpp"
#include "phy/equalizer.hpp"
#include "phy/frame.hpp"
#include "phy/ofdm.hpp"
#include "phy/preamble.hpp"
#include "phy/sync.hpp"

namespace carpool {
namespace {

Bytes random_psdu(std::size_t n, Rng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return out;
}

// ------------------------------------------------------------------ sync

class SyncSnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(SyncSnrSweep, DetectsPreambleAcrossSnr) {
  const double snr_db = GetParam();
  Rng rng(static_cast<std::uint64_t>(snr_db * 10) + 3);
  int detected = 0;
  for (int trial = 0; trial < 10; ++trial) {
    CxVec wave(600, Cx{});
    const CxVec pre = preamble_waveform();
    wave.insert(wave.end(), pre.begin(), pre.end());
    wave.insert(wave.end(), 200, Cx{});
    add_awgn(wave, db_to_linear(-snr_db), rng);
    // At low SNR the normalised autocorrelation metric saturates near
    // S/(S+N), so detection needs a threshold below that.
    SyncConfig cfg;
    cfg.threshold = std::min(0.8, 0.8 * db_to_linear(snr_db) /
                                      (db_to_linear(snr_db) + 1.0));
    const auto sync = detect_frame(wave, cfg);
    if (sync && sync->frame_start > 560 && sync->frame_start < 640) {
      ++detected;
    }
  }
  EXPECT_GE(detected, 9) << "SNR " << snr_db;
}

INSTANTIATE_TEST_SUITE_P(Snr, SyncSnrSweep,
                         ::testing::Values(5.0, 10.0, 20.0, 30.0));

TEST(Sync, MultipleFramesFindsFirst) {
  Rng rng(7);
  const CxVec pre = preamble_waveform();
  CxVec wave(300, Cx{});
  wave.insert(wave.end(), pre.begin(), pre.end());
  wave.insert(wave.end(), 500, Cx{});
  wave.insert(wave.end(), pre.begin(), pre.end());
  add_awgn(wave, 1e-3, rng);
  const auto sync = detect_frame(wave);
  ASSERT_TRUE(sync.has_value());
  EXPECT_LT(sync->frame_start, 400u);
}

TEST(Sync, ThresholdConfigurable) {
  Rng rng(8);
  CxVec noise(2000, Cx{});
  add_awgn(noise, 1.0, rng);
  SyncConfig loose;
  loose.threshold = 0.05;
  loose.min_run = 2;
  // A permissive config may fire on noise; the default must not.
  EXPECT_FALSE(detect_frame(noise).has_value());
  (void)detect_frame(noise, loose);  // must not crash either way
}

// --------------------------------------------------- channel estimation

TEST(ChannelEstimation, TracksTrueFrequencyResponse) {
  // Pass the preamble through a static multipath channel and compare the
  // LTF estimate against the channel's true frequency response.
  FadingConfig cfg;
  cfg.seed = 21;
  cfg.num_taps = 4;
  cfg.snr_db = 300.0;  // noise-free
  cfg.coherence_time = 1e3;
  FadingChannel channel(cfg);
  const CxVec truth = channel.frequency_response(kFftSize);

  const CxVec rx = channel.transmit(preamble_waveform());
  const CxVec h = estimate_channel_from_ltf(
      std::span<const Cx>(rx).subspan(kStfLen, kLtfLen));

  for (const std::size_t bin : data_bins()) {
    // The first num_taps-1 samples of the first LTF symbol carry inter-
    // block interference from the CP warmup; tolerance accounts for it.
    EXPECT_NEAR(std::abs(h[bin] - truth[bin]), 0.0, 0.08)
        << "bin " << bin;
  }
}

TEST(ChannelEstimation, NoisyEstimateDegradesGracefully) {
  RunningStats clean_err, noisy_err;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    for (const double snr : {40.0, 10.0}) {
      FadingConfig cfg;
      cfg.seed = seed + 100;
      cfg.num_taps = 3;
      cfg.snr_db = snr;
      cfg.coherence_time = 1e3;
      FadingChannel channel(cfg);
      const CxVec truth = channel.frequency_response(kFftSize);
      const CxVec rx = channel.transmit(preamble_waveform());
      const CxVec h = estimate_channel_from_ltf(
          std::span<const Cx>(rx).subspan(kStfLen, kLtfLen));
      double err = 0.0;
      for (const std::size_t bin : data_bins()) {
        err += std::norm(h[bin] - truth[bin]);
      }
      (snr > 20 ? clean_err : noisy_err).add(err);
    }
  }
  EXPECT_LT(clean_err.mean(), noisy_err.mean());
}

// ----------------------------------------------------- timing robustness

TEST(CyclicPrefix, EarlySamplingToleratedWithinCp) {
  // Sampling a few samples early stays inside the CP: the FFT window sees
  // a cyclic shift = per-subcarrier phase ramp, which the LTF estimate
  // absorbs when the shift applies to the whole frame.
  Rng rng(31);
  const Bytes psdu = append_fcs(random_psdu(120, rng));
  const LegacyTransmitter tx;
  CxVec wave = tx.build(psdu, mcs(4));
  // Prepend 4 zero samples => receiver samples everything 4 early.
  CxVec shifted(4, Cx{});
  shifted.insert(shifted.end(), wave.begin(), wave.end());
  // (The receiver assumes the frame starts at 0; the first 4 "STF"
  // samples are zeros, a small perturbation to CFO estimation.)
  const LegacyReceiver rx;
  const LegacyRxResult result =
      rx.receive(std::span<const Cx>(shifted).first(wave.size()));
  EXPECT_TRUE(result.sig_ok);
}

TEST(CyclicPrefix, GrossMistimingFails) {
  Rng rng(32);
  const Bytes psdu = append_fcs(random_psdu(120, rng));
  const LegacyTransmitter tx;
  const CxVec wave = tx.build(psdu, mcs(4));
  const LegacyReceiver rx;
  // Start 40 samples late: preamble structure is destroyed.
  const LegacyRxResult result =
      rx.receive(std::span<const Cx>(wave).subspan(40));
  EXPECT_FALSE(result.fcs_ok);
}

// ------------------------------------------------------------- equalizer

TEST(Equalizer, GainsReflectChannelMagnitude) {
  CxVec h(kFftSize, Cx{1.0, 0.0});
  // Fade half the data subcarriers.
  const auto bins = data_bins();
  for (std::size_t i = 0; i < bins.size(); i += 2) {
    h[bins[i]] = Cx{0.2, 0.0};
  }
  Rng rng(41);
  const Constellation& con = constellation(Modulation::kQpsk);
  CxVec data(kNumDataSubcarriers);
  for (Cx& d : data) d = con.points()[rng.uniform_int(con.size())];
  // Simulate the channel in the frequency domain.
  CxVec sym = assemble_symbol(data, 1);
  CxVec fbins = extract_symbol(sym);
  for (std::size_t k = 0; k < kFftSize; ++k) fbins[k] *= h[k];

  const SymbolEqualization eq = equalize_symbol(fbins, h, 1);
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const double expected = std::norm(h[bins[i]]);
    EXPECT_NEAR(eq.gains[i], expected, 1e-9);
  }
}

TEST(Equalizer, PilotQualityDropsWithNoise) {
  Rng rng(42);
  const Constellation& con = constellation(Modulation::kBpsk);
  CxVec data(kNumDataSubcarriers);
  for (Cx& d : data) d = con.points()[rng.uniform_int(con.size())];
  const CxVec h(kFftSize, Cx{1.0, 0.0});

  CxVec clean = extract_symbol(assemble_symbol(data, 0));
  const double q_clean = equalize_symbol(clean, h, 0).pilot_quality;

  CxVec sym = assemble_symbol(data, 0);
  add_awgn(sym, 0.5, rng);
  CxVec noisy = extract_symbol(sym);
  const double q_noisy = equalize_symbol(noisy, h, 0).pilot_quality;
  EXPECT_GT(q_clean, 0.99);
  EXPECT_LT(q_noisy, q_clean);
}

TEST(Equalizer, ZeroChannelBinsAreErased) {
  CxVec h(kFftSize, Cx{});  // dead channel
  CxVec bins(kFftSize, Cx{1.0, 0.0});
  const SymbolEqualization eq = equalize_symbol(bins, h, 0);
  for (const double g : eq.gains) EXPECT_DOUBLE_EQ(g, 0.0);
  for (const Cx& d : eq.data) EXPECT_EQ(d, Cx{});
}


class TimingOffsetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TimingOffsetSweep, OffsetsInsideCpDecode) {
  Rng rng(60 + GetParam());
  const Bytes psdu = append_fcs(random_psdu(200, rng));
  const LegacyTransmitter tx;
  const CxVec wave = tx.build(psdu, mcs(4));
  FadingConfig cfg;
  cfg.seed = 61;
  cfg.snr_db = 35.0;
  cfg.num_taps = 1;
  cfg.coherence_time = 1e2;
  cfg.timing_offset_samples = GetParam();
  FadingChannel channel(cfg);
  const LegacyReceiver rx;
  const LegacyRxResult result = rx.receive(channel.transmit(wave));
  // Offsets up to about half the CP survive (the CP also has to absorb
  // channel delay spread); the preamble-based estimate soaks up the
  // resulting phase ramp.
  EXPECT_TRUE(result.fcs_ok) << "offset " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(WithinCp, TimingOffsetSweep,
                         ::testing::Values(0, 1, 2, 4, 6));

// -------------------------------------------------- Viterbi noise sweep

class ViterbiAwgn : public ::testing::TestWithParam<double> {};

TEST_P(ViterbiAwgn, PostFecBerBelowWaterfall) {
  // Soft-decision K=7 rate-1/2 over BPSK-AWGN: at Eb/N0 >= 4 dB the
  // post-FEC BER must be < 1e-3 (classic waterfall).
  const double ebn0_db = GetParam();
  // Through int64: a negative double cast straight to an unsigned type is
  // undefined, and the sweep starts below 0 dB.
  const auto seed = static_cast<std::int64_t>(ebn0_db * 7);
  Rng rng(static_cast<std::uint64_t>(seed) + 5);
  const ViterbiDecoder decoder;
  std::size_t errors = 0, bits = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Bits data(500);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    const Bits coded =
        ConvolutionalCode::encode_terminated(data, CodeRate::kHalf);
    SoftBits soft = bits_to_soft(coded);
    // Rate-1/2: Es/N0 = Eb/N0 - 3 dB; noise sigma^2 = 1/(2*Es/N0) per dim.
    const double es_n0 = db_to_linear(ebn0_db) * 0.5;
    const double sigma = std::sqrt(1.0 / (2.0 * es_n0));
    for (double& s : soft) s += rng.gaussian(0.0, sigma);
    const Bits decoded =
        decoder.decode_punctured(soft, CodeRate::kHalf, data.size());
    errors += hamming_distance(decoded, data);
    bits += data.size();
  }
  const double ber = static_cast<double>(errors) / static_cast<double>(bits);
  if (ebn0_db >= 4.0) {
    EXPECT_LT(ber, 1e-3) << "Eb/N0 " << ebn0_db;
  } else if (ebn0_db <= 0.0) {
    EXPECT_GT(ber, 1e-3) << "Eb/N0 " << ebn0_db;
  }
}

INSTANTIATE_TEST_SUITE_P(EbN0, ViterbiAwgn,
                         ::testing::Values(-1.0, 0.0, 4.0, 6.0));

// -------------------------------------------- hardened decode paths

const MacAddress kSelf{{0x02, 0xAA, 0xBB, 0xCC, 0xDD, 0x01}};
const MacAddress kOther{{0x02, 0xAA, 0xBB, 0xCC, 0xDD, 0x02}};

/// Two-subframe frame, both owned by kSelf (so the walk must cross the
/// first subframe to reach the second — exactly the isolation case).
std::vector<SubframeSpec> two_subframes(Rng& rng, std::size_t bytes = 150) {
  std::vector<SubframeSpec> subframes(2);
  for (SubframeSpec& s : subframes) {
    s.receiver = kSelf;
    s.psdu = append_fcs(random_psdu(bytes, rng));
    s.mcs_index = 2;
  }
  return subframes;
}

CarpoolRxConfig self_rx_config() {
  CarpoolRxConfig cfg;
  cfg.self = kSelf;
  return cfg;
}

TEST(DecodeHardening, FrontendReportsTruncatedNotThrow) {
  Rng rng(70);
  CxVec wave(kPreambleLen - 1);
  for (Cx& s : wave) s = Cx{rng.gaussian(0.0, 1.0), 0.0};
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                kStfLen - 1, kStfLen, kPreambleLen - 1}) {
    const Frontend fe =
        receive_frontend(std::span<const Cx>(wave).first(len));
    EXPECT_EQ(fe.status, DecodeStatus::kTruncated) << "len " << len;
    EXPECT_FALSE(fe.ok());
  }
}

TEST(DecodeHardening, FrontendReportsSyncLostOnNoise) {
  Rng rng(71);
  CxVec noise(kPreambleLen + 5 * kSymbolLen, Cx{});
  add_awgn(noise, 1.0, rng);
  const Frontend fe = receive_frontend(noise);
  EXPECT_EQ(fe.status, DecodeStatus::kSyncLost);
  EXPECT_LT(fe.sync_quality, 0.3);
  // A real preamble scores near 1.
  const Frontend good = receive_frontend(preamble_waveform());
  EXPECT_TRUE(good.ok());
  EXPECT_GT(good.sync_quality, 0.9);
}

TEST(DecodeHardening, LegacyReceiverStatusCodes) {
  Rng rng(72);
  const Bytes psdu = append_fcs(random_psdu(100, rng));
  const LegacyTransmitter tx;
  const CxVec wave = tx.build(psdu, mcs(2));
  const LegacyReceiver rx;

  const LegacyRxResult ok = rx.receive(wave);
  EXPECT_EQ(ok.status, DecodeStatus::kOk);
  EXPECT_TRUE(ok.fcs_ok);

  const LegacyRxResult cut =
      rx.receive(std::span<const Cx>(wave).first(wave.size() - kSymbolLen));
  EXPECT_EQ(cut.status, DecodeStatus::kTruncated);

  CxVec noise(wave.size(), Cx{});
  add_awgn(noise, 1.0, rng);
  EXPECT_EQ(rx.receive(noise).status, DecodeStatus::kSyncLost);
}

TEST(DecodeHardening, TruncationAtEverySymbolBoundary) {
  Rng rng(73);
  const std::vector<SubframeSpec> subframes = two_subframes(rng);
  const CarpoolTransmitter tx({SymbolCrcScheme{}});
  const CxVec wave = tx.build(subframes);
  const CarpoolReceiver rx(self_rx_config());

  for (std::size_t cut = 0; cut <= wave.size(); cut += kSymbolLen / 2) {
    const std::size_t len = std::min(cut, wave.size());
    CarpoolRxResult result;
    ASSERT_NO_THROW(
        result = rx.receive(std::span<const Cx>(wave).first(len)))
        << "cut " << len;
    EXPECT_NE(result.status, DecodeStatus::kInternalError) << "cut " << len;
    if (len < wave.size()) {
      // Anything short of the full frame loses at least one symbol.
      EXPECT_EQ(result.status, DecodeStatus::kTruncated) << "cut " << len;
    }
    // Subframes fully inside the cut still decode cleanly.
    for (const DecodedSubframe& sub : result.subframes) {
      if (sub.status == DecodeStatus::kOk) {
        EXPECT_TRUE(sub.fcs_ok) << "cut " << len;
      }
    }
  }
  const CarpoolRxResult full = rx.receive(wave);
  EXPECT_EQ(full.status, DecodeStatus::kOk);
  ASSERT_EQ(full.subframes.size(), 2u);
  EXPECT_TRUE(full.subframes[0].fcs_ok);
  EXPECT_TRUE(full.subframes[1].fcs_ok);
}

TEST(DecodeHardening, CorruptedSubframeDoesNotAbortSiblings) {
  Rng rng(74);
  const std::vector<SubframeSpec> subframes = two_subframes(rng);
  const CarpoolTransmitter tx({SymbolCrcScheme{}});
  const CxVec wave = tx.build(subframes);
  const CarpoolReceiver rx(self_rx_config());

  const Mcs& m = mcs(subframes[0].mcs_index);
  const std::size_t n_sym = num_data_symbols(m, subframes[0].psdu.size());
  // Zero out a chunk of subframe 0's data symbols (after preamble, A-HDR
  // and subframe 0's SIG). Subframe 1 must still decode.
  const std::size_t data0 = kPreambleLen + 3 * kSymbolLen;
  impair::ImpairmentChain chain(5);
  chain.add(impair::make_sample_erasure(
      {.start_sample = data0, .num_samples = (n_sym / 2) * kSymbolLen}));
  const CarpoolRxResult result = rx.receive(chain.run(wave));

  ASSERT_EQ(result.subframes.size(), 2u);
  EXPECT_FALSE(result.subframes[0].fcs_ok);
  EXPECT_EQ(result.subframes[0].status, DecodeStatus::kFcsFail);
  EXPECT_TRUE(result.subframes[1].fcs_ok);
  EXPECT_EQ(result.subframes[1].status, DecodeStatus::kOk);
  EXPECT_EQ(result.status, DecodeStatus::kOk);  // the walk itself survived
}

TEST(DecodeHardening, CorruptSigIsolatesTailOnly) {
  Rng rng(75);
  const std::vector<SubframeSpec> subframes = two_subframes(rng);
  const CarpoolTransmitter tx({SymbolCrcScheme{}});
  const CxVec wave = tx.build(subframes);
  const CarpoolReceiver rx(self_rx_config());

  const Mcs& m = mcs(subframes[0].mcs_index);
  const std::size_t n_sym = num_data_symbols(m, subframes[0].psdu.size());
  // Subframe 1's SIG is symbol 2 (A-HDR) + 1 (SIG0) + n_sym after the
  // preamble.
  impair::ImpairmentChain chain(6);
  chain.add(impair::make_header_corruption(
      {.symbol_index = 3 + n_sym, .flip_bins = 22}));
  const CarpoolRxResult result = rx.receive(chain.run(wave));

  EXPECT_EQ(result.status, DecodeStatus::kSigCorrupt);
  ASSERT_EQ(result.subframes.size(), 1u);  // subframe 0 survived
  EXPECT_TRUE(result.subframes[0].fcs_ok);
}

TEST(DecodeHardening, FlippedAhdrBitsReportMiss) {
  Rng rng(76);
  const std::vector<SubframeSpec> subframes = two_subframes(rng);
  const CarpoolTransmitter tx({SymbolCrcScheme{}});
  const CxVec wave = tx.build(subframes);
  const CarpoolReceiver rx(self_rx_config());

  // A Bloom filter decoded from corrupted symbols can still false-match
  // (it has no checksum); this seed's garbage filter misses every slot.
  impair::ImpairmentChain chain(16);
  chain.add(impair::make_header_corruption(
      {.symbol_index = 0, .flip_bins = 20}));
  chain.add(impair::make_header_corruption(
      {.symbol_index = 1, .flip_bins = 20}));
  const CarpoolRxResult result = rx.receive(chain.run(wave));
  // The Bloom filter decodes to garbage: this receiver finds no match
  // (and must say so, not throw or return a silent empty result).
  EXPECT_EQ(result.status, DecodeStatus::kAhdrMiss);
  EXPECT_TRUE(result.subframes.empty());

  // An unaddressed receiver reports the same on a clean frame.
  CarpoolRxConfig other = self_rx_config();
  other.self = kOther;
  const CarpoolReceiver rx_other(other);
  EXPECT_EQ(rx_other.receive(wave).status, DecodeStatus::kAhdrMiss);
}

TEST(DecodeHardening, BadConfigReportedNotThrown) {
  CarpoolRxConfig cfg = self_rx_config();
  cfg.crc_scheme.group_symbols = 0;
  const CarpoolReceiver rx(cfg);  // must not throw
  EXPECT_FALSE(rx.config_error().empty());
  Rng rng(77);
  const std::vector<SubframeSpec> subframes = two_subframes(rng);
  const CxVec wave = CarpoolTransmitter({SymbolCrcScheme{}}).build(subframes);
  EXPECT_EQ(rx.receive(wave).status, DecodeStatus::kBadConfig);

  CarpoolRxConfig bad_alpha = self_rx_config();
  bad_alpha.rte_alpha = 1.5;
  EXPECT_FALSE(CarpoolReceiver(bad_alpha).config_error().empty());
  EXPECT_TRUE(CarpoolReceiver(self_rx_config()).config_error().empty());
}

TEST(DecodeHardening, NoExceptionEscapesUnderHeavyImpairment) {
  Rng rng(78);
  const std::vector<SubframeSpec> subframes = two_subframes(rng);
  const CxVec wave = CarpoolTransmitter({SymbolCrcScheme{}}).build(subframes);
  const CarpoolReceiver rx(self_rx_config());

  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    impair::ImpairmentChain chain(seed);
    chain.add(impair::make_gilbert_elliott(
        {.p_good_to_bad = 0.3, .bad_noise_power = 2.0}));
    chain.add(impair::make_clock_drift(
        {.ppm = static_cast<double>(seed) * 40.0}));
    chain.add(impair::make_header_corruption(
        {.symbol_index = seed % 6, .flip_bins = 1 + seed % 24}));
    chain.add(impair::make_truncation(
        {.keep_samples = 1 + (seed * 131) % wave.size()}));
    CarpoolRxResult result;
    ASSERT_NO_THROW(result = rx.receive(chain.run(wave))) << "seed " << seed;
    EXPECT_NE(result.status, DecodeStatus::kInternalError)
        << "seed " << seed;
  }
}

// ------------------------------------------------- RTE poisoning guard

TEST(RteGuard, BurstTriggersFreezeAndRollback) {
  Rng rng(80);
  std::vector<SubframeSpec> subframes(1);
  subframes[0].receiver = kSelf;
  subframes[0].psdu = append_fcs(random_psdu(400, rng));
  subframes[0].mcs_index = 0;  // many symbols -> many CRC groups
  const CxVec wave = CarpoolTransmitter({SymbolCrcScheme{}}).build(subframes);

  // Collapse the SNR from mid-frame on. The floor noise is harmless
  // against the full-power signal (~20 dB) but swamps the attenuated
  // tail (~-5 dB), so every later side-channel group fails its CRC and
  // the guard must freeze (and roll back) the estimate.
  impair::ImpairmentChain chain(9);
  chain.add(impair::make_snr_collapse(
      {.start_sample = kPreambleLen + 20 * kSymbolLen,
       .attenuation_db = 25.0}));
  chain.add(impair::make_impulsive_noise(
      {.impulse_prob = 1.0, .impulse_power = 0.01}));
  const CxVec impaired = chain.run(wave);

  CarpoolRxConfig cfg = self_rx_config();
  cfg.rte_freeze_after = 3;
  const CarpoolRxResult result = CarpoolReceiver(cfg).receive(impaired);
  EXPECT_GE(result.rte_freezes, 1u);
  EXPECT_GE(result.rte_rollbacks, 1u);

  // Guard disabled: same input, no freezes.
  cfg.rte_freeze_after = 0;
  const CarpoolRxResult unguarded = CarpoolReceiver(cfg).receive(impaired);
  EXPECT_EQ(unguarded.rte_freezes, 0u);
  EXPECT_EQ(unguarded.rte_rollbacks, 0u);
}

TEST(RteGuard, CleanFrameNeverFreezes) {
  Rng rng(81);
  const std::vector<SubframeSpec> subframes = two_subframes(rng);
  const CxVec wave = CarpoolTransmitter({SymbolCrcScheme{}}).build(subframes);
  const CarpoolRxResult result =
      CarpoolReceiver(self_rx_config()).receive(wave);
  EXPECT_EQ(result.status, DecodeStatus::kOk);
  EXPECT_EQ(result.rte_freezes, 0u);
  EXPECT_GT(result.subframes.at(0).rte_updates, 0u);
}

}  // namespace
}  // namespace carpool
