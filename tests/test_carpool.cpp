#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "carpool/bloom.hpp"
#include "carpool/rtscts.hpp"
#include "carpool/side_channel.hpp"
#include "carpool/transceiver.hpp"
#include "channel/fading.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "impair/impair.hpp"
#include "obs/registry.hpp"

namespace carpool {
namespace {

Bytes random_psdu(std::size_t n, Rng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return out;
}

// ---------------------------------------------------------------- Bloom

TEST(Bloom, NoFalseNegatives) {
  Rng rng(1);
  for (const std::size_t num_hashes : {1u, 2u, 4u, 8u, 16u}) {
    for (int trial = 0; trial < 200; ++trial) {
      AggregationBloomFilter filter(num_hashes);
      std::vector<MacAddress> receivers;
      const std::size_t n = 1 + rng.uniform_int(kMaxReceivers);
      for (std::size_t i = 0; i < n; ++i) {
        receivers.push_back(MacAddress::for_station(
            static_cast<std::uint32_t>(rng.uniform_int(1 << 20))));
        filter.insert(receivers.back(), i);
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(filter.matches(receivers[i], i)) << "h=" << num_hashes;
        const auto matched = filter.matched_subframes(receivers[i]);
        EXPECT_TRUE(std::find(matched.begin(), matched.end(), i) !=
                    matched.end());
      }
    }
  }
}

TEST(Bloom, FilterBitsPinned) {
  // The on-air A-HDR bits (bit i of `bits` = to_bits()[i]) for fixed
  // receiver sets: receiver i owns subframe i. A change to the hash
  // family or to insert() moves them.
  const MacAddress macs[] = {
      MacAddress::for_station(1),    MacAddress::for_station(2),
      MacAddress::for_station(300),  MacAddress{0x00163e5a1b2cULL},
      MacAddress{0xa4c3f0851d77ULL}, MacAddress{0xffffffffffffULL},
      MacAddress{0x000000000001ULL}, MacAddress::for_station(0xfffff)};
  struct Case {
    std::size_t num_hashes;
    std::size_t receivers;
    std::uint64_t bits;
  };
  const Case cases[] = {
      {1, 8, 0x040004480081ULL}, {2, 8, 0x044405580489ULL},
      {4, 8, 0x944c0dfd0489ULL}, {4, 1, 0x80000c080000ULL},
      {8, 4, 0x80fbac6c6e89ULL}, {16, 2, 0xe441ade96e82ULL},
      {16, 8, 0xfcfffffffeebULL},
  };
  for (const Case& c : cases) {
    AggregationBloomFilter filter(c.num_hashes);
    for (std::size_t i = 0; i < c.receivers; ++i) filter.insert(macs[i], i);
    const Bits bits = filter.to_bits();
    ASSERT_EQ(bits.size(), kAhdrBits);
    std::uint64_t got = 0;
    for (std::size_t b = 0; b < kAhdrBits; ++b) {
      got |= std::uint64_t{bits[b]} << b;
    }
    EXPECT_EQ(got, c.bits) << "h=" << c.num_hashes << " N=" << c.receivers;
  }
}

TEST(Bloom, BitsRoundTrip) {
  AggregationBloomFilter filter(4);
  filter.insert(MacAddress::for_station(7), 0);
  filter.insert(MacAddress::for_station(9), 1);
  const Bits bits = filter.to_bits();
  ASSERT_EQ(bits.size(), kAhdrBits);
  const auto restored = AggregationBloomFilter::from_bits(bits, 4);
  EXPECT_EQ(restored.to_bits(), bits);
  EXPECT_TRUE(restored.matches(MacAddress::for_station(7), 0));
  EXPECT_TRUE(restored.matches(MacAddress::for_station(9), 1));
}

TEST(Bloom, PositionEncodedInHashSet) {
  // A receiver must not (except for rare false positives) match the wrong
  // subframe index.
  Rng rng(2);
  RatioCounter wrong_index;
  for (int trial = 0; trial < 500; ++trial) {
    AggregationBloomFilter filter(4);
    const MacAddress a = MacAddress::for_station(
        static_cast<std::uint32_t>(rng.uniform_int(1 << 20)));
    filter.insert(a, 0);
    wrong_index.add(filter.matches(a, 1));
  }
  // With only 4 bits set, P[fp] ~ (4/48)^4 ~ 5e-5.
  EXPECT_LT(wrong_index.ratio(), 0.01);
}

TEST(Bloom, OptimalHashCountFormula) {
  // h = (48/N) ln 2: N=4 -> 8.3, N=8 -> 4.2, N=12 -> 2.8.
  EXPECT_EQ(optimal_hash_count(4), 8u);
  EXPECT_EQ(optimal_hash_count(8), 4u);
  EXPECT_EQ(optimal_hash_count(12), 3u);
  EXPECT_GE(optimal_hash_count(48), 1u);
  EXPECT_THROW((void)optimal_hash_count(0), std::invalid_argument);
}

TEST(Bloom, TheoreticalFpMatchesPaperRange) {
  // Paper Sec. 4.1: for 4-8 receivers the false positive ratio ranges
  // from 0.31% (N=4 at its optimal h=8) to 5.59% (N=8 at h=4).
  EXPECT_NEAR(theoretical_fp_rate(4, optimal_hash_count(4)), 0.0031, 0.0005);
  EXPECT_NEAR(theoretical_fp_rate(8, optimal_hash_count(8)), 0.0559, 0.005);
}

TEST(Bloom, EmpiricalFpRateNearTheory) {
  Rng rng(3);
  for (const std::size_t n : {4u, 8u}) {
    RatioCounter fp;
    for (int trial = 0; trial < 4000; ++trial) {
      AggregationBloomFilter filter(4);
      for (std::size_t i = 0; i < n; ++i) {
        filter.insert(MacAddress::for_station(static_cast<std::uint32_t>(
                          rng.uniform_int(1 << 24))),
                      i);
      }
      // A non-member station.
      const MacAddress outsider = MacAddress::for_station(
          static_cast<std::uint32_t>((1u << 24) + trial));
      fp.add(filter.matches(outsider, rng.uniform_int(n)));
    }
    const double theory = theoretical_fp_rate(n, 4);
    EXPECT_NEAR(fp.ratio(), theory, theory * 0.5 + 0.002) << "N=" << n;
  }
}

TEST(Bloom, OverheadVersusMacAddressList) {
  // Paper: listing 8 MAC addresses needs 384 bits; A-HDR is 48 bits
  // -> 12.5% of that.
  EXPECT_DOUBLE_EQ(static_cast<double>(kAhdrBits) / (48.0 * 8.0), 0.125);
}

TEST(Bloom, InsertOutOfRangeThrows) {
  AggregationBloomFilter filter(4);
  EXPECT_THROW(filter.insert(MacAddress::for_station(1), kMaxReceivers),
               std::invalid_argument);
}

// --------------------------------------------------------- side channel

TEST(SideChannel, Table1OneBitMapping) {
  EXPECT_NEAR(phase_delta_for_bits(PhaseMod::kOneBit, 1), kPi / 2, 1e-12);
  EXPECT_NEAR(phase_delta_for_bits(PhaseMod::kOneBit, 0), -kPi / 2, 1e-12);
}

TEST(SideChannel, Table1TwoBitMapping) {
  EXPECT_NEAR(phase_delta_for_bits(PhaseMod::kTwoBit, 0b11), kPi / 4, 1e-12);
  EXPECT_NEAR(phase_delta_for_bits(PhaseMod::kTwoBit, 0b10),
              3 * kPi / 4, 1e-12);
  EXPECT_NEAR(phase_delta_for_bits(PhaseMod::kTwoBit, 0b00),
              -3 * kPi / 4, 1e-12);
  EXPECT_NEAR(phase_delta_for_bits(PhaseMod::kTwoBit, 0b01), -kPi / 4,
              1e-12);
}

class PhaseModParam : public ::testing::TestWithParam<PhaseMod> {};

TEST_P(PhaseModParam, DeltaDecisionRoundTrip) {
  const PhaseMod mod = GetParam();
  const unsigned count = 1u << side_bits_per_symbol(mod);
  for (unsigned bits = 0; bits < count; ++bits) {
    const double delta = phase_delta_for_bits(mod, bits);
    EXPECT_EQ(bits_for_phase_delta(mod, delta), bits);
    // Robust to +-30 degrees of inherent drift.
    EXPECT_EQ(bits_for_phase_delta(mod, delta + 0.5), bits);
    EXPECT_EQ(bits_for_phase_delta(mod, delta - 0.5), bits);
  }
}

INSTANTIATE_TEST_SUITE_P(Mods, PhaseModParam,
                         ::testing::Values(PhaseMod::kOneBit,
                                           PhaseMod::kTwoBit));

TEST(SideChannel, EncoderAccumulatesAndWraps) {
  // Conveying "11 11 10" requires offsets 45, 90, 225->-135 (Fig. 8 logic).
  std::vector<Bits> blocks(3, Bits(48, 0));
  // Use a scheme whose CRC we can predict by monkey-testing decode below;
  // here just check accumulation with the raw encoder via known CRCs.
  const SymbolCrcScheme scheme{PhaseMod::kTwoBit, 1};
  const auto offsets = encode_side_channel(blocks, scheme);
  ASSERT_EQ(offsets.size(), 3u);
  // All blocks identical -> same CRC -> same delta each time.
  const double delta0 = offsets[0];
  EXPECT_NEAR(wrap_angle(offsets[1] - offsets[0]), delta0, 1e-12);
  EXPECT_NEAR(wrap_angle(offsets[2] - offsets[1]), delta0, 1e-12);
}

TEST(SideChannel, DecoderVerifiesCleanSymbols) {
  Rng rng(5);
  const SymbolCrcScheme scheme{PhaseMod::kTwoBit, 1};
  std::vector<Bits> blocks;
  for (int s = 0; s < 20; ++s) {
    Bits b(96);
    for (auto& bit : b) bit = static_cast<std::uint8_t>(rng.uniform_int(2));
    blocks.push_back(std::move(b));
  }
  const auto offsets = encode_side_channel(blocks, scheme);

  SideChannelDecoder decoder(scheme);
  decoder.set_reference_phase(0.0);
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    const auto outcome = decoder.next_symbol(offsets[s], blocks[s]);
    ASSERT_TRUE(outcome.group_verified.has_value());
    EXPECT_TRUE(*outcome.group_verified);
  }
}

TEST(SideChannel, DecoderRejectsCorruptedSymbols) {
  Rng rng(6);
  const SymbolCrcScheme scheme{PhaseMod::kTwoBit, 1};
  std::vector<Bits> blocks;
  for (int s = 0; s < 50; ++s) {
    Bits b(96);
    for (auto& bit : b) bit = static_cast<std::uint8_t>(rng.uniform_int(2));
    blocks.push_back(std::move(b));
  }
  const auto offsets = encode_side_channel(blocks, scheme);

  SideChannelDecoder decoder(scheme);
  decoder.set_reference_phase(0.0);
  int rejected = 0;
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    Bits corrupted = blocks[s];
    corrupted[rng.uniform_int(corrupted.size())] ^= 1u;  // 1-bit error
    const auto outcome = decoder.next_symbol(offsets[s], corrupted);
    ASSERT_TRUE(outcome.group_verified.has_value());
    if (!*outcome.group_verified) ++rejected;
  }
  // CRC-2 catches all single-bit errors.
  EXPECT_EQ(rejected, 50);
}

TEST(SideChannel, GroupSchemesShareCrc) {
  Rng rng(7);
  const SymbolCrcScheme scheme{PhaseMod::kOneBit, 3};  // CRC-3 per 3 symbols
  EXPECT_EQ(scheme.crc_width(), 3u);
  std::vector<Bits> blocks;
  for (int s = 0; s < 9; ++s) {
    Bits b(48);
    for (auto& bit : b) bit = static_cast<std::uint8_t>(rng.uniform_int(2));
    blocks.push_back(std::move(b));
  }
  const auto offsets = encode_side_channel(blocks, scheme);
  SideChannelDecoder decoder(scheme);
  decoder.set_reference_phase(0.0);
  int verdicts = 0;
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    const auto outcome = decoder.next_symbol(offsets[s], blocks[s]);
    if (outcome.group_verified.has_value()) {
      ++verdicts;
      EXPECT_TRUE(*outcome.group_verified);
    }
  }
  EXPECT_EQ(verdicts, 3);  // one verdict per completed 3-symbol group
}

TEST(SideChannel, DecoderRequiresReference) {
  SideChannelDecoder decoder(SymbolCrcScheme{});
  const Bits bits(48, 0);
  EXPECT_THROW((void)decoder.next_symbol(0.0, bits), std::logic_error);
}

TEST(SideChannel, ResidualCfoDriftTolerated) {
  // Superimpose a slow inherent drift (residual CFO) on the injected
  // offsets; differences still decode.
  Rng rng(8);
  const SymbolCrcScheme scheme{PhaseMod::kTwoBit, 1};
  std::vector<Bits> blocks;
  for (int s = 0; s < 30; ++s) {
    Bits b(96);
    for (auto& bit : b) bit = static_cast<std::uint8_t>(rng.uniform_int(2));
    blocks.push_back(std::move(b));
  }
  const auto offsets = encode_side_channel(blocks, scheme);
  SideChannelDecoder decoder(scheme);
  const double drift_per_symbol = 0.12;  // ~7 deg/symbol inherent drift
  decoder.set_reference_phase(0.0);
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    const double measured = wrap_angle(
        offsets[s] + drift_per_symbol * static_cast<double>(s + 1));
    const auto outcome = decoder.next_symbol(measured, blocks[s]);
    ASSERT_TRUE(outcome.group_verified.has_value());
    EXPECT_TRUE(*outcome.group_verified);
  }
}

// ----------------------------------------------------------- transceiver

std::vector<SubframeSpec> make_subframes(std::size_t count, std::size_t bytes,
                                         std::size_t mcs_index, Rng& rng) {
  std::vector<SubframeSpec> subframes;
  for (std::size_t i = 0; i < count; ++i) {
    subframes.push_back(SubframeSpec{
        MacAddress::for_station(static_cast<std::uint32_t>(i + 1)),
        append_fcs(random_psdu(bytes, rng)), mcs_index});
  }
  return subframes;
}

TEST(CarpoolLoopback, CleanChannelAllReceiversDecode) {
  Rng rng(11);
  const auto subframes = make_subframes(3, 200, 4, rng);
  const CarpoolTransmitter tx;
  const CxVec wave = tx.build(subframes);

  for (std::size_t i = 0; i < subframes.size(); ++i) {
    CarpoolRxConfig cfg;
    cfg.self = subframes[i].receiver;
    const CarpoolReceiver rx(cfg);
    const CarpoolRxResult result = rx.receive(wave);
    ASSERT_TRUE(result.ahdr_decoded);
    ASSERT_FALSE(result.matched.empty());
    bool found = false;
    for (const DecodedSubframe& sub : result.subframes) {
      if (sub.index == i) {
        EXPECT_TRUE(sub.decoded);
        EXPECT_TRUE(sub.fcs_ok);
        EXPECT_EQ(sub.psdu, subframes[i].psdu);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "receiver " << i;
  }
}

TEST(CarpoolLoopback, MixedMcsSubframes) {
  Rng rng(12);
  std::vector<SubframeSpec> subframes;
  const std::size_t mcs_choices[] = {0, 3, 5, 7};
  for (std::size_t i = 0; i < 4; ++i) {
    subframes.push_back(SubframeSpec{
        MacAddress::for_station(static_cast<std::uint32_t>(i + 10)),
        append_fcs(random_psdu(80 + 60 * i, rng)), mcs_choices[i]});
  }
  const CarpoolTransmitter tx;
  const CxVec wave = tx.build(subframes);
  for (std::size_t i = 0; i < subframes.size(); ++i) {
    CarpoolRxConfig cfg;
    cfg.self = subframes[i].receiver;
    const CarpoolReceiver rx(cfg);
    const auto result = rx.receive(wave);
    bool ok = false;
    for (const auto& sub : result.subframes) {
      if (sub.index == i && sub.fcs_ok) ok = true;
    }
    EXPECT_TRUE(ok) << i;
  }
}

TEST(CarpoolLoopback, IrrelevantStaDropsWithoutDecoding) {
  Rng rng(13);
  const auto subframes = make_subframes(4, 150, 4, rng);
  const CarpoolTransmitter tx;
  const CxVec wave = tx.build(subframes);

  // Find an outsider whose Bloom check comes up empty (false positives are
  // possible, so scan a few candidates).
  for (std::uint32_t candidate = 1000; candidate < 1100; ++candidate) {
    CarpoolRxConfig cfg;
    cfg.self = MacAddress::for_station(candidate);
    const CarpoolReceiver rx(cfg);
    const auto result = rx.receive(wave);
    ASSERT_TRUE(result.ahdr_decoded);
    if (result.matched.empty()) {
      EXPECT_EQ(result.symbols_full_decoded, 0u);
      EXPECT_TRUE(result.subframes.empty());
      return;  // success
    }
  }
  FAIL() << "no candidate with empty Bloom match in 100 tries";
}

TEST(CarpoolLoopback, ReceiverSkipsForeignSubframes) {
  Rng rng(14);
  const auto subframes = make_subframes(4, 150, 4, rng);
  const CarpoolTransmitter tx;
  const CxVec wave = tx.build(subframes);

  CarpoolRxConfig cfg;
  cfg.self = subframes[2].receiver;  // third subframe
  const CarpoolReceiver rx(cfg);
  const auto result = rx.receive(wave);
  // Subframes 0 and 1 should be skipped via pilot-only processing (unless
  // a false positive matched them).
  const std::size_t full = result.subframes.size();
  EXPECT_GE(result.symbols_pilot_only, 1u);
  EXPECT_LE(full, result.matched.size());
  bool mine = false;
  for (const auto& sub : result.subframes) {
    if (sub.index == 2) mine = sub.fcs_ok;
  }
  EXPECT_TRUE(mine);
}

TEST(CarpoolLoopback, FadingChannelWithRte) {
  Rng rng(15);
  const auto subframes = make_subframes(2, 400, 5, rng);
  const CarpoolTransmitter tx;
  const CxVec wave = tx.build(subframes);

  FadingConfig ch_cfg;
  ch_cfg.seed = 42;
  ch_cfg.snr_db = 30.0;
  ch_cfg.coherence_time = 20e-3;
  ch_cfg.cfo_hz = 8e3;
  FadingChannel channel(ch_cfg);
  const CxVec rx_wave = channel.transmit(wave);

  CarpoolRxConfig cfg;
  cfg.self = subframes[1].receiver;
  cfg.use_rte = true;
  const CarpoolReceiver rx(cfg);
  const auto result = rx.receive(rx_wave);
  bool ok = false;
  std::size_t rte_updates = 0;
  for (const auto& sub : result.subframes) {
    if (sub.index == 1) {
      ok = sub.fcs_ok;
      rte_updates = sub.rte_updates;
    }
  }
  EXPECT_TRUE(ok);
  EXPECT_GT(rte_updates, 0u);
}

TEST(CarpoolLoopback, RteImprovesLongFrameTailBer) {
  // Long 64-QAM frame over a fast-varying channel: the tail-symbol raw BER
  // with RTE must beat standard preamble-only estimation (Fig. 13 shape).
  Rng rng(16);
  const auto subframes = make_subframes(1, 3000, 7, rng);
  const CarpoolTransmitter tx;
  const CxVec wave = tx.build(subframes);

  // Reference coded bits for per-symbol BER.
  const Mcs& m = mcs(7);
  const Bits coded =
      code_data_bits(build_data_bits(subframes[0].psdu, m), m);

  double err_rte = 0, err_std = 0;
  std::size_t bits_counted = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    FadingConfig ch_cfg;
    ch_cfg.seed = seed + 100;
    ch_cfg.snr_db = 33.0;          // office LOS regime of Fig. 3/13
    ch_cfg.rician_los = true;
    ch_cfg.rician_k_db = 10.0;
    ch_cfg.coherence_time = 4.5e-3;
    FadingChannel ch_a(ch_cfg);
    const CxVec rx_wave = ch_a.transmit(wave);

    for (const bool use_rte : {true, false}) {
      CarpoolRxConfig cfg;
      cfg.self = subframes[0].receiver;
      cfg.use_rte = use_rte;
      const CarpoolReceiver rx(cfg);
      const auto result = rx.receive(rx_wave);
      ASSERT_FALSE(result.subframes.empty());
      const auto& sub = result.subframes.front();
      // Count raw errors over the last quarter of the frame.
      const std::size_t n = sub.raw_symbol_bits.size();
      for (std::size_t s = 3 * n / 4; s < n; ++s) {
        const auto& got = sub.raw_symbol_bits[s];
        const std::span<const std::uint8_t> want(coded.data() + s * m.n_cbps,
                                                 m.n_cbps);
        const std::size_t errors = hamming_distance(got, want);
        if (use_rte) {
          err_rte += static_cast<double>(errors);
          bits_counted += m.n_cbps;
        } else {
          err_std += static_cast<double>(errors);
        }
      }
    }
  }
  ASSERT_GT(bits_counted, 0u);
  EXPECT_LT(err_rte, err_std * 0.5)
      << "RTE tail BER " << err_rte / bits_counted << " vs standard "
      << err_std / bits_counted;
}

TEST(CarpoolTransmitter, ValidatesInput) {
  const CarpoolTransmitter tx;
  std::vector<SubframeSpec> none;
  EXPECT_THROW((void)tx.build(none), std::invalid_argument);

  Rng rng(17);
  auto too_many = make_subframes(9, 50, 0, rng);
  EXPECT_THROW((void)tx.build(too_many), std::invalid_argument);

  std::vector<SubframeSpec> empty_psdu{
      SubframeSpec{MacAddress::for_station(1), Bytes{}, 0}};
  EXPECT_THROW((void)tx.build(empty_psdu), std::invalid_argument);
}

TEST(CarpoolTransmitter, AirtimeAccounting) {
  Rng rng(18);
  const auto subframes = make_subframes(2, 100, 0, rng);
  const std::size_t symbols = CarpoolTransmitter::frame_symbols(subframes);
  // 2 A-HDR + 2x(1 SIG + ceil((16 + (100+4 FCS)*8 + 6)/24) = 36 data).
  EXPECT_EQ(symbols, 2 + 2 * (1 + 36));
  EXPECT_NEAR(CarpoolTransmitter::frame_airtime(subframes),
              16e-6 + static_cast<double>(symbols) * 4e-6, 1e-9);
  const CarpoolTransmitter tx;
  const CxVec wave = tx.build(subframes);
  EXPECT_EQ(wave.size(), kPreambleLen + symbols * kSymbolLen);
}

TEST(CarpoolTransmitter, SideChannelInjectionTogglable) {
  Rng rng(19);
  const auto subframes = make_subframes(1, 64, 2, rng);
  CarpoolFrameConfig with;
  CarpoolFrameConfig without;
  without.inject_side_channel = false;
  const CxVec wave_with = CarpoolTransmitter(with).build(subframes);
  const CxVec wave_without = CarpoolTransmitter(without).build(subframes);
  ASSERT_EQ(wave_with.size(), wave_without.size());
  // Preamble + A-HDR identical; payload symbols differ by rotation.
  const std::size_t payload_start = kPreambleLen + 2 * kSymbolLen;
  double preamble_diff = 0, payload_diff = 0;
  for (std::size_t i = 0; i < payload_start; ++i) {
    preamble_diff += std::abs(wave_with[i] - wave_without[i]);
  }
  for (std::size_t i = payload_start; i < wave_with.size(); ++i) {
    payload_diff += std::abs(wave_with[i] - wave_without[i]);
  }
  EXPECT_NEAR(preamble_diff, 0.0, 1e-9);
  EXPECT_GT(payload_diff, 1.0);
}

/// FNV-1a over a waveform's length and the bits of every sample.
std::uint64_t wave_digest(std::span<const Cx> wave, std::uint64_t h) {
  h = fnv1a64_u64(wave.size(), h);
  for (const Cx& s : wave) {
    h = fnv1a64_u64(std::bit_cast<std::uint64_t>(s.real()), h);
    h = fnv1a64_u64(std::bit_cast<std::uint64_t>(s.imag()), h);
  }
  return h;
}

TEST(CarpoolTransmitter, WaveformsPinned) {
  // The three frame builders held to their exact output: every MCS, 1, 2
  // and 8 subframes, the side channel on, off and with another CRC
  // scheme. The 8-subframe frame runs past 127 symbols, so the pilot
  // polarity wraps, and the long legacy frame does too.
  Rng rng(23);
  std::uint64_t carpool_digest = kFnv1aBasis;
  for (std::size_t m = 0; m < 8; ++m) {
    const auto one = make_subframes(1, 60 + 37 * m, m, rng);
    carpool_digest = wave_digest(CarpoolTransmitter().build(one),
                                 carpool_digest);
  }
  auto two = make_subframes(2, 150, 3, rng);
  two[1].mcs_index = 6;
  CarpoolFrameConfig plain;
  plain.inject_side_channel = false;
  CarpoolFrameConfig one_bit;
  one_bit.crc_scheme = SymbolCrcScheme{PhaseMod::kOneBit, 3};
  for (const CarpoolFrameConfig& cfg :
       {CarpoolFrameConfig{}, plain, one_bit}) {
    carpool_digest =
        wave_digest(CarpoolTransmitter(cfg).build(two), carpool_digest);
  }
  auto eight = make_subframes(8, 300, 0, rng);
  for (std::size_t i = 0; i < eight.size(); ++i) eight[i].mcs_index = i;
  ASSERT_GT(CarpoolTransmitter::frame_symbols(eight), 127u);
  carpool_digest =
      wave_digest(CarpoolTransmitter().build(eight), carpool_digest);

  std::uint64_t legacy_digest = kFnv1aBasis;
  for (std::size_t m = 0; m < 8; ++m) {
    const Bytes psdu = append_fcs(random_psdu(100 + 50 * m, rng));
    legacy_digest =
        wave_digest(LegacyTransmitter().build(psdu, mcs(m)), legacy_digest);
  }
  const Bytes long_psdu = append_fcs(random_psdu(600, rng));
  ASSERT_GT(num_data_symbols(mcs(0), long_psdu.size()), 127u);
  legacy_digest = wave_digest(LegacyTransmitter().build(long_psdu, mcs(0)),
                              legacy_digest);

  const std::uint64_t rts_digest = wave_digest(
      build_carpool_rts(two, RtsInfo{MacAddress::for_station(9), 1234}),
      kFnv1aBasis);

  EXPECT_EQ(carpool_digest, 0xe3b8de4affc9dc47ULL) << std::hex << carpool_digest;
  EXPECT_EQ(legacy_digest, 0x6b6560d39a80a3d0ULL) << std::hex << legacy_digest;
  EXPECT_EQ(rts_digest, 0xe64d97cd6c65fab6ULL) << std::hex << rts_digest;
}

TEST(CarpoolReceiver, PlainPhyFrameDecodes) {
  // Frames built without injection decode with side_channel_present=false
  // (the MU-Aggregation baseline's PHY).
  Rng rng(20);
  const auto subframes = make_subframes(2, 120, 4, rng);
  CarpoolFrameConfig txcfg;
  txcfg.inject_side_channel = false;
  const CxVec wave = CarpoolTransmitter(txcfg).build(subframes);

  CarpoolRxConfig cfg;
  cfg.self = subframes[0].receiver;
  cfg.side_channel_present = false;
  cfg.use_rte = false;
  const CarpoolReceiver rx(cfg);
  const auto result = rx.receive(wave);
  bool ok = false;
  for (const auto& sub : result.subframes) {
    if (sub.index == 0) ok = sub.fcs_ok;
  }
  EXPECT_TRUE(ok);
  for (const auto& sub : result.subframes) {
    EXPECT_EQ(sub.rte_updates, 0u);
  }
}

TEST(CarpoolReceiver, TooShortWaveform) {
  CarpoolRxConfig cfg;
  cfg.self = MacAddress::for_station(1);
  const CarpoolReceiver rx(cfg);
  const CxVec wave(200, Cx{});
  const auto result = rx.receive(wave);
  EXPECT_FALSE(result.ahdr_decoded);
}

TEST(CarpoolReceiver, MaxReceiversFrame) {
  Rng rng(21);
  const auto subframes = make_subframes(kMaxReceivers, 60, 2, rng);
  const CarpoolTransmitter tx;
  const CxVec wave = tx.build(subframes);
  CarpoolRxConfig cfg;
  cfg.self = subframes[kMaxReceivers - 1].receiver;  // last subframe
  const CarpoolReceiver rx(cfg);
  const auto result = rx.receive(wave);
  bool ok = false;
  for (const auto& sub : result.subframes) {
    if (sub.index == kMaxReceivers - 1) ok = sub.fcs_ok;
  }
  EXPECT_TRUE(ok);
  EXPECT_EQ(result.subframes_walked, kMaxReceivers);
}

// ------------------------------------------------ RTE clamp reference

/// The std::abs form of the RTE delta bound that rte_delta_exceeds
/// decides on squared magnitudes.
bool abs_form_exceeds(Cx estimate, Cx h, double max_delta) {
  return std::abs(estimate - h) > max_delta * std::max(std::abs(h), 1e-3);
}

TEST(RteClampReference, MatchesAbsFormAtTheBoundary) {
  using lim = std::numeric_limits<double>;
  Rng rng(404);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  auto check = [&](Cx estimate, Cx h, double max_delta) {
    ++checked;
    if (rte_delta_exceeds(estimate, h, max_delta) !=
        abs_form_exceeds(estimate, h, max_delta)) {
      ++mismatches;
    }
  };
  const double scales[] = {1e-300, 1e-160, 1e-5, 1e-3, 1.0, 1e150, 1e300};
  for (const double max_delta : {1e-3, 0.5, 4.0}) {
    for (const double scale : scales) {
      for (int trial = 0; trial < 4000; ++trial) {
        const Cx h = scale * Cx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        const double theta = rng.uniform(0.0, 2.0 * kPi);
        // A move of exactly the bound, then k ulps either side of it.
        double radius = max_delta * std::max(std::abs(h), 1e-3);
        for (int k = 0; k < 4; ++k) radius = std::nextafter(radius, 0.0);
        for (int k = -4; k <= 4; ++k) {
          check(h + radius * cx_exp(theta), h, max_delta);
          radius = std::nextafter(radius, lim::infinity());
        }
        // Far inside and far outside.
        check(h + 0.25 * radius * cx_exp(theta), h, max_delta);
        check(h + 4.0 * radius * cx_exp(theta), h, max_delta);
      }
    }
    const double specials[] = {0.0, -0.0, lim::denorm_min(), 1e-300, 1e300,
                               lim::max(), lim::infinity(),
                               -lim::infinity(), lim::quiet_NaN()};
    for (const double a : specials) {
      for (const double b : specials) {
        check(Cx{a, b}, Cx{1.0, 0.0}, max_delta);
        check(Cx{1.0, 0.0}, Cx{a, b}, max_delta);
        check(Cx{a, 1.0}, Cx{b, -1.0}, max_delta);
      }
    }
  }
  EXPECT_GT(checked, 500000u);
  EXPECT_EQ(mismatches, 0u) << "of " << checked;
}

// ------------------------------------------------- receiver golden digest

/// FNV-1a over every field a decode reports, so a change in what the
/// receiver computes (not only in whether a frame decodes) moves the pin.
class RxDigest {
 public:
  void add(std::uint64_t v) { h_ = fnv1a64_u64(v, h_); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::span<const std::uint8_t> bytes) {
    add(static_cast<std::uint64_t>(bytes.size()));
    for (const std::uint8_t b : bytes) add(static_cast<std::uint64_t>(b));
  }
  void add(const CarpoolRxResult& r) {
    add(static_cast<std::uint64_t>(r.status));
    add(r.sync_quality);
    add(static_cast<std::uint64_t>(r.ahdr_decoded));
    add(static_cast<std::uint64_t>(r.matched.size()));
    for (const std::size_t m : r.matched) add(static_cast<std::uint64_t>(m));
    add(static_cast<std::uint64_t>(r.subframes_walked));
    add(static_cast<std::uint64_t>(r.symbols_full_decoded));
    add(static_cast<std::uint64_t>(r.symbols_pilot_only));
    add(static_cast<std::uint64_t>(r.rte_freezes));
    add(static_cast<std::uint64_t>(r.rte_rollbacks));
    add(r.rte_estimate_norm);
    add(static_cast<std::uint64_t>(r.subframes.size()));
    for (const DecodedSubframe& sub : r.subframes) {
      add(static_cast<std::uint64_t>(sub.index));
      add(static_cast<std::uint64_t>(sub.sig.mcs_index));
      add(static_cast<std::uint64_t>(sub.sig.length_bytes));
      add(static_cast<std::uint64_t>(sub.status));
      add(static_cast<std::uint64_t>(sub.decoded));
      add(static_cast<std::uint64_t>(sub.fcs_ok));
      add(sub.psdu);
      add(static_cast<std::uint64_t>(sub.raw_symbol_bits.size()));
      for (const Bits& bits : sub.raw_symbol_bits) add(bits);
      add(static_cast<std::uint64_t>(sub.group_verified.size()));
      for (const bool v : sub.group_verified) {
        add(static_cast<std::uint64_t>(v));
      }
      add(static_cast<std::uint64_t>(sub.side_bits.size()));
      for (const unsigned b : sub.side_bits) add(static_cast<std::uint64_t>(b));
      add(static_cast<std::uint64_t>(sub.rte_updates));
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnv1aBasis;
};

struct GoldenSet {
  std::uint64_t digest = 0;
  std::uint64_t decodes = 0;
  std::uint64_t clamped = 0;
  std::uint64_t freezes = 0;
  std::uint64_t fcs_failures = 0;
  std::uint64_t decode_exceptions = 0;
};

/// Decode a fixed set of frames: MCS 0-7 at 2, 4 and 8 subframes, each
/// through five channels (fading at 6, 12 and 25 dB, a Gilbert-Elliott
/// burst, a mid-frame SNR collapse), each by three receivers: RTE on, RTE
/// off, and RTE on with a tight delta bound and no EVM gate. The
/// side-channel scheme cycles through two-bit x1, one-bit x3 and two-bit
/// x2 across the frames.
GoldenSet run_golden_set() {
  obs::Registry reg;
  const obs::Registry::ScopedCurrent scope(reg);
  const SymbolCrcScheme schemes[] = {{PhaseMod::kTwoBit, 1},
                                     {PhaseMod::kOneBit, 3},
                                     {PhaseMod::kTwoBit, 2}};
  const std::size_t counts[] = {2, 4, 8};
  RxDigest digest;
  GoldenSet out;
  std::size_t shape = 0;
  for (std::size_t mcs_index = 0; mcs_index < 8; ++mcs_index) {
    for (const std::size_t count : counts) {
      Rng rng(500 + shape);
      const auto subframes =
          make_subframes(count, 30 + 11 * mcs_index, mcs_index, rng);
      const SymbolCrcScheme scheme = schemes[shape % 3];
      const CxVec wave = CarpoolTransmitter({scheme}).build(subframes);
      const std::size_t owner = (shape * 5 + 1) % count;
      for (std::size_t channel = 0; channel < 5; ++channel) {
        const std::uint64_t seed = 7000 + 10 * shape + channel;
        CxVec rx_wave;
        if (channel < 3) {
          FadingConfig ch_cfg;
          ch_cfg.seed = seed;
          ch_cfg.snr_db = std::array{6.0, 12.0, 25.0}[channel];
          ch_cfg.coherence_time = 4e-3;
          ch_cfg.cfo_hz = 5e3;
          rx_wave = FadingChannel(ch_cfg).transmit(wave);
        } else if (channel == 3) {
          FadingConfig ch_cfg;
          ch_cfg.seed = seed;
          ch_cfg.snr_db = 25.0;
          impair::ImpairmentChain chain(seed);
          chain.add(impair::make_gilbert_elliott(
              {.p_good_to_bad = 0.05, .bad_noise_power = 0.5}));
          rx_wave = chain.run(FadingChannel(ch_cfg).transmit(wave));
        } else {
          impair::ImpairmentChain chain(seed);
          chain.add(impair::make_snr_collapse(
              {.start_sample = kPreambleLen + 12 * kSymbolLen,
               .attenuation_db = 25.0}));
          chain.add(impair::make_impulsive_noise(
              {.impulse_prob = 1.0, .impulse_power = 0.01}));
          rx_wave = chain.run(wave);
        }
        for (std::size_t variant = 0; variant < 3; ++variant) {
          CarpoolRxConfig cfg;
          cfg.self = subframes[owner].receiver;
          cfg.crc_scheme = scheme;
          cfg.use_rte = variant != 1;
          if (variant == 2) {
            // Tight bound and no EVM gate: false accepts reach the clamp.
            cfg.rte_max_delta = 0.5;
            cfg.pilot_evm_gate = 0.0;
          }
          const CarpoolRxResult result = CarpoolReceiver(cfg).receive(rx_wave);
          digest.add(result);
          ++out.decodes;
        }
      }
      ++shape;
    }
  }
  for (const char* name :
       {"phy.rte_updates", "phy.rte_delta_clamped", "phy.rte_freeze",
        "phy.rte_rollback", "phy.subframes_decoded", "phy.fcs_failures",
        "phy.sig_failures", "carpool.side_groups_verified",
        "carpool.side_groups_failed", "phy.decode_exceptions"}) {
    digest.add(reg.counter_value(name));
  }
  out.digest = digest.value();
  out.clamped = reg.counter_value("phy.rte_delta_clamped");
  out.freezes = reg.counter_value("phy.rte_freeze");
  out.fcs_failures = reg.counter_value("phy.fcs_failures");
  out.decode_exceptions = reg.counter_value("phy.decode_exceptions");
  return out;
}

TEST(CarpoolRxGolden, DigestPinned) {
  const GoldenSet set = run_golden_set();
  EXPECT_EQ(set.decodes, 360u);
  // Non-vacuity: the set reaches the RTE delta clamp, the poisoning-guard
  // freeze and FCS failures, so the pin covers those branches too.
  EXPECT_GT(set.clamped, 0u);
  EXPECT_GT(set.freezes, 0u);
  EXPECT_GT(set.fcs_failures, 0u);
  EXPECT_EQ(set.decode_exceptions, 0u);
  EXPECT_EQ(set.digest, 0xfeb3824b8840fbfeULL)
      << "digest 0x" << std::hex << set.digest;
}

}  // namespace
}  // namespace carpool
