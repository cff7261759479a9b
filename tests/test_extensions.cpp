#include <gtest/gtest.h>

#include "carpool/compat.hpp"
#include "carpool/mumimo.hpp"
#include "carpool/rtscts.hpp"
#include "channel/fading.hpp"
#include "common/rng.hpp"
#include "mac/aggregation.hpp"
#include "mac/simulator.hpp"
#include "traffic/generators.hpp"

namespace carpool {
namespace {

Bytes random_psdu(std::size_t n, Rng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return out;
}

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

// ------------------------------------------------------------- RTS/CTS

TEST(RtsCts, RtsRoundTripCleanChannel) {
  Rng rng(1);
  const auto subframes = make_subframes(3, 200, 4, rng);
  const RtsInfo info{MacAddress::for_station(100), 1234};
  const CxVec wave = build_carpool_rts(subframes, info);

  for (std::size_t i = 0; i < subframes.size(); ++i) {
    const auto result =
        receive_carpool_rts(wave, subframes[i].receiver);
    ASSERT_TRUE(result.valid);
    EXPECT_EQ(result.info.transmitter, info.transmitter);
    EXPECT_EQ(result.info.duration_us, info.duration_us);
    ASSERT_FALSE(result.my_slots.empty());
    EXPECT_EQ(result.my_slots.front(), i);
  }
}

TEST(RtsCts, RtsCarriesSameBloomAsDataFrame) {
  // A station not named in the data frame should (almost always) find no
  // slot in the RTS either.
  Rng rng(2);
  const auto subframes = make_subframes(2, 100, 2, rng);
  const CxVec wave =
      build_carpool_rts(subframes, RtsInfo{MacAddress::for_station(9), 10});
  for (std::uint32_t candidate = 500; candidate < 520; ++candidate) {
    const auto result =
        receive_carpool_rts(wave, MacAddress::for_station(candidate));
    if (result.my_slots.empty()) return;  // expected common case found
  }
  FAIL() << "every outsider matched: Bloom filter broken";
}

TEST(RtsCts, RtsSurvivesFading) {
  Rng rng(3);
  const auto subframes = make_subframes(4, 300, 7, rng);
  const RtsInfo info{MacAddress::for_station(77), 9876};
  const CxVec wave = build_carpool_rts(subframes, info);
  FadingConfig cfg;
  cfg.seed = 4;
  cfg.snr_db = 25.0;
  FadingChannel channel(cfg);
  const auto result =
      receive_carpool_rts(channel.transmit(wave), subframes[1].receiver);
  ASSERT_TRUE(result.valid);
  EXPECT_EQ(result.info.duration_us, info.duration_us);
}

TEST(RtsCts, CtsRoundTrip) {
  const CxVec wave = build_cts(MacAddress::for_station(5), 4321);
  const CtsResult result = receive_cts(wave);
  ASSERT_TRUE(result.valid);
  EXPECT_EQ(result.receiver, MacAddress::for_station(5));
  EXPECT_EQ(result.nav_us, 4321u);
}

TEST(RtsCts, CtsRejectsGarbage) {
  Rng rng(5);
  CxVec noise(2000, Cx{});
  for (Cx& s : noise) s = Cx{rng.gaussian(), rng.gaussian()};
  EXPECT_FALSE(receive_cts(noise).valid);
}

TEST(RtsCts, EmptySubframesThrow) {
  std::vector<SubframeSpec> none;
  EXPECT_THROW((void)build_carpool_rts(none, RtsInfo{}),
               std::invalid_argument);
}

// --------------------------------------------------- frame classification

TEST(Compat, ClassifiesLegacyFrame) {
  Rng rng(11);
  const LegacyTransmitter tx;
  const CxVec wave = tx.build(append_fcs(random_psdu(100, rng)), mcs(2));
  EXPECT_EQ(classify_waveform(wave), FrameKind::kLegacy);
}

TEST(Compat, ClassifiesCarpoolFrame) {
  Rng rng(12);
  const auto subframes = make_subframes(2, 150, 4, rng);
  const CarpoolTransmitter tx;
  EXPECT_EQ(classify_waveform(tx.build(subframes)), FrameKind::kCarpool);
}

TEST(Compat, ClassificationRobustToNoise) {
  Rng rng(13);
  const LegacyTransmitter ltx;
  const CarpoolTransmitter ctx;
  const CxVec legacy_wave =
      ltx.build(append_fcs(random_psdu(80, rng)), mcs(0));
  const auto subframes = make_subframes(3, 120, 2, rng);
  const CxVec carpool_wave = ctx.build(subframes);

  int correct = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    FadingConfig cfg;
    cfg.seed = seed;
    cfg.snr_db = 22.0;
    FadingChannel ch_a(cfg);
    cfg.seed = seed + 50;
    FadingChannel ch_b(cfg);
    if (classify_waveform(ch_a.transmit(legacy_wave)) == FrameKind::kLegacy) {
      ++correct;
    }
    if (classify_waveform(ch_b.transmit(carpool_wave)) ==
        FrameKind::kCarpool) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 18);  // >=90% correct at 22 dB
}

TEST(Compat, UndecodableOnNoise) {
  Rng rng(14);
  CxVec noise(3000, Cx{});
  for (Cx& s : noise) s = 0.3 * Cx{rng.gaussian(), rng.gaussian()};
  EXPECT_EQ(classify_waveform(noise), FrameKind::kUndecodable);
  CxVec tiny(10, Cx{});
  EXPECT_EQ(classify_waveform(tiny), FrameKind::kUndecodable);
}

TEST(Compat, UniversalReceiverDispatches) {
  Rng rng(15);
  CarpoolRxConfig cfg;
  cfg.self = MacAddress::for_station(1);
  const UniversalReceiver rx(cfg);

  const LegacyTransmitter ltx;
  const Bytes psdu = append_fcs(random_psdu(60, rng));
  const auto legacy = rx.receive(ltx.build(psdu, mcs(2)));
  ASSERT_EQ(legacy.kind, FrameKind::kLegacy);
  ASSERT_TRUE(legacy.legacy.has_value());
  EXPECT_TRUE(legacy.legacy->fcs_ok);
  EXPECT_EQ(legacy.legacy->psdu, psdu);

  const auto subframes = make_subframes(2, 100, 4, rng);
  const CarpoolTransmitter ctx;
  const auto carpool = rx.receive(ctx.build(subframes));
  ASSERT_EQ(carpool.kind, FrameKind::kCarpool);
  ASSERT_TRUE(carpool.carpool.has_value());
  bool ok = false;
  for (const auto& sub : carpool.carpool->subframes) {
    if (sub.index == 0) ok = sub.fcs_ok;
  }
  EXPECT_TRUE(ok);
}

// ------------------------------------------------------------- MU-MIMO

TEST(MuMimo, IdealCsiDecodesCleanlyAtHighSnr) {
  MuMimoConfig cfg;
  cfg.snr_db = 35.0;
  cfg.seed = 3;
  const MuMimoResult r = simulate_mumimo(cfg);
  ASSERT_EQ(r.user_ber.size(), 4u);
  for (const double ber : r.user_ber) EXPECT_LT(ber, 1e-2);
}

TEST(MuMimo, BerDecreasesWithSnr) {
  MuMimoConfig lo, hi;
  lo.snr_db = 10.0;
  hi.snr_db = 30.0;
  lo.seed = hi.seed = 4;
  EXPECT_GT(simulate_mumimo(lo).mean_ber, simulate_mumimo(hi).mean_ber);
}

TEST(MuMimo, CsiErrorCausesInterference) {
  MuMimoConfig ideal, noisy;
  ideal.snr_db = noisy.snr_db = 30.0;
  ideal.seed = noisy.seed = 5;
  noisy.csi_error = 0.1;
  EXPECT_GT(simulate_mumimo(noisy).mean_ber,
            simulate_mumimo(ideal).mean_ber);
}

TEST(MuMimo, SharedPreambleSavesAirtime) {
  MuMimoConfig cfg;
  cfg.symbols_per_group = 20;
  const MuMimoResult r = simulate_mumimo(cfg);
  EXPECT_LT(r.carpool_symbols, r.legacy_symbols);
  EXPECT_GT(r.airtime_saving(), 0.10);
}

TEST(MuMimo, ValidatesConfig) {
  MuMimoConfig cfg;
  cfg.num_tx_antennas = 4;
  EXPECT_THROW((void)simulate_mumimo(cfg), std::invalid_argument);
  cfg = MuMimoConfig{};
  cfg.num_groups = 0;
  EXPECT_THROW((void)simulate_mumimo(cfg), std::invalid_argument);
}

// -------------------------------------------------------- time fairness

TEST(TimeFairness, LeastOccupancyServedFirst) {
  using namespace mac;
  ApQueues q;
  for (NodeId sta = 1; sta <= 10; ++sta) {
    q.enqueue(MacFrame{0, kApNode, sta, 200, 0.01 * sta, 0});
  }
  AggregationPolicy policy;
  policy.time_fairness = true;
  // STAs 1..8 have consumed lots of airtime; 9 and 10 none.
  std::vector<double> occupancy(11, 0.0);
  for (NodeId sta = 1; sta <= 8; ++sta) occupancy[sta] = 1.0;
  const MacParams params;
  Transmission tx;
  q.build(tx, Scheme::kCarpool, params, policy, occupancy);
  ASSERT_GE(tx.subunits.size(), 2u);
  EXPECT_EQ(tx.subunits[0].dst, 9u);
  EXPECT_EQ(tx.subunits[1].dst, 10u);
}

TEST(TimeFairness, FallsBackToFifoWithoutTable) {
  using namespace mac;
  ApQueues q;
  q.enqueue(MacFrame{0, kApNode, 2, 200, 0.5, 0});
  q.enqueue(MacFrame{0, kApNode, 1, 200, 0.1, 0});
  AggregationPolicy policy;
  policy.time_fairness = true;  // but no occupancy table passed
  const MacParams params;
  Transmission tx;
  q.build(tx, Scheme::kCarpool, params, policy);
  ASSERT_EQ(tx.subunits.size(), 2u);
  EXPECT_EQ(tx.subunits[0].dst, 1u);  // oldest first
}

TEST(TimeFairness, ReducesWorstCaseStarvationInSim) {
  using namespace mac;
  // One STA demands much more traffic; with FIFO its head frames are
  // always oldest, monopolising slots. Time fairness evens airtime.
  auto run = [](bool fair) {
    SimConfig cfg;
    cfg.scheme = Scheme::kCarpool;
    cfg.num_stas = 6;
    cfg.duration = 4.0;
    cfg.seed = 17;
    cfg.aggregation.time_fairness = fair;
    Simulator sim(cfg);
    sim.add_flow(traffic::make_cbr_flow(1, 1400, 0.001));  // hog
    for (NodeId sta = 2; sta <= 6; ++sta) {
      sim.add_flow(traffic::make_cbr_flow(sta, 200, 0.01));
    }
    return sim.run();
  };
  const SimResult fifo = run(false);
  const SimResult fair = run(true);
  // Both deliver traffic; fairness must not collapse goodput.
  EXPECT_GT(fair.downlink_goodput_bps, 0.5 * fifo.downlink_goodput_bps);
}

// ------------------------------------------------------------ RTE alpha

TEST(RteAlpha, ZeroAlphaDisablesAdaptation) {
  Rng rng(21);
  const auto subframes = make_subframes(1, 3000, 7, rng);
  const CarpoolTransmitter tx;
  const CxVec wave = tx.build(subframes);
  FadingConfig cfg;
  cfg.seed = 9;
  cfg.snr_db = 33.0;
  cfg.rician_los = true;
  cfg.coherence_time = 4.5e-3;
  FadingChannel channel(cfg);
  const CxVec rx_wave = channel.transmit(wave);

  auto raw_errors = [&](double alpha, bool rte) {
    CarpoolRxConfig rx_cfg;
    rx_cfg.self = subframes[0].receiver;
    rx_cfg.use_rte = rte;
    rx_cfg.rte_alpha = alpha;
    const CarpoolReceiver rx(rx_cfg);
    const auto result = rx.receive(rx_wave);
    const Mcs& m = mcs(7);
    const Bits ref = code_data_bits(build_data_bits(subframes[0].psdu, m), m);
    std::size_t errors = 0;
    for (const auto& sub : result.subframes) {
      for (std::size_t s = 0; s < sub.raw_symbol_bits.size(); ++s) {
        errors += hamming_distance(
            sub.raw_symbol_bits[s],
            std::span<const std::uint8_t>(ref.data() + s * m.n_cbps,
                                          m.n_cbps));
      }
    }
    return errors;
  };

  // alpha=0 must behave like RTE off.
  EXPECT_EQ(raw_errors(0.0, true), raw_errors(0.5, false));
  // paper's alpha=0.5 must beat no adaptation on this channel.
  EXPECT_LT(raw_errors(0.5, true), raw_errors(0.0, true));
}

}  // namespace
}  // namespace carpool
