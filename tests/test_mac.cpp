#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "mac/aggregation.hpp"
#include "mac/domain_sim.hpp"
#include "mac/energy.hpp"
#include "mac/params.hpp"
#include "mac/phy_model.hpp"
#include "mac/rate_adaptation.hpp"
#include "mac/simulator.hpp"
#include "traffic/generators.hpp"

namespace carpool::mac {
namespace {

// ------------------------------------------------------------ parameters

TEST(Params, Table2Defaults) {
  const MacParams p;
  EXPECT_DOUBLE_EQ(p.slot_time, 9e-6);
  EXPECT_DOUBLE_EQ(p.sifs, 10e-6);
  EXPECT_DOUBLE_EQ(p.difs, 28e-6);
  EXPECT_EQ(p.cw_min, 15u);
  EXPECT_EQ(p.cw_max, 1023u);
  EXPECT_DOUBLE_EQ(p.plcp_header, 28e-6);
  EXPECT_DOUBLE_EQ(p.propagation_delay, 1e-6);
}

TEST(Params, NavEquations) {
  const MacParams p;
  const double t_ack = p.ack_duration();
  // Eq. (1): NAV_data = t_payload + N (t_ACK + t_SIFS).
  EXPECT_NEAR(nav_data(p, 500e-6, 4), 500e-6 + 4 * (t_ack + p.sifs), 1e-12);
  // Eq. (2): NAV_i = (i-1)(t_ACK + t_SIFS); the first receiver waits SIFS
  // only, the last ACK sets NAV_1 = 0.
  EXPECT_DOUBLE_EQ(nav_i(p, 1), 0.0);
  EXPECT_NEAR(nav_i(p, 3), 2 * (t_ack + p.sifs), 1e-12);
  EXPECT_THROW((void)nav_i(p, 0), std::invalid_argument);
}

TEST(Params, AckShorterThanData) {
  const MacParams p;
  EXPECT_LT(p.ack_duration(), p.plcp_header + 1e-3);
  EXPECT_GT(p.ack_duration(), p.plcp_header);
  EXPECT_GT(p.rts_duration(), p.cts_duration());
}

// ------------------------------------------------------------- phy model

TEST(AnalyticPhy, MonotoneInSnr) {
  const AnalyticPhyModel model;
  SubframeChannelQuery q;
  q.num_symbols = 20;
  q.snr_db = 5.0;
  const double low = model.subframe_error_prob(q);
  q.snr_db = 30.0;
  const double high = model.subframe_error_prob(q);
  EXPECT_GT(low, high);
  EXPECT_LT(high, 0.05);
}

TEST(AnalyticPhy, BerBiasWithoutRte) {
  // Error probability grows with the subframe's position (Fig. 3).
  const AnalyticPhyModel model;
  SubframeChannelQuery q;
  q.snr_db = 25.0;
  q.num_symbols = 30;
  q.coherence_time = 2e-3;
  q.rte = false;
  q.start_symbol = 0;
  const double front = model.subframe_error_prob(q);
  q.start_symbol = 300;
  const double rear = model.subframe_error_prob(q);
  EXPECT_GT(rear, front);
}

TEST(AnalyticPhy, RteFlattensBias) {
  const AnalyticPhyModel model;
  SubframeChannelQuery q;
  q.snr_db = 25.0;
  q.num_symbols = 30;
  q.coherence_time = 2e-3;
  q.rte = true;
  q.start_symbol = 0;
  const double front = model.subframe_error_prob(q);
  q.start_symbol = 300;
  const double rear = model.subframe_error_prob(q);
  EXPECT_NEAR(rear, front, 1e-9);

  // And RTE strictly beats standard estimation for rear subframes.
  q.rte = false;
  EXPECT_GT(model.subframe_error_prob(q), rear);
}

TEST(AnalyticPhy, FasterChannelHurtsMore) {
  const AnalyticPhyModel model;
  SubframeChannelQuery q;
  q.snr_db = 25.0;
  q.num_symbols = 30;
  q.start_symbol = 150;
  q.coherence_time = 20e-3;
  const double slow = model.subframe_error_prob(q);
  q.coherence_time = 1e-3;
  const double fast = model.subframe_error_prob(q);
  EXPECT_GT(fast, slow);
}

TEST(AnalyticPhy, ControlFramesRobust) {
  const AnalyticPhyModel model;
  // Control frames ride MCS0-class robustness: reliable down to ~0 dB,
  // lost deep below that.
  EXPECT_LT(model.control_error_prob(25.0), 1e-6);
  EXPECT_LT(model.control_error_prob(0.0), 0.1);
  EXPECT_GT(model.control_error_prob(-18.0), 0.3);
}

/// Reference for AnalyticPhyModel::subframe_error_prob: the plain
/// per-symbol loop, one symbol_error_prob (one exp) per symbol on both
/// branches, built only from the model's public pieces.
double reference_subframe_error_prob(const AnalyticPhyModel& model,
                                     const AnalyticPhyModel::Params& params,
                                     const SubframeChannelQuery& query) {
  const double effective_snr =
      query.snr_db + AnalyticPhyModel::rate_margin_db(query.rate_bps);
  double success = 1.0;
  for (std::size_t s = 0; s < query.num_symbols; ++s) {
    double stale_symbols;
    if (query.rte) {
      stale_symbols = params.rte_residual_symbols;
    } else {
      stale_symbols = static_cast<double>(query.start_symbol + s);
    }
    const double staleness =
        stale_symbols * params.symbol_duration / query.coherence_time;
    success *= 1.0 - model.symbol_error_prob(effective_snr, staleness);
    if (success <= 1e-9) return 1.0;
  }
  return 1.0 - success;
}

/// The analytic model with subframe_error_prob routed through the
/// reference loop.
class ReferencePhyModel final : public PhyErrorModel {
 public:
  [[nodiscard]] double subframe_error_prob(
      const SubframeChannelQuery& query) const override {
    return reference_subframe_error_prob(model_, {}, query);
  }
  [[nodiscard]] double control_error_prob(double snr_db) const override {
    return model_.control_error_prob(snr_db);
  }

 private:
  AnalyticPhyModel model_;
};

/// Reference for AnalyticPhyModel::control_error_prob from the model's
/// public pieces: four basic-rate symbols at zero staleness.
double reference_control_error_prob(const AnalyticPhyModel& model,
                                    double snr_db) {
  const double per_symbol = model.symbol_error_prob(
      snr_db + AnalyticPhyModel::rate_margin_db(6.5e6), 0.0);
  return 1.0 - std::pow(1.0 - per_symbol, 4.0);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(AnalyticPhy, SubframeErrorProbMatchesPerSymbolReference) {
  // Bit for bit, not within ULPs: soak fingerprints hash every simulated
  // statistic, so a pow() shortcut that rounds differently could move
  // them although EXPECT_DOUBLE_EQ (4 ULPs) would pass. The model
  // memoizes its answers, so the grid is sent twice through the same
  // instance: once in order, then as a seeded shuffled sample whose
  // repeats hit the memo.
  AnalyticPhyModel::Params no_residual;
  no_residual.rte_residual_symbols = 0.0;
  AnalyticPhyModel::Params long_residual;
  long_residual.rte_residual_symbols = 5.0;
  const AnalyticPhyModel::Params param_sets[] = {{}, no_residual,
                                                 long_residual};
  const double rates[] = {6.5e6, 13e6, 19.5e6, 26e6, 39e6,
                          52e6,  58.5e6, 65e6, 0.0,  1e9};
  const std::size_t lengths[] = {1, 2, 47, 81, 400, 2000};
  const std::size_t starts[] = {0, 17};
  const double coherence_times[] = {1e-4, 5e-3, 1e-1};

  std::size_t compared = 0;
  std::size_t mismatches = 0;
  // By query.rte. The reference returns exactly 1.0 only from its
  // success <= 1e-9 early exit.
  std::size_t early_exits[2] = {0, 0};
  std::size_t partial[2] = {0, 0};  // strictly between 0 and 1
  struct Graded {
    SubframeChannelQuery query;
    double want;
  };
  std::vector<Graded> grid;
  std::mt19937_64 shuffle_rng(2024);
  std::size_t resent = 0;
  for (const AnalyticPhyModel::Params& params : param_sets) {
    const AnalyticPhyModel model(params);
    grid.clear();
    for (const bool rte : {false, true}) {
      for (int quarter_db = -40; quarter_db <= 240; ++quarter_db) {
        for (const double rate : rates) {
          for (const std::size_t n : lengths) {
            for (const std::size_t start : starts) {
              for (const double tc : coherence_times) {
                SubframeChannelQuery q;
                q.snr_db = 0.25 * quarter_db;
                q.rate_bps = rate;
                q.num_symbols = n;
                q.start_symbol = start;
                q.rte = rte;
                q.coherence_time = tc;
                const double want =
                    reference_subframe_error_prob(model, params, q);
                const double got = model.subframe_error_prob(q);
                grid.push_back({q, want});
                ++compared;
                if (want == 1.0) ++early_exits[rte];
                if (want > 0.0 && want < 1.0) ++partial[rte];
                if (bits(got) != bits(want) && ++mismatches <= 5) {
                  ADD_FAILURE() << "rte=" << rte << " snr=" << q.snr_db
                                << " rate=" << rate << " n=" << n
                                << " start=" << start << " tc=" << tc
                                << " residual="
                                << params.rte_residual_symbols
                                << ": got " << got << ", reference "
                                << want;
                }
              }
            }
          }
        }
      }
    }
    // The grid again, shuffled. Even draws come from a hot set of 96
    // points, more than the memo's 64 slots, so they hit and evict one
    // another; odd draws come from the whole grid and mostly miss.
    std::shuffle(grid.begin(), grid.end(), shuffle_rng);
    for (std::size_t i = 0; i < 20000; ++i) {
      const std::size_t pick =
          shuffle_rng() % (i % 2 == 0 ? std::size_t{96} : grid.size());
      const Graded& g = grid[pick];
      ++resent;
      if (bits(model.subframe_error_prob(g.query)) != bits(g.want) &&
          ++mismatches <= 5) {
        ADD_FAILURE() << "resent grid point " << pick << ": got "
                      << model.subframe_error_prob(g.query)
                      << ", reference " << g.want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << compared << " + " << resent
                            << " queries";
  EXPECT_GE(resent, 50000u);
  for (const bool rte : {false, true}) {
    EXPECT_GT(early_exits[rte], 0u) << "rte=" << rte;
    EXPECT_GT(partial[rte], 0u) << "rte=" << rte;
  }

  // Queries one field away from a just-answered one: each neighbour's
  // reference differs from the base's, so a memo that ignored the field
  // would return the base's answer. Ask base, neighbour, base, neighbour.
  const AnalyticPhyModel model;
  const AnalyticPhyModel::Params params;
  SubframeChannelQuery base;
  base.snr_db = 25.3;
  base.rate_bps = 65e6;  // no rate margin to round the ULP away
  base.num_symbols = 47;
  base.start_symbol = 17;
  base.coherence_time = 2e-3;
  base.rte = false;
  std::vector<std::pair<const char*, SubframeChannelQuery>> neighbours;
  auto add = [&](const char* field, auto&& edit) {
    SubframeChannelQuery q = base;
    edit(q);
    neighbours.emplace_back(field, q);
  };
  add("snr_db + 1 ulp", [](SubframeChannelQuery& q) {
    q.snr_db = std::nextafter(q.snr_db, 100.0);
  });
  add("rate_bps", [](SubframeChannelQuery& q) { q.rate_bps = 39e6; });
  add("num_symbols", [](SubframeChannelQuery& q) { ++q.num_symbols; });
  add("coherence_time",
      [](SubframeChannelQuery& q) { q.coherence_time = 3e-3; });
  add("rte", [](SubframeChannelQuery& q) { q.rte = true; });
  add("start_symbol", [](SubframeChannelQuery& q) { ++q.start_symbol; });
  const double base_want = reference_subframe_error_prob(model, params, base);
  for (const auto& [field, q] : neighbours) {
    const double want = reference_subframe_error_prob(model, params, q);
    ASSERT_NE(bits(want), bits(base_want)) << field;
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(bits(model.subframe_error_prob(base)), bits(base_want))
          << field << ", round " << round;
      EXPECT_EQ(bits(model.subframe_error_prob(q)), bits(want))
          << field << ", round " << round;
    }
  }
  // The RTE branch never reads start_symbol: one answer for any start.
  SubframeChannelQuery rte = base;
  rte.rte = true;
  const double rte_want = reference_subframe_error_prob(model, params, rte);
  for (const std::size_t start : {17, 18, 0, 400}) {
    rte.start_symbol = start;
    EXPECT_EQ(bits(model.subframe_error_prob(rte)), bits(rte_want)) << start;
  }

  // SNRs a memo keyed on values instead of bits would confuse: both
  // zeros, a quiet NaN, and the all-ones NaN pattern an empty-slot marker
  // might use. Each goes twice, on both branches, to a fresh model: the
  // first answer must not come from an empty slot, the second may come
  // from the memo and must carry the same bits.
  const double edge_snrs[] = {0.0, -0.0,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::bit_cast<double>(~std::uint64_t{0})};
  for (const double snr : edge_snrs) {
    for (const bool with_rte : {false, true}) {
      const AnalyticPhyModel fresh;
      SubframeChannelQuery q = base;
      q.snr_db = snr;
      q.rte = with_rte;
      const double want = reference_subframe_error_prob(fresh, params, q);
      for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(bits(fresh.subframe_error_prob(q)), bits(want))
            << "snr bits " << std::hex << bits(snr) << ", rte " << with_rte;
      }
    }
  }

  // The same checks for the ACK odds, keyed on the SNR alone: a sweep, a
  // shuffled resend with repeats, a one-ULP neighbour, and the edge SNRs.
  std::vector<std::pair<double, double>> control_grid;  // (snr, reference)
  std::size_t control_mismatches = 0;
  for (int eighth_db = -400; eighth_db <= 400; ++eighth_db) {
    const double snr = 0.125 * eighth_db;
    const double want = reference_control_error_prob(model, snr);
    control_grid.emplace_back(snr, want);
    if (bits(model.control_error_prob(snr)) != bits(want)) {
      ++control_mismatches;
    }
  }
  std::shuffle(control_grid.begin(), control_grid.end(), shuffle_rng);
  for (std::size_t i = 0; i < 50000; ++i) {
    const auto& [snr, want] = control_grid[shuffle_rng() %
        (i % 2 == 0 ? std::size_t{96} : control_grid.size())];
    if (bits(model.control_error_prob(snr)) != bits(want)) {
      ++control_mismatches;
    }
  }
  EXPECT_EQ(control_mismatches, 0u);
  const double ack_snr = -9.3;
  const double ack_next = std::nextafter(ack_snr, 100.0);
  const double ack_want = reference_control_error_prob(model, ack_snr);
  const double next_want = reference_control_error_prob(model, ack_next);
  ASSERT_NE(bits(ack_want), bits(next_want));
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(bits(model.control_error_prob(ack_snr)), bits(ack_want));
    EXPECT_EQ(bits(model.control_error_prob(ack_next)), bits(next_want));
  }
  for (const double snr : edge_snrs) {
    const AnalyticPhyModel fresh;
    const double want = reference_control_error_prob(fresh, snr);
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(bits(fresh.control_error_prob(snr)), bits(want))
          << "snr bits " << std::hex << bits(snr);
    }
  }
}

TEST(PerfectPhy, NeverFails) {
  const PerfectPhyModel model;
  SubframeChannelQuery q;
  q.snr_db = -100.0;
  q.num_symbols = 1000;
  EXPECT_DOUBLE_EQ(model.subframe_error_prob(q), 0.0);
  EXPECT_DOUBLE_EQ(model.control_error_prob(-100.0), 0.0);
}

// ------------------------------------------------------------ ApQueues

MacFrame make_frame(NodeId dst, std::size_t bytes, double t) {
  MacFrame f;
  f.src = kApNode;
  f.dst = dst;
  f.payload_bytes = bytes;
  f.enqueue_time = t;
  return f;
}

TEST(ApQueues, SingleFramePerTxopFor80211) {
  ApQueues q;
  q.enqueue(make_frame(1, 100, 0.0));
  q.enqueue(make_frame(1, 100, 0.1));
  q.enqueue(make_frame(2, 100, 0.2));
  const MacParams p;
  Transmission tx;
  q.build(tx, Scheme::kDcf80211, p, {});
  ASSERT_EQ(tx.subunits.size(), 1u);
  EXPECT_EQ(tx.subunits[0].frames.size(), 1u);
  EXPECT_EQ(tx.subunits[0].dst, 1u);  // oldest first
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_FALSE(tx.sequential_ack);
}

TEST(ApQueues, AmpduAggregatesOneSta) {
  ApQueues q;
  for (int i = 0; i < 5; ++i) {
    q.enqueue(make_frame(1, 200, 0.01 * i));
  }
  q.enqueue(make_frame(2, 200, 0.001));  // older but different STA
  const MacParams p;
  // STA 1's head frame (t=0) is older than STA 2's (t=0.001).
  Transmission tx;
  q.build(tx, Scheme::kAmpdu, p, {});
  ASSERT_EQ(tx.subunits.size(), 1u);
  EXPECT_EQ(tx.subunits[0].dst, 1u);  // oldest head-of-line wins
  EXPECT_EQ(tx.subunits[0].frames.size(), 5u);  // aggregated
  q.build(tx, Scheme::kAmpdu, p, {});  // overwrites the first aggregate
  ASSERT_EQ(tx.subunits.size(), 1u);
  EXPECT_EQ(tx.subunits[0].dst, 2u);
  EXPECT_EQ(tx.subunits[0].frames.size(), 1u);
}

TEST(ApQueues, CarpoolAggregatesAcrossStas) {
  ApQueues q;
  for (NodeId sta = 1; sta <= 12; ++sta) {
    q.enqueue(make_frame(sta, 150, 0.01 * sta));
  }
  const MacParams p;
  AggregationPolicy policy;
  Transmission tx;
  q.build(tx, Scheme::kCarpool, p, policy);
  EXPECT_EQ(tx.subunits.size(), policy.max_receivers);  // capped at 8
  EXPECT_TRUE(tx.sequential_ack);
  // Oldest 8 STAs selected.
  for (const SubUnit& su : tx.subunits) EXPECT_LE(su.dst, 8u);
  EXPECT_EQ(q.depth(), 4u);
}

TEST(ApQueues, CarpoolWidthBoundedByAhdr) {
  // The A-HDR's Bloom filter addresses at most kMaxReceivers (8)
  // subframes, so both MAC entry points refuse a wider Carpool aggregate;
  // other schemes keep any width.
  SimConfig cfg;
  cfg.scheme = Scheme::kCarpool;
  cfg.num_stas = 12;
  cfg.duration = 0.5;
  cfg.seed = 5;
  cfg.aggregation.max_receivers = 9;
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
  EXPECT_THROW(DomainSim{cfg}, std::invalid_argument);
  cfg.scheme = Scheme::kMuAggregation;
  EXPECT_NO_THROW(Simulator{cfg});

  cfg.scheme = Scheme::kCarpool;
  cfg.aggregation.max_receivers = 8;
  Simulator sim(cfg);
  for (NodeId sta = 1; sta <= 12; ++sta) {
    sim.add_flow(traffic::make_cbr_flow(sta, 300, 0.001));
  }
  const SimResult result = sim.run();
  EXPECT_GT(result.dl_frames_delivered, 0u);
  EXPECT_GT(result.avg_aggregated_receivers, 1.0);
  EXPECT_LE(result.avg_aggregated_receivers, 8.0);
}

TEST(ApQueues, AggregateByteCapRespected) {
  ApQueues q;
  for (NodeId sta = 1; sta <= 8; ++sta) {
    for (int i = 0; i < 3; ++i) q.enqueue(make_frame(sta, 1400, 0.0));
  }
  const MacParams p;
  AggregationPolicy policy;
  policy.max_aggregate_bytes = 8000;
  Transmission tx;
  q.build(tx, Scheme::kCarpool, p, policy);
  std::size_t total = 0;
  for (const SubUnit& su : tx.subunits) total += su.bytes;
  EXPECT_LE(total, policy.max_aggregate_bytes + 1500 + 100);
  EXPECT_GE(total, 4000u);
}

TEST(ApQueues, SubframeByteCapRespected) {
  ApQueues q;
  for (int i = 0; i < 10; ++i) q.enqueue(make_frame(1, 1400, 0.0));
  const MacParams p;
  AggregationPolicy policy;  // max_subframe_bytes = 4095
  Transmission tx;
  q.build(tx, Scheme::kCarpool, p, policy);
  ASSERT_EQ(tx.subunits.size(), 1u);
  EXPECT_LE(tx.subunits[0].bytes, policy.max_subframe_bytes);
  EXPECT_GE(tx.subunits[0].frames.size(), 2u);
}

TEST(ApQueues, RequeueFrontRestoresOrder) {
  ApQueues q;
  q.enqueue(make_frame(1, 100, 0.0));
  q.enqueue(make_frame(1, 100, 0.1));
  const MacParams p;
  Transmission tx;
  q.build(tx, Scheme::kAmpdu, p, {});
  ASSERT_EQ(tx.subunits[0].frames.size(), 2u);
  EXPECT_TRUE(q.empty());
  q.requeue_front(tx.subunits[0]);
  EXPECT_EQ(q.depth(), 2u);
  q.build(tx, Scheme::kAmpdu, p, {});
  EXPECT_DOUBLE_EQ(tx.subunits[0].frames[0].enqueue_time, 0.0);
}

TEST(ApQueues, DropExpired) {
  ApQueues q;
  q.enqueue(make_frame(1, 100, 0.0));
  q.enqueue(make_frame(1, 100, 5.0));
  q.enqueue(make_frame(2, 100, 1.0));
  EXPECT_EQ(q.drop_expired(6.0, 2.0), 2u);  // t=0 and t=1 expired
  EXPECT_EQ(q.depth(), 1u);
}

TEST(ApQueues, CarpoolDurationIncludesAhdrAndSigs) {
  ApQueues q;
  q.enqueue(make_frame(1, 500, 0.0));
  q.enqueue(make_frame(2, 500, 0.0));
  const MacParams p;
  Transmission tx;
  q.build(tx, Scheme::kCarpool, p, {});
  ASSERT_EQ(tx.subunits.size(), 2u);
  double payload = 0.0;
  for (const SubUnit& su : tx.subunits) {
    payload += p.payload_duration(8 * static_cast<std::uint64_t>(su.bytes));
  }
  // PLCP + 2 A-HDR symbols + 2 SIG symbols + payloads.
  EXPECT_NEAR(tx.data_duration,
              p.plcp_header + 4 * MacParams::symbol_duration + payload,
              1e-12);
  // Subframe 2 starts after subframe 1's payload.
  EXPECT_GT(tx.subunits[1].start_symbol, tx.subunits[0].start_symbol);
}

TEST(ApQueues, MuAggregationPaysAddressHeader) {
  ApQueues q1, q2;
  for (NodeId sta = 1; sta <= 4; ++sta) {
    q1.enqueue(make_frame(sta, 300, 0.0));
    q2.enqueue(make_frame(sta, 300, 0.0));
  }
  const MacParams p;
  Transmission mu, cp;
  q1.build(mu, Scheme::kMuAggregation, p, {});
  q2.build(cp, Scheme::kCarpool, p, {});
  ASSERT_EQ(mu.subunits.size(), 4u);
  ASSERT_EQ(cp.subunits.size(), 4u);
  // MU header: 4 x 48 bits at 6.5 Mbps ~= 29.5 us.
  // Carpool: A-HDR 8 us + 4 SIG symbols 16 us = 24 us.
  EXPECT_GT(mu.data_duration, cp.data_duration);
}

TEST(ApQueues, BuildOverwritesCallerTransmission) {
  ApQueues q;
  for (NodeId sta = 1; sta <= 4; ++sta) {
    q.enqueue(make_frame(sta, 300, 0.0));
    q.enqueue(make_frame(sta, 300, 0.0));
  }
  const MacParams p;
  Transmission tx;
  q.build(tx, Scheme::kCarpool, p, {});
  ASSERT_EQ(tx.subunits.size(), 4u);
  EXPECT_EQ(tx.subunits[0].frames.size(), 2u);
  // Fewer receivers than last time: the surplus subunits go.
  q.enqueue(make_frame(3, 300, 1.0));
  q.build(tx, Scheme::kAmpdu, p, {});
  ASSERT_EQ(tx.subunits.size(), 1u);
  EXPECT_EQ(tx.subunits[0].dst, 3u);
  EXPECT_EQ(tx.subunits[0].frames.size(), 1u);
  EXPECT_EQ(tx.subunits[0].start_symbol, 0u);
  EXPECT_FALSE(tx.sequential_ack);
  // Nothing queued: no subunits and no airtime, whatever `tx` held.
  q.build(tx, Scheme::kCarpool, p, {});
  EXPECT_TRUE(tx.subunits.empty());
  EXPECT_DOUBLE_EQ(tx.data_duration, 0.0);
  EXPECT_DOUBLE_EQ(tx.ack_overhead, 0.0);
  EXPECT_FALSE(tx.sequential_ack);
}

TEST(BuildSingleFrame, Geometry) {
  const MacParams p;
  MacFrame f = make_frame(3, 1000, 0.5);
  f.src = 3;
  f.dst = kApNode;
  const Transmission tx = build_single_frame(f, p);
  ASSERT_EQ(tx.subunits.size(), 1u);
  EXPECT_EQ(tx.src, 3u);
  EXPECT_NEAR(tx.data_duration,
              p.plcp_header + 8.0 * 1028.0 / p.data_rate_bps, 1e-12);
  EXPECT_GE(tx.subunits[0].num_symbols, 1u);
}

// --------------------------------------------------------------- energy

TEST(Energy, AccumulatorAndPowerModel) {
  EnergyAccumulator acc;
  acc.add_tx(1.0);
  acc.add_rx(2.0);
  EXPECT_DOUBLE_EQ(acc.idle_seconds(10.0), 7.0);
  const PowerModel power;
  EXPECT_NEAR(acc.joules(10.0), 1.71 + 2 * 1.66 + 7 * 1.22, 1e-9);
}

TEST(Energy, IdleClampsAtZero) {
  EnergyAccumulator acc;
  acc.add_tx(8.0);
  acc.add_rx(5.0);
  EXPECT_DOUBLE_EQ(acc.idle_seconds(10.0), 0.0);
}

// ------------------------------------------------------------ simulator

SimConfig base_config(Scheme scheme, std::size_t stas, double duration) {
  SimConfig cfg;
  cfg.scheme = scheme;
  cfg.num_stas = stas;
  cfg.duration = duration;
  cfg.seed = 11;
  cfg.default_snr_db = 30.0;
  return cfg;
}

TEST(Simulator, LightLoadDeliversEverything) {
  SimConfig cfg = base_config(Scheme::kDcf80211, 2, 5.0);
  cfg.phy = std::make_shared<PerfectPhyModel>();
  Simulator sim(cfg);
  sim.add_flow(traffic::make_cbr_flow(1, 500, 0.05));  // 80 kbit/s
  const SimResult result = sim.run();
  EXPECT_GT(result.dl_frames_delivered, 90u);
  EXPECT_EQ(result.dl_frames_dropped, 0u);
  EXPECT_NEAR(result.downlink_goodput_bps, 500 * 8 / 0.05, 6000.0);
  EXPECT_LT(result.mean_delay_s, 0.01);
  EXPECT_EQ(result.collisions, 0u);  // single contender
}

TEST(Simulator, DeterministicForSeed) {
  auto run_once = [] {
    SimConfig cfg = base_config(Scheme::kCarpool, 10, 3.0);
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 10; ++sta) {
      sim.add_flow(traffic::make_voip_flow(sta));
    }
    return sim.run();
  };
  const SimResult a = run_once();
  const SimResult b = run_once();
  EXPECT_EQ(a.dl_frames_delivered, b.dl_frames_delivered);
  EXPECT_DOUBLE_EQ(a.downlink_goodput_bps, b.downlink_goodput_bps);
  EXPECT_EQ(a.collisions, b.collisions);
}

TEST(Simulator, CollisionsHappenWithManyUplinkContenders) {
  SimConfig cfg = base_config(Scheme::kDcf80211, 20, 3.0);
  cfg.phy = std::make_shared<PerfectPhyModel>();
  Simulator sim(cfg);
  for (NodeId sta = 1; sta <= 20; ++sta) {
    sim.add_flow(traffic::make_poisson_flow(sta, 0.01,
                                            traffic::TraceKind::kSigcomm,
                                            /*uplink=*/true));
  }
  const SimResult result = sim.run();
  EXPECT_GT(result.collisions, 10u);
  EXPECT_GT(result.ul_frames_delivered, 100u);
}

TEST(Simulator, CarpoolBeats80211UnderContention) {
  // The headline effect: many STAs with bidirectional VoIP plus uplink
  // background traffic congest the AP (traffic asymmetry, Sec. 2).
  SimResult results[2];
  const Scheme schemes[2] = {Scheme::kCarpool, Scheme::kDcf80211};
  for (int s = 0; s < 2; ++s) {
    SimConfig cfg = base_config(schemes[s], 30, 8.0);
    cfg.coherence_time = 5e-3;
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 30; ++sta) {
      for (auto& flow :
           traffic::make_voip_call(sta, traffic::VoipParams::near_peak())) {
        sim.add_flow(std::move(flow));
      }
      for (auto& flow : traffic::make_sigcomm_background(sta)) {
        sim.add_flow(std::move(flow));
      }
    }
    results[s] = sim.run();
  }
  EXPECT_GT(results[0].downlink_goodput_bps,
            1.2 * results[1].downlink_goodput_bps);
  EXPECT_LT(results[0].mean_delay_s, results[1].mean_delay_s);
}

TEST(Simulator, CarpoolAggregatesMultipleReceivers) {
  SimConfig cfg = base_config(Scheme::kCarpool, 25, 5.0);
  Simulator sim(cfg);
  for (NodeId sta = 1; sta <= 25; ++sta) {
    for (auto& flow :
         traffic::make_voip_call(sta, traffic::VoipParams::near_peak())) {
      sim.add_flow(std::move(flow));
    }
  }
  const SimResult result = sim.run();
  EXPECT_GT(result.avg_aggregated_receivers, 1.2);
}

TEST(Simulator, DeadlineDropsLateFrames) {
  SimConfig cfg = base_config(Scheme::kDcf80211, 15, 5.0);
  cfg.delivery_deadline = 0.02;
  Simulator sim(cfg);
  for (NodeId sta = 1; sta <= 15; ++sta) {
    sim.add_flow(traffic::make_cbr_flow(sta, 1400, 0.002));  // overload
  }
  const SimResult result = sim.run();
  EXPECT_GT(result.dl_frames_dropped, 100u);
  EXPECT_LE(result.max_delay_s, 0.25);  // queue never holds stale frames
}

TEST(Simulator, EnergyTimesAreSane) {
  SimConfig cfg = base_config(Scheme::kCarpool, 8, 4.0);
  Simulator sim(cfg);
  for (NodeId sta = 1; sta <= 8; ++sta) {
    sim.add_flow(traffic::make_voip_flow(sta));
  }
  const SimResult result = sim.run();
  ASSERT_EQ(result.node_energy.size(), 9u);
  for (const NodeEnergy& ne : result.node_energy) {
    EXPECT_GE(ne.tx_seconds, 0.0);
    EXPECT_GE(ne.rx_seconds, 0.0);
    EXPECT_LE(ne.tx_seconds + ne.rx_seconds, cfg.duration + 1e-6);
    EXPECT_GT(ne.joules, 0.0);
  }
  // The AP transmits most of the time among all nodes.
  for (std::size_t sta = 1; sta < result.node_energy.size(); ++sta) {
    EXPECT_GE(result.node_energy[0].tx_seconds,
              result.node_energy[sta].tx_seconds);
  }
}

TEST(Simulator, WifoxPrioritizesApUnderUplinkLoad) {
  SimResult results[2];
  const Scheme schemes[2] = {Scheme::kWiFox, Scheme::kDcf80211};
  for (int s = 0; s < 2; ++s) {
    SimConfig cfg = base_config(schemes[s], 25, 6.0);
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 25; ++sta) {
      for (auto& flow :
           traffic::make_voip_call(sta, traffic::VoipParams::near_peak())) {
        sim.add_flow(std::move(flow));
      }
      for (auto& flow : traffic::make_sigcomm_background(sta)) {
        sim.add_flow(std::move(flow));
      }
    }
    results[s] = sim.run();
  }
  EXPECT_GT(results[0].downlink_goodput_bps,
            results[1].downlink_goodput_bps);
}

TEST(Simulator, AirtimeAccountingSumsToDuration) {
  SimConfig cfg = base_config(Scheme::kAmpdu, 10, 4.0);
  Simulator sim(cfg);
  for (NodeId sta = 1; sta <= 10; ++sta) {
    sim.add_flow(traffic::make_voip_flow(sta));
  }
  const SimResult result = sim.run();
  const double total = result.airtime_payload + result.airtime_overhead +
                       result.airtime_collision + result.airtime_idle;
  EXPECT_NEAR(total, cfg.duration, 0.05 * cfg.duration);
}

TEST(Simulator, RejectsBadFlows) {
  SimConfig cfg = base_config(Scheme::kCarpool, 4, 1.0);
  Simulator sim(cfg);
  FlowSpec bad;
  bad.src = 1;
  bad.dst = 2;  // STA-to-STA
  bad.next = [](double, Rng&) { return std::pair<double, std::size_t>{1, 1}; };
  EXPECT_THROW(sim.add_flow(bad), std::invalid_argument);
  FlowSpec null_gen;
  null_gen.dst = 1;
  EXPECT_THROW(sim.add_flow(null_gen), std::invalid_argument);
  FlowSpec out_of_range = traffic::make_voip_flow(99);
  EXPECT_THROW(sim.add_flow(out_of_range), std::invalid_argument);
}

TEST(Simulator, RtsCtsReducesCollisionCost) {
  SimResult with, without;
  for (const bool rts : {true, false}) {
    SimConfig cfg = base_config(Scheme::kDcf80211, 30, 4.0);
    cfg.use_rts_cts = rts;
    cfg.phy = std::make_shared<PerfectPhyModel>();
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 30; ++sta) {
      sim.add_flow(traffic::make_poisson_flow(
          sta, 0.02, traffic::TraceKind::kSigcomm, true));
    }
    (rts ? with : without) = sim.run();
  }
  ASSERT_GT(without.collisions, 0u);
  // Per-collision airtime cost is lower with RTS/CTS.
  const double cost_with =
      with.airtime_collision / static_cast<double>(with.collisions);
  const double cost_without =
      without.airtime_collision / static_cast<double>(without.collisions);
  EXPECT_LT(cost_with, cost_without);
}




// ----------------------------------------------------- mixed legacy STAs

TEST(Coexistence, LegacyStaServedWithSingleFrames) {
  ApQueues q;
  for (NodeId sta = 1; sta <= 4; ++sta) {
    q.enqueue(make_frame(sta, 200, 0.01 * sta));
  }
  const MacParams p;
  // STA 1 (oldest head) is legacy.
  std::vector<std::uint8_t> capable{1, 0, 1, 1, 1};
  Transmission tx;
  q.build(tx, Scheme::kCarpool, p, {}, {}, {}, capable);
  // Oldest head is legacy -> a plain legacy transmission for it alone.
  ASSERT_EQ(tx.subunits.size(), 1u);
  EXPECT_EQ(tx.subunits[0].dst, 1u);
  EXPECT_FALSE(tx.sequential_ack);
  // Next TXOP aggregates the remaining (capable) stations.
  q.build(tx, Scheme::kCarpool, p, {}, {}, {}, capable);
  EXPECT_EQ(tx.subunits.size(), 3u);
  EXPECT_TRUE(tx.sequential_ack);
  for (const SubUnit& su : tx.subunits) EXPECT_NE(su.dst, 1u);
}

TEST(Coexistence, MixedNetworkStillDelivers) {
  SimConfig cfg = base_config(Scheme::kCarpool, 20, 6.0);
  cfg.num_legacy_stas = 8;  // STAs 1..8 are legacy
  Simulator sim(cfg);
  for (NodeId sta = 1; sta <= 20; ++sta) {
    sim.add_flow(traffic::make_cbr_flow(sta, 300, 0.02));
  }
  const SimResult r = sim.run();
  // Everyone is served; capacity suffices at this load.
  EXPECT_NEAR(r.downlink_goodput_bps, 20 * 300 * 8 / 0.02, 1.5e5);
  EXPECT_EQ(r.dl_frames_dropped, 0u);
}

TEST(Coexistence, CarpoolStillAggregatesCapableSubset) {
  SimConfig cfg = base_config(Scheme::kCarpool, 30, 6.0);
  cfg.num_legacy_stas = 10;
  Simulator sim(cfg);
  for (NodeId sta = 1; sta <= 30; ++sta) {
    for (auto& f :
         traffic::make_voip_call(sta, traffic::VoipParams::near_peak())) {
      sim.add_flow(std::move(f));
    }
  }
  const SimResult r = sim.run();
  EXPECT_GT(r.avg_aggregated_receivers, 1.0);
  EXPECT_GT(r.downlink_goodput_bps, 1e6);
}

// ----------------------------------------------------- hidden terminals

TEST(HiddenTerminals, DegradeUplinkWithoutRtsCts) {
  auto run = [](double hidden_fraction, bool rts) {
    SimConfig cfg = base_config(Scheme::kDcf80211, 16, 6.0);
    cfg.hidden_pair_fraction = hidden_fraction;
    cfg.use_rts_cts = rts;
    cfg.phy = std::make_shared<PerfectPhyModel>();
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 16; ++sta) {
      sim.add_flow(traffic::make_poisson_flow(
          sta, 0.01, traffic::TraceKind::kSigcomm, /*uplink=*/true));
    }
    return sim.run();
  };
  const SimResult clean = run(0.0, false);
  const SimResult hidden = run(0.5, false);
  const SimResult protected_run = run(0.5, true);

  // Hidden pairs cause extra collisions and waste airtime (at this load
  // retries still deliver every frame; the damage shows up as wasted air
  // and delay, not raw delivery count).
  EXPECT_GT(hidden.collisions, 2 * clean.collisions);
  EXPECT_GT(hidden.airtime_collision, 2 * clean.airtime_collision);
  EXPECT_GE(protected_run.ul_frames_delivered,
            hidden.ul_frames_delivered);
  // RTS/CTS shrinks the vulnerable window to an RTS.
  EXPECT_LT(protected_run.airtime_collision, hidden.airtime_collision);
}

TEST(HiddenTerminals, ZeroFractionMatchesBaseline) {
  auto run = [](double fraction) {
    SimConfig cfg = base_config(Scheme::kCarpool, 8, 3.0);
    cfg.hidden_pair_fraction = fraction;
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 8; ++sta) {
      sim.add_flow(traffic::make_voip_flow(sta));
    }
    return sim.run();
  };
  const SimResult a = run(0.0);
  const SimResult b = run(0.0);
  EXPECT_EQ(a.dl_frames_delivered, b.dl_frames_delivered);
}

// ------------------------------------------------------ rate adaptation

TEST(RateAdaptation, ThresholdTableMonotone) {
  double prev = 0.0;
  for (double snr = 0.0; snr <= 40.0; snr += 1.0) {
    const double r = rate_for_snr(snr);
    EXPECT_GE(r, prev);
    prev = r;
  }
  EXPECT_DOUBLE_EQ(rate_for_snr(0.0), 6.5e6);
  EXPECT_DOUBLE_EQ(rate_for_snr(30.0), 65e6);
  EXPECT_DOUBLE_EQ(rate_for_snr(15.0), 26e6);
}

TEST(RateAdaptation, BuildUsesPerStaRates) {
  ApQueues q;
  q.enqueue(make_frame(1, 1000, 0.0));
  q.enqueue(make_frame(2, 1000, 0.0));
  const MacParams p;
  // STA 1 slow (6.5M), STA 2 fast (65M); slot 0 is the ignored AP slot.
  const LinkSnapshot links(
      {LinkDecision{}, LinkDecision{6.5e6, true}, LinkDecision{65e6, true}});
  Transmission tx;
  q.build(tx, Scheme::kCarpool, p, {}, {}, links);
  ASSERT_EQ(tx.subunits.size(), 2u);
  const SubUnit* slow = nullptr;
  const SubUnit* fast = nullptr;
  for (const SubUnit& su : tx.subunits) {
    (su.dst == 1 ? slow : fast) = &su;
  }
  ASSERT_NE(slow, nullptr);
  ASSERT_NE(fast, nullptr);
  EXPECT_GT(slow->num_symbols, 5 * fast->num_symbols);
}

TEST(RateAdaptation, SimulatorRunsWithHeterogeneousLinks) {
  SimConfig cfg = base_config(Scheme::kCarpool, 8, 4.0);
  cfg.link_policy.rate_adaptation = true;
  cfg.sta_snr_db = {30, 30, 30, 30, 6, 6, 6, 6};  // half near, half far
  Simulator sim(cfg);
  for (NodeId sta = 1; sta <= 8; ++sta) {
    sim.add_flow(traffic::make_cbr_flow(sta, 500, 0.02));
  }
  const SimResult r = sim.run();
  EXPECT_GT(r.dl_frames_delivered, 100u);
  // Offered load small enough that even 6.5M links keep up.
  EXPECT_NEAR(r.downlink_goodput_bps, 8 * 500 * 8 / 0.02, 2e5);
}

// ---------------------------------------------- link-quality backoff

TEST(LinkQuality, DeadStaGetsSuspendedAndProbed) {
  // STA 1's link is unusable: with the gate on, the AP should repeatedly
  // suspend it from aggregation and probe it back after each timeout.
  SimConfig cfg = base_config(Scheme::kCarpool, 6, 5.0);
  cfg.sta_snr_db = {-10, 30, 30, 30, 30, 30};
  cfg.link_policy.suspension = true;
  Simulator sim(cfg);
  for (NodeId sta = 1; sta <= 6; ++sta) {
    sim.add_flow(traffic::make_cbr_flow(sta, 500, 0.02));
  }
  const SimResult r = sim.run();
  EXPECT_GT(r.lq_suspensions, 2u);
  EXPECT_GT(r.lq_probes, 1u);
  // Healthy STAs keep their goodput despite the dead sibling.
  EXPECT_GT(r.per_sta_goodput_bps[2], 100e3);
}

TEST(LinkQuality, DisabledGateChangesNothing) {
  auto run = [](bool enabled) {
    SimConfig cfg = base_config(Scheme::kCarpool, 4, 3.0);
    cfg.link_policy.suspension = enabled;
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 4; ++sta) {
      sim.add_flow(traffic::make_voip_flow(sta));
    }
    return sim.run();
  };
  const SimResult off = run(false);
  EXPECT_EQ(off.lq_suspensions, 0u);
  EXPECT_EQ(off.lq_probes, 0u);
  // Healthy 30 dB links never trip the gate, so enabling it is a no-op.
  const SimResult on = run(true);
  EXPECT_EQ(on.lq_suspensions, 0u);
  EXPECT_DOUBLE_EQ(on.downlink_goodput_bps, off.downlink_goodput_bps);
}

TEST(LinkQuality, SuspensionShieldsAggregatePeers) {
  // Aggregating a dead receiver wastes the whole aggregate's airtime on
  // retries; the gate should recover siblings' goodput.
  auto run = [](bool enabled) {
    SimConfig cfg = base_config(Scheme::kCarpool, 8, 5.0);
    cfg.sta_snr_db = {-10, -10, 30, 30, 30, 30, 30, 30};
    cfg.link_policy.suspension = enabled;
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 8; ++sta) {
      sim.add_flow(traffic::make_cbr_flow(sta, 800, 0.01));
    }
    return sim.run();
  };
  const SimResult gated = run(true);
  const SimResult ungated = run(false);
  EXPECT_GE(gated.downlink_goodput_bps, ungated.downlink_goodput_bps);
}

TEST(RateAdaptation, SlowLinksConsumeMoreAirtime) {
  auto run = [](double snr) {
    SimConfig cfg = base_config(Scheme::kDcf80211, 4, 4.0);
    cfg.link_policy.rate_adaptation = true;
    cfg.sta_snr_db = {snr, snr, snr, snr};
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 4; ++sta) {
      sim.add_flow(traffic::make_cbr_flow(sta, 1000, 0.02));
    }
    return sim.run();
  };
  const SimResult fast = run(30.0);
  const SimResult slow = run(9.0);  // ~13 Mb/s links
  EXPECT_GT(slow.airtime_payload + slow.airtime_overhead,
            1.5 * (fast.airtime_payload + fast.airtime_overhead));
}

// ------------------------------------------- model speed-ups change nothing

TEST(Simulator, StatisticsMatchPerSymbolReferenceModel) {
  // A faster PHY model must leave every simulated statistic unchanged.
  // The 30 us coherence time costs the RTE residual ~16 dB, so the
  // weakest links fail even at MCS0 and every link-policy layer fires.
  auto run = [](std::shared_ptr<const PhyErrorModel> phy) {
    SimConfig cfg = base_config(Scheme::kCarpool, 8, 2.0);
    cfg.sta_snr_db = {12, 14, 16, 18, 21, 24, 27, 30};
    cfg.coherence_time = 3e-5;
    cfg.link_policy.rate_adaptation = true;
    cfg.link_policy.feedback = true;
    cfg.link_policy.suspension = true;
    cfg.link_policy.record_transitions = true;
    cfg.phy = std::move(phy);
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 8; ++sta) {
      sim.add_flow(traffic::make_cbr_flow(sta, 1000, 0.004));
    }
    return sim.run();
  };
  const SimResult got = run(nullptr);  // the default AnalyticPhyModel
  const SimResult want = run(std::make_shared<ReferencePhyModel>());

  EXPECT_GT(got.subframe_failures, 0u);
  EXPECT_GT(got.ls_rate_downgrades, 0u);
  EXPECT_GT(got.ls_rate_upgrades, 0u);
  EXPECT_GT(got.lq_suspensions, 0u);
  EXPECT_GT(got.lq_probes, 0u);

  EXPECT_EQ(got.dl_frames_delivered, want.dl_frames_delivered);
  EXPECT_EQ(got.dl_frames_dropped, want.dl_frames_dropped);
  EXPECT_EQ(got.ul_frames_delivered, want.ul_frames_delivered);
  EXPECT_EQ(got.ul_frames_dropped, want.ul_frames_dropped);
  EXPECT_EQ(got.tx_attempts, want.tx_attempts);
  EXPECT_EQ(got.collisions, want.collisions);
  EXPECT_EQ(got.subframe_failures, want.subframe_failures);
  EXPECT_EQ(got.false_positive_decodes, want.false_positive_decodes);
  EXPECT_EQ(got.lq_suspensions, want.lq_suspensions);
  EXPECT_EQ(got.lq_probes, want.lq_probes);
  EXPECT_EQ(got.ls_transitions, want.ls_transitions);
  EXPECT_EQ(got.ls_rate_downgrades, want.ls_rate_downgrades);
  EXPECT_EQ(got.ls_rate_upgrades, want.ls_rate_upgrades);

  const double SimResult::*const fields[] = {
      &SimResult::duration,         &SimResult::downlink_goodput_bps,
      &SimResult::uplink_goodput_bps, &SimResult::mean_delay_s,
      &SimResult::p95_delay_s,      &SimResult::max_delay_s,
      &SimResult::airtime_payload,  &SimResult::airtime_overhead,
      &SimResult::airtime_collision, &SimResult::airtime_idle,
      &SimResult::mean_ap_queue_depth,
      &SimResult::avg_aggregated_receivers, &SimResult::jain_fairness};
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    EXPECT_EQ(bits(got.*fields[i]), bits(want.*fields[i])) << "field " << i;
  }

  ASSERT_EQ(got.per_sta_goodput_bps.size(), want.per_sta_goodput_bps.size());
  for (std::size_t i = 0; i < got.per_sta_goodput_bps.size(); ++i) {
    EXPECT_EQ(bits(got.per_sta_goodput_bps[i]),
              bits(want.per_sta_goodput_bps[i]))
        << "sta " << i;
  }
  ASSERT_EQ(got.node_energy.size(), want.node_energy.size());
  for (std::size_t i = 0; i < got.node_energy.size(); ++i) {
    const NodeEnergy& a = got.node_energy[i];
    const NodeEnergy& b = want.node_energy[i];
    EXPECT_EQ(bits(a.tx_seconds), bits(b.tx_seconds)) << "node " << i;
    EXPECT_EQ(bits(a.rx_seconds), bits(b.rx_seconds)) << "node " << i;
    EXPECT_EQ(bits(a.joules), bits(b.joules)) << "node " << i;
    EXPECT_EQ(bits(a.idle_seconds), bits(b.idle_seconds)) << "node " << i;
  }
  ASSERT_EQ(got.link_transitions.size(), want.link_transitions.size());
  for (std::size_t i = 0; i < got.link_transitions.size(); ++i) {
    const LinkTransition& a = got.link_transitions[i];
    const LinkTransition& b = want.link_transitions[i];
    EXPECT_EQ(bits(a.time), bits(b.time)) << "transition " << i;
    EXPECT_EQ(a.sta, b.sta) << "transition " << i;
    EXPECT_EQ(a.from, b.from) << "transition " << i;
    EXPECT_EQ(a.to, b.to) << "transition " << i;
    EXPECT_EQ(bits(a.rate_bps), bits(b.rate_bps)) << "transition " << i;
  }
}


// ---------------------------------------------------- engine golden digest

/// Every SimResult field, doubles by their bit patterns, as one byte
/// string for FNV-1a: a change in what the engine computes (not only in
/// whether a frame gets through) moves the pin.
class SimDigest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void add(double v) { add(bits(v)); }
  void add(const SimResult& r) {
    for (const double v :
         {r.duration, r.downlink_goodput_bps, r.uplink_goodput_bps,
          r.mean_delay_s, r.p95_delay_s, r.max_delay_s, r.airtime_payload,
          r.airtime_overhead, r.airtime_collision, r.airtime_idle,
          r.mean_ap_queue_depth, r.avg_aggregated_receivers,
          r.jain_fairness}) {
      add(v);
    }
    for (const std::uint64_t v :
         {r.dl_frames_delivered, r.dl_frames_dropped, r.ul_frames_delivered,
          r.ul_frames_dropped, r.tx_attempts, r.collisions,
          r.subframe_failures, r.false_positive_decodes, r.lq_suspensions,
          r.lq_probes, r.ls_transitions, r.ls_rate_downgrades,
          r.ls_rate_upgrades}) {
      add(v);
    }
    add(static_cast<std::uint64_t>(r.link_transitions.size()));
    for (const LinkTransition& t : r.link_transitions) {
      add(t.time);
      add(static_cast<std::uint64_t>(t.sta));
      add(static_cast<std::uint64_t>(t.from));
      add(static_cast<std::uint64_t>(t.to));
      add(t.rate_bps);
    }
    add(static_cast<std::uint64_t>(r.per_sta_goodput_bps.size()));
    for (const double g : r.per_sta_goodput_bps) add(g);
    add(static_cast<std::uint64_t>(r.node_energy.size()));
    for (const NodeEnergy& ne : r.node_energy) {
      add(ne.tx_seconds);
      add(ne.rx_seconds);
      add(ne.joules);
      add(ne.idle_seconds);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return fnv1a64(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// The golden grid's shared traffic: a near-peak VoIP call (both
/// directions) per STA, SIGCOMM Poisson uplink background on every other
/// STA, and CBR downlink so multi-receiver schemes aggregate.
DomainSim golden_domain(const SimConfig& cfg) {
  DomainSim sim(cfg);
  for (NodeId sta = 1; sta <= cfg.num_stas; ++sta) {
    for (auto& flow :
         traffic::make_voip_call(sta, traffic::VoipParams::near_peak())) {
      sim.add_flow(std::move(flow));
    }
    if (sta % 2 == 0) {
      sim.add_flow(traffic::make_poisson_flow(
          sta, 0.02, traffic::TraceKind::kSigcomm, /*uplink=*/true));
    }
    sim.add_flow(traffic::make_cbr_flow(sta, 900, 0.01));
  }
  return sim;
}

SimConfig golden_config(Scheme scheme, std::uint64_t seed) {
  SimConfig cfg = base_config(scheme, 10, 1.5);
  cfg.seed = seed;
  cfg.sta_snr_db = {9, 12, 15, 18, 21, 24, 27, 30, 30, 30};
  cfg.hidden_pair_fraction = 0.3;
  return cfg;
}

struct EngineGoldenSet {
  std::uint64_t digest = 0;
  std::uint64_t runs = 0;
  std::uint64_t collisions = 0;
  std::uint64_t hidden_collisions = 0;    ///< Carpool uplink at fraction 0.3
  std::uint64_t unhidden_collisions = 0;  ///< the same config at fraction 0
  std::uint64_t deadline_drops = 0;
  std::uint64_t retry_drops = 0;  ///< drops in runs without a deadline
  std::uint64_t false_positive_decodes = 0;
  std::uint64_t suspensions = 0;
  std::uint64_t rate_downgrades = 0;
};

/// Run DomainSim over a fixed grid: every scheme with RTS/CTS off and on
/// (hidden pairs, VoIP and Poisson uplink), then one run each for legacy
/// STAs, time fairness, WiFox under an uplink backlog, a 20 ms deadline
/// under overload, low SNR with the full link policy, and a
/// Gilbert-Elliott channel.
EngineGoldenSet run_engine_golden_set() {
  SimDigest digest;
  EngineGoldenSet out;
  auto record = [&](const SimResult& r) {
    digest.add(r);
    ++out.runs;
    out.collisions += r.collisions;
    out.false_positive_decodes += r.false_positive_decodes;
    out.suspensions += r.lq_suspensions;
    out.rate_downgrades += r.ls_rate_downgrades;
    return r;
  };
  auto record_no_deadline = [&](const SimResult& r) {
    out.retry_drops += r.dl_frames_dropped + r.ul_frames_dropped;
    return record(r);
  };

  const Scheme schemes[] = {Scheme::kDcf80211, Scheme::kWiFox,
                            Scheme::kAmpdu, Scheme::kMuAggregation,
                            Scheme::kCarpool};
  std::uint64_t seed = 100;
  for (const Scheme scheme : schemes) {
    for (const bool rts : {false, true}) {
      SimConfig cfg = golden_config(scheme, ++seed);
      cfg.use_rts_cts = rts;
      const SimResult r = record_no_deadline(golden_domain(cfg).run());
      if (scheme == Scheme::kCarpool && !rts) {
        out.hidden_collisions = r.collisions;
        cfg.hidden_pair_fraction = 0.0;
        out.unhidden_collisions =
            record_no_deadline(golden_domain(cfg).run()).collisions;
      }
    }
  }
  {
    SimConfig cfg = golden_config(Scheme::kCarpool, ++seed);
    cfg.num_legacy_stas = 2;
    record_no_deadline(golden_domain(cfg).run());
  }
  {
    SimConfig cfg = golden_config(Scheme::kCarpool, ++seed);
    cfg.aggregation.time_fairness = true;
    cfg.link_policy.rate_adaptation = true;
    record_no_deadline(golden_domain(cfg).run());
  }
  {
    SimConfig cfg = base_config(Scheme::kWiFox, 12, 1.5);
    cfg.seed = ++seed;
    DomainSim sim(cfg);
    for (NodeId sta = 1; sta <= cfg.num_stas; ++sta) {
      sim.add_flow(traffic::make_cbr_flow(sta, 1200, 0.003));
      sim.add_flow(traffic::make_poisson_flow(
          sta, 0.004, traffic::TraceKind::kSigcomm, /*uplink=*/true));
    }
    record_no_deadline(sim.run());
  }
  {
    SimConfig cfg = base_config(Scheme::kCarpool, 20, 1.5);
    cfg.seed = ++seed;
    cfg.delivery_deadline = 0.02;
    DomainSim sim(cfg);
    for (NodeId sta = 1; sta <= cfg.num_stas; ++sta) {
      sim.add_flow(traffic::make_cbr_flow(sta, 1400, 0.001));  // overload
    }
    out.deadline_drops = record(sim.run()).dl_frames_dropped;
  }
  {
    SimConfig cfg = base_config(Scheme::kCarpool, 8, 1.5);
    cfg.seed = ++seed;
    cfg.sta_snr_db = {2, 5, 8, 11, 14, 17, 20, 23};
    cfg.coherence_time = 3e-5;
    cfg.link_policy.rate_adaptation = true;
    cfg.link_policy.feedback = true;
    cfg.link_policy.suspension = true;
    cfg.link_policy.record_transitions = true;
    DomainSim sim(cfg);
    for (NodeId sta = 1; sta <= cfg.num_stas; ++sta) {
      sim.add_flow(traffic::make_cbr_flow(sta, 1000, 0.004));
    }
    record_no_deadline(sim.run());
  }
  {
    SimConfig cfg = golden_config(Scheme::kCarpool, ++seed);
    cfg.link_policy.rate_adaptation = true;
    cfg.link_policy.feedback = true;
    GilbertElliottPhyModel::Params ge;
    ge.seed = seed;
    cfg.phy = std::make_shared<GilbertElliottPhyModel>(nullptr, ge);
    record_no_deadline(golden_domain(cfg).run());
  }
  out.digest = digest.value();
  return out;
}

TEST(DomainSimGolden, DigestPinned) {
  const EngineGoldenSet set = run_engine_golden_set();
  EXPECT_EQ(set.runs, 17u);
  // Non-vacuity: the grid reaches every engine path the pin is meant to
  // cover, so a rewrite of one of them cannot slip past an unmoved digest.
  EXPECT_GT(set.collisions, 0u);
  EXPECT_GT(set.hidden_collisions, set.unhidden_collisions);
  EXPECT_GT(set.deadline_drops, 0u);
  EXPECT_GT(set.retry_drops, 0u);
  EXPECT_GT(set.false_positive_decodes, 0u);
  EXPECT_GT(set.suspensions, 0u);
  EXPECT_GT(set.rate_downgrades, 0u);
  EXPECT_EQ(set.digest, 0x4b5f48dcd606fa4aULL) << "digest 0x" << std::hex << set.digest;
}

}  // namespace
}  // namespace carpool::mac
