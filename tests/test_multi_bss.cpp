// Multi-BSS topology layer (sim/topology.hpp, sim/multi_bss.hpp):
// geometry, frequency reuse, roaming association, and the two acceptance
// anchors of the multi-AP refactor —
//   1. a 2-BSS non-overlapping topology reproduces two independent
//      single-BSS mac::Simulator runs bit for bit, and
//   2. a >= 64-AP overlapping campaign is bit-identical (results and
//      metric fingerprint) at --threads 1 vs --threads 8.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "mac/simulator.hpp"
#include "obs/registry.hpp"
#include "sim/multi_bss.hpp"
#include "sim/topology.hpp"
#include "traffic/generators.hpp"

namespace carpool {
namespace {

using sim::AssociationTimeline;
using sim::MobilityPath;
using sim::MultiBssConfig;
using sim::MultiBssResult;
using sim::MultiBssSim;
using sim::Point;
using sim::TimedPoint;
using sim::Topology;
using sim::TopologySpec;

// Bit-for-bit equality of two doubles; EXPECT_DOUBLE_EQ allows 4 ULPs.
void expect_same_bits(double a, double b, const std::string& label) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << label << ": " << a << " vs " << b;
}

// ------------------------------------------------------------- topology

TEST(Topology, GridPlacementIsRowMajor) {
  TopologySpec spec;
  spec.ap_count = 4;
  spec.ap_spacing = 20.0;
  const Topology topo(spec);
  EXPECT_DOUBLE_EQ(topo.ap_position(0).x, 0.0);
  EXPECT_DOUBLE_EQ(topo.ap_position(0).y, 0.0);
  EXPECT_DOUBLE_EQ(topo.ap_position(1).x, 20.0);
  EXPECT_DOUBLE_EQ(topo.ap_position(1).y, 0.0);
  EXPECT_DOUBLE_EQ(topo.ap_position(2).x, 0.0);
  EXPECT_DOUBLE_EQ(topo.ap_position(2).y, 20.0);
  EXPECT_DOUBLE_EQ(topo.ap_position(3).x, 20.0);
  EXPECT_DOUBLE_EQ(topo.ap_position(3).y, 20.0);
  EXPECT_THROW((void)topo.ap_position(4), std::out_of_range);
}

TEST(Topology, ChannelReusePlanIsModulo) {
  TopologySpec spec;
  spec.ap_count = 7;
  spec.channel_count = 3;
  const Topology topo(spec);
  for (std::size_t ap = 0; ap < spec.ap_count; ++ap) {
    EXPECT_EQ(topo.channel_of(ap), ap % 3u);
  }
}

TEST(Topology, HomeApRoundRobinsStaIds) {
  TopologySpec spec;
  spec.ap_count = 3;
  const Topology topo(spec);
  EXPECT_EQ(topo.home_ap(1), 0u);
  EXPECT_EQ(topo.home_ap(2), 1u);
  EXPECT_EQ(topo.home_ap(3), 2u);
  EXPECT_EQ(topo.home_ap(4), 0u);
}

TEST(Topology, HomePositionsStayInsideTheCell) {
  TopologySpec spec;
  spec.ap_count = 4;
  spec.cell_size = 10.0;
  const Topology topo(spec);
  for (mac::NodeId sta = 1; sta <= 40; ++sta) {
    const Point ap = topo.ap_position(topo.home_ap(sta));
    const Point p = topo.home_position(sta);
    const double d = std::hypot(p.x - ap.x, p.y - ap.y);
    EXPECT_GE(d, 1.0) << "sta " << sta;
    EXPECT_LE(std::fabs(p.x - ap.x), 5.0) << "sta " << sta;
    EXPECT_LE(std::fabs(p.y - ap.y), 5.0) << "sta " << sta;
  }
}

TEST(Topology, LayoutIsAPureFunctionOfTheSeed) {
  TopologySpec spec;
  spec.ap_count = 2;
  const Topology a(spec, 0.1, 7);
  const Topology b(spec, 0.1, 7);
  const Topology c(spec, 0.1, 8);
  EXPECT_DOUBLE_EQ(a.home_position(1).x, b.home_position(1).x);
  EXPECT_DOUBLE_EQ(a.home_position(1).y, b.home_position(1).y);
  EXPECT_NE(a.home_position(1).x, c.home_position(1).x);
}

TEST(Topology, RejectsDegenerateSpecs) {
  TopologySpec spec;
  spec.ap_count = 0;
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
  spec = {};
  spec.channel_count = 0;
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
  spec = {};
  spec.ap_spacing = 0.0;
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
  spec = {};
  spec.roam_interval = -1.0;
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
  spec = {};
  spec.cell_size = 0.0;
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
  spec = {};
  spec.roam_hysteresis_db = -0.1;
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
  spec = {};
  spec.activity_factor = 1.5;
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
}

TEST(Topology, SinrEqualsSnrWithoutCochannelNeighbours) {
  // 2 APs on 2 channels: no co-channel pair, so SINR must take the exact
  // single-BSS SNR shortcut (the bit-for-bit 2-BSS anchor depends on it).
  TopologySpec spec;
  spec.ap_count = 2;
  spec.channel_count = 2;
  const Topology topo(spec);
  const Point p{3.0, 1.0};
  expect_same_bits(topo.sinr_db(0, p), topo.rx_power_dbm(0, p) - (-86.0),
                   "sinr_db");

  // Same geometry on one shared channel: the neighbour's power must cost
  // something.
  TopologySpec shared = spec;
  shared.channel_count = 1;
  const Topology cochannel(shared);
  EXPECT_LT(cochannel.sinr_db(0, p), topo.sinr_db(0, p));
}

TEST(Topology, AssociationHysteresisPreventsFlapping) {
  TopologySpec spec;
  spec.ap_count = 2;
  spec.ap_spacing = 20.0;
  spec.roam_hysteresis_db = 3.0;
  const Topology topo(spec);
  // Slightly past the midpoint toward AP 1: AP 1 is stronger, but not by
  // the hysteresis margin, so a STA currently on AP 0 stays.
  const Point just_past{10.5, 0.0};
  EXPECT_EQ(topo.associate(just_past, -1), 1u);
  EXPECT_EQ(topo.associate(just_past, 0), 0u);
  // Deep inside AP 1's cell the margin is met and the STA roams.
  const Point deep{19.0, 0.0};
  EXPECT_EQ(topo.associate(deep, 0), 1u);
}

// -------------------------------------------------- association timeline

TEST(AssociationTimeline, StaticStasNeverRoam) {
  TopologySpec spec;
  spec.ap_count = 4;
  const Topology topo(spec);
  const std::vector<MobilityPath> no_paths;
  const AssociationTimeline timeline(topo, 8, no_paths, 5.0);
  EXPECT_TRUE(timeline.handovers().empty());
  for (mac::NodeId sta = 1; sta <= 8; ++sta) {
    ASSERT_EQ(timeline.intervals()[sta].size(), 1u);
    EXPECT_DOUBLE_EQ(timeline.intervals()[sta].front().start, 0.0);
    EXPECT_DOUBLE_EQ(timeline.intervals()[sta].front().stop, 5.0);
    EXPECT_EQ(timeline.ap_at(sta, 0.0), timeline.ap_at(sta, 4.999));
  }
}

TEST(AssociationTimeline, WalkerHandsOverInTimeOrder) {
  TopologySpec spec;
  spec.ap_count = 2;
  spec.ap_spacing = 20.0;
  spec.roam_interval = 0.1;
  const Topology topo(spec);
  std::vector<MobilityPath> paths(3);
  paths[1] = MobilityPath({{0.0, {0.0, 1.0}}, {2.0, {20.0, 1.0}}});
  const AssociationTimeline timeline(topo, 2, paths, 2.0);
  ASSERT_FALSE(timeline.handovers().empty());
  EXPECT_EQ(timeline.ap_at(1, 0.0), 0u);
  EXPECT_EQ(timeline.ap_at(1, 2.0), 1u);
  double prev = 0.0;
  for (const sim::Handover& h : timeline.handovers()) {
    EXPECT_GE(h.time, prev);
    prev = h.time;
    EXPECT_EQ(h.sta, 1u);
    EXPECT_EQ(timeline.ap_at(h.sta, h.time), h.to_ap);
  }
  const std::vector<double> times = timeline.handover_times();
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(std::adjacent_find(times.begin(), times.end()), times.end());
  // STA 2 is static and never roams.
  EXPECT_EQ(timeline.ap_at(2, 0.0), timeline.ap_at(2, 1.9));
}

TEST(AssociationTimeline, UnknownStaThrows) {
  TopologySpec spec;
  spec.ap_count = 2;
  const Topology topo(spec);
  const AssociationTimeline timeline(topo, 2, {}, 1.0);
  EXPECT_THROW((void)timeline.ap_at(0, 0.0), std::out_of_range);
  EXPECT_THROW((void)timeline.ap_at(3, 0.0), std::out_of_range);
}

// -------------------------------------------------------- 2-BSS anchor

void expect_results_identical(const mac::SimResult& a,
                              const mac::SimResult& b,
                              const std::string& label) {
  expect_same_bits(a.duration, b.duration, label + " duration");
  expect_same_bits(a.downlink_goodput_bps, b.downlink_goodput_bps,
                   label + " downlink_goodput_bps");
  expect_same_bits(a.uplink_goodput_bps, b.uplink_goodput_bps,
                   label + " uplink_goodput_bps");
  expect_same_bits(a.mean_delay_s, b.mean_delay_s, label + " mean_delay_s");
  expect_same_bits(a.p95_delay_s, b.p95_delay_s, label + " p95_delay_s");
  EXPECT_EQ(a.dl_frames_delivered, b.dl_frames_delivered) << label;
  EXPECT_EQ(a.dl_frames_dropped, b.dl_frames_dropped) << label;
  EXPECT_EQ(a.tx_attempts, b.tx_attempts) << label;
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.subframe_failures, b.subframe_failures) << label;
}

TEST(MultiBssSim, TwoNonOverlappingBssesReproduceSingleBssRuns) {
  // 2 APs on 2 distinct channels: zero co-channel interference, so each
  // BSS must be bit-for-bit a standalone mac::Simulator run under the
  // same derived seed and SINR map — the refactor's regression anchor.
  MultiBssConfig cfg;
  cfg.topology.ap_count = 2;
  cfg.topology.channel_count = 2;
  cfg.num_stas = 6;  // STAs 1,3,5 -> AP 0; 2,4,6 -> AP 1
  cfg.duration = 0.4;
  cfg.seed = 99;
  MultiBssSim multi(cfg);
  const MultiBssResult res = multi.run();
  ASSERT_EQ(res.runs.size(), 2u);  // one epoch, two domains
  EXPECT_EQ(res.domains_simulated, 2u);
  EXPECT_TRUE(res.handovers.empty());

  for (std::size_t ap = 0; ap < 2; ++ap) {
    const sim::DomainRun& run = res.runs[ap];
    ASSERT_EQ(run.stas.size(), 3u);
    mac::Simulator single(
        multi.domain_config(0, ap, 0.0, cfg.duration, run.stas));
    for (std::size_t local = 1; local <= run.stas.size(); ++local) {
      single.add_flow(traffic::make_cbr_flow(
          static_cast<mac::NodeId>(local), cfg.frame_bytes,
          cfg.cbr_interval));
    }
    expect_results_identical(run.result, single.run(),
                             "ap=" + std::to_string(ap));
  }

  const double sum = res.per_ap_goodput_bps[0] + res.per_ap_goodput_bps[1];
  expect_same_bits(res.aggregate_goodput_bps, sum, "aggregate_goodput_bps");
  EXPECT_GT(res.aggregate_goodput_bps, 0.0);
}

// ------------------------------------------------------------ SINR hook

TEST(MultiBssSim, SinrHookIsTopologySinrBitForBit) {
  // The domain hook computes a static STA's SINR once and a walker's at
  // every query; either way each value must be exactly Topology::sinr_db
  // at the STA's campaign-clock position. Two walkers cross a 64-AP,
  // 3-channel campus, and `paths` ends after them, so every other STA is
  // static through a missing entry.
  MultiBssConfig cfg;
  cfg.topology.ap_count = 64;
  cfg.topology.channel_count = 3;
  cfg.topology.roam_interval = 0.02;
  cfg.num_stas = 128;
  cfg.duration = 0.2;
  cfg.seed = 7;
  cfg.paths.resize(3);
  cfg.paths[1] = MobilityPath({{0.0, {1.0, 1.0}}, {0.2, {141.0, 141.0}}});
  cfg.paths[2] = MobilityPath({{0.0, {141.0, 1.0}}, {0.2, {1.0, 141.0}}});
  MultiBssSim multi(cfg);
  const Topology& topo = multi.topology();
  const MultiBssResult res = multi.run();
  const std::size_t epochs = res.runs.size() / res.ap_count;
  ASSERT_GE(epochs, 3u);

  const MobilityPath no_path;
  std::size_t walkers_checked = 0;
  for (const std::size_t epoch : {std::size_t{0}, epochs / 2, epochs - 1}) {
    for (std::size_t ap = 0; ap < res.ap_count; ++ap) {
      const sim::DomainRun& run = res.runs[epoch * res.ap_count + ap];
      if (run.stas.empty()) continue;
      const mac::SimConfig domain =
          multi.domain_config(run.epoch, run.ap, run.start, run.stop,
                              run.stas);
      for (std::size_t local = 1; local <= run.stas.size(); ++local) {
        const mac::NodeId sta = run.stas[local - 1];
        const MobilityPath& path =
            sta < cfg.paths.size() ? cfg.paths[sta] : no_path;
        if (!path.empty()) ++walkers_checked;
        for (int k = 0; k <= 16; ++k) {
          const double now = (run.stop - run.start) * k / 16.0;
          expect_same_bits(
              domain.sta_snr_fn(static_cast<mac::NodeId>(local), now),
              topo.sinr_db(ap, topo.position(sta, path, run.start + now)),
              "epoch=" + std::to_string(epoch) + " ap=" +
                  std::to_string(ap) + " sta=" + std::to_string(sta) +
                  " k=" + std::to_string(k));
        }
      }
    }
  }
  // Each walker is served by exactly one AP in each checked epoch.
  EXPECT_EQ(walkers_checked, 6u);
}

// --------------------------------------------- epoch / handover slicing

TEST(MultiBssSim, EpochsPartitionTheCampaignAtHandovers) {
  MultiBssConfig cfg;
  cfg.topology.ap_count = 2;
  cfg.topology.roam_interval = 0.1;
  cfg.num_stas = 4;
  cfg.duration = 1.0;
  cfg.seed = 5;
  cfg.paths.resize(cfg.num_stas + 1);
  cfg.paths[1] = MobilityPath({{0.0, {0.0, 1.0}}, {1.0, {20.0, 1.0}}});
  MultiBssSim multi(cfg);
  const MultiBssResult res = multi.run();
  ASSERT_FALSE(res.handovers.empty());
  const std::size_t epochs = res.runs.size() / res.ap_count;
  ASSERT_GE(epochs, 2u);

  // Epoch slices tile [0, duration] with no gaps; within each epoch the
  // member sets of the domains partition the STA population — a handover
  // mid-TXOP lands the walker in exactly one domain on each side of the
  // cut, never both and never neither.
  double cursor = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    const sim::DomainRun& first = res.runs[e * res.ap_count];
    EXPECT_DOUBLE_EQ(first.start, cursor);
    EXPECT_GT(first.stop, first.start);
    std::set<mac::NodeId> seen;
    std::size_t total = 0;
    for (std::size_t ap = 0; ap < res.ap_count; ++ap) {
      const sim::DomainRun& run = res.runs[e * res.ap_count + ap];
      EXPECT_DOUBLE_EQ(run.start, first.start);
      EXPECT_DOUBLE_EQ(run.stop, first.stop);
      seen.insert(run.stas.begin(), run.stas.end());
      total += run.stas.size();
    }
    EXPECT_EQ(seen.size(), cfg.num_stas);
    EXPECT_EQ(total, cfg.num_stas);
    cursor = first.stop;
  }
  EXPECT_DOUBLE_EQ(cursor, cfg.duration);

  // The walker's serving AP changes across the first handover boundary.
  const double cut = res.handovers.front().time;
  const auto domain_of = [&](double t) {
    for (std::size_t i = 0; i < res.runs.size(); ++i) {
      const sim::DomainRun& run = res.runs[i];
      if (t >= run.start && t < run.stop &&
          std::find(run.stas.begin(), run.stas.end(), 1u) !=
              run.stas.end()) {
        return run.ap;
      }
    }
    return res.ap_count;  // not found
  };
  EXPECT_EQ(domain_of(cut - 1e-3), res.handovers.front().from_ap);
  EXPECT_EQ(domain_of(cut + 1e-3), res.handovers.front().to_ap);
}

TEST(MultiBssSim, HandoverAtTheFinalInstantDoesNotCutAnEpoch) {
  // roam_interval == duration: the only association scan would land at
  // t == duration, which the timeline loop excludes — a single epoch.
  MultiBssConfig cfg;
  cfg.topology.ap_count = 2;
  cfg.topology.roam_interval = 0.3;
  cfg.num_stas = 2;
  cfg.duration = 0.3;
  cfg.paths.resize(cfg.num_stas + 1);
  cfg.paths[1] = MobilityPath({{0.0, {0.0, 1.0}}, {0.3, {20.0, 1.0}}});
  MultiBssSim multi(cfg);
  const MultiBssResult res = multi.run();
  EXPECT_TRUE(res.handovers.empty());
  EXPECT_EQ(res.runs.size(), res.ap_count);
}

TEST(MultiBssSim, ShortEpochSlicesRunCleanly) {
  // A handover 2 ms into the campaign makes the first epoch shorter than
  // a single TXOP: the mid-TXOP truncation path must not crash or
  // miscount (frames are judged inside whichever slice completes them).
  MultiBssConfig cfg;
  cfg.topology.ap_count = 2;
  cfg.topology.roam_interval = 0.002;
  cfg.topology.roam_hysteresis_db = 0.0;
  cfg.num_stas = 2;
  cfg.duration = 0.2;
  cfg.paths.resize(cfg.num_stas + 1);
  cfg.paths[1] = MobilityPath({{0.0, {9.9, 0.0}}, {0.004, {10.2, 0.0}},
                               {0.2, {20.0, 0.0}}});
  MultiBssSim multi(cfg);
  const MultiBssResult res = multi.run();
  ASSERT_FALSE(res.handovers.empty());
  EXPECT_LE(res.handovers.front().time, 0.01);
  EXPECT_GT(res.dl_frames_delivered, 0u);
  for (const sim::DomainRun& run : res.runs) {
    EXPECT_GE(run.result.duration, 0.0);
  }
}

TEST(MultiBssSim, RejectsDegenerateConfigs) {
  MultiBssConfig cfg;
  cfg.num_stas = 0;
  EXPECT_THROW(MultiBssSim{cfg}, std::invalid_argument);
  cfg = {};
  cfg.duration = 0.0;
  EXPECT_THROW(MultiBssSim{cfg}, std::invalid_argument);
}

// ------------------------------------------- 64-AP thread invariance

std::uint64_t campaign_fingerprint(MultiBssConfig cfg,
                                   MultiBssResult& out) {
  obs::Registry scope;
  const obs::Registry::ScopedCurrent current(scope);
  MultiBssSim multi(std::move(cfg));
  out = multi.run();
  return scope.fingerprint();
}

TEST(MultiBssSim, SixtyFourApCampaignBitIdenticalAcrossThreadCounts) {
  // 64 APs on a 3-channel reuse plan: plenty of co-channel overlap, one
  // walker cutting epochs. Whole BSSes shard across carpool::par; the
  // index-ordered merge must make results and the metric fingerprint
  // identical at any thread count.
  MultiBssConfig cfg;
  cfg.topology.ap_count = 64;
  cfg.topology.channel_count = 3;
  cfg.topology.roam_interval = 0.05;
  cfg.num_stas = 64;
  cfg.duration = 0.1;
  cfg.seed = 2015;
  cfg.paths.resize(cfg.num_stas + 1);
  cfg.paths[1] = MobilityPath({{0.0, {1.0, 1.0}}, {0.1, {60.0, 60.0}}});

  cfg.threads = 1;
  MultiBssResult serial;
  const std::uint64_t serial_fp = campaign_fingerprint(cfg, serial);
  EXPECT_GT(serial.domains_simulated, 0u);

  for (const int threads : {2, 4, 8}) {
    cfg.threads = threads;
    MultiBssResult parallel;
    const std::uint64_t fp = campaign_fingerprint(cfg, parallel);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(fp, serial_fp) << label;
    expect_same_bits(parallel.aggregate_goodput_bps,
                     serial.aggregate_goodput_bps,
                     label + " aggregate_goodput_bps");
    EXPECT_EQ(parallel.dl_frames_delivered, serial.dl_frames_delivered)
        << label;
    EXPECT_EQ(parallel.collisions, serial.collisions) << label;
    ASSERT_EQ(parallel.runs.size(), serial.runs.size()) << label;
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
      expect_results_identical(parallel.runs[i].result,
                               serial.runs[i].result,
                               label + " run=" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace carpool
