#pragma once

// Multi-BSS topology: N access points on a grid, each running its own
// Carpool-aggregating BSS over a shared physical space. The topology
// layer answers three questions the single-AP TestbedLayout cannot:
//
//  1. Geometry — where is every AP, and where does each STA live/move?
//     STAs scatter deterministically around their home AP and may follow
//     a MobilityPath through the campus.
//  2. Interference — what SINR does a STA see from a given AP once
//     co-channel neighbours (same entry in the frequency reuse plan) are
//     modelled as log-distance interferers with a duty-cycle
//     `activity_factor`? DomainSinr packages it for one collision
//     domain as the existing SimConfig::sta_snr_fn hook, so every
//     downstream consumer (link state machine, PHY error models,
//     shadowing overlays) works unchanged.
//  3. Association — which AP serves a STA at time t, with a roaming
//     hysteresis so a walker does not flap between two equidistant APs?
//     AssociationTimeline pre-computes piecewise-constant associations
//     plus the handover events that cut multi-BSS campaigns into epochs.
//
// Everything here is a pure function of (spec, power_magnitude,
// layout_seed): no hidden RNG state, so topology geometry is identical
// across runs, threads, and shards (docs/MULTI_AP.md).

#include <cstdint>
#include <vector>

#include "channel/pathloss.hpp"
#include "mac/frame.hpp"
#include "sim/testbed.hpp"

namespace carpool::sim {

struct TopologySpec {
  std::size_t ap_count = 1;
  /// Grid pitch between neighbouring APs, metres. At the default 3-channel
  /// reuse plan, 20 m keeps adjacent co-channel cells ~40 m apart.
  double ap_spacing = 20.0;
  /// Frequency reuse plan size: AP i transmits on channel i % channel_count.
  /// Only same-channel APs interfere.
  std::size_t channel_count = 3;
  /// A STA roams only when another AP is at least this much stronger than
  /// its current one (dB). 0 = always chase the strongest AP.
  double roam_hysteresis_db = 3.0;
  /// Association re-evaluation period, seconds (the roaming "scan" grid).
  double roam_interval = 0.25;
  /// Fraction of time a co-channel AP is assumed on-air when computing the
  /// SINR penalty (0 = interferers silent, 1 = saturated neighbours).
  double activity_factor = 0.5;
  /// Side of the square cell STAs scatter over around their home AP,
  /// metres (mirrors TestbedLayout::kRoomSize for a single AP).
  double cell_size = 10.0;
};

/// One roaming event: `sta` left `from_ap` for `to_ap` at `time`.
struct Handover {
  double time = 0.0;
  mac::NodeId sta = 0;
  std::size_t from_ap = 0;
  std::size_t to_ap = 0;
};

class Topology {
 public:
  /// Number of deterministic scatter offsets per cell (same spirit as
  /// TestbedLayout::kNumLocations).
  static constexpr std::size_t kScatterPoints = 30;

  /// Throws std::invalid_argument on a degenerate spec (zero APs or
  /// channels, non-positive spacing/interval/cell, activity outside
  /// [0, 1], negative hysteresis).
  explicit Topology(TopologySpec spec, double power_magnitude = 0.1,
                    std::uint64_t layout_seed = 2015);

  [[nodiscard]] const TopologySpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::size_t ap_count() const noexcept {
    return spec_.ap_count;
  }
  [[nodiscard]] double tx_power_dbm() const noexcept { return tx_power_dbm_; }

  /// AP placement: row-major square grid, `ap_spacing` pitch.
  [[nodiscard]] Point ap_position(std::size_t ap) const;

  /// Frequency reuse plan: channel of AP `ap` (= ap % channel_count).
  [[nodiscard]] std::size_t channel_of(std::size_t ap) const noexcept;

  /// Unordered AP pairs sharing a channel (the sim.bss_cochannel_pairs
  /// gauge).
  [[nodiscard]] std::size_t cochannel_pairs() const noexcept;

  /// The AP a STA's fixed location is scattered around: (sta-1) % ap_count,
  /// so STA ids round-robin across BSSes.
  [[nodiscard]] std::size_t home_ap(mac::NodeId sta) const noexcept;

  /// Deterministic fixed location of `sta`: a seeded scatter offset
  /// (>= 1 m from the AP, within the cell) applied to its home AP.
  [[nodiscard]] Point home_position(mac::NodeId sta) const;

  /// Where `sta` is at `time`: along `path` when one is given, else its
  /// static home position.
  [[nodiscard]] Point position(mac::NodeId sta, const MobilityPath& path,
                               double time) const;

  /// Received power (dBm) from AP `ap` at point `p` via log-distance path
  /// loss; distances clamp to 0.5 m like TestbedLayout::snr_db_at.
  [[nodiscard]] double rx_power_dbm(std::size_t ap, Point p) const;

  /// SINR (dB) of AP `ap` at point `p`: signal over thermal noise plus
  /// the activity-weighted sum of co-channel AP powers. With no
  /// co-channel neighbour this reduces to the plain path-loss SNR, which
  /// is what makes a non-overlapping 2-BSS topology reproduce two
  /// independent single-BSS runs bit for bit.
  [[nodiscard]] double sinr_db(std::size_t ap, Point p) const;

  /// Strongest AP at `p`, with roaming hysteresis: when `current` is a
  /// valid AP index it is kept unless some other AP is at least
  /// roam_hysteresis_db stronger. Ties break toward the lowest index.
  [[nodiscard]] std::size_t associate(Point p,
                                      std::ptrdiff_t current = -1) const;

 private:
  TopologySpec spec_;
  double tx_power_dbm_;
  PathLossModel pathloss_;
  std::size_t grid_cols_ = 1;
  std::vector<Point> ap_pos_;
  std::vector<Point> scatter_;  ///< per-local-index offsets within a cell
};

/// The SINR one collision domain's STAs see from AP `ap`, shaped as a
/// SimConfig::sta_snr_fn: local STA `l` (1-based) is global STA
/// `stas[l-1]`, and `now` is domain-local time, so the STA sits at its
/// campaign-clock position `start + now`. A STA without a MobilityPath
/// (missing or empty `paths[sta]`) never moves, so its SINR is computed
/// once here; a walker's is computed at every query. Both are the same
/// Topology::sinr_db call on the same arguments as evaluating
/// `sinr_db(ap, position(sta, path, start + now))` per judgement, so
/// results are bit-identical. Keeps pointers to `topo` and to the walkers'
/// entries of `paths`: both must outlive it.
class DomainSinr {
 public:
  DomainSinr(const Topology& topo, std::size_t ap,
             const std::vector<mac::NodeId>& stas,
             const std::vector<MobilityPath>& paths, double start);

  [[nodiscard]] double operator()(mac::NodeId local, double now) const;

 private:
  struct Link {
    const MobilityPath* path = nullptr;  ///< walker's path; null = static
    double sinr_db = 0.0;                ///< a static STA's SINR
  };

  const Topology* topo_;
  std::size_t ap_;
  double start_;
  std::vector<Link> links_;  ///< links_[local - 1]
};

/// One constant-association span of a STA: it is served by `ap` over
/// [start, stop).
struct AssociationInterval {
  double start = 0.0;
  double stop = 0.0;
  std::size_t ap = 0;
};

/// Pre-computed association of every STA over [0, duration]: evaluates
/// Topology::associate on the roam_interval grid, records handovers, and
/// answers ap_at(sta, t) queries. Pure function of its inputs — the same
/// timeline is rebuilt identically by every shard of a parallel campaign.
class AssociationTimeline {
 public:
  /// `paths` is indexed by STA id (paths[sta]; index 0 unused); missing or
  /// empty entries mean the STA stays at its home position.
  AssociationTimeline(const Topology& topo, std::size_t num_stas,
                      const std::vector<MobilityPath>& paths,
                      double duration);

  [[nodiscard]] std::size_t num_stas() const noexcept {
    return intervals_.empty() ? 0 : intervals_.size() - 1;
  }

  /// Serving AP of `sta` at `time` (intervals are half-open; `duration`
  /// maps to the final interval).
  [[nodiscard]] std::size_t ap_at(mac::NodeId sta, double time) const;

  /// All handovers, ordered by (time, sta).
  [[nodiscard]] const std::vector<Handover>& handovers() const noexcept {
    return handovers_;
  }

  /// Unique, sorted handover instants — the epoch cut points a multi-BSS
  /// campaign segments at.
  [[nodiscard]] std::vector<double> handover_times() const;

  /// Per-STA association intervals (intervals()[sta]; index 0 unused).
  [[nodiscard]] const std::vector<std::vector<AssociationInterval>>&
  intervals() const noexcept {
    return intervals_;
  }

 private:
  std::vector<std::vector<AssociationInterval>> intervals_;
  std::vector<Handover> handovers_;
};

}  // namespace carpool::sim
