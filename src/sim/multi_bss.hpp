#pragma once

// Multi-BSS campaign driver: runs one mac::DomainSim per AP of a
// sim::Topology and shards whole BSSes across carpool::par.
//
// The campaign is segmented into *epochs* at roaming handover instants
// (AssociationTimeline::handover_times). Within an epoch every STA's
// association is constant, so each AP's collision domain is an
// independent simulation: a pure job of (config, topology, epoch, ap)
// that carpool::par can run on any thread. Jobs derive their RNG stream
// from derive_seed(seed, ap, epoch) (common/rng.hpp) — never from
// thread ids or schedule — and results merge in (epoch, ap) index
// order, which is why a 1000-AP campaign produces bit-identical results
// and metric fingerprints at any --threads count (docs/MULTI_AP.md,
// docs/PARALLELISM.md).
//
// Co-channel interference enters through a DomainSinr (Topology::sinr_db
// per domain STA) set as each domain's SimConfig::sta_snr_fn, so the
// existing link-state, shadowing, and PHY-error paths see multi-AP
// effects without change.

#include <cstdint>
#include <vector>

#include "mac/simulator.hpp"
#include "sim/topology.hpp"

namespace carpool::sim {

struct MultiBssConfig {
  TopologySpec topology;
  /// Total STAs across the campus; STA ids round-robin over home APs
  /// (Topology::home_ap).
  std::size_t num_stas = 8;
  double duration = 1.0;  ///< simulated seconds
  std::uint64_t seed = 1;

  mac::Scheme scheme = mac::Scheme::kCarpool;
  /// USRP power-magnitude knob shared by every AP (paper Sec. 7).
  double power_magnitude = 0.1;
  mac::MacParams params{};
  mac::AggregationPolicy aggregation{};
  mac::LinkPolicyConfig link_policy;

  /// Downlink CBR traffic per STA (the bench/campaign workload).
  std::size_t frame_bytes = 1200;
  double cbr_interval = 4e-3;

  /// Mobility paths indexed by STA id (paths[sta]; index 0 unused).
  /// Missing or empty entries keep the STA at its home position.
  std::vector<MobilityPath> paths;

  /// Worker threads for the BSS shards (par::resolve_threads semantics:
  /// <= 1 runs inline).
  int threads = 1;
  std::uint64_t layout_seed = 2015;
};

/// One (epoch, AP) collision-domain simulation.
struct DomainRun {
  std::size_t epoch = 0;
  std::size_t ap = 0;
  double start = 0.0;
  double stop = 0.0;
  /// Global STA ids served by this domain, sorted ascending; local STA
  /// i+1 inside `result` corresponds to stas[i].
  std::vector<mac::NodeId> stas;
  mac::SimResult result;
};

struct MultiBssResult {
  std::size_t ap_count = 0;
  double duration = 0.0;
  /// Epoch-major, AP-minor (runs[e * ap_count + ap]).
  std::vector<DomainRun> runs;
  std::vector<Handover> handovers;
  /// Duration-weighted downlink+uplink goodput per AP over the full
  /// campaign (index = AP).
  std::vector<double> per_ap_goodput_bps;
  double aggregate_goodput_bps = 0.0;
  std::uint64_t dl_frames_delivered = 0;
  std::uint64_t dl_frames_dropped = 0;
  std::uint64_t collisions = 0;
  std::uint64_t domains_simulated = 0;  ///< non-empty (epoch, AP) cells
  std::uint64_t domains_idle = 0;       ///< cells with no associated STA
};

class MultiBssSim {
 public:
  /// Throws std::invalid_argument on zero STAs or non-positive duration
  /// (TopologySpec validation happens in Topology's constructor).
  explicit MultiBssSim(MultiBssConfig config);

  [[nodiscard]] const MultiBssConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// Build the per-domain SimConfig for (epoch slice [start, stop), AP):
  /// derived seed, epoch-sliced duration, and a DomainSinr as sta_snr_fn
  /// (the SINR of `ap` at each local STA's position on the campaign
  /// clock: computed once for a static STA, per judgement for a walker).
  /// The returned hook points into this MultiBssSim, which must outlive
  /// it. Exposed for the regression-anchor tests.
  [[nodiscard]] mac::SimConfig domain_config(
      std::size_t epoch, std::size_t ap, double start, double stop,
      const std::vector<mac::NodeId>& stas) const;

  /// Run the whole campaign. Deterministic at any config_.threads value;
  /// emits mac.roam_* / sim.bss_* counters into the ambient registry.
  MultiBssResult run();

 private:
  MultiBssConfig config_;
  Topology topo_;
};

}  // namespace carpool::sim
