#pragma once

// Event-driven single-collision-domain 802.11 DCF simulator (paper
// Sec. 7.2.1): two kinds of contenders — one AP with per-STA downlink
// queues, and STAs with uplink background traffic — share a channel using
// CSMA/CA with binary exponential backoff. PHY reception is judged by a
// PhyErrorModel (trace-driven or analytic), collisions destroy all frames
// involved, and Carpool/MU transmissions use the sequential ACK of Sec. 4.2.
//
// The contention loop is a "virtual slot" simulation: between events the
// next transmission instant is computed directly from the minimum backoff
// counter, which is exact for an ideal slotted DCF and avoids per-slot
// events.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "mac/aggregation.hpp"
#include "mac/energy.hpp"
#include "mac/frame.hpp"
#include "mac/link_state.hpp"
#include "mac/params.hpp"
#include "mac/phy_model.hpp"
#include "mac/scheme.hpp"

namespace carpool::mac {

/// A traffic flow: pull-based generator of frames. `next` is called with
/// the current time and must return the arrival time (>= now) and payload
/// size of the next frame, or a negative time for "no more frames".
struct FlowSpec {
  NodeId src = kApNode;
  NodeId dst = 0;
  std::function<std::pair<double, std::size_t>(double now, Rng& rng)> next;
};

struct SimResult;

/// What the TXOP that just resolved looked like (for SimStepView). On a
/// collision step only `collision` and `data_duration` (the busy period)
/// are meaningful.
struct SimTxopInfo {
  bool collision = false;
  bool downlink = false;
  bool sequential_ack = false;
  std::size_t subunits = 0;
  double data_duration = 0.0;  ///< busy period on a collision step
  double ack_overhead = 0.0;
};

/// Read-only view of the simulator's state handed to SimConfig::observer
/// after every resolved channel event (successful TXOP, slot-tie or
/// hidden-terminal collision). Everything referenced lives only for the
/// duration of the callback. The frame-accounting contract at an
/// observation point: every frame the traffic generators have produced is
/// in exactly one of {delivered, dropped, queued}, so
///   frames_generated == delivered + dropped + frames_inflight
/// holds on both directions combined — the invariant the chaos soak
/// engine checks every step (docs/SOAK.md).
struct SimStepView {
  double now = 0.0;  ///< time after the step completed
  std::uint64_t frames_generated = 0;  ///< arrivals accepted into queues
  std::uint64_t frames_judged = 0;     ///< per-MPDU reception judgements
  std::uint64_t frames_inflight = 0;   ///< queued at AP + all uplink queues
  std::size_t num_stas = 0;
  const SimResult* totals = nullptr;        ///< running counters
  const LinkStateMachine* links = nullptr;  ///< live link-state machine
  const MacParams* params = nullptr;
  SimTxopInfo txop;
};

/// Step observer: return false to stop the simulation early (metrics are
/// finalized over the elapsed time as usual).
using SimObserver = std::function<bool(const SimStepView&)>;

struct SimConfig {
  Scheme scheme = Scheme::kCarpool;
  MacParams params{};
  AggregationPolicy aggregation{};
  std::size_t num_stas = 20;
  double duration = 20.0;  ///< simulated seconds
  std::uint64_t seed = 1;

  /// Delivery deadline for downlink frames (seconds); expired frames are
  /// dropped at the AP and never count toward goodput. Infinity disables.
  double delivery_deadline = std::numeric_limits<double>::infinity();

  bool use_rts_cts = false;

  /// Fraction of STA pairs that are mutually hidden (cannot carrier-sense
  /// each other). A hidden station keeps counting down through a peer's
  /// transmission and collides with it at the AP; RTS/CTS shrinks the
  /// vulnerable window to the RTS, because the AP's CTS is heard by all
  /// (paper Sec. 4.2, Fig. 7). 0 = the paper's single-sensing-domain setup.
  double hidden_pair_fraction = 0.0;

  /// Per-STA link SNR in dB (index 0 = STA 1). Missing entries use 25 dB.
  std::vector<double> sta_snr_db;
  double default_snr_db = 25.0;
  double coherence_time = 5e-3;

  /// Time-varying SNR hook: when set, overrides sta_snr_db for every
  /// reception judgement with snr(sta, now). This is how scenario-scripted
  /// mobility (sim::MobilityPath waypoints moving TestbedLayout SNRs) and
  /// interference episodes reach the analytic MAC path (docs/SOAK.md).
  std::function<double(NodeId sta, double now)> sta_snr_fn;

  /// Called after every resolved channel event with a SimStepView; return
  /// false to stop the run early. The chaos soak engine hangs its
  /// cross-layer invariant checks off this hook.
  SimObserver observer;

  /// The single link-policy entry point: per-STA rate selection (static
  /// SNR thresholds and/or ACK-feedback hysteresis — Carpool subframes
  /// may use different MCSs) plus suspend/probe gating of dead links, all
  /// driven by one LinkStateMachine (docs/LINK_STATE.md). Defaults are
  /// all-off: every link uses params.data_rate_bps and nothing is ever
  /// suspended.
  LinkPolicyConfig link_policy;

  /// Stations 1..num_legacy_stas do not support Carpool (Sec. 4.3): under
  /// a multi-receiver scheme the AP serves them with plain legacy frames
  /// and never aggregates them with others.
  std::size_t num_legacy_stas = 0;

  /// WiFox: scale applied to the AP's contention window when its queue is
  /// backlogged (priority boost).
  double wifox_cw_scale = 0.25;
  std::size_t wifox_backlog_threshold = 4;

  /// Defaults to a fresh AnalyticPhyModel per simulator. A model keeps
  /// mutable state (its memo, a walk cursor), so simulators that run on
  /// different threads must not share one instance.
  std::shared_ptr<const PhyErrorModel> phy;
};

struct NodeEnergy {
  double tx_seconds = 0.0;
  double rx_seconds = 0.0;
  double joules = 0.0;
  double idle_seconds = 0.0;
};

struct SimResult {
  double duration = 0.0;

  double downlink_goodput_bps = 0.0;
  double uplink_goodput_bps = 0.0;
  double mean_delay_s = 0.0;     ///< downlink enqueue -> delivery
  double p95_delay_s = 0.0;
  double max_delay_s = 0.0;

  std::uint64_t dl_frames_delivered = 0;
  std::uint64_t dl_frames_dropped = 0;   ///< retry limit or deadline
  std::uint64_t ul_frames_delivered = 0;
  std::uint64_t ul_frames_dropped = 0;
  std::uint64_t tx_attempts = 0;
  std::uint64_t collisions = 0;
  std::uint64_t subframe_failures = 0;   ///< FCS failures (PHY losses)
  std::uint64_t false_positive_decodes = 0;
  std::uint64_t lq_suspensions = 0;      ///< scheduling suspensions
  std::uint64_t lq_probes = 0;           ///< suspensions that timed out
  std::uint64_t ls_transitions = 0;      ///< link health-state changes
  std::uint64_t ls_rate_downgrades = 0;  ///< feedback rate step-downs
  std::uint64_t ls_rate_upgrades = 0;    ///< feedback rate step-ups

  /// Per-transition link-state decision trace; populated only when
  /// SimConfig::link_policy.record_transitions is set.
  std::vector<LinkTransition> link_transitions;

  double airtime_payload = 0.0;     ///< useful payload airtime
  double airtime_overhead = 0.0;    ///< PLCP/headers/SIFS/ACKs
  double airtime_collision = 0.0;
  double airtime_idle = 0.0;        ///< incl. DIFS/backoff

  double mean_ap_queue_depth = 0.0;
  double avg_aggregated_receivers = 0.0;  ///< mean subunits per AP TXOP

  /// Downlink goodput per STA (index 0 = AP, always 0).
  std::vector<double> per_sta_goodput_bps;

  /// Jain's fairness index over the per-STA downlink goodputs of stations
  /// that had downlink traffic: (sum x)^2 / (n * sum x^2); 1 = perfectly
  /// fair (Sec. 8 fairness discussion).
  double jain_fairness = 1.0;

  std::vector<NodeEnergy> node_energy;  ///< index 0 = AP
};

/// Per-collision-domain event engine: one BSS, one virtual-slot event
/// queue, one RNG stream tree derived from its own seed. A multi-BSS
/// topology (sim::Topology + sim::MultiBssSim) runs one DomainSim per AP,
/// each with its own backoff state, arrival queue, link-state machine
/// and obs scope, and shards whole domains across carpool::par with an
/// index-ordered merge (docs/MULTI_AP.md).
///
/// Determinism contract: a DomainSim is a pure function of (SimConfig,
/// flows). All randomness comes from streams split off config.seed in a
/// fixed order (traffic=1, phy=2, backoff=3, topology=4), so two
/// DomainSims with identical configs produce identical SimResults and
/// identical instrumentation — the property the 2-BSS regression anchor
/// and the serial-vs-parallel fingerprint canary pin.
class DomainSim {
 public:
  /// `domain` tags this engine's collision domain (AP index) for
  /// observability; it does not perturb the simulation. Seed derivation
  /// for multi-domain campaigns happens in the caller (the seed must be
  /// fully determined by the config so a single-BSS Simulator with the
  /// same config reproduces this domain bit for bit). Throws
  /// std::invalid_argument for zero STAs or a Carpool aggregate wider
  /// than the A-HDR addresses (kMaxReceivers).
  explicit DomainSim(SimConfig config, std::uint32_t domain = 0);

  /// Add a traffic flow (downlink if src == kApNode, else uplink).
  void add_flow(FlowSpec flow);

  [[nodiscard]] std::uint32_t domain() const noexcept { return domain_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

  /// Run to config.duration and return aggregate metrics. Re-runnable:
  /// all mutable state is local to the call.
  SimResult run();

 private:
  SimConfig config_;
  std::uint32_t domain_ = 0;
  std::vector<FlowSpec> flows_;
};

/// The single-BSS name of the engine.
using Simulator = DomainSim;

}  // namespace carpool::mac
