#pragma once

// Per-STA link-state machine: the single place every downlink scheduling
// decision about a station's link is made.
//
// The Carpool frame format lets each subframe use its own MCS (paper
// Sec. 4.1), and a public WLAN link is a moving target — so the AP keeps,
// per station, a smoothed SNR estimate, a windowed subframe delivery
// ratio fed by sequential-ACK outcomes (Sec. 4.2), a consecutive-failure
// streak, and a health state:
//
//            K windowed failures                 failures at floor rate
//   Healthy ---------------------> Degraded ---------------------------+
//      ^  ^                          |   ^                             |
//      |  | M consecutive successes  |   | probe delivers (rate        v
//      |  +--------------------------+   |  still below the ceiling) Suspended
//      |                                 |                             |
//      |        probe delivers at        |        suspension timeout   |
//      +------- the SNR ceiling ------ Probing <-----------------------+
//                                        |      (exponential backoff)
//                                        +---> Suspended (probe fails;
//                                                timeout doubled)
//
// Three policy layers, individually switchable so the historic single-knob
// behaviours stay reachable (LinkPolicyConfig defaults = all off = every
// link at the configured default rate, nothing ever suspended):
//
//  - rate_adaptation: static SNR-threshold MCS ceiling (the old
//    SimConfig::rate_adaptation).
//  - feedback: Minstrel-style ACK-feedback hysteresis below that ceiling —
//    step the rate down after `down_after` consecutive failed sequential
//    ACKs, probe one step back up after `up_after` consecutive deliveries.
//  - suspension: suspend/probe gating of dead links (the old
//    SimConfig::link_quality): once the rate floor is reached (immediately,
//    when feedback is off) `suspend_after` further consecutive failures
//    block the STA out of downlink scheduling entirely until an
//    exponentially backed-off timeout expires and the AP probes it again.
//
// Consumers pull a LinkSnapshot — a per-STA decision table (rate +
// schedulability) — and hand it to ApQueues::build; producers push
// AckFeedback records, one per sequential-ACK outcome, whether those
// outcomes came from the analytic PHY model, the trace-driven table, or a
// real CarpoolReceiver decode (feedback_from_decode). Both paths exercise
// exactly this policy code.

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "mac/frame.hpp"

namespace carpool {
struct CarpoolRxResult;  // carpool/transceiver.hpp
}  // namespace carpool

namespace carpool::mac {

enum class LinkHealth : std::uint8_t {
  kHealthy,    ///< delivering at the SNR-derived ceiling rate
  kDegraded,   ///< delivering, but stepped below the ceiling by feedback
  kSuspended,  ///< blocked out of downlink scheduling until a timeout
  kProbing,    ///< timeout expired; scheduled again, next ACK decides
};

[[nodiscard]] std::string_view link_health_name(LinkHealth health) noexcept;

/// The one link-policy entry point (SimConfig::link_policy). Defaults
/// reproduce the pre-LinkState behaviour bit for bit: fixed rate, no
/// gating, no state ever leaves kHealthy.
struct LinkPolicyConfig {
  /// Static SNR-threshold MCS selection: each STA's rate ceiling comes
  /// from the 802.11n waterfall table (rate_adaptation.hpp).
  bool rate_adaptation = false;

  /// ACK-feedback hysteresis below the ceiling (Minstrel-style).
  bool feedback = false;

  /// Suspend/probe gating of links whose sequential ACKs keep failing.
  bool suspension = false;

  /// EWMA weight of a fresh SNR observation (1 = latest sample wins).
  double snr_alpha = 0.25;

  /// Sliding window (in sequential-ACK outcomes) for the delivery ratio.
  std::size_t window = 16;

  /// Consecutive failed ACK outcomes before a one-step rate down.
  std::size_t down_after = 3;

  /// Consecutive delivered ACK outcomes before a one-step rate up probe.
  std::size_t up_after = 10;

  /// Consecutive failures at the floor rate before suspension.
  std::size_t suspend_after = 3;

  double initial_timeout = 20e-3;  ///< first suspension length (seconds)
  double max_timeout = 320e-3;     ///< exponential backoff cap

  /// Keep a per-transition decision trace (LinkStateMachine::transitions(),
  /// surfaced as SimResult::link_transitions). Off by default: long runs
  /// on flapping links would grow it without bound.
  bool record_transitions = false;

  /// Any layer active?
  [[nodiscard]] bool active() const noexcept {
    return rate_adaptation || feedback || suspension;
  }
};

/// One sequential-ACK outcome for one receiver — the single feedback
/// interface into the machine, shared by the analytic and trace-driven
/// simulator paths and by real PHY decodes (feedback_from_decode).
struct AckFeedback {
  double time = 0.0;  ///< when the outcome was learned (ACK time)
  bool ack_ok = true; ///< the sequential-ACK control frame itself survived
  std::uint32_t frames_ok = 0;      ///< MPDUs delivered in the subunit
  std::uint32_t frames_failed = 0;  ///< MPDUs lost (retrying or dropped)
  /// Optional fresh SNR observation folded into the smoothed estimate.
  double snr_db = std::numeric_limits<double>::quiet_NaN();

  /// The subunit counts as delivered when its ACK came back reporting at
  /// least one MPDU through (matches the sequential-ACK semantics the
  /// simulator and docs/ROBUSTNESS.md use).
  [[nodiscard]] bool delivered() const noexcept {
    return ack_ok && frames_ok > 0;
  }
};

/// Summarise a real CarpoolReceiver decode as ACK feedback: subframes
/// whose FCS verified count as delivered MPDUs, everything else decoded or
/// walked counts as failed. Lets testbed/PHY-trace experiments drive the
/// same policy code as the analytic simulator.
[[nodiscard]] AckFeedback feedback_from_decode(const CarpoolRxResult& rx,
                                               double time);

/// One per-STA scheduling decision inside a LinkSnapshot.
struct LinkDecision {
  /// PHY rate for this STA's subframes; 0 = caller's default rate.
  double rate_bps = 0.0;
  /// False = blocked out of downlink scheduling (suspended link).
  bool schedulable = true;
};

/// Per-STA decision table consumed by ApQueues::build; read-only to
/// everyone but LinkStateMachine::snapshot, which refills it in place.
///
/// Indexing contract: the table is addressed by NodeId and **index 0 is
/// the AP**, which is never a valid downlink destination, so querying
/// the AP here throws std::logic_error. Stations beyond the table get
/// defaults (default rate, schedulable), so a snapshot built for N
/// stations is safe against late-joining queue indices.
class LinkSnapshot {
 public:
  LinkSnapshot() = default;  ///< empty: no policy, defaults for everyone

  /// `decisions[sta]` addressed by NodeId; decisions[0] is the AP slot
  /// and is ignored (kept so NodeId indexes directly).
  explicit LinkSnapshot(std::vector<LinkDecision> decisions)
      : decisions_(std::move(decisions)) {}

  [[nodiscard]] bool empty() const noexcept { return decisions_.empty(); }

  /// Rate for a STA's subframes (0 = caller's default). Throws
  /// std::logic_error for the AP (NodeId 0).
  [[nodiscard]] double rate_bps(NodeId sta) const;

  /// True when the STA must be held out of downlink scheduling. Throws
  /// std::logic_error for the AP (NodeId 0).
  [[nodiscard]] bool blocked(NodeId sta) const;

 private:
  friend class LinkStateMachine;

  std::vector<LinkDecision> decisions_;
};

/// A recorded state-machine decision (policy debugging, examples, tests).
struct LinkTransition {
  double time = 0.0;
  NodeId sta = 0;
  LinkHealth from = LinkHealth::kHealthy;
  LinkHealth to = LinkHealth::kHealthy;
  double rate_bps = 0.0;  ///< rate in force after the transition
};

/// Full per-STA state (inspection/tests; scheduling goes via LinkSnapshot).
struct StaLinkState {
  LinkHealth health = LinkHealth::kHealthy;
  double snr_db = 0.0;          ///< smoothed estimate
  std::size_t rate_index = 0;   ///< index into kHtRates
  std::size_t fail_streak = 0;  ///< consecutive failed ACK outcomes
  std::size_t success_streak = 0;
  double suspended_until = 0.0;
  double timeout = 0.0;         ///< next suspension length
  /// Sliding delivery window: bit i of `window_bits` is outcome i (newest
  /// = lowest bit), `window_len` entries valid.
  std::uint64_t window_bits = 0;
  std::size_t window_len = 0;

  [[nodiscard]] double delivery_ratio() const noexcept;
};

/// Owns one StaLinkState per station and turns ACK feedback into rate and
/// scheduling decisions. Deterministic: consumes no randomness, so
/// identical feedback sequences yield identical MCS schedules.
class LinkStateMachine {
 public:
  /// `default_rate_bps` is the rate used when rate selection is off (and
  /// the ladder entry feedback stepping starts from otherwise).
  LinkStateMachine(const LinkPolicyConfig& policy, std::size_t num_stas,
                   double default_rate_bps);

  /// Fold an SNR observation into the smoothed estimate (EWMA). Also used
  /// to seed initial link SNRs. Raises the rate ceiling immediately; a
  /// feedback-degraded rate stays until successes probe it back up.
  void observe_snr(NodeId sta, double snr_db);

  /// Report one sequential-ACK outcome for `sta`.
  void on_feedback(NodeId sta, const AckFeedback& feedback);

  /// Advance time: suspended STAs whose timeout expired become Probing
  /// (schedulable again). Call before taking a snapshot for a TXOP.
  void advance(double now);

  /// Refill `out` with the decision table for ApQueues::build, reflecting
  /// current state. Reuses `out`'s storage, so a caller that keeps one
  /// snapshot across TXOPs does not allocate.
  void snapshot(LinkSnapshot& out) const;

  /// Current rate decision for one STA (0 = default rate). Valid for
  /// STAs only; NodeId 0 (the AP) throws std::logic_error.
  [[nodiscard]] double rate_bps(NodeId sta) const;

  [[nodiscard]] const StaLinkState& state(NodeId sta) const;
  [[nodiscard]] std::size_t num_stas() const noexcept {
    return states_.empty() ? 0 : states_.size() - 1;
  }
  [[nodiscard]] const LinkPolicyConfig& policy() const noexcept {
    return policy_;
  }

  [[nodiscard]] std::uint64_t suspensions() const noexcept {
    return suspensions_;
  }
  [[nodiscard]] std::uint64_t probes() const noexcept { return probes_; }
  [[nodiscard]] std::uint64_t rate_downgrades() const noexcept {
    return rate_downgrades_;
  }
  [[nodiscard]] std::uint64_t rate_upgrades() const noexcept {
    return rate_upgrades_;
  }
  [[nodiscard]] std::uint64_t transition_count() const noexcept {
    return transition_count_;
  }
  /// Recorded only when policy().record_transitions.
  [[nodiscard]] const std::vector<LinkTransition>& transitions()
      const noexcept {
    return log_;
  }

 private:
  StaLinkState& sta_state(NodeId sta);
  [[nodiscard]] std::size_t ceiling_index(const StaLinkState& s) const;
  void set_health(StaLinkState& s, NodeId sta, LinkHealth to, double when);
  void settle_delivering_health(StaLinkState& s, NodeId sta, double when);
  void suspend(StaLinkState& s, NodeId sta, double when);

  LinkPolicyConfig policy_;
  double default_rate_bps_;
  std::size_t default_rate_index_;  ///< ladder entry point for feedback
  std::vector<StaLinkState> states_;  ///< index = NodeId; [0] unused (AP)

  std::uint64_t suspensions_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t rate_downgrades_ = 0;
  std::uint64_t rate_upgrades_ = 0;
  std::uint64_t transition_count_ = 0;
  std::vector<LinkTransition> log_;
};

}  // namespace carpool::mac
