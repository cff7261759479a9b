#include "mac/link_state.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "carpool/transceiver.hpp"
#include "mac/rate_adaptation.hpp"
#include "obs/registry.hpp"

namespace carpool::mac {
namespace {

constexpr std::size_t kNumRates = std::size(kHtRates);

std::size_t ladder_index_for_rate(double rate_bps) {
  std::size_t index = 0;
  for (std::size_t i = 0; i < kNumRates; ++i) {
    if (rate_bps >= kHtRates[i]) index = i;
  }
  return index;
}

std::size_t ladder_index_for_snr(double snr_db) {
  std::size_t index = 0;
  for (std::size_t i = 0; i < kNumRates; ++i) {
    if (snr_db >= kHtThresholds[i]) index = i;
  }
  return index;
}

void require_sta(NodeId sta, std::size_t table_size, const char* who) {
  if (sta == kApNode) {
    throw std::logic_error(std::string(who) +
                           ": NodeId 0 is the AP, never a downlink "
                           "destination");
  }
  if (sta >= table_size) {
    throw std::out_of_range(std::string(who) + ": STA id beyond the table");
  }
}

}  // namespace

std::string_view link_health_name(LinkHealth health) noexcept {
  switch (health) {
    case LinkHealth::kHealthy:
      return "healthy";
    case LinkHealth::kDegraded:
      return "degraded";
    case LinkHealth::kSuspended:
      return "suspended";
    case LinkHealth::kProbing:
      return "probing";
  }
  return "?";
}

double StaLinkState::delivery_ratio() const noexcept {
  if (window_len == 0) return 1.0;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < window_len; ++i) {
    delivered += (window_bits >> i) & 1u;
  }
  return static_cast<double>(delivered) / static_cast<double>(window_len);
}

AckFeedback feedback_from_decode(const CarpoolRxResult& rx, double time) {
  AckFeedback fb;
  fb.time = time;
  for (const DecodedSubframe& sub : rx.subframes) {
    if (sub.fcs_ok) {
      ++fb.frames_ok;
    } else {
      ++fb.frames_failed;
    }
  }
  // Bloom-matched subframes the walk never reached (truncation, corrupt
  // SIG) were addressed to us and lost.
  if (rx.matched.size() > rx.subframes.size()) {
    fb.frames_failed +=
        static_cast<std::uint32_t>(rx.matched.size() - rx.subframes.size());
  }
  // A decode that produced nothing at all is one lost subunit.
  if (fb.frames_ok == 0 && fb.frames_failed == 0) fb.frames_failed = 1;
  return fb;
}

double LinkSnapshot::rate_bps(NodeId sta) const {
  if (sta == kApNode) {
    throw std::logic_error(
        "LinkSnapshot::rate_bps: NodeId 0 is the AP, never a downlink "
        "destination");
  }
  if (sta >= decisions_.size()) return 0.0;
  return decisions_[sta].rate_bps;
}

bool LinkSnapshot::blocked(NodeId sta) const {
  if (sta == kApNode) {
    throw std::logic_error(
        "LinkSnapshot::blocked: NodeId 0 is the AP, never a downlink "
        "destination");
  }
  if (sta >= decisions_.size()) return false;
  return !decisions_[sta].schedulable;
}

LinkStateMachine::LinkStateMachine(const LinkPolicyConfig& policy,
                                   std::size_t num_stas,
                                   double default_rate_bps)
    : policy_(policy),
      default_rate_bps_(default_rate_bps),
      default_rate_index_(ladder_index_for_rate(default_rate_bps)) {
  // The delivery window lives in a 64-bit mask.
  policy_.window = std::clamp<std::size_t>(policy_.window, 1, 64);
  if (policy_.down_after == 0) policy_.down_after = 1;
  if (policy_.up_after == 0) policy_.up_after = 1;
  if (policy_.suspend_after == 0) policy_.suspend_after = 1;
  states_.resize(num_stas + 1);
  for (StaLinkState& s : states_) {
    s.rate_index = default_rate_index_;
    s.timeout = policy_.initial_timeout;
    s.snr_db = std::numeric_limits<double>::quiet_NaN();
  }
}

StaLinkState& LinkStateMachine::sta_state(NodeId sta) {
  require_sta(sta, states_.size(), "LinkStateMachine");
  return states_[sta];
}

const StaLinkState& LinkStateMachine::state(NodeId sta) const {
  require_sta(sta, states_.size(), "LinkStateMachine::state");
  return states_[sta];
}

std::size_t LinkStateMachine::ceiling_index(const StaLinkState& s) const {
  if (policy_.rate_adaptation && !std::isnan(s.snr_db)) {
    return ladder_index_for_snr(s.snr_db);
  }
  return default_rate_index_;
}

void LinkStateMachine::set_health(StaLinkState& s, NodeId sta, LinkHealth to,
                                  double when) {
  if (s.health == to) return;
  const LinkHealth from = s.health;
  s.health = to;
  ++transition_count_;
  obs::Registry::current().counter("mac.ls_transition").add();
  if (policy_.record_transitions) {
    const double rate = (policy_.rate_adaptation || policy_.feedback)
                            ? kHtRates[s.rate_index]
                            : default_rate_bps_;
    log_.push_back(LinkTransition{when, sta, from, to, rate});
  }
}

void LinkStateMachine::settle_delivering_health(StaLinkState& s, NodeId sta,
                                                double when) {
  set_health(s, sta,
             s.rate_index >= ceiling_index(s) ? LinkHealth::kHealthy
                                              : LinkHealth::kDegraded,
             when);
}

void LinkStateMachine::suspend(StaLinkState& s, NodeId sta, double when) {
  s.suspended_until = when + s.timeout;
  s.timeout = std::min(2.0 * s.timeout, policy_.max_timeout);
  ++suspensions_;
  obs::Registry::current().counter("mac.lq_suspend").add();
  set_health(s, sta, LinkHealth::kSuspended, when);
}

void LinkStateMachine::observe_snr(NodeId sta, double snr_db) {
  StaLinkState& s = sta_state(sta);
  const bool first = std::isnan(s.snr_db);
  s.snr_db = first ? snr_db
                   : (1.0 - policy_.snr_alpha) * s.snr_db +
                         policy_.snr_alpha * snr_db;
  const std::size_t ceiling = ceiling_index(s);
  if (first || !policy_.feedback) {
    // Static selection tracks the ceiling directly; with feedback on the
    // first observation is the optimistic entry point.
    s.rate_index = ceiling;
  } else {
    // A falling ceiling clamps immediately; a rising one is only reached
    // by successful probes (Minstrel-style caution).
    s.rate_index = std::min(s.rate_index, ceiling);
  }
}

void LinkStateMachine::on_feedback(NodeId sta, const AckFeedback& feedback) {
  StaLinkState& s = sta_state(sta);
  if (!std::isnan(feedback.snr_db)) observe_snr(sta, feedback.snr_db);

  const bool delivered = feedback.delivered();
  s.window_bits = (s.window_bits << 1) | (delivered ? 1u : 0u);
  if (policy_.window < 64) {
    s.window_bits &= (std::uint64_t{1} << policy_.window) - 1;
  }
  s.window_len = std::min(s.window_len + 1, policy_.window);

  if (delivered) {
    s.fail_streak = 0;
    ++s.success_streak;
    s.timeout = policy_.initial_timeout;
    if (policy_.feedback && s.success_streak >= policy_.up_after &&
        s.rate_index < ceiling_index(s)) {
      ++s.rate_index;
      s.success_streak = 0;
      ++rate_upgrades_;
      obs::Registry::current().counter("mac.ls_rate_up").add();
    }
    settle_delivering_health(s, sta, feedback.time);
    return;
  }

  s.success_streak = 0;
  ++s.fail_streak;
  if (s.health == LinkHealth::kProbing && policy_.suspension) {
    // The probe failed: straight back to suspension, timeout doubled.
    suspend(s, sta, feedback.time);
    s.fail_streak = 0;
    return;
  }
  if (policy_.feedback && s.rate_index > 0 &&
      s.fail_streak >= policy_.down_after) {
    // Degraded links shed rate instead of being suspended outright.
    --s.rate_index;
    s.fail_streak = 0;
    ++rate_downgrades_;
    obs::Registry::current().counter("mac.ls_rate_down").add();
    set_health(s, sta, LinkHealth::kDegraded, feedback.time);
    return;
  }
  if (policy_.suspension && s.fail_streak >= policy_.suspend_after &&
      (!policy_.feedback || s.rate_index == 0)) {
    suspend(s, sta, feedback.time);
    s.fail_streak = 0;
  }
}

void LinkStateMachine::advance(double now) {
  if (!policy_.suspension) return;
  for (NodeId sta = 1; sta < states_.size(); ++sta) {
    StaLinkState& s = states_[sta];
    if (s.health == LinkHealth::kSuspended && now >= s.suspended_until) {
      s.suspended_until = 0.0;
      ++probes_;
      obs::Registry::current().counter("mac.lq_probe").add();
      set_health(s, sta, LinkHealth::kProbing, now);
    }
  }
}

void LinkStateMachine::snapshot(LinkSnapshot& out) const {
  std::vector<LinkDecision>& decisions = out.decisions_;
  if (!policy_.active()) {
    decisions.clear();
    return;
  }
  decisions.assign(states_.size(), LinkDecision{});
  const bool rate_selection = policy_.rate_adaptation || policy_.feedback;
  for (NodeId sta = 1; sta < states_.size(); ++sta) {
    const StaLinkState& s = states_[sta];
    decisions[sta].rate_bps = rate_selection ? kHtRates[s.rate_index] : 0.0;
    decisions[sta].schedulable = s.health != LinkHealth::kSuspended;
  }
}

double LinkStateMachine::rate_bps(NodeId sta) const {
  require_sta(sta, states_.size(), "LinkStateMachine::rate_bps");
  if (!policy_.rate_adaptation && !policy_.feedback) return 0.0;
  return kHtRates[states_[sta].rate_index];
}

}  // namespace carpool::mac
