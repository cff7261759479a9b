// Tests for the per-STA link-state machine (mac/link_state.hpp): the
// SNR-threshold boundaries it shares with rate_for_snr, the health
// transition table, determinism of the MCS schedule, the snapshot's
// AP-slot contract, and the suspension backoff schedule.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "carpool/transceiver.hpp"
#include "mac/link_state.hpp"
#include "mac/rate_adaptation.hpp"
#include "mac/simulator.hpp"
#include "traffic/generators.hpp"

namespace carpool::mac {
namespace {

AckFeedback outcome(bool delivered, double time) {
  AckFeedback fb;
  fb.time = time;
  fb.ack_ok = delivered;
  fb.frames_ok = delivered ? 1 : 0;
  fb.frames_failed = delivered ? 0 : 1;
  return fb;
}

// ----------------------------------------------------- threshold table

TEST(RateForSnr, ExactlyAtEachThreshold) {
  for (std::size_t i = 0; i < std::size(kHtThresholds); ++i) {
    EXPECT_DOUBLE_EQ(rate_for_snr(kHtThresholds[i]), kHtRates[i])
        << "threshold " << kHtThresholds[i];
  }
}

TEST(RateForSnr, JustBelowEachThreshold) {
  // 0.1 dB under a threshold must select the previous rung (the base
  // rate below the first threshold).
  for (std::size_t i = 0; i < std::size(kHtThresholds); ++i) {
    const double expect = i == 0 ? kHtRates[0] : kHtRates[i - 1];
    EXPECT_DOUBLE_EQ(rate_for_snr(kHtThresholds[i] - 0.1), expect)
        << "threshold " << kHtThresholds[i];
  }
}

TEST(RateForSnr, JustAboveEachThreshold) {
  // Thresholds are >= 2 dB apart, so +0.1 dB stays on the same rung.
  for (std::size_t i = 0; i < std::size(kHtThresholds); ++i) {
    EXPECT_DOUBLE_EQ(rate_for_snr(kHtThresholds[i] + 0.1), kHtRates[i])
        << "threshold " << kHtThresholds[i];
  }
}

TEST(RateForSnr, MachineCeilingMatchesTable) {
  // With rate adaptation only, the machine's decision is exactly the
  // static table lookup at every boundary.
  LinkPolicyConfig policy;
  policy.rate_adaptation = true;
  for (std::size_t i = 0; i < std::size(kHtThresholds); ++i) {
    for (const double delta : {-0.1, 0.0, 0.1}) {
      LinkStateMachine machine(policy, 1, 65e6);
      machine.observe_snr(1, kHtThresholds[i] + delta);
      EXPECT_DOUBLE_EQ(machine.rate_bps(1),
                       rate_for_snr(kHtThresholds[i] + delta));
    }
  }
}

// ----------------------------------------------------- transition table

TEST(LinkStateMachine, FullHealthCycle) {
  // Healthy -> Degraded -> ... -> Suspended -> Probing -> ... -> Healthy,
  // with every intermediate decision recorded.
  LinkPolicyConfig policy;
  policy.rate_adaptation = true;
  policy.feedback = true;
  policy.suspension = true;
  policy.down_after = 1;
  policy.up_after = 1;
  policy.suspend_after = 1;
  policy.record_transitions = true;
  LinkStateMachine machine(policy, 1, 65e6);
  machine.observe_snr(1, 30.0);  // ceiling = MCS7
  ASSERT_EQ(machine.state(1).health, LinkHealth::kHealthy);
  ASSERT_EQ(machine.state(1).rate_index, 7u);

  double t = 0.0;
  // First failure: one step down, Healthy -> Degraded.
  machine.on_feedback(1, outcome(false, t += 1e-3));
  EXPECT_EQ(machine.state(1).health, LinkHealth::kDegraded);
  EXPECT_EQ(machine.state(1).rate_index, 6u);

  // Keep failing: the machine sheds rate all the way to the floor
  // instead of suspending (degraded links shed rate first).
  for (int i = 0; i < 6; ++i) machine.on_feedback(1, outcome(false, t += 1e-3));
  EXPECT_EQ(machine.state(1).health, LinkHealth::kDegraded);
  EXPECT_EQ(machine.state(1).rate_index, 0u);
  EXPECT_EQ(machine.suspensions(), 0u);

  // Failure at the floor: Degraded -> Suspended.
  machine.on_feedback(1, outcome(false, t += 1e-3));
  EXPECT_EQ(machine.state(1).health, LinkHealth::kSuspended);
  EXPECT_EQ(machine.suspensions(), 1u);
  LinkSnapshot snapshot;
  machine.snapshot(snapshot);
  EXPECT_TRUE(snapshot.blocked(1));

  // Timeout expiry: Suspended -> Probing, schedulable again.
  machine.advance(t + policy.initial_timeout + 1e-6);
  EXPECT_EQ(machine.state(1).health, LinkHealth::kProbing);
  EXPECT_EQ(machine.probes(), 1u);
  machine.snapshot(snapshot);  // refilled in place
  EXPECT_FALSE(snapshot.blocked(1));

  // Successful probes climb back to the ceiling: Probing -> Degraded ->
  // ... -> Healthy.
  t += policy.initial_timeout;
  machine.on_feedback(1, outcome(true, t += 1e-3));
  EXPECT_EQ(machine.state(1).health, LinkHealth::kDegraded);
  for (int i = 0; i < 6; ++i) machine.on_feedback(1, outcome(true, t += 1e-3));
  EXPECT_EQ(machine.state(1).health, LinkHealth::kHealthy);
  EXPECT_EQ(machine.state(1).rate_index, 7u);

  // The recorded trace visits all four states in order.
  const auto& log = machine.transitions();
  ASSERT_GE(log.size(), 4u);
  EXPECT_EQ(log.front().from, LinkHealth::kHealthy);
  EXPECT_EQ(log.front().to, LinkHealth::kDegraded);
  EXPECT_EQ(log.back().to, LinkHealth::kHealthy);
  bool saw_suspended = false, saw_probing = false;
  for (const LinkTransition& tr : log) {
    if (tr.to == LinkHealth::kSuspended) saw_suspended = true;
    if (tr.to == LinkHealth::kProbing) {
      EXPECT_TRUE(saw_suspended);
      saw_probing = true;
    }
  }
  EXPECT_TRUE(saw_probing);
  EXPECT_EQ(machine.transition_count(), log.size());
}

TEST(LinkStateMachine, FailedProbeResuspendsWithDoubledTimeout) {
  LinkPolicyConfig policy;
  policy.suspension = true;
  policy.suspend_after = 2;
  LinkStateMachine machine(policy, 1, 65e6);

  double t = 0.0;
  machine.on_feedback(1, outcome(false, t += 1e-3));
  machine.on_feedback(1, outcome(false, t += 1e-3));
  ASSERT_EQ(machine.state(1).health, LinkHealth::kSuspended);
  const double first_until = machine.state(1).suspended_until;
  EXPECT_NEAR(first_until - t, policy.initial_timeout, 1e-9);

  machine.advance(first_until + 1e-6);
  ASSERT_EQ(machine.state(1).health, LinkHealth::kProbing);

  // A failed probe goes straight back to Suspended, timeout doubled.
  t = first_until + 1e-3;
  machine.on_feedback(1, outcome(false, t));
  ASSERT_EQ(machine.state(1).health, LinkHealth::kSuspended);
  EXPECT_NEAR(machine.state(1).suspended_until - t,
              2.0 * policy.initial_timeout, 1e-9);
  EXPECT_EQ(machine.suspensions(), 2u);
}

TEST(LinkStateMachine, BackoffDoublesUpToCapAndResetsOnDelivery) {
  LinkPolicyConfig policy;
  policy.suspension = true;
  policy.suspend_after = 1;
  policy.initial_timeout = 10e-3;
  policy.max_timeout = 40e-3;
  LinkStateMachine machine(policy, 1, 65e6);

  double t = 0.0;
  double expected = policy.initial_timeout;
  for (int round = 0; round < 5; ++round) {
    machine.on_feedback(1, outcome(false, t));
    ASSERT_EQ(machine.state(1).health, LinkHealth::kSuspended);
    EXPECT_NEAR(machine.state(1).suspended_until - t, expected, 1e-9)
        << "round " << round;
    t = machine.state(1).suspended_until + 1e-6;
    machine.advance(t);
    expected = std::min(2.0 * expected, policy.max_timeout);
  }
  // Delivery resets the schedule to the initial timeout.
  machine.on_feedback(1, outcome(true, t));
  EXPECT_EQ(machine.state(1).health, LinkHealth::kHealthy);
  machine.on_feedback(1, outcome(false, t + 1e-3));
  EXPECT_NEAR(machine.state(1).suspended_until - (t + 1e-3),
              policy.initial_timeout, 1e-9);
}

TEST(LinkStateMachine, AllLayersOffNeverLeavesHealthy) {
  LinkStateMachine machine(LinkPolicyConfig{}, 2, 65e6);
  double t = 0.0;
  for (int i = 0; i < 50; ++i) {
    machine.on_feedback(1, outcome(false, t += 1e-3));
    machine.advance(t);
  }
  EXPECT_EQ(machine.state(1).health, LinkHealth::kHealthy);
  EXPECT_EQ(machine.transition_count(), 0u);
  EXPECT_DOUBLE_EQ(machine.rate_bps(1), 0.0);  // "use the default rate"
  LinkSnapshot snapshot;
  machine.snapshot(snapshot);
  EXPECT_TRUE(snapshot.empty());
}

// ------------------------------------------------ delivery-ratio window

TEST(LinkStateMachine, DeliveryWindowTracksOutcomes) {
  LinkPolicyConfig policy;
  policy.feedback = true;
  policy.window = 4;
  policy.down_after = 100;  // keep the rate still
  LinkStateMachine machine(policy, 1, 65e6);

  EXPECT_DOUBLE_EQ(machine.state(1).delivery_ratio(), 1.0);  // no data yet
  double t = 0.0;
  machine.on_feedback(1, outcome(true, t += 1e-3));
  machine.on_feedback(1, outcome(false, t += 1e-3));
  EXPECT_DOUBLE_EQ(machine.state(1).delivery_ratio(), 0.5);
  machine.on_feedback(1, outcome(false, t += 1e-3));
  machine.on_feedback(1, outcome(false, t += 1e-3));
  EXPECT_DOUBLE_EQ(machine.state(1).delivery_ratio(), 0.25);
  // The window slides: a fifth outcome evicts the oldest (a success).
  machine.on_feedback(1, outcome(false, t += 1e-3));
  EXPECT_DOUBLE_EQ(machine.state(1).delivery_ratio(), 0.0);
}

// -------------------------------------------------------- determinism

TEST(LinkStateMachine, IdenticalFeedbackYieldsIdenticalSchedule) {
  LinkPolicyConfig policy;
  policy.rate_adaptation = true;
  policy.feedback = true;
  policy.suspension = true;
  policy.down_after = 2;
  policy.up_after = 3;
  policy.record_transitions = true;

  auto run = [&policy]() {
    LinkStateMachine machine(policy, 3, 65e6);
    for (NodeId sta = 1; sta <= 3; ++sta) {
      machine.observe_snr(sta, 10.0 + 5.0 * static_cast<double>(sta));
    }
    std::vector<double> schedule;
    double t = 0.0;
    // A fixed but irregular success pattern, interleaved across STAs.
    for (int i = 0; i < 400; ++i) {
      const NodeId sta = static_cast<NodeId>(1 + (i * 7) % 3);
      const bool success = ((i * i + 3 * i) % 5) != 0;
      machine.on_feedback(sta, outcome(success, t += 1e-3));
      machine.advance(t);
      for (NodeId q = 1; q <= 3; ++q) schedule.push_back(machine.rate_bps(q));
    }
    return std::make_pair(schedule, machine.transitions().size());
  };

  const auto [schedule_a, transitions_a] = run();
  const auto [schedule_b, transitions_b] = run();
  EXPECT_EQ(schedule_a, schedule_b);
  EXPECT_EQ(transitions_a, transitions_b);
}

TEST(LinkStateMachine, SimulatorScheduleIsDeterministic) {
  auto run = []() {
    SimConfig cfg;
    cfg.scheme = Scheme::kCarpool;
    cfg.num_stas = 6;
    cfg.duration = 3.0;
    cfg.seed = 7;
    cfg.sta_snr_db = {30, 25, 20, 15, 12, 9};
    cfg.link_policy.rate_adaptation = true;
    cfg.link_policy.feedback = true;
    cfg.link_policy.suspension = true;
    cfg.link_policy.record_transitions = true;
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 6; ++sta) {
      sim.add_flow(traffic::make_cbr_flow(sta, 600, 0.01));
    }
    return sim.run();
  };
  const SimResult a = run();
  const SimResult b = run();
  EXPECT_DOUBLE_EQ(a.downlink_goodput_bps, b.downlink_goodput_bps);
  EXPECT_EQ(a.ls_transitions, b.ls_transitions);
  EXPECT_EQ(a.ls_rate_downgrades, b.ls_rate_downgrades);
  EXPECT_EQ(a.ls_rate_upgrades, b.ls_rate_upgrades);
  ASSERT_EQ(a.link_transitions.size(), b.link_transitions.size());
  for (std::size_t i = 0; i < a.link_transitions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.link_transitions[i].time, b.link_transitions[i].time);
    EXPECT_EQ(a.link_transitions[i].sta, b.link_transitions[i].sta);
    EXPECT_EQ(a.link_transitions[i].to, b.link_transitions[i].to);
  }
}

// --------------------------------------------------- AP-slot contract

TEST(LinkSnapshot, ApSlotThrows) {
  const LinkSnapshot snapshot(
      {LinkDecision{}, LinkDecision{26e6, true}, LinkDecision{0.0, false}});
  EXPECT_THROW((void)snapshot.rate_bps(kApNode), std::logic_error);
  EXPECT_THROW((void)snapshot.blocked(kApNode), std::logic_error);
  EXPECT_DOUBLE_EQ(snapshot.rate_bps(1), 26e6);
  EXPECT_TRUE(snapshot.blocked(2));
  // Beyond the table: defaults, not a throw (late-joining queue slots).
  EXPECT_DOUBLE_EQ(snapshot.rate_bps(9), 0.0);
  EXPECT_FALSE(snapshot.blocked(9));
}

TEST(LinkSnapshot, EmptySnapshotHasDefaultsForEverySta) {
  const LinkSnapshot empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.rate_bps(3), 0.0);
  EXPECT_FALSE(empty.blocked(3));
  EXPECT_THROW((void)empty.rate_bps(kApNode), std::logic_error);
}

TEST(LinkStateMachine, ApAndOutOfRangeQueriesThrow) {
  LinkStateMachine machine(LinkPolicyConfig{}, 2, 65e6);
  EXPECT_THROW((void)machine.state(kApNode), std::logic_error);
  EXPECT_THROW((void)machine.rate_bps(kApNode), std::logic_error);
  EXPECT_THROW(machine.observe_snr(kApNode, 20.0), std::logic_error);
  EXPECT_THROW((void)machine.state(3), std::out_of_range);
  EXPECT_THROW(machine.on_feedback(5, outcome(true, 0.0)),
               std::out_of_range);
}

// ----------------------------------------------- decode-result bridge

TEST(FeedbackFromDecode, CountsFcsVerdicts) {
  CarpoolRxResult rx;
  rx.matched = {0, 1, 2};
  rx.subframes.resize(3);
  rx.subframes[0].fcs_ok = true;
  rx.subframes[1].fcs_ok = false;
  rx.subframes[2].fcs_ok = true;
  const AckFeedback fb = feedback_from_decode(rx, 1.25);
  EXPECT_DOUBLE_EQ(fb.time, 1.25);
  EXPECT_EQ(fb.frames_ok, 2u);
  EXPECT_EQ(fb.frames_failed, 1u);
  EXPECT_TRUE(fb.delivered());
}

TEST(FeedbackFromDecode, UnreachedMatchesCountAsLost) {
  CarpoolRxResult rx;
  rx.matched = {0, 1, 2};   // Bloom said three subframes were ours...
  rx.subframes.resize(1);   // ...but the walk only reached one.
  rx.subframes[0].fcs_ok = true;
  const AckFeedback fb = feedback_from_decode(rx, 0.5);
  EXPECT_EQ(fb.frames_ok, 1u);
  EXPECT_EQ(fb.frames_failed, 2u);
}

TEST(FeedbackFromDecode, EmptyDecodeIsOneLostSubunit) {
  const AckFeedback fb = feedback_from_decode(CarpoolRxResult{}, 2.0);
  EXPECT_EQ(fb.frames_ok, 0u);
  EXPECT_EQ(fb.frames_failed, 1u);
  EXPECT_FALSE(fb.delivered());
}

// ---------------------------------------------- bursty-channel policy

TEST(GilbertElliott, StateIsDeterministicAndOrderIndependent) {
  GilbertElliottPhyModel::Params params;
  params.seed = 42;
  const GilbertElliottPhyModel model(nullptr, params);
  std::vector<bool> forward;
  for (double t = 0.0; t < 1.0; t += 7e-3) forward.push_back(model.bad_at(t));
  // A second instance queried in reverse order sees the same chain: state
  // at time t is a pure function of (seed, t).
  const GilbertElliottPhyModel again(nullptr, params);
  std::size_t i = forward.size();
  std::vector<double> grid;
  for (double t = 0.0; t < 1.0; t += 7e-3) grid.push_back(t);
  for (auto it = grid.rbegin(); it != grid.rend(); ++it) {
    EXPECT_EQ(again.bad_at(*it), forward[--i]) << "t=" << *it;
  }
}

TEST(GilbertElliott, BadStateRaisesErrorProbability) {
  GilbertElliottPhyModel::Params params;
  params.p_good_to_bad = 0.5;
  params.p_bad_to_good = 0.1;
  params.bad_snr_penalty_db = 20.0;
  params.seed = 3;
  const GilbertElliottPhyModel model(
      std::make_shared<AnalyticPhyModel>(), params);
  const AnalyticPhyModel clean;
  SubframeChannelQuery query;
  query.snr_db = 25.0;
  query.num_symbols = 40;
  bool saw_bad = false;
  for (double t = 0.0; t < 2.0; t += params.period) {
    query.time = t;
    if (model.bad_at(t)) {
      saw_bad = true;
      EXPECT_GT(model.subframe_error_prob(query),
                clean.subframe_error_prob(query));
    } else {
      EXPECT_DOUBLE_EQ(model.subframe_error_prob(query),
                       clean.subframe_error_prob(query));
    }
  }
  EXPECT_TRUE(saw_bad);  // p_good_to_bad = 0.5 over 400 steps
}

}  // namespace
}  // namespace carpool::mac
