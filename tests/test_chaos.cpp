// carpool::chaos — JSON layer, scenario schema, invariants, soak runner,
// repro bundles, and the shrinker (docs/SOAK.md).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "chaos/invariants.hpp"
#include "chaos/runner.hpp"
#include "chaos/scenario.hpp"
#include "chaos/shrink.hpp"
#include "chaos/snr_trace.hpp"
#include "carpool/transceiver.hpp"
#include "common/json.hpp"
#include "mac/params.hpp"
#include "mac/simulator.hpp"
#include "obs/registry.hpp"
#include "sim/topology.hpp"
#include "traffic/generators.hpp"

namespace carpool::chaos {
namespace {

// ---------------------------------------------------------------- JSON

TEST(ChaosJson, RoundTripPreservesStructure) {
  const std::string text =
      R"({"name": "x", "n": 3, "f": 1.5, "flag": true, "none": null,)"
      R"( "list": [1, 2, 3], "nested": {"a": "b"}})";
  const JsonParseResult first = json_parse(text);
  ASSERT_TRUE(first.ok()) << first.error.to_string();
  const std::string dumped = json_dump(*first.value);
  const JsonParseResult second = json_parse(dumped);
  ASSERT_TRUE(second.ok()) << second.error.to_string();
  EXPECT_EQ(json_dump(*second.value), dumped);
  const JsonValue* n = first.value->find("n");
  ASSERT_NE(n, nullptr);
  EXPECT_DOUBLE_EQ(n->as_number(), 3.0);
  EXPECT_EQ(first.value->find("missing"), nullptr);
}

TEST(ChaosJson, IntegersPrintWithoutDecimalPoint) {
  // Seeds and frame indices must round-trip textually.
  JsonObject obj;
  json_set(obj, "seed", JsonValue(1234567890.0));
  json_set(obj, "frac", JsonValue(0.25));
  const std::string dumped = json_dump(JsonValue(std::move(obj)));
  EXPECT_NE(dumped.find("1234567890"), std::string::npos);
  EXPECT_EQ(dumped.find("1234567890."), std::string::npos);
  EXPECT_NE(dumped.find("0.25"), std::string::npos);
}

TEST(ChaosJson, MalformedInputReportsLineAndColumn) {
  const JsonParseResult r = json_parse("{\n  \"a\": ,\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.error.message.empty());
  EXPECT_EQ(r.error.line, 2u);
  EXPECT_GT(r.error.column, 0u);
}

TEST(ChaosJson, TrailingGarbageIsAnError) {
  EXPECT_FALSE(json_parse("{} trailing").ok());
  EXPECT_FALSE(json_parse("").ok());
  EXPECT_FALSE(json_parse("[1, 2").ok());
}

TEST(ChaosJson, UnicodeEscapeDecodesToUtf8) {
  const JsonParseResult r = json_parse(R"({"s": "Aé"})");
  ASSERT_TRUE(r.ok()) << r.error.to_string();
  EXPECT_EQ(r.value->find("s")->as_string(), "A\xc3\xa9");
}

// ------------------------------------------------------------ scenarios

Scenario full_scenario() {
  Scenario s;
  s.name = "full";
  s.seed = 777;
  s.duration = 6.0;
  s.num_stas = 5;
  s.scheme = mac::Scheme::kCarpool;
  s.default_snr_db = 22.0;
  s.probe_interval = 0.5;
  s.link_policy.rate_adaptation = true;
  s.link_policy.feedback = true;
  s.link_policy.suspension = true;
  s.mobility.push_back(
      {2, {{0.0, {5.0, 4.0}}, {3.0, {9.0, 9.0}}, {6.0, {5.0, 4.0}}}});
  s.interference.push_back({1.0, 2.5, 6.0, 0.8, {1, 3}});
  s.interference.push_back({3.0, 5.0, 10.0, 1.2, {}});
  s.churn.push_back({2.0, 4, false});
  s.churn.push_back({4.0, 4, true});
  s.traffic.push_back({0.0, TrafficKind::kCbr, 900, 5e-3});
  s.traffic.push_back({3.0, TrafficKind::kVoip, 1200, 4e-3});
  s.inject = InjectedViolation{400};
  return s;
}

TEST(ChaosScenario, RoundTripFieldForField) {
  const Scenario s = full_scenario();
  const ScenarioParseResult r = scenario_from_json(scenario_to_json(s));
  ASSERT_TRUE(r.ok()) << r.error.to_string();
  const Scenario& p = *r.scenario;
  EXPECT_EQ(p.name, s.name);
  EXPECT_EQ(p.seed, s.seed);
  EXPECT_DOUBLE_EQ(p.duration, s.duration);
  EXPECT_EQ(p.num_stas, s.num_stas);
  EXPECT_EQ(p.scheme, s.scheme);
  EXPECT_DOUBLE_EQ(p.default_snr_db, s.default_snr_db);
  EXPECT_DOUBLE_EQ(p.probe_interval, s.probe_interval);
  EXPECT_EQ(p.link_policy.rate_adaptation, s.link_policy.rate_adaptation);
  EXPECT_EQ(p.link_policy.feedback, s.link_policy.feedback);
  EXPECT_EQ(p.link_policy.suspension, s.link_policy.suspension);
  ASSERT_EQ(p.mobility.size(), 1u);
  EXPECT_EQ(p.mobility[0].sta, 2u);
  ASSERT_EQ(p.mobility[0].waypoints.size(), 3u);
  EXPECT_DOUBLE_EQ(p.mobility[0].waypoints[1].p.x, 9.0);
  ASSERT_EQ(p.interference.size(), 2u);
  EXPECT_DOUBLE_EQ(p.interference[0].snr_penalty_db, 6.0);
  EXPECT_EQ(p.interference[0].stas, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_TRUE(p.interference[1].stas.empty());
  ASSERT_EQ(p.churn.size(), 2u);
  EXPECT_FALSE(p.churn[0].join);
  EXPECT_TRUE(p.churn[1].join);
  ASSERT_EQ(p.traffic.size(), 2u);
  EXPECT_EQ(p.traffic[1].kind, TrafficKind::kVoip);
  ASSERT_TRUE(p.inject.has_value());
  EXPECT_EQ(p.inject->frame, 400u);
  // Textual idempotence: serialize(parse(serialize(s))) == serialize(s).
  EXPECT_EQ(scenario_to_json(p), scenario_to_json(s));
}

TEST(ChaosScenario, DefaultScenariosRoundTrip) {
  const std::vector<Scenario> defaults = default_scenarios();
  ASSERT_GE(defaults.size(), 3u);
  for (const Scenario& s : defaults) {
    const ScenarioParseResult r = scenario_from_json(scenario_to_json(s));
    ASSERT_TRUE(r.ok()) << s.name << ": " << r.error.to_string();
    EXPECT_EQ(scenario_to_json(*r.scenario), scenario_to_json(s)) << s.name;
  }
}

TEST(ChaosScenario, SyntaxErrorIsStructuredNotACrash) {
  const ScenarioParseResult r = scenario_from_json("{\"name\": \"x\",,}");
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.error.message.empty());
}

TEST(ChaosScenario, SchemaViolationsReportDottedPaths) {
  struct Case {
    const char* json;
    const char* path_fragment;
  };
  const Case cases[] = {
      {R"({"name": "x", "duration": 0})", "duration"},
      {R"({"name": "x", "duration": 1, "num_stas": 0})", "num_stas"},
      {R"({"name": "x", "duration": 1, "scheme": "warpdrive"})", "scheme"},
      {R"({"name": "x", "duration": 1, "num_stas": 2,
           "churn": [{"time": 0.5, "sta": 9, "join": false}]})",
       "churn"},
      {R"({"name": "x", "duration": 1,
           "interference": [{"start": 2.0, "stop": 1.0}]})",
       "interference"},
      {R"({"name": "x", "duration": 1, "num_stas": 2, "mobility":
           [{"sta": 1, "waypoints": [{"time": 1.0, "x": 0, "y": 0},
                                     {"time": 0.5, "x": 1, "y": 1}]}]})",
       "mobility"},
      {R"({"name": "x", "duration": 1, "num_stas": 2,
           "mobility": [{"sta": 1, "waypoints": []}]})",
       "mobility[0].waypoints"},
      {R"({"name": "x", "duration": 1, "num_stas": 2, "mobility":
           [{"sta": 2, "waypoints": [{"t": 0, "x": 1, "y": 1}]},
            {"sta": 2, "waypoints": [{"t": 0, "x": 9, "y": 9}]}]})",
       "mobility[1].sta"},
      {R"({"name": "x", "duration": 1,
           "traffic": [{"start": 0, "kind": "cbr", "frame_bytes": 0}]})",
       "traffic"},
  };
  for (const Case& c : cases) {
    const ScenarioParseResult r = scenario_from_json(c.json);
    ASSERT_FALSE(r.ok()) << c.json;
    EXPECT_NE(r.error.path.find(c.path_fragment), std::string::npos)
        << "error path '" << r.error.path << "' for " << c.json;
    EXPECT_FALSE(r.error.message.empty());
  }
}

TEST(ChaosScenario, OutOfRangeIntegersAreRejectedWithTheirPath) {
  // Each value is a JSON number that no u64 field can hold exactly;
  // casting it would be undefined behaviour, so the reader must refuse.
  struct Case {
    const char* json;
    const char* path;
  };
  const Case cases[] = {
      {R"({"name": "x", "duration": 1, "seed": 1e30})", "seed"},
      {R"({"name": "x", "duration": 1, "seed": 18446744073709551616})",
       "seed"},
      {R"({"name": "x", "duration": 1, "num_stas": -1})", "num_stas"},
      {R"({"name": "x", "duration": 1,
           "inject_violation": {"frame": 1e300}})",
       "inject_violation.frame"},
      {R"({"name": "x", "duration": 1,
           "interference": [{"start": 0, "stop": 1, "stas": [1e30]}]})",
       "interference[0].stas"},
  };
  for (const Case& c : cases) {
    const ScenarioParseResult r = scenario_from_json(c.json);
    ASSERT_FALSE(r.ok()) << c.json;
    EXPECT_EQ(r.error.path, c.path) << c.json;
  }
}

TEST(ChaosScenario, DeriveSeedSeparatesRepeatAndSalt) {
  const std::uint64_t a = derive_seed(42, 0, 0);
  EXPECT_EQ(a, derive_seed(42, 0, 0));
  EXPECT_NE(a, derive_seed(42, 1, 0));
  EXPECT_NE(a, derive_seed(42, 0, 1));
  EXPECT_NE(a, derive_seed(43, 0, 0));
}

// ------------------------------------------------------------ invariants

mac::SimResult balanced_totals() {
  mac::SimResult t;
  t.dl_frames_delivered = 60;
  t.ul_frames_delivered = 30;
  t.dl_frames_dropped = 5;
  t.ul_frames_dropped = 5;
  t.airtime_payload = 0.01;
  t.airtime_overhead = 0.002;
  t.airtime_collision = 0.001;
  return t;
}

mac::SimStepView balanced_view(const mac::SimResult& t,
                               const mac::MacParams& p) {
  mac::SimStepView view;
  view.now = 1.0;
  view.frames_generated = 110;
  view.frames_judged = 100;
  view.frames_inflight = 10;
  view.num_stas = 4;
  view.totals = &t;
  view.params = &p;
  return view;
}

TEST(ChaosInvariants, BalancedStepPasses) {
  const mac::SimResult t = balanced_totals();
  const mac::MacParams p{};
  StepInvariants inv(0, 0.0, 0, 0);
  EXPECT_FALSE(inv.check(balanced_view(t, p)).has_value());
}

TEST(ChaosInvariants, AccountingImbalanceTrips) {
  const mac::SimResult t = balanced_totals();
  const mac::MacParams p{};
  StepInvariants inv(1000, 2.0, 3, 1);
  mac::SimStepView view = balanced_view(t, p);
  view.frames_inflight = 7;  // three frames leaked
  const auto v = inv.check(view);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "accounting_balance");
  EXPECT_EQ(v->frame, 1000u + view.frames_judged);
  EXPECT_DOUBLE_EQ(v->time, 2.0 + view.now);
  EXPECT_EQ(v->episode, 3u);
  EXPECT_EQ(v->repeat, 1u);
  // Latched: the same broken view reports nothing new.
  EXPECT_FALSE(inv.check(view).has_value());
}

TEST(ChaosInvariants, SequentialAckArithmeticChecked) {
  const mac::SimResult t = balanced_totals();
  const mac::MacParams p{};
  const double single = p.sifs + p.ack_duration();

  mac::SimStepView view = balanced_view(t, p);
  view.txop.downlink = true;
  view.txop.sequential_ack = true;
  view.txop.subunits = 3;
  view.txop.data_duration = 1e-3;
  view.txop.ack_overhead = 3.0 * single;  // Eq. (1)/(2) consistent
  StepInvariants good(0, 0.0, 0, 0);
  EXPECT_FALSE(good.check(view).has_value());

  view.txop.ack_overhead = 2.0 * single;  // one ACK short
  StepInvariants bad(0, 0.0, 0, 0);
  const auto v = bad.check(view);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "nav_seq_ack");
}

TEST(ChaosInvariants, BusyAirtimeBeyondClockTrips) {
  mac::SimResult t = balanced_totals();
  t.airtime_payload = 5.0;  // impossible: 5 s busy inside a 1 s run
  const mac::MacParams p{};
  StepInvariants inv(0, 0.0, 0, 0);
  const auto v = inv.check(balanced_view(t, p));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "sane_metrics");
}

TEST(ChaosInvariants, DecodeChecks) {
  CarpoolRxResult rx;  // default: clean decode, nothing matched
  EXPECT_FALSE(check_decode(rx, 1, 0.0, 0, 0).has_value());

  rx.status = DecodeStatus::kInternalError;
  auto v = check_decode(rx, 1, 0.0, 0, 0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "decode_no_throw");

  rx.status = DecodeStatus::kOk;
  rx.subframes.emplace_back();  // decoded entry without a Bloom match
  v = check_decode(rx, 2, 0.0, 0, 0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "decode_accounting");

  rx.matched.push_back(0);
  rx.subframes[0].fcs_ok = true;
  rx.subframes[0].decoded = false;  // FCS pass without a decode
  v = check_decode(rx, 3, 0.0, 0, 0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "decode_accounting");

  rx.subframes[0].decoded = true;
  rx.rte_estimate_norm = std::numeric_limits<double>::quiet_NaN();
  v = check_decode(rx, 4, 0.0, 0, 0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "rte_bounded");

  rx.rte_estimate_norm = 5e4;  // finite but absurd
  v = check_decode(rx, 5, 0.0, 0, 0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "rte_bounded");

  rx.rte_estimate_norm = 1.2;
  EXPECT_FALSE(check_decode(rx, 6, 0.0, 0, 0).has_value());
}

EpisodeSummary rung(double intensity, double goodput,
                    std::uint64_t judged = 100) {
  EpisodeSummary e;
  e.intensity = intensity;
  e.goodput_bps = goodput;
  e.frames_judged = judged;
  return e;
}

TEST(ChaosInvariants, GoodputCliffDetected) {
  const std::vector<EpisodeSummary> episodes = {
      rung(0.0, 10e6), rung(0.5, 8e6), rung(1.0, 0.5e6)};  // 8 -> 0.5: cliff
  const auto v = check_goodput_cliffs(episodes);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "goodput_cliff");
}

TEST(ChaosInvariants, GradualDegradationPasses) {
  const std::vector<EpisodeSummary> episodes = {
      rung(0.0, 10e6), rung(0.5, 6e6), rung(1.0, 2e6), rung(1.5, 0.5e6)};
  EXPECT_FALSE(check_goodput_cliffs(episodes).has_value());
}

TEST(ChaosInvariants, StarvedRungsAreNotCliffs) {
  // An idle rung (no judgements) is excluded outright, and a gentler rung
  // that was itself starved (< 100 kbit/s) never anchors a comparison —
  // so even a 98% drop from 80 kbit/s is not a cliff.
  const std::vector<EpisodeSummary> episodes = {
      rung(0.0, 8e4), rung(0.5, 0.0, 0), rung(1.0, 1e3)};
  EXPECT_FALSE(check_goodput_cliffs(episodes).has_value());
}

// ----------------------------------------------------- simulator hooks

TEST(SimulatorHooks, ObserverSeesBalancedStepsAndCanStopEarly) {
  mac::SimConfig cfg;
  cfg.scheme = mac::Scheme::kCarpool;
  cfg.num_stas = 3;
  cfg.duration = 5.0;
  cfg.seed = 9;
  cfg.default_snr_db = 30.0;
  std::size_t steps = 0;
  StepInvariants inv(0, 0.0, 0, 0);
  std::optional<Violation> violation;
  cfg.observer = [&](const mac::SimStepView& view) {
    ++steps;
    if (auto v = inv.check(view)) violation = v;
    return steps < 50;  // stop long before the 5 s horizon
  };
  auto make_sim = [&cfg] {
    auto sim = std::make_unique<mac::Simulator>(cfg);
    for (mac::NodeId sta = 1; sta <= 3; ++sta) {
      sim->add_flow(traffic::make_cbr_flow(sta, 800, 2e-3));
    }
    return sim;
  };
  const mac::SimResult stopped = make_sim()->run();
  EXPECT_EQ(steps, 50u);
  EXPECT_FALSE(violation.has_value()) << violation->detail;

  cfg.observer = nullptr;
  const mac::SimResult full = make_sim()->run();
  // Stopping after 50 TXOPs delivered a fraction of the full run.
  EXPECT_LT(stopped.dl_frames_delivered, full.dl_frames_delivered / 4);
}

TEST(SimulatorHooks, SnrFunctionShiftsGoodput) {
  auto run_with_snr = [](double snr_db) {
    mac::SimConfig cfg;
    cfg.scheme = mac::Scheme::kCarpool;
    cfg.num_stas = 2;
    cfg.duration = 3.0;
    cfg.seed = 5;
    cfg.sta_snr_fn = [snr_db](mac::NodeId, double) { return snr_db; };
    mac::Simulator sim(cfg);
    sim.add_flow(traffic::make_cbr_flow(1, 1200, 2e-3));
    sim.add_flow(traffic::make_cbr_flow(2, 1200, 2e-3));
    return sim.run().downlink_goodput_bps;
  };
  const double good = run_with_snr(30.0);
  const double poor = run_with_snr(3.0);
  EXPECT_GT(good, 0.0);
  EXPECT_LT(poor, good);
}

// ---------------------------------------------------------- soak runner

Scenario small_clean_scenario() {
  Scenario s;
  s.name = "unit_small";
  s.seed = 31;
  s.duration = 1.0;
  s.num_stas = 3;
  s.probe_interval = 0.25;
  s.traffic.push_back({0.0, TrafficKind::kCbr, 1000, 4e-3});
  s.interference.push_back({0.4, 0.7, 6.0, 0.8, {}});
  s.churn.push_back({0.5, 3, false});
  return s;
}

TEST(SoakRunner, SmallCampaignRunsClean) {
  const SoakRunner runner;
  const SoakReport report = runner.run(small_clean_scenario());
  EXPECT_TRUE(report.ok()) << report.violations.front().detail;
  EXPECT_GT(report.frames_judged, 0u);
  EXPECT_GT(report.steps, 0u);
  EXPECT_GT(report.probes, 0u);
  EXPECT_GE(report.episodes_run, 3u);  // interference + churn split it
  EXPECT_EQ(report.repeats, 1u);
  EXPECT_GT(report.mean_goodput_bps, 0.0);
}

TEST(SoakRunner, CampaignIsDeterministic) {
  const SoakRunner runner;
  const Scenario s = small_clean_scenario();
  const SoakReport a = runner.run(s);
  const SoakReport b = runner.run(s);
  EXPECT_EQ(a.frames_judged, b.frames_judged);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_DOUBLE_EQ(a.mean_goodput_bps, b.mean_goodput_bps);
}

TEST(SoakRunner, FrameBudgetRepeatsTimeline) {
  const SoakReport once = SoakRunner{}.run(small_clean_scenario());
  SoakOptions opts;
  opts.max_frames = once.frames_judged * 3;
  const SoakReport report = SoakRunner(opts).run(small_clean_scenario());
  EXPECT_TRUE(report.ok());
  EXPECT_GE(report.frames_judged, opts.max_frames);
  EXPECT_GE(report.repeats, 3u);
}

// -------------------------------------------------------- repro bundles

Scenario injected_scenario() {
  Scenario s = small_clean_scenario();
  s.name = "unit_injected";
  s.duration = 2.0;
  s.inject = InjectedViolation{700};
  return s;
}

TEST(ReproBundle, InjectedFaultRoundTripsAndReplays) {
  const Scenario s = injected_scenario();
  const SoakReport report = SoakRunner{}.run(s);
  ASSERT_FALSE(report.ok());
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.invariant, "injected");
  EXPECT_EQ(v.frame, 700u);

  // serialize -> parse -> identical coordinates.
  const ReproBundle bundle{s, v};
  const std::string text = bundle_to_json(bundle);
  const BundleParseResult parsed = bundle_from_json(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error.to_string();
  EXPECT_EQ(parsed.bundle->violation.invariant, v.invariant);
  EXPECT_EQ(parsed.bundle->violation.frame, v.frame);
  EXPECT_EQ(parsed.bundle->violation.episode, v.episode);
  EXPECT_EQ(parsed.bundle->violation.repeat, v.repeat);
  EXPECT_EQ(parsed.bundle->scenario.seed, s.seed);
  EXPECT_EQ(scenario_to_json(parsed.bundle->scenario), scenario_to_json(s));

  // re-run from the parsed bundle -> same violation at the same
  // (seed, frame).
  const ReplayResult replay = replay_bundle(*parsed.bundle);
  EXPECT_TRUE(replay.reproduced);
  ASSERT_TRUE(replay.violation.has_value());
  EXPECT_EQ(replay.violation->frame, 700u);
}

TEST(ReproBundle, MalformedBundlesYieldStructuredErrors) {
  // Bad JSON syntax.
  EXPECT_FALSE(bundle_from_json("{not json").ok());
  // Valid JSON, missing violation block.
  EXPECT_FALSE(bundle_from_json(R"({"schema_version": 1})").ok());
  // Valid JSON, embedded scenario fails validation.
  const BundleParseResult r = bundle_from_json(R"({
    "schema_version": 1,
    "violation": {"invariant": "injected", "detail": "", "frame": 5,
                  "time": 0.0, "episode": 0, "repeat": 0},
    "scenario": {"name": "bad", "duration": -1}
  })");
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.error.message.empty());
}

TEST(ReproBundle, OutOfRangeIndicesAreRejectedWithTheirPath) {
  const auto bundle = [](const char* violation) {
    return std::string(R"({"violation": {"invariant": "injected", )") +
           violation + R"(}, "scenario": {"name": "ok", "duration": 1}})";
  };
  ASSERT_TRUE(bundle_from_json(bundle(R"("frame": 5, "episode": 2)")).ok());
  struct Case {
    const char* violation;
    const char* path;
  };
  const Case cases[] = {
      {R"("frame": 5, "episode": -1)", "violation.episode"},
      {R"("frame": 5, "repeat": 1e30)", "violation.repeat"},
      {R"("frame": 1e30)", "violation.frame"},
  };
  for (const Case& c : cases) {
    const BundleParseResult r = bundle_from_json(bundle(c.violation));
    ASSERT_FALSE(r.ok()) << c.violation;
    EXPECT_EQ(r.error.path, c.path) << c.violation;
  }
}

TEST(ReproBundle, ShrinkerReducesTimelineAndStillReproduces) {
  const Scenario s = injected_scenario();
  const SoakReport report = SoakRunner{}.run(s);
  ASSERT_FALSE(report.ok());
  const ReproBundle bundle{s, report.violations.front()};

  const ShrinkResult shrunk = shrink_bundle(bundle);
  EXPECT_GT(shrunk.attempts, 0u);
  EXPECT_GT(shrunk.accepted, 0u);
  EXPECT_LE(shrunk.timeline_ratio, 0.25);
  EXPECT_LT(shrunk.scenario.timeline_seconds(), s.timeline_seconds());
  EXPECT_EQ(shrunk.violation.invariant, "injected");
  EXPECT_EQ(shrunk.violation.frame, 700u);

  // The shrunk bundle must replay bit for bit, including after a JSON
  // round trip.
  const std::string text =
      bundle_to_json({shrunk.scenario, shrunk.violation});
  const BundleParseResult parsed = bundle_from_json(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error.to_string();
  const ReplayResult replay = replay_bundle(*parsed.bundle);
  EXPECT_TRUE(replay.reproduced);
}

// ---------------------------------------------------- recorded SNR traces

TEST(SnrTraceIngest, CsvParsesAndStepHolds) {
  const SnrTraceParseResult r = snr_trace_from_csv(
      "time,sta,snr_db\n"
      "# capture from lab AP\n"
      "0.0,1,20\n"
      "1.0,1,10\n"
      "0.5,2,30\n"
      "\n");
  ASSERT_TRUE(r.ok()) << r.error.to_string();
  const SnrTrace& t = *r.trace;
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.max_sta(), 2u);
  // Step-hold: latest sample at or before the query time.
  EXPECT_DOUBLE_EQ(t.snr_at(1, 0.0, -1.0), 20.0);
  EXPECT_DOUBLE_EQ(t.snr_at(1, 0.99, -1.0), 20.0);
  EXPECT_DOUBLE_EQ(t.snr_at(1, 1.0, -1.0), 10.0);
  EXPECT_DOUBLE_EQ(t.snr_at(1, 50.0, -1.0), 10.0);
  // Before the STA's first sample, or for an unknown STA: fallback.
  EXPECT_DOUBLE_EQ(t.snr_at(2, 0.2, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(t.snr_at(7, 1.0, 25.0), 25.0);
}

TEST(SnrTraceIngest, JsonlParsesAndSniffs) {
  const std::string text =
      "{\"t\": 0.0, \"sta\": 1, \"snr_db\": 18}\n"
      "# comment\n"
      "{\"time\": 2.0, \"sta\": 1, \"snr\": 12}\n";
  const SnrTraceParseResult r = snr_trace_from_jsonl(text);
  ASSERT_TRUE(r.ok()) << r.error.to_string();
  EXPECT_EQ(r.trace->size(), 2u);
  EXPECT_DOUBLE_EQ(r.trace->snr_at(1, 1.0, 0.0), 18.0);
  EXPECT_DOUBLE_EQ(r.trace->snr_at(1, 2.0, 0.0), 12.0);

  // The sniffer keys off the first non-space character.
  const SnrTraceParseResult sniffed = snr_trace_from_text("  " + text);
  ASSERT_TRUE(sniffed.ok());
  EXPECT_EQ(sniffed.trace->size(), 2u);
  EXPECT_TRUE(snr_trace_from_text("time,sta,snr_db\n0,1,5\n").ok());
}

TEST(SnrTraceIngest, RejectsMalformedRowsWithLineNumbers) {
  // STA 0 is the AP: recorded traces address stations only.
  const SnrTraceParseResult sta0 = snr_trace_from_csv("0.0,0,20\n");
  ASSERT_FALSE(sta0.ok());
  EXPECT_EQ(sta0.error.line, 1u);

  EXPECT_FALSE(snr_trace_from_csv("0.0,1\n").ok());         // short row
  EXPECT_FALSE(snr_trace_from_csv("-1.0,1,20\n").ok());     // negative t
  EXPECT_FALSE(snr_trace_from_csv("0.0,1,nan\n").ok());     // non-finite
  EXPECT_FALSE(snr_trace_from_csv("x,1,20\n").ok());        // garbage

  const SnrTraceParseResult late = snr_trace_from_csv(
      "0.0,1,20\n1.0,1,21\nbogus\n");
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error.line, 3u);

  EXPECT_FALSE(snr_trace_from_jsonl("{\"t\": 0.0}\n").ok());
  EXPECT_FALSE(snr_trace_from_jsonl("{not json}\n").ok());
}

TEST(ScenarioSchema, RoundTripsRecordedTraceAndShadowing) {
  Scenario s;
  s.name = "measured";
  s.duration = 3.0;
  s.num_stas = 2;
  s.snr_trace = SnrTrace{{{0.0, 1, 22.0}, {1.5, 2, 17.0}}};
  s.shadowing = ShadowingSpec{3.0, 4.0, 0.5, 0.2};

  const ScenarioParseResult round = scenario_from_json(scenario_to_json(s));
  ASSERT_TRUE(round.ok()) << round.error.to_string();
  EXPECT_EQ(round.scenario->snr_trace.size(), 2u);
  EXPECT_DOUBLE_EQ(round.scenario->snr_trace.snr_at(2, 2.0, 0.0), 17.0);
  ASSERT_TRUE(round.scenario->shadowing.has_value());
  EXPECT_DOUBLE_EQ(round.scenario->shadowing->sigma_db, 3.0);
  EXPECT_DOUBLE_EQ(round.scenario->shadowing->decorr_distance, 4.0);
  EXPECT_DOUBLE_EQ(round.scenario->shadowing->decorr_time, 0.5);
  EXPECT_DOUBLE_EQ(round.scenario->shadowing->sample_interval, 0.2);
  // Serialization is canonical: a second round trip is a fixpoint.
  EXPECT_EQ(scenario_to_json(*round.scenario), scenario_to_json(s));
}

// --------------------------------------------------------- margin tracker

TEST(Margins, TrackerKeepsPerInvariantMinima) {
  MarginTracker m;
  EXPECT_DOUBLE_EQ(m.overall(), 1.0);
  m.observe("a", 0.8);
  m.observe("a", 0.3);
  m.observe("a", 0.5);
  m.observe("b", -0.2);
  ASSERT_EQ(m.minima().size(), 2u);
  EXPECT_DOUBLE_EQ(m.minima().at("a"), 0.3);
  EXPECT_DOUBLE_EQ(m.minima().at("b"), -0.2);
  EXPECT_DOUBLE_EQ(m.overall(), -0.2);
}

TEST(Margins, MergeIsCommutativePointwiseMin) {
  MarginTracker a, b;
  a.observe("x", 0.5);
  a.observe("y", 0.9);
  b.observe("x", 0.2);
  b.observe("z", 0.1);
  MarginTracker ab = a;
  ab.merge_from(b);
  MarginTracker ba = b;
  ba.merge_from(a);
  EXPECT_EQ(ab.minima(), ba.minima());
  EXPECT_DOUBLE_EQ(ab.minima().at("x"), 0.2);
  EXPECT_DOUBLE_EQ(ab.minima().at("y"), 0.9);
  EXPECT_DOUBLE_EQ(ab.minima().at("z"), 0.1);
}

// ------------------------------------------- fairness / energy invariants

mac::SimResult served_result(std::vector<double> goodputs) {
  mac::SimResult res;
  res.duration = 1.0;
  res.dl_frames_delivered = 1000;
  res.per_sta_goodput_bps = std::move(goodputs);  // index 0 = AP
  return res;
}

TEST(FairnessInvariant, BalancedSharesPassWithHeadroom) {
  MarginTracker m;
  const auto v = check_fairness(served_result({0.0, 1e6, 0.9e6, 1.1e6}),
                                FairnessConfig{}, 1, 0.0, 0, 0, &m);
  EXPECT_FALSE(v.has_value());
  ASSERT_EQ(m.minima().count("fairness_floor"), 1u);
  EXPECT_GT(m.minima().at("fairness_floor"), 0.5);
}

TEST(FairnessInvariant, StarvedStationTripsTheFloor) {
  // One STA at ~0.1% of the mean: below the 1% min-share floor.
  MarginTracker m;
  const auto v = check_fairness(served_result({0.0, 1e6, 1e6, 1e3}),
                                FairnessConfig{}, 7, 2.5, 1, 3, &m);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "fairness_floor");
  EXPECT_EQ(v->frame, 7u);
  EXPECT_EQ(v->episode, 1u);
  EXPECT_EQ(v->repeat, 3u);
  EXPECT_LT(m.minima().at("fairness_floor"), 0.0);
}

TEST(FairnessInvariant, SkipsStarvedOrSingleStaEpisodes) {
  MarginTracker m;
  // Too few judged downlink frames: share statistics are meaningless.
  mac::SimResult idle = served_result({0.0, 1e6, 1e3});
  idle.dl_frames_delivered = 10;
  EXPECT_FALSE(
      check_fairness(idle, FairnessConfig{}, 0, 0, 0, 0, &m).has_value());
  // Only one served STA: no distribution to judge.
  EXPECT_FALSE(check_fairness(served_result({0.0, 1e6, 0.0}),
                              FairnessConfig{}, 0, 0, 0, 0, &m)
                   .has_value());
  EXPECT_TRUE(m.minima().empty());  // skipped checks record no margin
}

TEST(EnergyInvariant, ConsistentLedgerPasses) {
  const mac::PowerModel power{};
  mac::SimResult res;
  res.duration = 2.0;
  mac::NodeEnergy ne;
  ne.tx_seconds = 0.5;
  ne.rx_seconds = 0.7;
  ne.idle_seconds = 0.8;
  ne.joules = 0.5 * power.tx_watts + 0.7 * power.rx_watts +
              0.8 * power.idle_watts;
  res.node_energy = {ne};
  MarginTracker m;
  EXPECT_FALSE(check_energy(res, 0, 0, 0, 0, &m).has_value());
  ASSERT_EQ(m.minima().count("energy_consistency"), 1u);
  EXPECT_GT(m.minima().at("energy_consistency"), 0.0);
}

TEST(EnergyInvariant, OveractiveNodeViolates) {
  mac::SimResult res;
  res.duration = 1.0;
  mac::NodeEnergy ne;
  ne.tx_seconds = 0.9;
  ne.rx_seconds = 0.9;  // tx + rx = 1.8 s inside a 1 s episode
  res.node_energy = {ne};
  const auto v = check_energy(res, 3, 1.0, 0, 0, nullptr);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "energy_consistency");
}

TEST(EnergyInvariant, LedgerDriftViolates) {
  const mac::PowerModel power{};
  mac::SimResult res;
  res.duration = 1.0;
  mac::NodeEnergy ne;
  ne.tx_seconds = 0.2;
  ne.rx_seconds = 0.3;
  ne.idle_seconds = 0.5;
  ne.joules = 0.2 * power.tx_watts + 0.3 * power.rx_watts +
              0.5 * power.idle_watts + 0.5;  // half a joule of drift
  res.node_energy = {ne};
  MarginTracker m;
  const auto v = check_energy(res, 0, 0, 0, 0, &m);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "energy_consistency");
  EXPECT_LT(m.minima().at("energy_consistency"), 0.0);
}

TEST(EnergyInvariant, SoakedScenariosCarryEnergyMargins) {
  // End to end: a clean soak records both episode-level margins.
  Scenario s = small_clean_scenario();
  const SoakReport report = SoakRunner{}.run(s);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.margins.minima().count("energy_consistency"), 1u);
  EXPECT_GT(report.margins.minima().at("energy_consistency"), 0.0);
}

// ------------------------------------------------------ multi-BSS soak

Scenario multi_bss_scenario() {
  Scenario s;
  s.name = "multi_bss_soak";
  s.seed = 61;
  s.duration = 1.0;
  s.num_stas = 4;
  s.probe_interval = 0.2;
  sim::TopologySpec topo;
  topo.ap_count = 2;
  topo.roam_interval = 0.1;
  s.topology = topo;
  // STA 1 walks from AP 0's cell into AP 1's, forcing handover episode
  // cuts; the rest of the chaos schedule exercises churn + interference
  // across the two collision domains.
  s.mobility.push_back(
      {1, {{0.0, {1.0, 1.0}}, {1.0, {21.0, 1.0}}}});
  s.traffic.push_back({0.0, TrafficKind::kCbr, 1000, 4e-3});
  s.interference.push_back({0.4, 0.7, 6.0, 0.8, {}});
  s.churn.push_back({0.5, 3, false});
  return s;
}

/// Run a campaign under a private metric scope; returns the report and
/// fills `fingerprint` with the scope's digest.
SoakReport run_soak_scoped(const Scenario& s, const SoakOptions& opts,
                           std::uint64_t& fingerprint) {
  obs::Registry scope;
  const obs::Registry::ScopedCurrent current(scope);
  const SoakReport report = SoakRunner(opts).run(s);
  fingerprint = scope.fingerprint();
  return report;
}

TEST(MultiBssSoak, TopologyScenarioRunsViolationFree) {
  SoakOptions opts;
  std::uint64_t fp = 0;
  const SoakReport report =
      run_soak_scoped(multi_bss_scenario(), opts, fp);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front().detail);
  EXPECT_GT(report.frames_judged, 0u);
  EXPECT_GT(report.probes, 0u);
  // Handover instants add episode cuts beyond the 4 churn/traffic/
  // interference boundaries of the schedule.
  EXPECT_GT(report.episodes_run, 4u);
}

TEST(MultiBssSoak, CampaignIsDeterministic) {
  SoakOptions opts;
  std::uint64_t fp_a = 0;
  std::uint64_t fp_b = 0;
  const SoakReport a = run_soak_scoped(multi_bss_scenario(), opts, fp_a);
  const SoakReport b = run_soak_scoped(multi_bss_scenario(), opts, fp_b);
  EXPECT_EQ(fp_a, fp_b);
  EXPECT_EQ(a.frames_judged, b.frames_judged);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_DOUBLE_EQ(a.mean_goodput_bps, b.mean_goodput_bps);
}

TEST(MultiBssSoak, BitIdenticalAcrossThreadCounts) {
  // Budget campaign spanning several timeline repeats: the parallel
  // repeat stream must reproduce the serial multi-domain campaign bit for
  // bit — report and metric fingerprint — at 1/2/4/8 threads.
  SoakOptions serial_opts;
  serial_opts.threads = 1;
  std::uint64_t probe_fp = 0;
  const SoakReport once =
      run_soak_scoped(multi_bss_scenario(), serial_opts, probe_fp);
  ASSERT_TRUE(once.ok());
  serial_opts.max_frames = once.frames_judged * 4;

  std::uint64_t serial_fp = 0;
  const SoakReport serial =
      run_soak_scoped(multi_bss_scenario(), serial_opts, serial_fp);
  ASSERT_TRUE(serial.ok());
  ASSERT_GE(serial.repeats, 3u);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    SoakOptions opts = serial_opts;
    opts.threads = threads;
    std::uint64_t fp = 0;
    const SoakReport parallel =
        run_soak_scoped(multi_bss_scenario(), opts, fp);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(fp, serial_fp) << label;
    EXPECT_EQ(parallel.frames_judged, serial.frames_judged) << label;
    EXPECT_EQ(parallel.steps, serial.steps) << label;
    EXPECT_EQ(parallel.probes, serial.probes) << label;
    EXPECT_EQ(parallel.episodes_run, serial.episodes_run) << label;
    EXPECT_EQ(parallel.repeats, serial.repeats) << label;
    EXPECT_DOUBLE_EQ(parallel.mean_goodput_bps, serial.mean_goodput_bps)
        << label;
    ASSERT_EQ(parallel.episode_summaries.size(),
              serial.episode_summaries.size())
        << label;
    for (std::size_t i = 0; i < serial.episode_summaries.size(); ++i) {
      EXPECT_DOUBLE_EQ(parallel.episode_summaries[i].goodput_bps,
                       serial.episode_summaries[i].goodput_bps)
          << label << " episode=" << i;
      EXPECT_EQ(parallel.episode_summaries[i].frames_judged,
                serial.episode_summaries[i].frames_judged)
          << label << " episode=" << i;
    }
  }
}

TEST(MultiBssSoak, NonTopologyScenarioUnchangedByTopologyField) {
  // No-regression guard for the soak domain loop: the classic scenario
  // (no topology section: one collision domain, testbed SNR map, every
  // STA in the simulator) and its 2-AP and 1-AP topology variants run
  // with every SNR overlay — a walker, correlated shadowing, a recorded
  // trace for two STAs, and an interference episode limited to two STAs
  // — and must reproduce their pinned metrics fingerprint, judgement
  // count, and probe count exactly. A 1-AP topology is also a single
  // domain, but it seeds through the domain seed, places its AP at the
  // origin, and drops churned-out STAs, so its outputs differ from the
  // classic run's.
  Scenario base = multi_bss_scenario();
  base.shadowing = ShadowingSpec{3.0, 4.0, 0.5, 0.1};
  base.snr_trace = SnrTrace{{{0.0, 2, 30.0}, {0.3, 2, 14.0},
                             {0.2, 4, 19.0}, {0.8, 4, 27.0}}};
  base.interference.push_back({0.1, 0.35, 9.0, 0.6, {2, 4}});

  struct Case {
    const char* label;
    std::optional<std::size_t> ap_count;  ///< nullopt = no topology
    std::uint64_t fingerprint;
    std::uint64_t frames_judged;
    std::uint64_t probes;
  };
  const Case cases[] = {
      {"classic", std::nullopt, 0xcbfd28cb5d6cb075ULL, 2972, 4},
      {"2-AP", 2, 0x7cc88b48307aa890ULL, 2323, 3},
      {"1-AP", 1, 0xb26827edf717bd53ULL, 3092, 4},
  };
  for (const Case& c : cases) {
    Scenario s = base;
    if (c.ap_count.has_value()) {
      s.topology->ap_count = *c.ap_count;
    } else {
      s.topology.reset();
    }
    std::uint64_t fp = 0;
    const SoakReport report = run_soak_scoped(s, SoakOptions{}, fp);
    EXPECT_TRUE(report.ok()) << c.label;
    EXPECT_EQ(fp, c.fingerprint) << c.label;
    EXPECT_EQ(report.frames_judged, c.frames_judged) << c.label;
    EXPECT_EQ(report.probes, c.probes) << c.label;
  }
}

}  // namespace
}  // namespace carpool::chaos
