// carpool::chaos — campaign checkpoint/resume contract
// (docs/FAULT_TOLERANCE.md): the checkpoint JSON round-trips bit-exactly,
// digests pin the campaign identity, writes are atomic, and a resumed
// campaign reproduces the uninterrupted run's report and metrics
// fingerprint at any thread count.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/checkpoint.hpp"
#include "chaos/runner.hpp"
#include "chaos/scenario.hpp"
#include "common/json.hpp"
#include "obs/registry.hpp"

namespace carpool {
namespace {

using chaos::CampaignCheckpoint;
using chaos::CheckpointParseResult;
using chaos::Scenario;
using chaos::SoakOptions;
using chaos::SoakReport;
using chaos::SoakRunner;
using chaos::TrafficKind;

std::filesystem::path fresh_dir(const std::string& leaf) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Scenario ckpt_scenario() {
  Scenario s;
  s.name = "ckpt_budget";
  s.seed = 91;
  s.duration = 1.0;
  s.num_stas = 3;
  s.probe_interval = 0.25;
  s.traffic.push_back({0.0, TrafficKind::kCbr, 1000, 4e-3});
  s.interference.push_back({0.4, 0.7, 6.0, 0.8, {}});
  s.churn.push_back({0.5, 3, false});
  return s;
}

/// Run a campaign under a private metric scope; returns the report and
/// fills `fingerprint` with the scope's digest.
SoakReport run_scoped(const Scenario& s, const SoakOptions& opts,
                      std::uint64_t& fingerprint) {
  obs::Registry scope;
  const obs::Registry::ScopedCurrent current(scope);
  const SoakReport report = SoakRunner(opts).run(s);
  fingerprint = scope.fingerprint();
  return report;
}

CampaignCheckpoint sample_checkpoint() {
  CampaignCheckpoint ck;
  ck.scenario_name = "sample";
  ck.scenario_digest = 0xdeadbeefcafef00dULL;
  ck.options_digest = 0x0123456789abcdefULL;
  ck.repeats_done = 7;
  ck.frames_judged = 123456;
  ck.steps = 7890;
  ck.probes = 42;
  ck.episodes_run = 21;
  ck.sim_seconds = 13.25;
  ck.episodes.push_back({2, 1, 0.5, 1.0, 0.75, 1.25e7, 4242});
  ck.margins.emplace_back("fairness_floor", 0.125);
  ck.margins.emplace_back("sane_metrics", 0.052734375);

  obs::Registry reg;
  reg.counter("mac.frames").add(100);
  reg.counter("zero.registered");  // value 0 — key-set parity must survive
  reg.set_gauge("sim.bss", 4.0);
  obs::Histogram& h = reg.histogram("lat", {1.0, 2.0}, "ms");
  h.record(0.5);
  h.record(1.5);
  h.record(10.0);
  ck.registry = *json_parse(reg.to_json()).value;
  ck.span_watermark = 9001;
  return ck;
}

// -------------------------------------------------------------- encoding

TEST(Checkpoint, JsonRoundTripsEveryField) {
  const CampaignCheckpoint ck = sample_checkpoint();
  const CheckpointParseResult parsed =
      chaos::checkpoint_from_json(chaos::checkpoint_to_json(ck));
  ASSERT_TRUE(parsed.ok()) << parsed.error.to_string();
  const CampaignCheckpoint& got = *parsed.checkpoint;

  EXPECT_EQ(got.scenario_name, ck.scenario_name);
  EXPECT_EQ(got.scenario_digest, ck.scenario_digest);
  EXPECT_EQ(got.options_digest, ck.options_digest);
  EXPECT_EQ(got.repeats_done, ck.repeats_done);
  EXPECT_EQ(got.frames_judged, ck.frames_judged);
  EXPECT_EQ(got.steps, ck.steps);
  EXPECT_EQ(got.probes, ck.probes);
  EXPECT_EQ(got.episodes_run, ck.episodes_run);
  EXPECT_DOUBLE_EQ(got.sim_seconds, ck.sim_seconds);

  ASSERT_EQ(got.episodes.size(), 1u);
  EXPECT_EQ(got.episodes[0].index, 2u);
  EXPECT_EQ(got.episodes[0].repeat, 1u);
  EXPECT_DOUBLE_EQ(got.episodes[0].goodput_bps, 1.25e7);
  EXPECT_EQ(got.episodes[0].frames_judged, 4242u);

  ASSERT_EQ(got.margins.size(), 2u);
  EXPECT_EQ(got.margins[0].first, "fairness_floor");
  EXPECT_DOUBLE_EQ(got.margins[0].second, 0.125);
  EXPECT_DOUBLE_EQ(got.margins[1].second, 0.052734375);
  EXPECT_EQ(got.span_watermark, 9001u);

  // The restored registry export reproduces the original fingerprint
  // and the zero-valued counter registration (export key-set parity).
  obs::Registry restored;
  obs::Registry reference;
  std::string error;
  ASSERT_TRUE(restored.restore(got.registry, error)) << error;
  ASSERT_TRUE(reference.restore(ck.registry, error)) << error;
  EXPECT_EQ(restored.fingerprint(), reference.fingerprint());
  EXPECT_EQ(restored.to_json(), reference.to_json());
  EXPECT_NE(restored.to_json().find("zero.registered"), std::string::npos);
}

TEST(Checkpoint, ParserRejectsMalformedDocuments) {
  EXPECT_FALSE(chaos::checkpoint_from_json("not json").ok());
  EXPECT_FALSE(chaos::checkpoint_from_json("{}").ok());
  // Tamper one histogram's buckets to the wrong arity.
  std::string text = chaos::checkpoint_to_json(sample_checkpoint());
  const std::string needle = "\"buckets\": [";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.insert(at + needle.size(), "77, ");
  EXPECT_FALSE(chaos::checkpoint_from_json(text).ok());
}

TEST(Checkpoint, ParserRejectsNonIntegralAndOutOfRangeNumbers) {
  // A corrupted or hand-edited checkpoint must become a shape error,
  // never an undefined double->uint64 cast (1e300 overflows, 1.5 is not
  // a count, -1 is negative). Exercised on a count field and a counter.
  const std::string text = chaos::checkpoint_to_json(sample_checkpoint());
  const auto with = [&](const std::string& needle,
                        const std::string& replacement) {
    std::string t = text;
    const std::size_t at = t.find(needle);
    EXPECT_NE(at, std::string::npos) << needle;
    if (at != std::string::npos) t.replace(at, needle.size(), replacement);
    return t;
  };
  EXPECT_FALSE(chaos::checkpoint_from_json(
                   with("\"frames_judged\": 123456",
                        "\"frames_judged\": 1e300"))
                   .ok());
  EXPECT_FALSE(chaos::checkpoint_from_json(
                   with("\"frames_judged\": 123456",
                        "\"frames_judged\": 1.5"))
                   .ok());
  EXPECT_FALSE(chaos::checkpoint_from_json(
                   with("\"frames_judged\": 123456",
                        "\"frames_judged\": -1"))
                   .ok());
  EXPECT_FALSE(chaos::checkpoint_from_json(
                   with("\"mac.frames\": 100", "\"mac.frames\": 1e300"))
                   .ok());
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Checkpoint, CorruptRegistryIsRejected) {
  // A registry section that Registry::restore refuses must fail the
  // parse or the resume with an error (soak: exit 2, "cannot resume")
  // and leave the ambient registry as it was, never abort on a throw
  // from the Histogram constructor.
  const std::filesystem::path dir = fresh_dir("ckpt_corrupt_registry");
  SoakOptions opts;
  opts.threads = 1;
  std::uint64_t fp = 0;
  opts.max_frames = run_scoped(ckpt_scenario(), opts, fp).frames_judged * 2;
  opts.checkpoint_dir = dir.string();
  {
    obs::Registry scope;
    scope.histogram("test.shape", {1.0, 2.0}).record(1.5);
    const obs::Registry::ScopedCurrent current(scope);
    ASSERT_FALSE(SoakRunner(opts).run(ckpt_scenario()).checkpoint_path.empty());
  }
  const std::string path =
      chaos::checkpoint_path(dir.string(), ckpt_scenario().name);
  const std::string good = read_text(path);
  const CheckpointParseResult parsed = chaos::checkpoint_from_json(good);
  ASSERT_TRUE(parsed.ok()) << parsed.error.to_string();

  // Resume into a registry that already holds a metric; a rejected
  // checkpoint must leave it byte-identical.
  opts.resume = true;
  const auto expect_resume_refused = [&](obs::Registry& target) {
    target.counter("test.before").add(4);
    const std::string before = target.to_json();
    const obs::Registry::ScopedCurrent current(target);
    const SoakReport report = SoakRunner(opts).run(ckpt_scenario());
    EXPECT_NE(report.resume_error.find(": registry"), std::string::npos)
        << report.resume_error;
    EXPECT_FALSE(report.resumed);
    EXPECT_EQ(report.frames_judged, 0u);
    EXPECT_EQ(target.to_json(), before);
  };

  // Edit the registry in its single-line export layout, then put it
  // back into the checkpoint.
  obs::Registry holder;
  std::string error;
  ASSERT_TRUE(holder.restore(parsed.checkpoint->registry, error)) << error;
  const std::string exported = holder.to_json();
  struct Case {
    const char* what;
    const char* needle;
    const char* replacement;
  };
  const Case cases[] = {
      {"descending bounds", R"({"le": 2, "count": 1})",
       R"({"le": 0.5, "count": 1})"},
      {"no +Inf bucket", R"(, {"le": "+Inf", "count": 0})", ""},
      {"non-integer bucket count", R"({"le": 2, "count": 1})",
       R"({"le": 2, "count": 1.5})"},
  };
  for (const Case& c : cases) {
    std::string edited = exported;
    const std::size_t at = edited.find(c.needle);
    ASSERT_NE(at, std::string::npos) << c.what;
    edited.replace(at, std::string(c.needle).size(), c.replacement);
    CampaignCheckpoint ck = *parsed.checkpoint;
    ck.registry = *json_parse(edited).value;
    const std::string text = chaos::checkpoint_to_json(ck);
    const CheckpointParseResult bad = chaos::checkpoint_from_json(text);
    ASSERT_FALSE(bad.ok()) << c.what;
    EXPECT_EQ(bad.error.path, "registry") << c.what;
    ASSERT_TRUE(chaos::write_state_file_atomic(path, text));
    obs::Registry target;
    expect_resume_refused(target);
  }

  // A well-formed section whose histogram the ambient registry already
  // holds with other bounds parses, and the resume refuses it.
  ASSERT_TRUE(chaos::write_state_file_atomic(path, good));
  obs::Registry target;
  target.histogram("test.shape", {5.0}).record(1.0);
  expect_resume_refused(target);
}

TEST(Checkpoint, DigestsPinScenarioAndSemanticOptions) {
  const Scenario a = ckpt_scenario();
  Scenario b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(chaos::scenario_digest(a), chaos::scenario_digest(b));

  SoakOptions base;
  base.max_frames = 1000;
  SoakOptions semantic = base;
  semantic.max_frames = 2000;
  EXPECT_NE(chaos::soak_options_digest(base),
            chaos::soak_options_digest(semantic));

  // Scheduling/bookkeeping knobs must NOT change the digest: a campaign
  // is routinely resumed at a different thread count or retry policy.
  SoakOptions scheduling = base;
  scheduling.threads = 8;
  scheduling.max_repeats = 17;
  scheduling.checkpoint_every = 1;
  scheduling.retry.max_attempts = 5;
  scheduling.bundle_dir = "elsewhere";
  EXPECT_EQ(chaos::soak_options_digest(base),
            chaos::soak_options_digest(scheduling));
}

TEST(Checkpoint, PathSanitizesScenarioName) {
  EXPECT_EQ(chaos::checkpoint_path("dir", "dense_campus"),
            "dir/checkpoint_dense_campus.json");
  EXPECT_EQ(chaos::checkpoint_path("dir", "a b/c"),
            "dir/checkpoint_a_b_c.json");
  EXPECT_EQ(chaos::checkpoint_path("dir", ""),
            "dir/checkpoint_scenario.json");
}

TEST(Checkpoint, WriteIsAtomicAndLeavesNoTempFile) {
  const std::filesystem::path dir = fresh_dir("ckpt_atomic");
  const std::string path = (dir / "checkpoint_x.json").string();
  ASSERT_TRUE(chaos::write_checkpoint_file(path, sample_checkpoint()));
  ASSERT_TRUE(std::filesystem::exists(path));
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // no .tmp residue
  const CheckpointParseResult parsed = [&] {
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return chaos::checkpoint_from_json(text);
  }();
  EXPECT_TRUE(parsed.ok()) << parsed.error.to_string();
}

// --------------------------------------------------------------- resume

TEST(Resume, InterruptedCampaignReproducesUninterruptedRun) {
  // Acceptance: checkpoint -> interrupt -> resume lands on the exact
  // report and metrics fingerprint of the uninterrupted campaign, at
  // serial and parallel thread counts.
  SoakOptions probe_opts;
  probe_opts.threads = 1;
  std::uint64_t ignored = 0;
  const SoakReport once = run_scoped(ckpt_scenario(), probe_opts, ignored);
  ASSERT_TRUE(once.ok());
  const std::uint64_t budget = once.frames_judged * 5;

  SoakOptions full;
  full.threads = 1;
  full.max_frames = budget;
  std::uint64_t want_fp = 0;
  const SoakReport want = run_scoped(ckpt_scenario(), full, want_fp);
  ASSERT_TRUE(want.ok());
  ASSERT_GE(want.repeats, 4u);

  for (const std::size_t threads : {1u, 4u}) {
    const std::filesystem::path dir =
        fresh_dir("ckpt_resume_t" + std::to_string(threads));

    // "Interrupted" run: same campaign, but the repeat cap stops it long
    // before the frame budget — exactly the state a SIGKILL mid-campaign
    // leaves behind, since checkpoints flush every repeat.
    SoakOptions interrupted = full;
    interrupted.threads = threads;
    interrupted.max_repeats = 2;
    interrupted.checkpoint_dir = dir.string();
    interrupted.checkpoint_every = 1;
    std::uint64_t partial_fp = 0;
    const SoakReport partial =
        run_scoped(ckpt_scenario(), interrupted, partial_fp);
    ASSERT_TRUE(partial.ok());
    ASSERT_EQ(partial.repeats, 2u);
    ASSERT_LT(partial.frames_judged, budget);
    ASSERT_FALSE(partial.checkpoint_path.empty());

    SoakOptions resumed_opts = full;
    resumed_opts.threads = threads;
    resumed_opts.checkpoint_dir = dir.string();
    resumed_opts.resume = true;
    std::uint64_t resumed_fp = 0;
    const SoakReport resumed =
        run_scoped(ckpt_scenario(), resumed_opts, resumed_fp);
    ASSERT_TRUE(resumed.resume_error.empty()) << resumed.resume_error;
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.frames_judged, want.frames_judged)
        << "threads=" << threads;
    EXPECT_EQ(resumed.steps, want.steps) << "threads=" << threads;
    EXPECT_EQ(resumed.probes, want.probes) << "threads=" << threads;
    EXPECT_EQ(resumed.repeats, want.repeats) << "threads=" << threads;
    EXPECT_EQ(resumed.episodes_run, want.episodes_run)
        << "threads=" << threads;
    EXPECT_DOUBLE_EQ(resumed.mean_goodput_bps, want.mean_goodput_bps)
        << "threads=" << threads;
    EXPECT_EQ(resumed.violations.size(), want.violations.size());
    EXPECT_EQ(resumed_fp, want_fp) << "threads=" << threads;
  }
}

TEST(Resume, CheckpointCadenceIndependentOfThreads) {
  // checkpoint_every counts consumed repeats at any thread count: with a
  // flush after every repeat, a kill loses at most the repeat in flight.
  // Every repeat but the stopping one flushes, plus the final flush.
  SoakOptions opts;
  std::uint64_t ignored = 0;
  opts.max_frames =
      run_scoped(ckpt_scenario(), opts, ignored).frames_judged * 5;
  opts.checkpoint_every = 1;
  std::size_t want_repeats = 0;
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    opts.threads = threads;
    opts.checkpoint_dir =
        fresh_dir("ckpt_cadence_t" + std::to_string(threads)).string();
    obs::Registry scope;
    const obs::Registry::ScopedCurrent current(scope);
    const SoakReport report = SoakRunner(opts).run(ckpt_scenario());
    ASSERT_TRUE(report.ok());
    if (threads == 1) want_repeats = report.repeats;
    EXPECT_EQ(report.repeats, want_repeats) << "threads=" << threads;
    EXPECT_EQ(scope.counter_value("chaos.checkpoint_write"), want_repeats)
        << "threads=" << threads;
  }
  EXPECT_GE(want_repeats, 4u);
}

TEST(Resume, CompletedCampaignResumesToIdenticalState) {
  // Resuming a campaign that already met its budget replays only the
  // finalization — same report, same fingerprint, no extra repeats.
  const std::filesystem::path dir = fresh_dir("ckpt_complete");
  SoakOptions opts;
  opts.threads = 1;
  std::uint64_t probe_fp = 0;
  const SoakReport once = run_scoped(ckpt_scenario(), opts, probe_fp);
  opts.max_frames = once.frames_judged * 3;
  opts.checkpoint_dir = dir.string();
  opts.checkpoint_every = 1;
  std::uint64_t want_fp = 0;
  const SoakReport want = run_scoped(ckpt_scenario(), opts, want_fp);
  ASSERT_TRUE(want.ok());

  opts.resume = true;
  std::uint64_t got_fp = 0;
  const SoakReport got = run_scoped(ckpt_scenario(), opts, got_fp);
  ASSERT_TRUE(got.resume_error.empty()) << got.resume_error;
  EXPECT_TRUE(got.resumed);
  EXPECT_EQ(got.resumed_repeats, want.repeats);  // nothing left to run
  EXPECT_EQ(got.frames_judged, want.frames_judged);
  EXPECT_EQ(got.repeats, want.repeats);
  EXPECT_DOUBLE_EQ(got.mean_goodput_bps, want.mean_goodput_bps);
  EXPECT_EQ(got_fp, want_fp);
}

TEST(Resume, MissingCheckpointStartsFresh) {
  const std::filesystem::path dir = fresh_dir("ckpt_missing");
  SoakOptions opts;
  opts.threads = 1;
  std::uint64_t probe_fp = 0;
  const SoakReport once = run_scoped(ckpt_scenario(), opts, probe_fp);
  opts.max_frames = once.frames_judged * 2;
  opts.checkpoint_dir = dir.string();
  opts.resume = true;  // nothing on disk yet
  std::uint64_t fp = 0;
  const SoakReport report = run_scoped(ckpt_scenario(), opts, fp);
  EXPECT_TRUE(report.resume_error.empty());
  EXPECT_FALSE(report.resumed);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.checkpoint_path.empty());
}

TEST(Resume, MismatchedScenarioIsRejected) {
  const std::filesystem::path dir = fresh_dir("ckpt_mismatch");
  SoakOptions opts;
  opts.threads = 1;
  std::uint64_t fp = 0;
  const SoakReport once = run_scoped(ckpt_scenario(), opts, fp);
  opts.max_frames = once.frames_judged * 2;
  opts.checkpoint_dir = dir.string();
  const SoakReport written = run_scoped(ckpt_scenario(), opts, fp);
  ASSERT_FALSE(written.checkpoint_path.empty());

  // Same scenario *name*, different seed: the digest must catch it.
  Scenario tampered = ckpt_scenario();
  tampered.seed = 92;
  opts.resume = true;
  const SoakReport rejected = run_scoped(tampered, opts, fp);
  EXPECT_FALSE(rejected.resume_error.empty());
  EXPECT_EQ(rejected.frames_judged, 0u);  // campaign did not run
  EXPECT_FALSE(rejected.resumed);
}

TEST(Resume, MismatchedOptionsAreRejected) {
  const std::filesystem::path dir = fresh_dir("ckpt_optmismatch");
  SoakOptions opts;
  opts.threads = 1;
  std::uint64_t fp = 0;
  const SoakReport once = run_scoped(ckpt_scenario(), opts, fp);
  opts.max_frames = once.frames_judged * 2;
  opts.checkpoint_dir = dir.string();
  const SoakReport written = run_scoped(ckpt_scenario(), opts, fp);
  ASSERT_FALSE(written.checkpoint_path.empty());

  // A different frame budget is a different campaign...
  SoakOptions different = opts;
  different.max_frames = opts.max_frames + 1;
  different.resume = true;
  const SoakReport rejected = run_scoped(ckpt_scenario(), different, fp);
  EXPECT_FALSE(rejected.resume_error.empty());

  // ...but a different thread count / retry policy is not.
  SoakOptions rethreaded = opts;
  rethreaded.threads = 4;
  rethreaded.retry.max_attempts = 3;
  rethreaded.resume = true;
  const SoakReport accepted = run_scoped(ckpt_scenario(), rethreaded, fp);
  EXPECT_TRUE(accepted.resume_error.empty()) << accepted.resume_error;
  EXPECT_TRUE(accepted.resumed);
}

}  // namespace
}  // namespace carpool
