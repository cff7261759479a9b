// carpool::par — the parallel sweep engine's contract (docs/PARALLELISM.md):
// the thread pool survives exceptions and oversubscription, and sharded
// runs produce bit-identical results and metric fingerprints at any
// thread count, including the real consumer (chaos::SoakRunner).

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/runner.hpp"
#include "chaos/scenario.hpp"
#include "obs/registry.hpp"
#include "par/par.hpp"

namespace carpool {
namespace {

using chaos::Scenario;
using chaos::SoakOptions;
using chaos::SoakReport;
using chaos::SoakRunner;
using chaos::TrafficKind;

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, RunsEverySubmittedJob) {
  par::ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, IsReusableAfterWait) {
  par::ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, WaitRethrowsFirstCapturedException) {
  par::ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error did not wedge the queue: every other job still ran, and the
  // pool keeps working afterwards.
  EXPECT_EQ(ran.load(), 20);
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(ran.load(), 21);
}

TEST(ThreadPool, DestructorDrainsWithoutWait) {
  std::atomic<int> ran{0};
  {
    par::ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    // No wait(): the destructor must drain and join without hanging,
    // even with a throwing job in the mix.
    pool.submit([] { throw std::runtime_error("unobserved"); });
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, DestructorJoinsWithQueueStillPending) {
  // Slow jobs so destruction races a mostly-full queue: the destructor
  // must drain every queued job and join, never deadlock or drop work.
  std::atomic<int> ran{0};
  {
    par::ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ran.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, SecondWaitDoesNotReplayConsumedError) {
  par::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("once"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The rethrow consumed the captured error: a fresh wait() is clean and
  // the pool accepts new work as if nothing happened.
  EXPECT_NO_THROW(pool.wait());
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, OversubscriptionCompletes) {
  // Far more workers than cores and far more jobs than workers.
  par::ThreadPool pool(32);
  EXPECT_EQ(pool.size(), 32u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(ran.load(), 1000);
}

// -------------------------------------------------------- thread resolve

TEST(ResolveThreads, CliValueWins) {
  EXPECT_EQ(par::resolve_threads(3), 3u);
  EXPECT_EQ(par::resolve_threads(0), par::hardware_threads());
}

TEST(ResolveThreads, EnvFallback) {
  ::setenv("CARPOOL_THREADS", "5", 1);
  EXPECT_EQ(par::resolve_threads(), 5u);
  ::setenv("CARPOOL_THREADS", "0", 1);
  EXPECT_EQ(par::resolve_threads(), par::hardware_threads());
  ::setenv("CARPOOL_THREADS", "nonsense", 1);
  EXPECT_EQ(par::resolve_threads(), 1u);
  ::unsetenv("CARPOOL_THREADS");
  EXPECT_EQ(par::resolve_threads(), 1u);
}

TEST(ResolveThreads, RejectsTrailingGarbageAndCountsIt) {
  // "4x" used to strtoll-parse as 4 with the garbage ignored; now any
  // partially-numeric value falls back to serial and is recorded.
  obs::Registry scope;
  {
    const obs::Registry::ScopedCurrent current(scope);
    ::setenv("CARPOOL_THREADS", "4x", 1);
    EXPECT_EQ(par::resolve_threads(), 1u);
    ::setenv("CARPOOL_THREADS", "-2", 1);
    EXPECT_EQ(par::resolve_threads(), 1u);
    // Empty behaves like unset: serial, but not an error worth counting.
    ::setenv("CARPOOL_THREADS", "", 1);
    EXPECT_EQ(par::resolve_threads(), 1u);
    ::unsetenv("CARPOOL_THREADS");
  }
  EXPECT_EQ(scope.counter_value("par.threads_env_invalid"), 2u);
}

// --------------------------------------------------------------- Kahan

TEST(KahanSum, CompensatesSmallAddends) {
  // 1e16 + 1.0 * 1000: naive double accumulation loses every 1.0; Kahan
  // keeps them.
  par::KahanSum k;
  double naive = 1e16;
  k.add(1e16);
  for (int i = 0; i < 1000; ++i) {
    k.add(1.0);
    naive += 1.0;
  }
  EXPECT_EQ(naive, 1e16);  // demonstrates the failure mode
  EXPECT_DOUBLE_EQ(k.value(), 1e16 + 1000.0);
}

// ------------------------------------------------------- registry merge

TEST(RegistryMerge, CountersAddAndZeroRegistrationsCarry) {
  obs::Registry a;
  obs::Registry b;
  a.counter("x").add(2);
  b.counter("x").add(5);
  b.counter("only_in_b");  // registered, never incremented
  a.merge_from(b);
  EXPECT_EQ(a.counter_value("x"), 7u);
  // The zero-valued registration must survive so the export schema (the
  // BENCH_*.json key set) matches a serial run's.
  EXPECT_NE(a.to_json().find("only_in_b"), std::string::npos);
}

TEST(RegistryMerge, GaugesLastMergeWins) {
  obs::Registry a;
  obs::Registry b;
  a.set_gauge("g", 1.0);
  b.set_gauge("g", 2.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 2.0);
}

TEST(RegistryMerge, HistogramBoundsMismatchThrows) {
  obs::Registry a;
  obs::Registry b;
  a.histogram("h", {1.0, 2.0}).record(0.5);
  b.histogram("h", {1.0, 3.0}).record(0.5);
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

TEST(RegistryMerge, HistogramsMergeBucketwise) {
  obs::Registry a;
  obs::Registry b;
  a.histogram("h", {1.0, 2.0}).record(0.5);
  b.histogram("h", {1.0, 2.0}).record(1.5);
  b.histogram("h", {1.0, 2.0}).record(10.0);
  a.merge_from(b);
  obs::Histogram& h = a.histogram("h", {1.0, 2.0});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);  // overflow
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
}

TEST(Fingerprint, CoversCountersAndGaugesNotHistograms) {
  obs::Registry a;
  a.counter("c").add(3);
  a.set_gauge("g", 1.5);
  const std::uint64_t base = a.fingerprint();

  obs::Registry same;
  same.counter("c").add(3);
  same.set_gauge("g", 1.5);
  // Histograms hold wall-clock timings; they must not perturb the digest.
  same.latency_histogram("timer").record(123.0);
  EXPECT_EQ(same.fingerprint(), base);

  obs::Registry different;
  different.counter("c").add(4);
  different.set_gauge("g", 1.5);
  EXPECT_NE(different.fingerprint(), base);
}

TEST(ScopedCurrent, OverridesAndRestores) {
  obs::Registry shard;
  obs::Registry& before = obs::Registry::current();
  {
    const obs::Registry::ScopedCurrent scope(shard);
    EXPECT_EQ(&obs::Registry::current(), &shard);
    obs::Registry::current().counter("scoped").add();
  }
  EXPECT_EQ(&obs::Registry::current(), &before);
  EXPECT_EQ(shard.counter_value("scoped"), 1u);
}

// --------------------------------------------------------- run_sharded

/// A deterministic fake workload: each job derives values purely from its
/// index and records metrics through Registry::current() like the real
/// instrumented hot paths do.
std::vector<std::uint64_t> sharded_workload(std::size_t jobs,
                                            std::size_t threads,
                                            obs::Registry& scope) {
  const obs::Registry::ScopedCurrent current(scope);
  return par::run_sharded(jobs, threads, [](const par::ShardInfo& info) {
    obs::Registry& reg = obs::Registry::current();
    reg.counter("work.jobs").add();
    reg.counter("work.units").add(info.index * 3 + 1);
    reg.set_gauge("work.last_index", static_cast<double>(info.index));
    return static_cast<std::uint64_t>(info.index * info.index);
  });
}

TEST(RunSharded, ResultsInIndexOrderAtAnyThreadCount) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    obs::Registry scope;
    const auto results = sharded_workload(17, threads, scope);
    ASSERT_EQ(results.size(), 17u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], i * i) << "threads=" << threads;
    }
  }
}

TEST(RunSharded, MetricsBitIdenticalAcrossThreadCounts) {
  obs::Registry serial;
  sharded_workload(23, 1, serial);
  const std::uint64_t want = serial.fingerprint();
  ASSERT_EQ(serial.counter_value("work.jobs"), 23u);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    obs::Registry scope;
    sharded_workload(23, threads, scope);
    EXPECT_EQ(scope.fingerprint(), want) << "threads=" << threads;
    // Gauge merge order == job order: the last job's write wins, exactly
    // as in the serial loop.
    EXPECT_DOUBLE_EQ(scope.gauge("work.last_index").value(), 22.0)
        << "threads=" << threads;
  }
}

TEST(RunSharded, LowestIndexExceptionWins) {
  for (const std::size_t threads : {1u, 4u}) {
    try {
      (void)par::run_sharded(8, threads, [](const par::ShardInfo& info) {
        if (info.index >= 2) {
          throw std::runtime_error("job " + std::to_string(info.index));
        }
        return info.index;
      });
      FAIL() << "expected a throw at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 2") << "threads=" << threads;
    }
  }
}

TEST(RunSharded, ZeroJobsIsANoop) {
  const auto results =
      par::run_sharded(0, 4, [](const par::ShardInfo&) { return 1; });
  EXPECT_TRUE(results.empty());
}

// --------------------------------------------- retry + fault injection

/// The resilient workload twin of sharded_workload: pure per-index work
/// plus metrics through the shard-local registry, merged in index order
/// so the ambient fingerprint is comparable with a fault-free run.
std::vector<std::uint64_t> resilient_workload(std::size_t jobs,
                                              std::size_t threads,
                                              const par::RetryPolicy& policy,
                                              const par::FaultPlan* faults,
                                              obs::Registry& scope,
                                              par::DegradedReport* degraded) {
  const obs::Registry::ScopedCurrent current(scope);
  auto out = par::run_sharded_resilient(
      jobs, threads, policy, faults,
      [](const par::ShardInfo& info) {
        obs::Registry& reg = obs::Registry::current();
        reg.counter("work.jobs").add();
        reg.counter("work.units").add(info.index * 3 + 1);
        reg.set_gauge("work.last_index", static_cast<double>(info.index));
        return static_cast<std::uint64_t>(info.index * info.index);
      },
      degraded);
  for (auto& m : out.metrics) {
    if (m) scope.merge_from(*m);
  }
  return std::move(out.results);
}

TEST(Retry, FaultPlanAddressesShardAttemptPairs) {
  par::FaultPlan plan;
  plan.entries.push_back({3, 0, par::FaultKind::kThrow});
  plan.entries.push_back({3, 1, par::FaultKind::kTorn});
  EXPECT_EQ(plan.at(3, 0), par::FaultKind::kThrow);
  EXPECT_EQ(plan.at(3, 1), par::FaultKind::kTorn);
  EXPECT_EQ(plan.at(3, 2), par::FaultKind::kNone);
  EXPECT_EQ(plan.at(0, 0), par::FaultKind::kNone);

  // window() re-bases campaign-repeat addresses onto wave-local shards.
  const par::FaultPlan w = plan.window(2, 4);  // repeats [2, 6)
  EXPECT_EQ(w.at(1, 0), par::FaultKind::kThrow);  // repeat 3 -> shard 1
  EXPECT_EQ(w.at(3, 0), par::FaultKind::kNone);
  const par::FaultPlan outside = plan.window(4, 4);  // repeats [4, 8)
  EXPECT_TRUE(outside.entries.empty());
}

TEST(Retry, SeededFaultPlanIsDeterministic) {
  const par::FaultPlan a = par::FaultPlan::seeded(9, 100, 0.3);
  const par::FaultPlan b = par::FaultPlan::seeded(9, 100, 0.3);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  EXPECT_FALSE(a.entries.empty());
  EXPECT_LT(a.entries.size(), 100u);  // rate, not all-shards
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].shard, b.entries[i].shard);
  }
  EXPECT_TRUE(par::FaultPlan::seeded(9, 100, 0.0).entries.empty());
  EXPECT_EQ(par::FaultPlan::seeded(9, 50, 1.1).entries.size(), 50u);
}

TEST(Retry, BackoffIsDeterministicJitteredAndCapped) {
  par::RetryPolicy p;
  p.backoff_base_ms = 2.0;
  p.backoff_max_ms = 20.0;
  EXPECT_DOUBLE_EQ(p.backoff_ms(4, 0), 0.0);  // first attempt: no delay
  const double once = p.backoff_ms(4, 1);
  EXPECT_GT(once, 0.0);
  EXPECT_DOUBLE_EQ(p.backoff_ms(4, 1), once);  // same (shard, attempt)
  EXPECT_NE(p.backoff_ms(5, 1), once);         // jitter decorrelates shards
  for (std::size_t attempt = 1; attempt < 40; ++attempt) {
    EXPECT_LE(p.backoff_ms(4, attempt), p.backoff_max_ms);
  }
  EXPECT_FALSE(p.enabled());
  p.max_attempts = 2;
  EXPECT_TRUE(p.enabled());
}

TEST(Retry, TransientThrowRetriesBitIdentical) {
  obs::Registry baseline;
  const auto want =
      resilient_workload(9, 1, {}, nullptr, baseline, nullptr);
  const std::uint64_t want_fp = baseline.fingerprint();

  par::FaultPlan plan;
  plan.entries.push_back({1, 0, par::FaultKind::kThrow});
  plan.entries.push_back({4, 0, par::FaultKind::kThrow});
  plan.entries.push_back({6, 0, par::FaultKind::kTorn});
  par::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_ms = 0.1;  // keep the test fast

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    obs::Registry scope;
    par::DegradedReport degraded;
    const auto got =
        resilient_workload(9, threads, policy, &plan, scope, &degraded);
    EXPECT_EQ(got, want) << "threads=" << threads;
    // A successful retry leaves no trace: the metric surface is
    // bit-identical to the fault-free run (retry counters live in the
    // fingerprint-exempt "ops" layer).
    EXPECT_EQ(scope.fingerprint(), want_fp) << "threads=" << threads;
    EXPECT_TRUE(degraded.quarantined.empty()) << "threads=" << threads;
    EXPECT_EQ(degraded.retries, 3u) << "threads=" << threads;
    EXPECT_FALSE(degraded.degraded());
  }
}

TEST(Retry, StallWatchdogRecovers) {
  par::FaultPlan plan;
  plan.stall_seconds = 0.5;
  plan.entries.push_back({0, 0, par::FaultKind::kStall});
  par::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.watchdog_seconds = 0.05;
  policy.backoff_base_ms = 0.1;

  obs::Registry baseline;
  const auto want = resilient_workload(4, 1, {}, nullptr, baseline, nullptr);

  obs::Registry scope;
  par::DegradedReport degraded;
  const auto got =
      resilient_workload(4, 2, policy, &plan, scope, &degraded);
  EXPECT_EQ(got, want);
  EXPECT_EQ(scope.fingerprint(), baseline.fingerprint());
  EXPECT_TRUE(degraded.quarantined.empty());
  EXPECT_GE(degraded.stalls, 1u);
}

TEST(Retry, ExhaustedShardQuarantinedOthersSurvive) {
  par::FaultPlan plan;
  for (std::size_t attempt = 0; attempt < 3; ++attempt) {
    plan.entries.push_back({3, attempt, par::FaultKind::kThrow});
  }
  par::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_ms = 0.1;

  for (const std::size_t threads : {1u, 4u}) {
    obs::Registry scope;
    par::DegradedReport degraded;
    const auto got =
        resilient_workload(8, threads, policy, &plan, scope, &degraded);
    ASSERT_TRUE(degraded.degraded()) << "threads=" << threads;
    ASSERT_EQ(degraded.quarantined.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(degraded.quarantined[0].index, 3u);
    EXPECT_EQ(degraded.quarantined[0].attempts, 3u);
    EXPECT_NE(degraded.quarantined[0].error.find("injected"),
              std::string::npos);
    // Every other shard's result survived the quarantine.
    ASSERT_EQ(got.size(), 8u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (i == 3) continue;
      EXPECT_EQ(got[i], i * i) << "threads=" << threads;
    }
    EXPECT_NE(degraded.to_string().find("shard 3"), std::string::npos);
  }
}

TEST(Retry, ExhaustedShardThrowsWithoutDegradedSink) {
  par::FaultPlan plan;
  plan.entries.push_back({2, 0, par::FaultKind::kThrow});
  plan.entries.push_back({2, 1, par::FaultKind::kThrow});
  par::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base_ms = 0.1;
  obs::Registry scope;
  const obs::Registry::ScopedCurrent current(scope);
  EXPECT_THROW((void)par::run_sharded_resilient(
                   4, 2, policy, &plan,
                   [](const par::ShardInfo& info) { return info.index; }),
               std::runtime_error);

  // A job's own exception surfaces as itself, not as a wrapper.
  try {
    (void)par::run_sharded_resilient(
        4, 2, policy, nullptr, [](const par::ShardInfo& info) {
          if (info.index >= 2) {
            throw std::logic_error("job " + std::to_string(info.index));
          }
          return info.index;
        });
    FAIL() << "expected a throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "job 2");
  }
}

TEST(Retry, OpsCountersRecordRetriesAndQuarantines) {
  par::FaultPlan plan;
  plan.entries.push_back({0, 0, par::FaultKind::kThrow});
  plan.entries.push_back({1, 0, par::FaultKind::kThrow});
  plan.entries.push_back({1, 1, par::FaultKind::kThrow});
  par::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base_ms = 0.1;
  obs::Registry scope;
  par::DegradedReport degraded;
  (void)resilient_workload(3, 2, policy, &plan, scope, &degraded);
  EXPECT_EQ(scope.counter_value("par.shard_retry"), 2u);
  EXPECT_EQ(scope.counter_value("par.shard_quarantine"), 1u);
}

// ------------------------------------------------- SoakRunner parallel

Scenario budget_scenario() {
  Scenario s;
  s.name = "par_budget";
  s.seed = 47;
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

void expect_reports_identical(const SoakReport& a, const SoakReport& b,
                              const std::string& label) {
  EXPECT_EQ(a.frames_judged, b.frames_judged) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.probes, b.probes) << label;
  EXPECT_EQ(a.episodes_run, b.episodes_run) << label;
  EXPECT_EQ(a.repeats, b.repeats) << label;
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds) << label;
  EXPECT_DOUBLE_EQ(a.mean_goodput_bps, b.mean_goodput_bps) << label;
  ASSERT_EQ(a.violations.size(), b.violations.size()) << label;
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].invariant, b.violations[i].invariant) << label;
    EXPECT_EQ(a.violations[i].frame, b.violations[i].frame) << label;
    EXPECT_EQ(a.violations[i].episode, b.violations[i].episode) << label;
    EXPECT_EQ(a.violations[i].repeat, b.violations[i].repeat) << label;
    EXPECT_DOUBLE_EQ(a.violations[i].time, b.violations[i].time) << label;
  }
  ASSERT_EQ(a.episode_summaries.size(), b.episode_summaries.size()) << label;
  for (std::size_t i = 0; i < a.episode_summaries.size(); ++i) {
    EXPECT_EQ(a.episode_summaries[i].index, b.episode_summaries[i].index)
        << label;
    EXPECT_EQ(a.episode_summaries[i].repeat, b.episode_summaries[i].repeat)
        << label;
    EXPECT_DOUBLE_EQ(a.episode_summaries[i].goodput_bps,
                     b.episode_summaries[i].goodput_bps)
        << label;
    EXPECT_EQ(a.episode_summaries[i].frames_judged,
              b.episode_summaries[i].frames_judged)
        << label;
  }
}

TEST(SoakRunnerParallel, BudgetCampaignBitIdenticalAcrossThreadCounts) {
  // Budget sized so the campaign spans several timeline repeats (the
  // parallel path's unit of work).
  SoakOptions serial_opts;
  serial_opts.threads = 1;
  std::uint64_t probe_fp = 0;
  const SoakReport once =
      run_scoped(budget_scenario(), serial_opts, probe_fp);
  ASSERT_TRUE(once.ok());
  serial_opts.max_frames = once.frames_judged * 5;

  std::uint64_t serial_fp = 0;
  const SoakReport serial =
      run_scoped(budget_scenario(), serial_opts, serial_fp);
  ASSERT_TRUE(serial.ok());
  ASSERT_GE(serial.repeats, 3u);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    SoakOptions opts = serial_opts;
    opts.threads = threads;
    std::uint64_t fp = 0;
    const SoakReport parallel = run_scoped(budget_scenario(), opts, fp);
    expect_reports_identical(serial, parallel,
                             "threads=" + std::to_string(threads));
    EXPECT_EQ(fp, serial_fp) << "threads=" << threads;
  }
}

TEST(SoakRunnerParallel, InjectedFaultIdenticalAcrossThreadCounts) {
  // The injected violation lands on a later repeat: the parallel path
  // must re-run that repeat serially and report the exact coordinates.
  SoakOptions probe_opts;
  probe_opts.threads = 1;
  std::uint64_t ignored = 0;
  const SoakReport once =
      run_scoped(budget_scenario(), probe_opts, ignored);

  Scenario s = budget_scenario();
  s.inject = chaos::InjectedViolation{once.frames_judged * 2 + 7};

  SoakOptions serial_opts;
  serial_opts.threads = 1;
  serial_opts.max_frames = once.frames_judged * 6;
  std::uint64_t serial_fp = 0;
  const SoakReport serial = run_scoped(s, serial_opts, serial_fp);
  ASSERT_FALSE(serial.ok());
  ASSERT_EQ(serial.violations.front().invariant, "injected");
  ASSERT_GE(serial.violations.front().repeat, 1u);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    SoakOptions opts = serial_opts;
    opts.threads = threads;
    std::uint64_t fp = 0;
    const SoakReport parallel = run_scoped(s, opts, fp);
    expect_reports_identical(serial, parallel,
                             "threads=" + std::to_string(threads));
    EXPECT_EQ(fp, serial_fp) << "threads=" << threads;
  }
}

// --------------------------------------- SoakRunner fault tolerance

TEST(SoakRunnerRetry, TransientFaultsFingerprintIdenticalAcrossThreads) {
  // Acceptance: a campaign with injected transient faults + retries is
  // bit-identical to the fault-free campaign at any thread count.
  SoakOptions probe_opts;
  probe_opts.threads = 1;
  std::uint64_t fault_free_fp = 0;
  const SoakReport once =
      run_scoped(budget_scenario(), probe_opts, fault_free_fp);
  ASSERT_TRUE(once.ok());

  SoakOptions base_opts;
  base_opts.threads = 1;
  base_opts.max_frames = once.frames_judged * 5;
  std::uint64_t want_fp = 0;
  const SoakReport want = run_scoped(budget_scenario(), base_opts, want_fp);
  ASSERT_TRUE(want.ok());
  ASSERT_GE(want.repeats, 3u);

  // Repeats 1 and 2 fail on their first attempt, then recover.
  par::FaultPlan plan;
  plan.entries.push_back({1, 0, par::FaultKind::kThrow});
  plan.entries.push_back({2, 0, par::FaultKind::kTorn});

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SoakOptions opts = base_opts;
    opts.threads = threads;
    opts.retry.max_attempts = 3;
    opts.retry.backoff_base_ms = 0.1;
    opts.fault_plan = plan;
    std::uint64_t fp = 0;
    const SoakReport got = run_scoped(budget_scenario(), opts, fp);
    expect_reports_identical(want, got,
                             "faulty threads=" + std::to_string(threads));
    EXPECT_EQ(fp, want_fp) << "threads=" << threads;
    EXPECT_EQ(got.degraded.retries, 2u) << "threads=" << threads;
    EXPECT_FALSE(got.degraded.degraded()) << "threads=" << threads;
  }
}

TEST(SoakRunnerRetry, ExhaustedRepeatQuarantinedCampaignSurvives) {
  // Acceptance: one repeat exhausting its retries lands in the degraded
  // report with its campaign coordinates; every other repeat survives
  // and the campaign completes instead of aborting.
  SoakOptions probe_opts;
  probe_opts.threads = 1;
  std::uint64_t ignored = 0;
  const SoakReport once =
      run_scoped(budget_scenario(), probe_opts, ignored);

  par::FaultPlan plan;
  plan.entries.push_back({1, 0, par::FaultKind::kThrow});
  plan.entries.push_back({1, 1, par::FaultKind::kThrow});

  for (const std::size_t threads : {1u, 4u}) {
    SoakOptions opts;
    opts.threads = threads;
    opts.max_frames = once.frames_judged * 4;
    opts.retry.max_attempts = 2;
    opts.retry.backoff_base_ms = 0.1;
    opts.fault_plan = plan;
    std::uint64_t fp = 0;
    const SoakReport got = run_scoped(budget_scenario(), opts, fp);
    EXPECT_TRUE(got.ok()) << "threads=" << threads;
    ASSERT_TRUE(got.degraded.degraded()) << "threads=" << threads;
    ASSERT_EQ(got.degraded.quarantined.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(got.degraded.quarantined[0].index, 1u);  // campaign repeat
    EXPECT_EQ(got.degraded.quarantined[0].attempts, 2u);
    // The campaign still hit its frame budget on the surviving repeats.
    EXPECT_GE(got.frames_judged, opts.max_frames) << "threads=" << threads;
    EXPECT_GE(got.repeats, 4u) << "threads=" << threads;
  }
}

TEST(SoakRunnerRetry, SinglePassCampaignRetries) {
  // A single-pass campaign (max_frames == 0) is a wave of one repeat, so
  // it retries a faulted repeat like any other campaign does.
  std::uint64_t want_fp = 0;
  const SoakReport want = run_scoped(budget_scenario(), {}, want_fp);
  ASSERT_EQ(want.repeats, 1u);

  par::FaultPlan plan;
  plan.entries.push_back({0, 0, par::FaultKind::kThrow});
  for (const std::size_t threads : {1u, 4u}) {
    SoakOptions opts;
    opts.threads = threads;
    opts.retry.max_attempts = 2;
    opts.retry.backoff_base_ms = 0.1;
    opts.fault_plan = plan;
    std::uint64_t fp = 0;
    const SoakReport got = run_scoped(budget_scenario(), opts, fp);
    expect_reports_identical(want, got,
                             "single-pass threads=" + std::to_string(threads));
    EXPECT_EQ(fp, want_fp) << "threads=" << threads;
    EXPECT_EQ(got.degraded.retries, 1u) << "threads=" << threads;
    EXPECT_FALSE(got.degraded.degraded()) << "threads=" << threads;
  }
}

TEST(SoakRunnerParallel, SinglePassCampaignIgnoresThreads) {
  // max_frames == 0 runs the timeline once; threads must not change that.
  SoakOptions opts;
  opts.threads = 8;
  std::uint64_t fp_parallel = 0;
  const SoakReport a = run_scoped(budget_scenario(), opts, fp_parallel);
  opts.threads = 1;
  std::uint64_t fp_serial = 0;
  const SoakReport b = run_scoped(budget_scenario(), opts, fp_serial);
  expect_reports_identical(a, b, "single-pass");
  EXPECT_EQ(fp_parallel, fp_serial);
}

}  // namespace
}  // namespace carpool
