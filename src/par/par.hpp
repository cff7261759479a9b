#pragma once

// carpool::par — parallel sweep engine (docs/PARALLELISM.md).
//
// Parameter sweeps, bench rung ladders, and chaos soak repeats are
// embarrassingly parallel: every (seed, repeat, scenario, config-point)
// job is an independent deterministic simulation. This module fans such
// jobs across a fixed-size thread pool and merges their outputs in
// *stable job-index order*, so the aggregate — result vectors, obs
// counters/gauges, float reductions — is bit-for-bit identical at any
// thread count. One attempt loop, run_shard, runs every shard inline on
// its worker, with its retries and planned faults. There are two entry
// points: run_sharded fans a fixed job count through it, one attempt per
// job, and merges in job order; the soak runner streams campaign repeats
// through run_shard on its own ThreadPool, consuming them in repeat order
// (chaos/runner.cpp).
//
// The determinism contract rests on three rules:
//   1. Jobs are pure functions of their index (same seeds, same inputs,
//      no shared mutable state between jobs).
//   2. Every job — at threads=1 too — runs under a shard-local
//      obs::Registry (Registry::ScopedCurrent), so instrumentation from
//      concurrent shards never interleaves; shards merge into the
//      ambient registry in job-index order after the pool drains.
//   3. Float aggregates are reduced in job-index order (use KahanSum for
//      new aggregations; the compensation makes long reductions stable
//      without changing the order-determinism argument).
//
// Wall-clock latency histograms (OBS_SCOPED_TIMER) are inherently
// nondeterministic run to run; they merge bucket-wise but are excluded
// from obs::Registry::fingerprint(), the digest CI compares between
// serial and parallel runs.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace carpool::par {

/// max(1, std::thread::hardware_concurrency()).
[[nodiscard]] std::size_t hardware_threads() noexcept;

/// Resolve a worker count from the conventional `--threads N` /
/// CARPOOL_THREADS knob shared by every sweep consumer:
///   cli_value < 0  — flag absent: use CARPOOL_THREADS if set, else 1
///                    (serial, today's exact code path);
///   cli_value == 0 — "auto": hardware_threads();
///   cli_value > 0  — exactly that many workers.
/// A CARPOOL_THREADS value of 0 likewise means "auto"; garbage is
/// ignored (serial).
[[nodiscard]] std::size_t resolve_threads(long long cli_value = -1) noexcept;

/// Compensated (Kahan) summation: deterministic for a fixed add order and
/// far less sensitive to the order-of-magnitude spread of per-shard
/// aggregates than naive accumulation.
class KahanSum {
 public:
  void add(double v) noexcept {
    const double y = v - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }

  [[nodiscard]] double value() const noexcept { return sum_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Fixed-size worker pool over a FIFO job queue. Jobs must not throw —
/// an exception escaping a job is captured (first one wins) and rethrown
/// from wait(); the pool itself keeps draining so shutdown never hangs.
/// The destructor drains the queue and joins every worker.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> job);

  /// Block until every submitted job has finished, then rethrow the first
  /// captured exception (if any). The pool stays usable afterwards.
  void wait();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

/// Coordinates handed to every sharded job. The job's shard-local
/// registry (and span buffer, when collecting) is already installed as
/// Registry::current() / SpanCollector::current() on its thread.
struct ShardInfo {
  std::size_t index = 0;  ///< job index, the determinism coordinate
  std::size_t total = 0;  ///< job count (a soak stream: its repeat cap)
};

// ---------------------------------------------------------------------------
// Fault tolerance (docs/FAULT_TOLERANCE.md)
// ---------------------------------------------------------------------------

/// What an injected fault does to a (shard, attempt) execution.
enum class FaultKind {
  kNone = 0,
  kThrow,  ///< the job throws std::runtime_error after running
  kTorn,   ///< the job returns a default-constructed ("torn") result
};

/// Deterministic fault-injection plan, mirroring impair::ImpairmentChain:
/// a fixed table of (shard, attempt) -> FaultKind entries consulted by
/// run_shard before each attempt. Because the table is data, not
/// randomness sampled at run time, the same plan produces the same fault
/// schedule at any thread count.
struct FaultPlan {
  struct Entry {
    std::size_t shard = 0;
    std::size_t attempt = 0;  ///< 0-based attempt number the fault hits
    FaultKind kind = FaultKind::kThrow;
  };

  std::vector<Entry> entries;

  /// Fault scheduled for this (shard, attempt), or kNone.
  [[nodiscard]] FaultKind at(std::size_t shard,
                             std::size_t attempt) const noexcept;
};

/// Retry policy for run_shard. Disabled by default (max_attempts == 1):
/// every shard then gets one attempt, which is what run_sharded uses.
struct RetryPolicy {
  /// First retry delay before jitter, and the cap on any delay.
  static constexpr double kBackoffBaseMs = 1.0;
  static constexpr double kBackoffMaxMs = 100.0;
  /// Seed for the deterministic backoff jitter stream. Backoff only
  /// shifts wall clock, never results, so this does not participate in
  /// the determinism contract — it exists so retry storms de-correlate
  /// reproducibly.
  static constexpr std::uint64_t kBackoffSeed = 0x6261636bULL;

  std::size_t max_attempts = 1;  ///< total tries per shard (>= 1)

  [[nodiscard]] bool enabled() const noexcept { return max_attempts > 1; }

  /// Deterministic backoff before `attempt` (1-based retry number) of
  /// `shard`: kBackoffBaseMs * 2^(attempt-1), jittered to [0.5, 1.5) by a
  /// splitmix64 draw over (kBackoffSeed, shard, attempt), clamped to
  /// kBackoffMaxMs.
  [[nodiscard]] static double backoff_ms(std::size_t shard,
                                         std::size_t attempt) noexcept;
};

/// One shard that exhausted its retry budget.
struct QuarantinedShard {
  std::size_t index = 0;
  std::size_t attempts = 0;
  std::string error;  ///< what() of the final failure (or "torn")
};

/// How one shard's attempt loop (run_shard) ended, with the successful
/// attempt's metric registry and span buffer. A failed shard keeps both
/// null; so does `spans` when not collecting.
struct ShardRun {
  std::size_t attempts = 0;
  bool ok = false;
  std::string error;  ///< what() of the final failure (or "torn")
  /// The final failure's own exception; null after a torn result, which
  /// has none.
  std::exception_ptr exception;
  std::unique_ptr<obs::Registry> metrics;
  std::unique_ptr<obs::SpanCollector> spans;

  /// Rethrow this shard's failure: its own exception, or for a torn
  /// result a std::runtime_error naming shard `index`.
  [[noreturn]] void rethrow(std::size_t index) const;
};

/// Outcome summary of a retried run: which shards were quarantined
/// (their results and metric registries are dropped) and how much
/// retrying happened.
struct DegradedReport {
  std::vector<QuarantinedShard> quarantined;
  std::size_t retries = 0;  ///< extra attempts beyond the first, total

  [[nodiscard]] bool degraded() const noexcept { return !quarantined.empty(); }
  [[nodiscard]] std::string to_string() const;

  /// Account finished shard `index`: add its retries, and quarantine it
  /// if it failed. The same counts go to the ops counters
  /// par.shard_retry / par.shard_quarantine of the calling thread's
  /// ambient registry; the "ops" catalog layer is excluded from
  /// Registry::fingerprint(), so retries never perturb the determinism
  /// canary.
  void record(std::size_t index, const ShardRun& shard);
};

namespace detail {

/// Sleep for a deterministic-in-inputs backoff (wall clock only).
void backoff_sleep(double ms);

/// Thrown into a job by FaultKind::kThrow.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

}  // namespace detail

/// Run one shard's attempt loop (docs/FAULT_TOLERANCE.md): up to
/// `policy.max_attempts` tries of `fn(info)`, inline on the calling
/// thread, with deterministic seeded backoff between tries and the
/// failures `faults` (nullable) plans for `info.index`. Every attempt
/// runs against *attempt-local* metric and span state (spans only when
/// `collect_spans`) that is committed into `out`, with the job's value
/// into `result`, only on success, so a failed attempt leaves zero trace
/// — a successful retry is bit-identical to a first-try success, and a
/// failed shard leaves `result` as it was. Failures of the job and of
/// this machinery alike end in `out` (ok == false), never as an
/// exception.
template <class R, class Fn>
void run_shard(ShardRun& out, R& result, const ShardInfo& info, Fn&& fn,
               const RetryPolicy& policy, const FaultPlan* faults,
               bool collect_spans) {
  const std::size_t max_attempts =
      std::max<std::size_t>(1, policy.max_attempts);

  // Job exceptions are caught per attempt; this outer try/catch
  // additionally contains failures of the retry machinery itself
  // (allocation of attempt state, error-string construction) by failing
  // the shard — a bad_alloc here must not escape into ThreadPool::wait()
  // and abort the very campaign this machinery exists to keep alive.
  try {
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) {
        detail::backoff_sleep(RetryPolicy::backoff_ms(info.index, attempt));
      }
      out.attempts = attempt + 1;
      const FaultKind fault = faults != nullptr
                                  ? faults->at(info.index, attempt)
                                  : FaultKind::kNone;

      auto metrics = std::make_unique<obs::Registry>();
      std::unique_ptr<obs::SpanCollector> spans;
      if (collect_spans) spans = std::make_unique<obs::SpanCollector>();
      try {
        const obs::Registry::ScopedCurrent scope(*metrics);
        std::optional<obs::SpanCollector::ScopedCurrent> span_scope;
        if (spans != nullptr) span_scope.emplace(*spans);
        R r = fn(info);
        if (fault == FaultKind::kThrow) {
          throw detail::InjectedFault("injected fault (shard " +
                                      std::to_string(info.index) + ")");
        }
        if (fault == FaultKind::kTorn) {
          out.error = "torn result (injected)";
          out.exception = nullptr;
          continue;
        }
        result = std::move(r);
      } catch (const std::exception& e) {
        out.exception = std::current_exception();
        out.error = e.what();
        continue;
      } catch (...) {
        out.exception = std::current_exception();
        out.error = "unknown exception";
        continue;
      }

      // Success: commit this attempt's outputs. Failed attempts above
      // never reach here, so their metric/span state is dropped whole.
      out.metrics = std::move(metrics);
      out.spans = std::move(spans);
      out.ok = true;
      return;
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.exception = std::current_exception();
    try {
      out.error = e.what();
    } catch (...) {
      out.error.clear();
    }
  } catch (...) {
    out.ok = false;
    out.exception = std::current_exception();
  }
}

/// Deterministic sharded map: run `jobs` independent jobs —
/// `fn(const ShardInfo&) -> R` — across at most `threads` workers, one
/// run_shard attempt each, and return their results in job order. Every
/// shard's metrics (and spans, when a SpanCollector is installed) then
/// merge into the ambient Registry::current() in job-index order, so the
/// merged state is bit-identical at any thread count. threads <= 1 (or a
/// single job) runs the shards in index order on the calling thread,
/// still each under its own registry. If any job throws, nothing is
/// merged and the lowest-index job's own exception is rethrown, as a
/// serial loop would have died at it. This is the right call for sweeps
/// that consume every job — bench rung ladders, parameter grids, BSS
/// domains. R must be default-constructible and movable.
template <class Fn>
[[nodiscard]] auto run_sharded(std::size_t jobs, std::size_t threads,
                               Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const ShardInfo&>>> {
  using R = std::decay_t<std::invoke_result_t<Fn&, const ShardInfo&>>;
  std::vector<R> results(jobs);
  if (jobs == 0) return results;

  obs::SpanCollector* const spans = obs::SpanCollector::current();
  std::vector<ShardRun> runs(jobs);
  const auto run = [&](std::size_t i) {
    run_shard(runs[i], results[i], ShardInfo{i, jobs}, fn, RetryPolicy{},
              nullptr, spans != nullptr);
  };

  const std::size_t workers = std::min(threads == 0 ? 1 : threads, jobs);
  if (workers <= 1) {
    for (std::size_t i = 0; i < jobs; ++i) run(i);
  } else {
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < jobs; ++i) {
      pool.submit([&run, i] { run(i); });
    }
    pool.wait();
  }

  for (std::size_t i = 0; i < jobs; ++i) {
    if (!runs[i].ok) runs[i].rethrow(i);
  }
  obs::Registry& target = obs::Registry::current();
  for (const ShardRun& shard : runs) {
    target.merge_from(*shard.metrics);
    // Index-ordered like the metric merge, so the merged span sequence
    // (ids included) is bit-identical to a serial run's.
    if (spans != nullptr) spans->merge_from(*shard.spans);
  }
  return results;
}

}  // namespace carpool::par
