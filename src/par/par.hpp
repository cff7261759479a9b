#pragma once

// carpool::par — parallel sweep engine (docs/PARALLELISM.md).
//
// Parameter sweeps, bench rung ladders, and chaos soak repeats are
// embarrassingly parallel: every (seed, repeat, scenario, config-point)
// job is an independent deterministic simulation. This module fans such
// jobs across a fixed-size thread pool and merges their outputs in
// *stable job-index order*, so the aggregate — result vectors, obs
// counters/gauges, float reductions — is bit-for-bit identical at any
// thread count. One attempt loop, run_shard, runs every shard with its
// retries, watchdog and planned faults. run_sharded_resilient fans a
// fixed job count through it, and run_sharded is its ordered-merge
// wrapper; the soak runner streams campaign repeats through it on its
// own ThreadPool, consuming them in repeat order (chaos/runner.cpp).
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
#include <chrono>
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

/// A sharded run's raw output: per-job results plus each shard's private
/// metric registry, both indexed by job. A quarantined shard's registry
/// slot is null.
template <class R>
struct Sharded {
  std::vector<R> results;
  std::vector<std::unique_ptr<obs::Registry>> metrics;
  /// Per-shard span buffers, indexed by job like `metrics`. Populated
  /// only when a SpanCollector was installed at fan-out time (tracing
  /// compiled in AND the driver opted in); empty otherwise, so the
  /// default build never allocates span state.
  std::vector<std::unique_ptr<obs::SpanCollector>> spans;
};

// ---------------------------------------------------------------------------
// Fault tolerance (docs/FAULT_TOLERANCE.md)
// ---------------------------------------------------------------------------

/// What an injected fault does to a (shard, attempt) execution.
enum class FaultKind {
  kNone = 0,
  kThrow,  ///< the job throws std::runtime_error after running
  kStall,  ///< the job sleeps past the watchdog before returning
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
  /// How long a kStall fault sleeps. Tests pair a short stall with an
  /// even shorter RetryPolicy::watchdog_seconds.
  double stall_seconds = 0.25;

  /// Fault scheduled for this (shard, attempt), or kNone.
  [[nodiscard]] FaultKind at(std::size_t shard,
                             std::size_t attempt) const noexcept;

  /// Seeded plan: each of `shards` shards independently gets a
  /// first-attempt fault of `kind` with probability ~`rate` drawn from a
  /// splitmix64 stream over (seed, shard). Deterministic in its inputs.
  [[nodiscard]] static FaultPlan seeded(std::uint64_t seed,
                                        std::size_t shards, double rate,
                                        FaultKind kind = FaultKind::kThrow);
};

/// Retry + watchdog policy for run_shard. Disabled by default
/// (max_attempts == 1, no watchdog): every shard then gets one attempt,
/// which is what run_sharded uses.
struct RetryPolicy {
  std::size_t max_attempts = 1;  ///< total tries per shard (>= 1)
  double backoff_base_ms = 1.0;  ///< first retry delay before jitter
  double backoff_max_ms = 100.0;
  /// Seed for the deterministic backoff jitter stream. Backoff only
  /// shifts wall clock, never results, so this does not participate in
  /// the determinism contract — it exists so retry storms de-correlate
  /// reproducibly.
  std::uint64_t backoff_seed = 0x6261636bULL;
  /// Per-attempt wall-clock budget in seconds; <= 0 disables the
  /// watchdog. An attempt that overruns is abandoned (its worker thread
  /// is detached and its outputs discarded) and counts as a failure.
  double watchdog_seconds = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return max_attempts > 1 || watchdog_seconds > 0.0;
  }

  /// Deterministic backoff before `attempt` (1-based retry number) of
  /// `shard`: base * 2^(attempt-1), jittered to [0.5, 1.5) by a
  /// splitmix64 draw over (backoff_seed, shard, attempt), clamped to
  /// backoff_max_ms.
  [[nodiscard]] double backoff_ms(std::size_t shard,
                                  std::size_t attempt) const noexcept;
};

/// One shard that exhausted its retry budget.
struct QuarantinedShard {
  std::size_t index = 0;
  std::size_t attempts = 0;
  std::string error;  ///< what() of the final failure (or "stall")
};

/// How one shard's attempt loop (run_shard) ended, with the successful
/// attempt's metric registry and span buffer. A failed shard keeps both
/// null; so does `spans` when not collecting.
struct ShardRun {
  std::size_t attempts = 0;
  std::size_t stalls = 0;  ///< attempts abandoned by the watchdog
  bool ok = false;
  std::string error;  ///< what() of the final failure (or "stall", "torn")
  /// The final failure's own exception; null after a stall or a torn
  /// result, which have none.
  std::exception_ptr exception;
  std::unique_ptr<obs::Registry> metrics;
  std::unique_ptr<obs::SpanCollector> spans;

  /// Rethrow this shard's failure: its own exception, or for a stall or
  /// torn result a std::runtime_error naming shard `index`.
  [[noreturn]] void rethrow(std::size_t index) const;
};

/// Outcome summary of a resilient sharded run: which shards were
/// quarantined (their result slots hold default-constructed values and
/// their metric registries are dropped) and how much retrying happened.
struct DegradedReport {
  std::vector<QuarantinedShard> quarantined;
  std::size_t retries = 0;  ///< extra attempts beyond the first, total
  std::size_t stalls = 0;   ///< attempts abandoned by the watchdog

  [[nodiscard]] bool degraded() const noexcept { return !quarantined.empty(); }
  [[nodiscard]] std::string to_string() const;

  /// Account finished shard `index`: add its retries and stalls, and
  /// quarantine it if it failed. The same counts go to the ops counters
  /// par.shard_retry / par.shard_stall / par.shard_quarantine of the
  /// calling thread's ambient registry; the "ops" catalog layer is
  /// excluded from Registry::fingerprint(), so retries never perturb the
  /// determinism canary.
  void record(std::size_t index, const ShardRun& shard);
};

namespace detail {

/// Sleep for a deterministic-in-inputs backoff (wall clock only).
void backoff_sleep(double ms);

/// Run `body` with a wall-clock budget. timeout_seconds <= 0 runs it
/// inline and returns true. Otherwise `body` runs on a fresh thread;
/// if it finishes in time the thread is joined and true is returned,
/// else the thread is detached (the attempt's shared state keeps it
/// memory-safe until it dies) and false is returned.
[[nodiscard]] bool run_attempt_with_watchdog(std::function<void()> body,
                                             double timeout_seconds);

/// Thrown into a job by FaultKind::kThrow.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

}  // namespace detail

/// Run one shard's attempt loop (docs/FAULT_TOLERANCE.md): up to
/// `policy.max_attempts` tries of `(*fn)(info)`, each under an optional
/// wall-clock watchdog, with deterministic seeded backoff between tries
/// and the failures `faults` (nullable) plans for `info.index`. Every
/// attempt runs against *attempt-local* metric and span state (spans only
/// when `collect_spans`) that is committed into `out`, with the job's
/// value into `result`, only on success, so a failed or abandoned attempt
/// leaves zero trace — a successful retry is bit-identical to a first-try
/// success, and a failed shard leaves `result` as it was. Failures of the
/// job and of this machinery alike end in `out` (ok == false), never as
/// an exception.
///
/// The callable is shared so a watchdog-abandoned attempt thread can keep
/// running it safely after this call returns. Anything the callable needs
/// must be captured *by value* (cheap handles or shared_ptr ownership)
/// when a watchdog is armed: an abandoned attempt can outlive not just
/// this call but the caller's entire stack, so by-reference captures of
/// locals are a use-after-scope waiting to happen. (The soak runner's
/// repeat jobs capture a shared_ptr campaign context for exactly this
/// reason.)
template <class R, class Fn>
void run_shard(ShardRun& out, R& result, const ShardInfo& info,
               const std::shared_ptr<Fn>& fn, const RetryPolicy& policy,
               const FaultPlan* faults, bool collect_spans) {
  const std::size_t max_attempts =
      std::max<std::size_t>(1, policy.max_attempts);
  const double stall_seconds = faults != nullptr ? faults->stall_seconds : 0.0;

  // Job exceptions are captured per attempt inside `body`; this outer
  // try/catch additionally contains failures of the retry machinery
  // itself (allocation of attempt state, error-string construction) by
  // failing the shard — a bad_alloc here must not escape into
  // ThreadPool::wait() and abort the very campaign this machinery exists
  // to keep alive.
  try {
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) {
        detail::backoff_sleep(policy.backoff_ms(info.index, attempt));
      }
      out.attempts = attempt + 1;
      const FaultKind fault = faults != nullptr
                                  ? faults->at(info.index, attempt)
                                  : FaultKind::kNone;

      // Attempt-local state owned jointly with the attempt body, so an
      // abandoned attempt finishes (or dies) against live memory.
      struct Attempt {
        std::unique_ptr<obs::Registry> metrics =
            std::make_unique<obs::Registry>();
        std::unique_ptr<obs::SpanCollector> spans;
        R result{};
        std::exception_ptr error;
      };
      auto att = std::make_shared<Attempt>();
      if (collect_spans) {
        att->spans = std::make_unique<obs::SpanCollector>();
      }

      auto body = [att, fn, info, fault, stall_seconds] {
        const obs::Registry::ScopedCurrent scope(*att->metrics);
        std::optional<obs::SpanCollector::ScopedCurrent> span_scope;
        if (att->spans != nullptr) span_scope.emplace(*att->spans);
        try {
          R r = (*fn)(info);
          switch (fault) {
            case FaultKind::kThrow:
              throw detail::InjectedFault("injected fault (shard " +
                                          std::to_string(info.index) + ")");
            case FaultKind::kStall:
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(stall_seconds));
              break;
            case FaultKind::kTorn:
              r = R{};
              break;
            case FaultKind::kNone:
              break;
          }
          att->result = std::move(r);
        } catch (...) {
          att->error = std::current_exception();
        }
      };

      bool finished = true;
      if (policy.watchdog_seconds > 0.0) {
        finished =
            detail::run_attempt_with_watchdog(body, policy.watchdog_seconds);
      } else {
        body();
      }

      if (!finished) {
        ++out.stalls;
        out.error = "stall: watchdog expired after " +
                    std::to_string(policy.watchdog_seconds) + "s";
        out.exception = nullptr;
        continue;
      }
      if (att->error != nullptr) {
        out.exception = att->error;
        try {
          std::rethrow_exception(att->error);
        } catch (const std::exception& e) {
          out.error = e.what();
        } catch (...) {
          out.error = "unknown exception";
        }
        continue;
      }
      if (fault == FaultKind::kTorn) {
        out.error = "torn result (injected)";
        out.exception = nullptr;
        continue;
      }

      // Success: commit this attempt's outputs. Failed attempts above
      // never reach here, so their metric/span state is dropped whole.
      result = std::move(att->result);
      out.metrics = std::move(att->metrics);
      out.spans = std::move(att->spans);
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

/// Run `jobs` independent jobs — `fn(const ShardInfo&) -> R` — across at
/// most `threads` workers, each through run_shard, and return results +
/// shard registries WITHOUT merging, so a caller can merge the shards it
/// keeps in index order. threads <= 1 (or a single job) runs the shards
/// in index order on the calling thread, still each under its own
/// registry. R must be default-constructible and movable.
///
/// Shards that exhaust `policy`'s attempts are quarantined: their result
/// slots keep default-constructed values, their registry slots stay null,
/// and they are listed in `*degraded` (which is always assigned when
/// non-null). When `degraded == nullptr`, the lowest-index quarantined
/// shard's failure is rethrown instead (ShardRun::rethrow), matching a
/// serial loop that died at the first failing job. `faults`, when
/// non-null, injects the planned failures — the test harness for this
/// machinery; fault injection and retry behave identically at any thread
/// count. Every shard is recorded (DegradedReport::record) on the calling
/// thread after the pool drains.
template <class Fn>
[[nodiscard]] auto run_sharded_resilient(std::size_t jobs,
                                         std::size_t threads,
                                         const RetryPolicy& policy,
                                         const FaultPlan* faults, Fn&& fn,
                                         DegradedReport* degraded = nullptr)
    -> Sharded<std::decay_t<std::invoke_result_t<Fn&, const ShardInfo&>>> {
  using R = std::decay_t<std::invoke_result_t<Fn&, const ShardInfo&>>;
  Sharded<R> out;
  out.results.resize(jobs);
  if (degraded != nullptr) *degraded = DegradedReport{};
  if (jobs == 0) return out;

  const bool collect_spans = obs::SpanCollector::current() != nullptr;
  const auto shared_fn =
      std::make_shared<std::decay_t<Fn>>(std::forward<Fn>(fn));
  std::vector<ShardRun> runs(jobs);
  const auto run = [&](std::size_t i) {
    run_shard(runs[i], out.results[i], ShardInfo{i, jobs}, shared_fn, policy,
              faults, collect_spans);
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

  DegradedReport report;
  out.metrics.resize(jobs);
  if (collect_spans) out.spans.resize(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    report.record(i, runs[i]);
    out.metrics[i] = std::move(runs[i].metrics);
    if (collect_spans) out.spans[i] = std::move(runs[i].spans);
  }
  if (report.degraded() && degraded == nullptr) {
    const std::size_t first = report.quarantined.front().index;
    runs[first].rethrow(first);
  }
  if (degraded != nullptr) *degraded = std::move(report);
  return out;
}

/// Deterministic sharded map: one attempt per job (no retry, no
/// watchdog, the lowest-index exception rethrown), then every shard's
/// metrics merged into the ambient registry (Registry::current()) in
/// job-index order. This is the right call for sweeps that consume every
/// job — bench rung ladders, parameter grids. Returns the per-job
/// results.
template <class Fn>
[[nodiscard]] auto run_sharded(std::size_t jobs, std::size_t threads,
                               Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const ShardInfo&>>> {
  auto sharded = run_sharded_resilient(jobs, threads, RetryPolicy{}, nullptr,
                                       std::forward<Fn>(fn));
  obs::Registry& target = obs::Registry::current();
  for (const auto& shard : sharded.metrics) target.merge_from(*shard);
  if (obs::SpanCollector* spans = obs::SpanCollector::current();
      spans != nullptr) {
    // Index-ordered like the metric merge, so the merged span sequence
    // (ids included) is bit-identical to a serial run's.
    for (const auto& shard : sharded.spans) spans->merge_from(*shard);
  }
  return std::move(sharded.results);
}

}  // namespace carpool::par
