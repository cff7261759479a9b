#pragma once

// carpool::par — parallel sweep engine (docs/PARALLELISM.md).
//
// Parameter sweeps, bench rung ladders, and chaos soak repeats are
// embarrassingly parallel: every (seed, repeat, scenario, config-point)
// job is an independent deterministic simulation. This module fans such
// jobs across a fixed-size thread pool and merges their outputs in
// *stable job-index order*, so the aggregate — result vectors, obs
// counters/gauges, float reductions — is bit-for-bit identical at any
// thread count. One implementation, run_sharded_resilient, does every
// fan-out; run_sharded is its ordered-merge wrapper.
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
  std::size_t total = 0;  ///< job count in this sharded run
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
/// run_sharded_resilient before each attempt. Because the table is data,
/// not randomness sampled at run time, the same plan produces the same
/// fault schedule at any thread count.
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

  /// Re-base this plan onto a window of shards [offset, offset+count):
  /// entries inside the window survive with shard indices shifted to be
  /// window-local; entries outside are dropped. Lets a campaign address
  /// faults by global repeat number while fanning out wave by wave.
  [[nodiscard]] FaultPlan window(std::size_t offset,
                                 std::size_t count) const;
};

/// Retry + watchdog policy for run_sharded_resilient. Disabled by
/// default (max_attempts == 1, no watchdog): every shard then gets one
/// attempt, which is what run_sharded uses.
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

/// Outcome summary of a resilient sharded run: which shards were
/// quarantined (their result slots hold default-constructed values and
/// their metric registries are dropped) and how much retrying happened.
struct DegradedReport {
  std::vector<QuarantinedShard> quarantined;
  std::size_t retries = 0;  ///< extra attempts beyond the first, total
  std::size_t stalls = 0;   ///< attempts abandoned by the watchdog

  [[nodiscard]] bool degraded() const noexcept { return !quarantined.empty(); }
  [[nodiscard]] std::string to_string() const;
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

/// Run `jobs` independent jobs — `fn(const ShardInfo&) -> R` — across at
/// most `threads` workers and return results + shard registries WITHOUT
/// merging. Callers that consume only a prefix of the jobs (e.g. the soak
/// runner discarding over-run repeats past a frame budget) merge the
/// shard registries they actually keep, in index order. threads <= 1 (or
/// a single job) runs the shards in index order on the calling thread,
/// still each under its own registry. R must be default-constructible
/// and movable.
///
/// Fault tolerance (docs/FAULT_TOLERANCE.md): each shard gets up to
/// `policy.max_attempts` tries, each attempt under an optional wall-clock
/// watchdog, with deterministic seeded backoff between tries. Every
/// attempt runs against *attempt-local* metric and span state that is
/// committed into the returned Sharded<R> only on success, so a failed
/// or abandoned attempt leaves zero trace in the merged output — a
/// successful retry is bit-identical to a first-try success. Shards that
/// exhaust the budget are quarantined: their result slots keep
/// default-constructed values, their registry slots stay null, and they
/// are listed in `*degraded` (which is always assigned when non-null).
/// When `degraded == nullptr`, the lowest-index quarantined shard's own
/// exception is rethrown instead (a stall or torn result, which has
/// none, throws std::runtime_error naming the shard), matching a serial
/// loop that died at the first failing job.
///
/// `faults`, when non-null, injects the planned failures — the test
/// harness for this machinery; fault injection and retry behave
/// identically at any thread count.
///
/// Ops counters (par.shard_retry / par.shard_stall /
/// par.shard_quarantine) are recorded on the *calling* thread's ambient
/// registry after the pool drains; the "ops" catalog layer is excluded
/// from Registry::fingerprint(), so retries never perturb the
/// determinism canary.
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

  out.metrics.resize(jobs);
  const bool collect_spans = obs::SpanCollector::current() != nullptr;
  if (collect_spans) out.spans.resize(jobs);

  // The callable is shared so a watchdog-abandoned attempt thread can
  // keep running it safely after this frame returns control to the
  // caller. Anything the callable needs must be captured *by value*
  // (cheap handles or shared_ptr ownership) when a watchdog is armed:
  // an abandoned attempt can outlive not just this frame but the
  // caller's entire stack, so by-reference captures of locals are a
  // use-after-scope waiting to happen. (The soak runner's wave jobs
  // capture a shared_ptr campaign context for exactly this reason.)
  auto shared_fn = std::make_shared<std::decay_t<Fn>>(std::forward<Fn>(fn));

  struct ShardState {
    std::size_t attempts = 0;
    std::size_t stalls = 0;
    bool ok = false;
    std::string error;
    /// The last failure's own exception; null after a stall or a torn
    /// result, which have none.
    std::exception_ptr exception;
  };
  std::vector<ShardState> states(jobs);

  const std::size_t max_attempts = std::max<std::size_t>(1, policy.max_attempts);
  const double stall_seconds = faults != nullptr ? faults->stall_seconds : 0.0;

  // Runs one shard's full attempt loop. Job exceptions are captured per
  // attempt inside `body`; this outer try/catch additionally contains
  // failures of the retry machinery itself (allocation of attempt
  // state, error-string construction) by quarantining the shard — a
  // bad_alloc here must not escape into ThreadPool::wait() and abort
  // the very campaign this machinery exists to keep alive.
  auto run_shard = [&out, &states, &policy, faults, shared_fn, jobs,
                    max_attempts, stall_seconds,
                    collect_spans](std::size_t i) {
    ShardState& st = states[i];
    try {
      for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
          detail::backoff_sleep(policy.backoff_ms(i, attempt));
        }
        st.attempts = attempt + 1;
        const FaultKind fault =
            faults != nullptr ? faults->at(i, attempt) : FaultKind::kNone;

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

        auto body = [att, shared_fn, i, jobs, fault, stall_seconds] {
          const obs::Registry::ScopedCurrent scope(*att->metrics);
          std::optional<obs::SpanCollector::ScopedCurrent> span_scope;
          if (att->spans != nullptr) span_scope.emplace(*att->spans);
          try {
            R r = (*shared_fn)(ShardInfo{i, jobs});
            switch (fault) {
              case FaultKind::kThrow:
                throw detail::InjectedFault("injected fault (shard " +
                                            std::to_string(i) + ")");
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
          finished = detail::run_attempt_with_watchdog(
              body, policy.watchdog_seconds);
        } else {
          body();
        }

        if (!finished) {
          ++st.stalls;
          st.error = "stall: watchdog expired after " +
                     std::to_string(policy.watchdog_seconds) + "s";
          st.exception = nullptr;
          continue;
        }
        if (att->error != nullptr) {
          st.exception = att->error;
          try {
            std::rethrow_exception(att->error);
          } catch (const std::exception& e) {
            st.error = e.what();
          } catch (...) {
            st.error = "unknown exception";
          }
          continue;
        }
        if (fault == FaultKind::kTorn) {
          st.error = "torn result (injected)";
          st.exception = nullptr;
          continue;
        }

        // Success: commit this attempt's outputs. Failed attempts above
        // never reach here, so their metric/span state is dropped whole.
        out.results[i] = std::move(att->result);
        out.metrics[i] = std::move(att->metrics);
        if (collect_spans) out.spans[i] = std::move(att->spans);
        st.ok = true;
        return;
      }
    } catch (const std::exception& e) {
      st.ok = false;
      st.exception = std::current_exception();
      try {
        st.error = e.what();
      } catch (...) {
        st.error.clear();
      }
    } catch (...) {
      st.ok = false;
      st.exception = std::current_exception();
    }
  };

  const std::size_t workers = std::min(threads == 0 ? 1 : threads, jobs);
  if (workers <= 1) {
    for (std::size_t i = 0; i < jobs; ++i) run_shard(i);
  } else {
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < jobs; ++i) {
      pool.submit([&run_shard, i] { run_shard(i); });
    }
    pool.wait();
  }

  DegradedReport report;
  for (std::size_t i = 0; i < jobs; ++i) {
    const ShardState& st = states[i];
    if (st.attempts > 1) report.retries += st.attempts - 1;
    report.stalls += st.stalls;
    if (!st.ok) report.quarantined.push_back({i, st.attempts, st.error});
  }

  // Ops bookkeeping on the calling thread; the "ops" layer is excluded
  // from Registry::fingerprint() so this never perturbs determinism
  // comparisons between faulted and fault-free runs.
  obs::Registry& ambient = obs::Registry::current();
  if (report.retries > 0) {
    ambient.counter("par.shard_retry").add(report.retries);
  }
  if (report.stalls > 0) {
    ambient.counter("par.shard_stall").add(report.stalls);
  }
  if (!report.quarantined.empty()) {
    ambient.counter("par.shard_quarantine").add(report.quarantined.size());
  }

  if (report.degraded() && degraded == nullptr) {
    const QuarantinedShard& first = report.quarantined.front();
    if (states[first.index].exception != nullptr) {
      std::rethrow_exception(states[first.index].exception);
    }
    throw std::runtime_error("shard " + std::to_string(first.index) +
                             " failed after " +
                             std::to_string(first.attempts) +
                             " attempts: " + first.error);
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
