#pragma once

// carpool::chaos — the soak engine (docs/SOAK.md).
//
// SoakRunner executes a Scenario as a campaign: the timeline is split
// into episodes at churn, traffic-phase, interference, and roaming
// handover boundaries, and each episode runs one mac::DomainSim per
// collision domain, in domain order. A scenario without a topology is
// the one-domain case: a single simulator holding every STA under its
// own id. With a topology each AP is a domain holding the joined STAs
// associated with it. Every simulator's observer evaluates the
// cross-layer invariants (chaos/invariants.hpp) after every resolved
// channel event and fires the domain's real PHY decode probes through a
// trace-gated ImpairmentChain on the scenario's probe schedule. With a
// frame budget the timeline repeats (fresh derived seeds per repeat)
// until the budget is spent — `tools/soak --frames 1000000` style
// campaigns.
//
// Determinism: every RNG stream is derived from (scenario seed, repeat,
// episode) via derive_seed (common/rng.hpp), and the campaign-wide
// reception-judgement count is the frame coordinate. A Violation
// therefore pins an exact (scenario, seed, frame) triple; the emitted
// ReproBundle replays it bit for bit, and the shrinker
// (chaos/shrink.hpp) delta-debugs the timeline while preserving that
// reproduction.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/invariants.hpp"
#include "chaos/scenario.hpp"
#include "par/par.hpp"

namespace carpool::chaos {

struct SoakOptions {
  /// Campaign frame budget in reception judgements. 0 = run the timeline
  /// exactly once; otherwise the timeline repeats until the budget is
  /// reached (or a violation stops the campaign).
  std::uint64_t max_frames = 0;

  /// Safety cap on timeline repeats when chasing a frame budget.
  std::size_t max_repeats = 100000;

  /// Evaluate the campaign-level goodput_cliff invariant at the end.
  bool check_cliffs = true;

  /// Evaluate the episode-level fairness_floor invariant (per-STA
  /// downlink share collapse) on every completed episode.
  bool check_fairness = true;
  FairnessConfig fairness{};

  /// Evaluate the episode-level energy_consistency invariant (per-node
  /// energy-ledger recomputation) on every completed episode.
  bool check_energy = true;

  /// Ceiling for the rte_bounded probe invariant.
  double rte_norm_bound = 1e3;

  /// When non-empty, the first violation writes a repro bundle JSON into
  /// this directory (created if missing); path lands in
  /// SoakReport::bundle_path.
  std::string bundle_dir;

  /// Worker threads for timeline repeats (docs/PARALLELISM.md); 0 means
  /// "auto" (hardware_concurrency). Repeats stream through one
  /// carpool::par pool of this many workers, in repeat order, with at
  /// most 2N - 1 in flight counting the next one to consume; the calling
  /// thread consumes them strictly in repeat order. A repeat dispatched
  /// once every earlier one has been consumed runs live at its real frame
  /// base, the rest detached; the first stopping detached repeat is re-run
  /// live on the calling thread and everything after it is cancelled
  /// unconsumed. The SoakReport — violations, coordinates, frame counts,
  /// degraded repeats, obs metrics — is bit-for-bit identical at any
  /// worker count. At 1 every repeat runs live, inline on the calling
  /// thread, and a single-pass run (max_frames == 0) is one such repeat
  /// whatever this says. Repro bundles and the shrinker stay strictly
  /// serial-replayable either way.
  std::size_t threads = 1;

  // ----- fault tolerance (docs/FAULT_TOLERANCE.md) -----

  /// Retry/watchdog policy for repeat shards, single-pass runs
  /// included. Default-disabled (max_attempts 1, no watchdog): with no
  /// fault plan either, a throwing repeat kills the campaign with its
  /// own exception. With retries enabled (or a fault plan set), repeats
  /// that throw or stall are retried with attempt-local state (a
  /// successful retry is bit-identical to a first-try success) and
  /// exhausted repeats land in SoakReport::degraded instead of
  /// aborting.
  par::RetryPolicy retry{};

  /// Deterministic fault injection for the retry machinery (tests and
  /// drills). Faults address *campaign repeat numbers*, and only hit
  /// repeats the campaign consumes count. Disengaged = no injection.
  std::optional<par::FaultPlan> fault_plan;

  /// When non-empty, flush a resumable campaign checkpoint
  /// (chaos/checkpoint.hpp) into this directory every
  /// `checkpoint_every` consumed repeats, at any thread count, and once
  /// at the clean end.
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 8;

  /// Resume from `checkpoint_dir`'s checkpoint for this scenario if one
  /// exists and matches (schema, scenario digest, options digest). A
  /// missing checkpoint file starts fresh; a mismatched one aborts the
  /// campaign with SoakReport::resume_error set.
  bool resume = false;
};

struct SoakReport {
  std::uint64_t frames_judged = 0;  ///< campaign-wide judgement count
  std::uint64_t steps = 0;          ///< observer invocations
  std::uint64_t probes = 0;         ///< PHY decode probes executed
  std::size_t episodes_run = 0;
  std::size_t repeats = 0;          ///< timeline passes completed/attempted
  double sim_seconds = 0.0;         ///< simulated time covered
  double mean_goodput_bps = 0.0;    ///< judged-episode mean (DL + UL)

  std::vector<Violation> violations;       ///< empty on a clean campaign
  std::vector<EpisodeSummary> episode_summaries;
  std::string bundle_path;  ///< non-empty when a bundle was written

  /// Minimum observed margin per invariant across the campaign
  /// (invariants.hpp): the proximity-to-violation signal the fuzzer
  /// hill-climbs. Thread-count independent (minima merge commutatively).
  MarginTracker margins;

  // ----- fault tolerance (docs/FAULT_TOLERANCE.md) -----

  /// Quarantined repeats + retry/stall totals. degraded.degraded() means
  /// some repeats were lost after exhausting retries — the campaign
  /// completed on the surviving repeats and this report says which died.
  par::DegradedReport degraded;
  /// True when this campaign restored state from a checkpoint.
  bool resumed = false;
  /// Completed repeats restored from the checkpoint (0 unless resumed).
  std::size_t resumed_repeats = 0;
  /// Last checkpoint file written (empty when checkpointing is off or
  /// nothing flushed).
  std::string checkpoint_path;
  /// Non-empty when --resume found a checkpoint it could not use
  /// (version/digest mismatch or parse failure); the campaign did not
  /// run.
  std::string resume_error;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }

  /// Smallest margin across every evaluated invariant (1.0 when none).
  [[nodiscard]] double min_margin() const noexcept {
    return margins.overall();
  }
};

class SoakRunner {
 public:
  explicit SoakRunner(SoakOptions opts = {}) : opts_(std::move(opts)) {}

  /// Execute one campaign. Stops at the first violation.
  [[nodiscard]] SoakReport run(const Scenario& scenario) const;

  [[nodiscard]] const SoakOptions& options() const noexcept {
    return opts_;
  }

 private:
  SoakOptions opts_;
};

// -------------------------------------------------------- repro bundles

/// Everything needed to replay a violation bit for bit: the scenario
/// (seed included) and the violation's coordinates.
struct ReproBundle {
  Scenario scenario;
  Violation violation;
};

[[nodiscard]] std::string bundle_to_json(const ReproBundle& bundle);

struct BundleParseResult {
  std::optional<ReproBundle> bundle;
  JsonPathError error;  ///< meaningful iff !bundle

  [[nodiscard]] bool ok() const noexcept { return bundle.has_value(); }
};

/// Parse + validate a bundle. Never throws; malformed input (bad JSON,
/// missing fields, invalid embedded scenario) yields a structured error.
[[nodiscard]] BundleParseResult bundle_from_json(std::string_view text);

struct ReplayResult {
  /// True when the re-run produced the same invariant at the same
  /// campaign frame (and episode/repeat coordinates).
  bool reproduced = false;
  std::optional<Violation> violation;  ///< what the re-run actually hit
};

/// Re-run a bundle's scenario far enough to cross the recorded frame and
/// compare outcomes. Campaign-level checks are skipped: a bundle pins a
/// step/probe/injected violation, not a whole-campaign statistic.
[[nodiscard]] ReplayResult replay_bundle(const ReproBundle& bundle);

/// The runner's seeds come from (scenario seed, repeat, salt) through
/// the library's one seed mixer (common/rng.hpp).
using carpool::derive_seed;

}  // namespace carpool::chaos
