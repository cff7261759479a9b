#pragma once

// carpool::chaos — campaign checkpoint/resume (docs/FAULT_TOLERANCE.md).
//
// A CampaignCheckpoint is everything a frame-budget soak campaign has
// accumulated after N completed timeline repeats: the report counters,
// every episode summary, the invariant-margin minima, the ambient
// obs::Registry in its own BENCH_*.json export, and the span-id
// watermark. The runner flushes one atomically (write-to-temp + rename)
// every `checkpoint_every` repeats; `soak --resume` reloads it, restores
// the registry/margins/report state, and continues from repeat N — and
// because repeats derive their seeds purely from (scenario seed,
// repeat), the resumed campaign's final metrics fingerprint is
// bit-identical to an uninterrupted run's, at any thread count.
//
// The file is versioned (`schema_version`) and self-validating: it
// records digests of the scenario and of the semantic soak options, so a
// checkpoint can never silently resume a *different* campaign. Parsing
// never throws; a bad or mismatched file, a registry section included,
// yields a structured error the caller surfaces (and then starts fresh
// or aborts, its choice).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chaos/runner.hpp"
#include "chaos/scenario.hpp"
#include "common/json.hpp"

namespace carpool::chaos {

/// Bump when the checkpoint JSON layout changes; the parser rejects any
/// other version (restart fresh rather than misread). Version 2 carries
/// the registry as its to_json() export.
inline constexpr std::int64_t kCheckpointSchemaVersion = 2;

/// Resumable campaign state after `repeats_done` completed repeats.
struct CampaignCheckpoint {
  std::string scenario_name;
  std::uint64_t scenario_digest = 0;  ///< FNV-1a over scenario_to_json
  std::uint64_t options_digest = 0;   ///< semantic SoakOptions knobs only

  std::size_t repeats_done = 0;  ///< completed, cleanly-consumed repeats
  std::uint64_t frames_judged = 0;
  std::uint64_t steps = 0;
  std::uint64_t probes = 0;
  std::size_t episodes_run = 0;
  double sim_seconds = 0.0;

  std::vector<EpisodeSummary> episodes;
  /// MarginTracker minima, (invariant, min margin) in map order.
  std::vector<std::pair<std::string, double>> margins;
  /// The ambient registry's Registry::to_json() export, which
  /// Registry::restore reads back. Counter values above 2^53 would lose
  /// precision in JSON; campaign counters sit many orders of magnitude
  /// below that.
  JsonValue registry;
  /// SpanCollector::allocated() at checkpoint time, so resumed runs
  /// allocate span ids past the interrupted run's.
  std::uint64_t span_watermark = 0;
};

/// FNV-1a over the scenario's canonical JSON serialization.
[[nodiscard]] std::uint64_t scenario_digest(const Scenario& s);

/// Digest of the *semantic* campaign knobs: max_frames, invariant
/// toggles, fairness floors, rte_norm_bound. Deliberately excludes
/// threads, max_repeats, bundle_dir, and every checkpoint/retry knob —
/// those change scheduling or bookkeeping, never results, and an
/// interrupted campaign is routinely resumed at a different thread
/// count.
[[nodiscard]] std::uint64_t soak_options_digest(const SoakOptions& opts);

[[nodiscard]] std::string checkpoint_to_json(const CampaignCheckpoint& ck);

struct CheckpointParseResult {
  std::optional<CampaignCheckpoint> checkpoint;
  JsonPathError error;  ///< meaningful iff !checkpoint

  [[nodiscard]] bool ok() const noexcept { return checkpoint.has_value(); }
};

/// Parse a checkpoint document. Never throws; structural problems, a
/// schema_version other than kCheckpointSchemaVersion and a registry
/// section that Registry::restore refuses yield a dotted-path error.
/// (Digest *matching* is the caller's job — the parser only decodes.)
[[nodiscard]] CheckpointParseResult checkpoint_from_json(
    std::string_view text);

/// `<dir>/checkpoint_<scenario>.json`, scenario name sanitized to
/// [A-Za-z0-9._-].
[[nodiscard]] std::string checkpoint_path(const std::string& dir,
                                          const std::string& scenario_name);

/// Write `contents` to `path` atomically and durably: temp file in the
/// same directory, flushed and fsync'd, then renamed over `path`, with
/// the directory fsync'd afterwards so the rename itself survives a
/// power loss (without the syncs, a crash can leave the renamed file
/// empty or torn — and a torn state file turns `--resume` into an
/// abort). Creates parent directories as needed. Returns false on any
/// I/O failure and never corrupts an existing file at `path`. Shared by
/// the campaign checkpoint and fuzz-state writers.
[[nodiscard]] bool write_state_file_atomic(const std::string& path,
                                           std::string_view contents);

/// Serialize + write via write_state_file_atomic. Returns false on any
/// I/O failure — a failed flush must never corrupt the previous
/// checkpoint.
[[nodiscard]] bool write_checkpoint_file(const std::string& path,
                                         const CampaignCheckpoint& ck);

/// Assemble a checkpoint from live campaign state: `report` as
/// accumulated so far, the ambient Registry::current() export, and the
/// ambient span collector's watermark (0 when tracing is off).
[[nodiscard]] CampaignCheckpoint make_checkpoint(const Scenario& scenario,
                                                 const SoakOptions& opts,
                                                 const SoakReport& report,
                                                 std::size_t repeats_done);

}  // namespace carpool::chaos
