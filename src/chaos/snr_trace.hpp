#pragma once

// carpool::chaos — recorded SNR timelines for measured-channel campaigns
// (docs/SOAK.md, "Recorded channel traces").
//
// A capture log from a real deployment — per-STA SNR samples over time —
// becomes a SnrTrace: a step-hold timeline the soak runner consults
// instead of the synthetic testbed map wherever samples exist. Traces
// ingest from CSV ("time,sta,snr_db" rows) or JSONL (one object per
// line) and embed *inline* in the scenario JSON ("snr_trace": [...]), so
// repro bundles carrying a measured channel stay self-contained and
// replay bit for bit with no sidecar files.
//
// Parsing follows the chaos contract: never throws, malformed input
// yields a structured error with the offending line.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace carpool::chaos {

/// One recorded measurement: STA `sta` observed `snr_db` at `time`
/// seconds into the capture.
struct SnrSample {
  double time = 0.0;
  std::uint32_t sta = 0;
  double snr_db = 0.0;
};

/// An immutable per-STA step-hold SNR timeline. Construction normalizes
/// sample order (stable sort by time), so serialize -> parse round-trips
/// are idempotent and lookup is a binary search.
class SnrTrace {
 public:
  SnrTrace() = default;
  explicit SnrTrace(std::vector<SnrSample> samples);

  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }

  /// Samples in normalized (time-sorted, stable) order.
  [[nodiscard]] const std::vector<SnrSample>& samples() const noexcept {
    return samples_;
  }

  /// Step-hold lookup: the value of STA `sta`'s latest sample at or
  /// before `time`. Before the STA's first sample — or when the STA has
  /// no samples at all — `fallback_db` (the scenario's synthetic SNR) is
  /// returned, so a partial capture degrades gracefully. The soak runner
  /// reads it for the STA it judges a frame for, and for the STA a
  /// decode probe targets.
  [[nodiscard]] double snr_at(std::uint32_t sta, double time,
                              double fallback_db) const;

  /// Largest STA id appearing in the trace (0 when empty).
  [[nodiscard]] std::uint32_t max_sta() const noexcept { return max_sta_; }

 private:
  std::vector<SnrSample> samples_;  ///< sorted by time (stable)
  /// Per-STA (time, snr) series for O(log n) lookup.
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> per_sta_;
  std::uint32_t max_sta_ = 0;
};

/// Structured ingestion failure: `line` is 1-based in the input text.
struct SnrTraceError {
  std::string message;
  std::size_t line = 0;

  [[nodiscard]] std::string to_string() const;
};

struct SnrTraceParseResult {
  std::optional<SnrTrace> trace;
  SnrTraceError error;  ///< meaningful iff !trace

  [[nodiscard]] bool ok() const noexcept { return trace.has_value(); }
};

/// Parse a CSV capture log: `time,sta,snr_db` per row. A header row, `#`
/// comments, and blank lines are skipped. STA ids must be >= 1; times
/// and SNRs finite, times non-negative.
[[nodiscard]] SnrTraceParseResult snr_trace_from_csv(std::string_view text);

/// Parse a JSONL capture log: one object per line with keys `t` (or
/// `time`), `sta`, and `snr_db` (or `snr`). Same field constraints as
/// the CSV reader; blank lines and `#` comments are skipped.
[[nodiscard]] SnrTraceParseResult snr_trace_from_jsonl(
    std::string_view text);

/// Sniff the format (first non-space character `{` selects JSONL) and
/// dispatch to the matching reader.
[[nodiscard]] SnrTraceParseResult snr_trace_from_text(std::string_view text);

}  // namespace carpool::chaos
