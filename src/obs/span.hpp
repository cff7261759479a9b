#pragma once

// carpool::obs — causal, cross-layer frame-lifecycle spans.
//
// A Span is one timed, named interval in the frame lifecycle with a
// parent link, so a whole TXOP reassembles into a tree:
//
//   mac.txop                       (sim time, per resolved channel event)
//     mac.frame                    (the aggregate PHY frame on air)
//       mac.subframe               (one receiver's slice, ACK outcome)
//     carpool.rx_frame             (a real decode probe, wall time)
//       carpool.rx_subframe        (per-subframe DecodeStatus)
//         fec.viterbi_decode       (leaf: OBS_TIMED_SPAN hot-path site)
//
// Spans are collected into the thread's ambient SpanCollector
// (SpanCollector::current(), installed RAII-style like
// obs::Registry::ScopedCurrent). Instrumentation sites construct a Span
// unconditionally; when no collector is installed — or the binary was
// built with CARPOOL_ENABLE_TRACE=OFF, which makes current() a
// compile-time nullptr — every operation is a no-op the optimizer
// removes, so the default build pays nothing.
//
// Determinism contract (docs/PARALLELISM.md): span ids are allocated
// per-collector starting at 1, the parallel sweep engine gives each
// shard its own collector, and merge_from() remaps ids by offset while
// appending records in job-index order — so the merged record sequence
// is bit-identical to a serial run at any thread count. Wall-clock
// fields (wall_start_ns / wall_ns) are excluded from fingerprint(); the
// sim-time fields, ids, names, and outcomes are all deterministic.
//
// Export: obs::ChromeTraceWriter (chrome_trace.hpp) converts records
// into a Chrome trace-event file that opens directly in Perfetto /
// chrome://tracing.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

// The CMake option CARPOOL_ENABLE_TRACE defines CARPOOL_TRACE_ENABLED=1.
#ifndef CARPOOL_TRACE_ENABLED
#define CARPOOL_TRACE_ENABLED 0
#endif

namespace carpool::obs {

/// True when span call sites are compiled into this binary.
constexpr bool trace_compiled_in() noexcept {
  return CARPOOL_TRACE_ENABLED != 0;
}

/// Frame-lifecycle coordinates a span carries. -1 = not applicable.
struct SpanIds {
  std::int64_t txop = -1;      ///< resolved-channel-event ordinal
  std::int64_t frame = -1;     ///< aggregate PHY frame ordinal
  std::int64_t subframe = -1;  ///< subframe index within the frame
  std::int64_t sta = -1;       ///< receiver STA (0 = AP)
};

/// One completed span. Either a sim-time interval (sim_start >= 0,
/// seconds on the simulated timeline) or a wall-time leaf
/// (wall_start_ns/wall_ns, steady-clock ns relative to the collector's
/// epoch) — never both, so exports and fingerprints know which timeline
/// a record lives on.
struct SpanRecord {
  std::uint64_t id = 0;      ///< unique within a collector, > 0
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  SpanIds ids;
  double sim_start = -1.0;
  double sim_duration = 0.0;
  std::uint64_t wall_start_ns = 0;
  std::uint64_t wall_ns = 0;
  std::string outcome;  ///< "" | "ok" | "collision" | DecodeStatus name...

  [[nodiscard]] bool on_sim_timeline() const noexcept {
    return sim_start >= 0.0;
  }
};

/// Buffer of completed spans plus the open-span stack for one thread.
/// A collector is single-threaded by construction: each parallel shard
/// gets its own (carpool::par installs it alongside the shard registry),
/// and shards merge index-ordered afterwards.
class SpanCollector {
 public:
  /// `max_records` caps the buffer; past it spans are dropped (counted
  /// in dropped() and the `obs.spans_dropped` registry counter) so a
  /// long soak cannot grow memory without bound. 0 = unbounded.
  explicit SpanCollector(std::size_t max_records = kDefaultMaxRecords)
      : max_records_(max_records) {}

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  static constexpr std::size_t kDefaultMaxRecords = 1u << 20;

  /// The collector instrumentation writes to on this thread, or nullptr
  /// when none is installed. With CARPOOL_ENABLE_TRACE=OFF this is a
  /// compile-time nullptr, which is what deletes every span call site
  /// from the default build.
  [[nodiscard]] static SpanCollector* current() noexcept {
#if CARPOOL_TRACE_ENABLED
    return current_impl();
#else
    return nullptr;
#endif
  }

  /// RAII thread-local install, mirroring Registry::ScopedCurrent.
  class ScopedCurrent {
   public:
    explicit ScopedCurrent(SpanCollector& collector) noexcept;
    ~ScopedCurrent();
    ScopedCurrent(const ScopedCurrent&) = delete;
    ScopedCurrent& operator=(const ScopedCurrent&) = delete;

   private:
    SpanCollector* previous_;
  };

  /// Emit a completed span directly (non-RAII call sites that know the
  /// whole interval up front, e.g. per-subframe MAC slices). Returns the
  /// record's id, or 0 if the record was dropped at the cap.
  std::uint64_t emit(SpanRecord record);

  /// Id of the innermost open Span on this collector, 0 when none —
  /// what a new span or emit() call parents itself to.
  [[nodiscard]] std::uint64_t open_span() const noexcept {
    return stack_.empty() ? 0 : stack_.back();
  }

  [[nodiscard]] const std::vector<SpanRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Ids handed out so far (the merge/remap watermark). Campaign
  /// checkpoints persist this so a resumed run allocates ids past the
  /// interrupted run's — keeping merged id sequences identical to an
  /// uninterrupted campaign (docs/FAULT_TOLERANCE.md).
  [[nodiscard]] std::uint64_t allocated() const noexcept {
    return allocated_;
  }
  /// Fast-forward the id watermark to at least `watermark` (checkpoint
  /// resume). Never rewinds — ids stay unique within the collector.
  void restore_allocated(std::uint64_t watermark) noexcept {
    allocated_ = std::max(allocated_, watermark);
  }

  /// Append another collector's records, remapping its ids past this
  /// collector's allocation watermark so parent/child links stay intact
  /// and ids stay unique. Callers merge shards in job-index order; the
  /// result is then bit-identical to a serial run's record sequence.
  void merge_from(const SpanCollector& other);

  /// Order-stable FNV-1a digest over the deterministic span surface:
  /// record order, ids, parents, names, frame-lifecycle coordinates,
  /// sim intervals, and outcomes. Wall-clock fields are excluded — two
  /// runs of a deterministic workload must produce equal fingerprints
  /// at any thread count.
  [[nodiscard]] std::uint64_t fingerprint() const;

  void clear();

 private:
  friend class Span;
  [[nodiscard]] static SpanCollector* current_impl() noexcept;

  std::uint64_t alloc_id() noexcept { return ++allocated_; }
  void push_open(std::uint64_t id) { stack_.push_back(id); }
  void pop_open(std::uint64_t id);

  std::size_t max_records_;
  std::uint64_t allocated_ = 0;  ///< ids handed out so far
  std::uint64_t dropped_ = 0;
  std::vector<SpanRecord> records_;
  std::vector<std::uint64_t> stack_;  ///< open span ids, innermost last
};

/// RAII span: opens against the ambient collector on construction
/// (parenting itself to the innermost open span on this thread) and
/// appends its record on destruction. When no collector is installed —
/// or tracing is compiled out — construction is a no-op.
class Span {
 public:
  explicit Span(std::string_view name) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  /// Place the span on the simulated timeline instead of recording wall
  /// time (seconds; MAC-layer spans use this).
  Span& sim_interval(double start, double duration) noexcept;
  Span& ids(const SpanIds& ids) noexcept;
  Span& outcome(std::string_view outcome);

  /// 0 when inactive (no collector / tracing off).
  [[nodiscard]] std::uint64_t id() const noexcept {
    return collector_ == nullptr ? 0 : record_.id;
  }
  [[nodiscard]] bool active() const noexcept { return collector_ != nullptr; }

 private:
  SpanCollector* collector_;  ///< null = inert span
  SpanRecord record_;
  std::uint64_t start_ns_ = 0;
  bool has_sim_interval_ = false;
};

}  // namespace carpool::obs
