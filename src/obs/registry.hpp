#pragma once

// carpool::obs — process-wide metrics registry.
//
// Named counters, gauges, and fixed-bucket histograms, safe for concurrent
// writers. Writers pay one relaxed atomic RMW per update; name lookup is a
// mutex-guarded map access. Handles stay valid for the life of the
// registry: reset_values() zeroes metrics but never removes registrations.
//
// Instrumentation call sites resolve their registry through
// Registry::current(): by default that is the process-wide global(), but
// the parallel sweep engine (carpool::par, docs/PARALLELISM.md) installs a
// shard-local registry per worker job via Registry::ScopedCurrent, so
// metrics from independent (seed, scenario) shards accumulate in isolation
// and are merged into the global registry in deterministic job-index order
// with merge_from(). Because shard registries are private to one thread,
// the per-event name lookup is uncontended.
//
// Metrics are self-describing: find-or-create resolves the name against
// the static catalog in metrics_meta.hpp and remembers the unit / layer /
// description, which exporters surface as `schema_version: 2`.
//
// This file and registry.cpp are the only code that knows how a registry
// is laid out. to_json() produces the unified BENCH_*.json schema shared
// by every bench binary (see docs/OBSERVABILITY.md) and restore() reads
// it back (campaign checkpoints carry that export, docs/FAULT_TOLERANCE.md);
// to_csv() writes the same metrics one row each, to_text() a human
// summary, and fingerprint() a 64-bit FNV-1a digest of the deterministic
// metric surface (counters + gauges; wall-clock histograms excluded) used
// by the CI serial-vs-parallel determinism canary.

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics_meta.hpp"

namespace carpool {
class JsonValue;
}

namespace carpool::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (e.g. a bench result or a configuration knob).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts samples <= bounds[i], plus one
/// overflow bucket. Also tracks count/sum/min/max for mean extraction.
class Histogram {
 public:
  /// `upper_bounds` must be sorted ascending; `unit` is advisory and only
  /// surfaces in exports (e.g. "ns" for latency histograms).
  explicit Histogram(std::vector<double> upper_bounds, std::string unit = {});

  void record(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  [[nodiscard]] double min() const noexcept {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// i in [0, bounds().size()]; the last index is the overflow bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& unit() const noexcept { return unit_; }

  /// Nearest-rank percentile estimated from the bucket upper bounds.
  [[nodiscard]] double percentile(double p) const;

  /// Fold another histogram's samples into this one. Bucket counts and
  /// count/sum add, min/max combine. Throws std::invalid_argument when the
  /// bucket bounds differ — merging only makes sense shape-to-shape.
  void merge_from(const Histogram& other);

  /// Fold exported raw contents back in (Registry::restore): bucket
  /// counts and count/sum add, min/max combine exactly like merge_from.
  /// `buckets` must have bounds().size()+1 entries or
  /// std::invalid_argument is thrown. A count of zero is a no-op for
  /// min/max, so restoring an empty histogram keeps the +-inf sentinels.
  void restore_add(const std::vector<std::uint64_t>& buckets,
                   std::uint64_t count, double sum, double min, double max);

  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::string unit_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

class Registry {
 public:
  /// The process-wide registry. Tests may construct private registries.
  static Registry& global();

  /// The registry instrumentation writes to on this thread: the innermost
  /// ScopedCurrent override, or global() when none is installed. Every
  /// built-in counter/timer call site resolves through this, which is what
  /// lets the parallel executor give each shard its own metric scope.
  [[nodiscard]] static Registry& current() noexcept;

  /// RAII thread-local registry override. Install a shard-local registry
  /// for the duration of one sharded job; restores the previous override
  /// (or global()) on destruction. The installed registry must outlive the
  /// scope.
  class ScopedCurrent {
   public:
    explicit ScopedCurrent(Registry& registry) noexcept;
    ~ScopedCurrent();
    ScopedCurrent(const ScopedCurrent&) = delete;
    ScopedCurrent& operator=(const ScopedCurrent&) = delete;

   private:
    Registry* previous_;
  };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. References remain valid until the registry dies.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& bounds,
                       std::string_view unit = {});

  /// Histogram with the canonical latency buckets (nanoseconds, log-ish
  /// spacing 250 ns .. 1 s). All OBS_SCOPED_TIMER stages use this shape so
  /// exports are comparable across runs.
  Histogram& latency_histogram(std::string_view name);

  void set_gauge(std::string_view name, double v) { gauge(name).set(v); }

  /// Read a counter's current value without creating it: 0 if absent.
  /// Lets invariant checks poll "did X ever happen" counters without
  /// polluting the registry with never-incremented entries.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  /// Fold another registry's metrics into this one: counters add, gauges
  /// overwrite (last merge wins — callers merge shards in job-index order
  /// so the outcome matches a serial run's write order), histograms merge
  /// bucket-wise. Registrations carry over even at zero so the export
  /// schema is identical to a serial run's. Self-merge is a no-op.
  void merge_from(const Registry& other);

  /// Read a to_json() export back in (checkpoint resume,
  /// docs/FAULT_TOLERANCE.md): counters add their exported values
  /// (registering zero-valued ones too, so the restored key set, and
  /// with it the export schema and fingerprint input, matches the
  /// exported run), gauges set, histograms fold in their buckets, count,
  /// sum, min and max via restore_add. The whole document is checked
  /// first: schema_version 2, integer counts, finite numbers, bucket
  /// bounds ascending and ending in "+Inf", and the same bounds as a
  /// histogram of that name already registered. On a failure `error`
  /// names the field, nothing changes and the result is false. Restore
  /// into a registry that does not already hold campaign state, or
  /// counts double. A non-finite gauge exports as null and is refused.
  bool restore(const JsonValue& exported, std::string& error);

  /// Catalog metadata resolved for `name` at find-or-create time; null
  /// when the metric does not exist yet or has no catalog entry.
  [[nodiscard]] const MetricMeta* metric_meta(std::string_view name) const;

  /// Order-stable 64-bit FNV-1a digest of the deterministic metric
  /// surface: every counter (name, value) and gauge (name, IEEE bit
  /// pattern), iterated in sorted name order. Histograms are excluded —
  /// their contents are wall-clock timings that vary run to run. Metrics
  /// whose catalog layer is "ops" (retry/quarantine/checkpoint
  /// bookkeeping, docs/FAULT_TOLERANCE.md) are excluded too: they count
  /// wall-clock accidents like retries and resumes, which must not
  /// perturb the faulted-vs-clean and resumed-vs-uninterrupted
  /// fingerprint comparisons. Two runs of a deterministic workload must
  /// produce equal fingerprints at any thread count; CI prints and
  /// compares them as the parallelism canary.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Unified JSON export (schema_version 2: values plus a `meta` section
  /// of unit / layer / description per cataloged metric). `bench` labels
  /// the run.
  [[nodiscard]] std::string to_json(std::string_view bench = {}) const;
  /// Aligned human-readable summary.
  [[nodiscard]] std::string to_text() const;
  /// Columnar CSV export, a header and one row per metric:
  ///
  ///   metric,type,layer,unit,value,count,sum,mean,min,max,p50,p99,description
  ///
  /// Counters and gauges fill `value`, histograms the distribution
  /// columns (min and max read 0 while empty); a non-finite number is an
  /// empty cell. `layer`, `unit` and `description` come from the
  /// catalog (metrics_meta.hpp); an uncataloged metric leaves them blank
  /// except the unit, which falls back to "count" for a counter and to
  /// its own unit for a histogram. Cells are quoted per RFC 4180.
  [[nodiscard]] std::string to_csv() const;
  /// to_json() / to_csv() to a file; false if the file cannot be written.
  bool write_json(const std::string& path, std::string_view bench = {}) const;
  bool write_csv(const std::string& path) const;

  /// Zero every metric but keep all registrations (handles stay valid).
  void reset_values();

 private:
  /// Find-or-create with mutex_ held: `make()` builds the metric when
  /// `name` is new, whose catalog metadata is resolved then
  /// (find_metric_meta is lock-free over static data, so this is safe
  /// from merge_from, which holds two registry mutexes).
  template <typename Metrics, typename Make>
  auto& find_or_create(Metrics& metrics, std::string_view name, Make make);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  /// Metric name -> catalog entry (static storage), filled at creation.
  /// Uncataloged names get no entry.
  std::map<std::string, const MetricMeta*, std::less<>> meta_;
};

}  // namespace carpool::obs
