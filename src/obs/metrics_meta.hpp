#pragma once

// carpool::obs — self-describing metric metadata.
//
// Every metric name the instrumentation uses has a catalog entry here
// carrying its unit, owning layer, and a one-line description. The
// registry consults the catalog at find-or-create time and exports the
// resolved metadata in BENCH_*.json as `schema_version: 2`, so a
// downstream consumer (bench_report, Registry::to_csv, a human with
// jq) never has to guess what `phy.rte_delta_clamped` counts or whether
// `ablation.ge_static_goodput_bps` is bits or bytes.
//
// Catalog names ending in '*' are prefix families for dynamically
// constructed names (e.g. `robustness.goodput_frac.intensity_<n>`).
// tools/metric_lint greps source for metric-name literals and fails the
// build when one has no catalog entry, which keeps this file honest.

#include <string>
#include <string_view>

namespace carpool::obs {

/// Descriptive metadata for one metric (or one prefix family).
struct MetricMeta {
  std::string_view unit;   ///< "count", "ns", "bit/s", "ratio", "bool", ""
  std::string_view layer;  ///< "mac", "phy", "fec", "carpool", "chaos", ...
  std::string_view description;
};

/// Catalog lookup: exact name first, then the longest matching `prefix*`
/// family. Returns nullptr for unknown names (tests and ad-hoc probes
/// may create unregistered metrics; they export without metadata).
[[nodiscard]] const MetricMeta* find_metric_meta(
    std::string_view name) noexcept;

}  // namespace carpool::obs
