// bench_diff — compare BENCH_*.json metric exports (schema_version 2,
// written by bench::write_metrics / obs::Registry) against a baseline.
//
//   bench_diff <baseline_dir> <current_dir> [--threshold <pct>]
//                                           [--sigma <k>]
//
// The baseline directory holds either flat BENCH_*.json files (one
// reference run) or run*/ subdirectories each holding BENCH_*.json (a
// set of repeated reference runs). With multiple runs the tool measures
// per-metric baseline variance and derives each metric's tolerance as
//
//   tolerance_pct = max(threshold, sigma * cv_pct)
//
// where cv_pct is the coefficient of variation (stddev/|mean| * 100)
// across the baseline runs — a metric that wobbles 2% run to run gets a
// wider gate than one that is bit-reproducible. Exit status is nonzero
// when a *gated* metric regressed beyond its tolerance:
//
//   - goodput/throughput metrics (name contains "goodput", "throughput")
//     gate on decreases;
//   - latency/delay metrics (name contains "latency" or "delay") gate on
//     increases. This is deliberately restricted to simulated-time
//     metrics: wall-clock profiling histograms (phy.*, fec.*, ...) vary
//     with the host and stay informational, p99 included.
//
// Everything else is informational: counters like retry totals move with
// scenario tweaks and should not fail CI. Exit status 2 means bad usage
// (such as a --threshold that is not a finite number >= 0) or a
// BENCH_*.json, baseline or current, that is not strict JSON. The CI
// workflow runs this as a BLOCKING step against the committed baselines
// in bench/baselines/ (run1..run5); refresh those by re-running the bench
// binaries five times and copying each run's BENCH_*.json into its run
// directory.
//
// The flattening/aggregation/tolerance machinery is shared with
// bench_report (the trend dashboard) via bench_compare.hpp.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_compare.hpp"

namespace {

namespace fs = std::filesystem;
using namespace carpool::benchcmp;

struct Regression {
  std::string file;
  std::string metric;
  double baseline;
  double current;
  double change_pct;
  double tolerance_pct;
};

constexpr const char* kUsage =
    "usage: bench_diff <baseline_dir> <current_dir> "
    "[--threshold <pct>] [--sigma <k>]\n";

int run(int argc, char** argv) {
  std::vector<std::string> positional;
  double threshold_pct = 10.0;
  double sigma = 3.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold" && i + 1 < argc) {
      threshold_pct = flag_number("bench_diff", kUsage, arg, argv[++i]);
    } else if (arg == "--sigma" && i + 1 < argc) {
      sigma = flag_number("bench_diff", kUsage, arg, argv[++i]);
    } else if (arg == "-h" || arg == "--help") {
      std::printf("%s", kUsage);
      return 0;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const fs::path baseline_dir = positional[0];
  const fs::path current_dir = positional[1];
  if (!fs::is_directory(baseline_dir) || !fs::is_directory(current_dir)) {
    std::fprintf(stderr, "bench_diff: both arguments must be directories\n");
    return 2;
  }

  const std::vector<fs::path> run_dirs = discover_run_dirs(baseline_dir);
  const std::vector<std::string> files = discover_bench_files(run_dirs);
  if (files.empty()) {
    std::fprintf(stderr, "bench_diff: no BENCH_*.json in %s\n",
                 baseline_dir.string().c_str());
    return 2;
  }
  std::printf("baseline: %zu run(s) under %s\n", run_dirs.size(),
              baseline_dir.string().c_str());

  std::vector<Regression> regressions;
  std::size_t compared_files = 0;
  for (const std::string& name : files) {
    const fs::path cur_path = current_dir / name;
    if (!fs::exists(cur_path)) {
      std::printf("%s: missing from %s (skipped)\n", name.c_str(),
                  current_dir.string().c_str());
      continue;
    }
    const auto base = aggregate_baseline(run_dirs, name);
    const auto cur = load_metrics(cur_path);
    if (base.empty()) {
      std::fprintf(stderr, "%s: no baseline metrics (skipped)\n",
                   name.c_str());
      continue;
    }
    ++compared_files;
    std::printf("\n== %s ==\n", name.c_str());
    std::printf("%-52s %14s %14s %9s %8s\n", "metric", "baseline", "current",
                "delta", "tol");
    for (const auto& [metric, stat] : base) {
      if (!reportable(metric)) continue;
      const auto it = cur.find(metric);
      if (it == cur.end()) {
        std::printf("%-52s %14.6g %14s\n", metric.c_str(), stat.mean,
                    "(gone)");
        continue;
      }
      const double cur_value = it->second;
      const double denom = std::abs(stat.mean);
      const double change_pct =
          denom > 0.0 ? 100.0 * (cur_value - stat.mean) / denom
                      : (cur_value == stat.mean ? 0.0 : 100.0);
      const Gate gate = gate_for(metric);
      const double tolerance_pct =
          std::max(threshold_pct, sigma * stat.cv_pct);
      const bool regressed =
          (gate == Gate::kHigherBetter && change_pct < -tolerance_pct) ||
          (gate == Gate::kLowerBetter && change_pct > tolerance_pct);
      if (gate != Gate::kNone) {
        std::printf("%-52s %14.6g %14.6g %+8.2f%% %7.1f%%%s\n",
                    metric.c_str(), stat.mean, cur_value, change_pct,
                    tolerance_pct, regressed ? "  REGRESSION" : "  (gated)");
      } else {
        std::printf("%-52s %14.6g %14.6g %+8.2f%%\n", metric.c_str(),
                    stat.mean, cur_value, change_pct);
      }
      if (regressed) {
        regressions.push_back(Regression{name, metric, stat.mean, cur_value,
                                         change_pct, tolerance_pct});
      }
    }
    for (const auto& [metric, cur_value] : cur) {
      if (reportable(metric) && base.find(metric) == base.end()) {
        std::printf("%-52s %14s %14.6g\n", metric.c_str(), "(new)",
                    cur_value);
      }
    }
  }

  if (compared_files == 0) {
    std::fprintf(stderr, "bench_diff: nothing compared\n");
    return 2;
  }
  if (!regressions.empty()) {
    std::printf("\n%zu regression(s) beyond tolerance:\n",
                regressions.size());
    for (const Regression& r : regressions) {
      std::printf("  %s %s: %.6g -> %.6g (%+.2f%%, tolerance %.1f%%)\n",
                  r.file.c_str(), r.metric.c_str(), r.baseline, r.current,
                  r.change_pct, r.tolerance_pct);
    }
    return 1;
  }
  std::printf(
      "\nno gated regressions (floor %.1f%%, sigma %.1f, %zu file(s))\n",
      threshold_pct, sigma, compared_files);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    // A metrics file that exists but does not parse: never a pass.
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
}
