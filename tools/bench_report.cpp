// bench_report — bench trend dashboard over committed baseline runs.
//
//   bench_report <baseline_dir> [--current <dir>] [--out <report.html>]
//                [--md <summary.md>] [--threshold <pct>] [--sigma <k>]
//
// Ingests a directory of BENCH_*.json exports laid out like the
// bench_diff baseline (run*/ subdirectories, e.g. bench/baselines/run1..
// run5) plus an optional --current directory holding a fresh run, and
// emits a self-contained HTML dashboard: one row per reportable metric
// with an inline SVG sparkline of its per-run trend, the baseline mean,
// the current value, and the delta judged against the same
// max(threshold, sigma * cv_pct) tolerance bench_diff gates on (the
// logic is shared via bench_compare.hpp, so dashboard and gate can never
// disagree). --md writes a compact markdown summary of the gated
// metrics, suitable for a CI job summary.
//
// Exit codes: 0 = report written (regressions are *reported*, not
// failed — bench_diff is the blocking gate), 2 = usage or I/O error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_compare.hpp"

namespace {

namespace fs = std::filesystem;
using namespace carpool::benchcmp;

struct MetricRow {
  std::string metric;
  std::vector<double> history;  ///< baseline runs, run-dir order
  std::optional<double> current;
  double mean = 0.0;
  double change_pct = 0.0;
  double tolerance_pct = 0.0;
  Gate gate = Gate::kNone;
  bool regressed = false;
  bool improved = false;  ///< gated metric moved the good way past tol
};

struct FileReport {
  std::string name;  ///< e.g. BENCH_ablation.json
  std::vector<MetricRow> rows;
};

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string fmt_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Inline SVG sparkline: baseline runs as a polyline, current value (if
/// any) appended as a highlighted dot — red on regression, green on a
/// gated improvement, blue otherwise.
std::string sparkline_svg(const MetricRow& row) {
  std::vector<double> points = row.history;
  if (row.current) points.push_back(*row.current);
  const int w = 140;
  const int h = 30;
  const int pad = 3;
  if (points.size() < 2) {
    return "<svg class=\"spark\" width=\"" + std::to_string(w) +
           "\" height=\"" + std::to_string(h) + "\"></svg>";
  }
  double lo = points[0];
  double hi = points[0];
  for (const double p : points) {
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  const double span = hi - lo;
  auto px = [&](std::size_t i) {
    return pad + (w - 2.0 * pad) * static_cast<double>(i) /
                     static_cast<double>(points.size() - 1);
  };
  auto py = [&](double v) {
    // Flat series draw mid-height; SVG y grows downward.
    const double t = span > 0.0 ? (v - lo) / span : 0.5;
    return h - pad - (h - 2.0 * pad) * t;
  };
  std::ostringstream svg;
  svg << "<svg class=\"spark\" width=\"" << w << "\" height=\"" << h
      << "\" viewBox=\"0 0 " << w << " " << h << "\">";
  svg << "<polyline fill=\"none\" stroke=\"#8899aa\" stroke-width=\"1.2\" "
         "points=\"";
  const std::size_t base_n = row.history.size();
  for (std::size_t i = 0; i < base_n; ++i) {
    if (i != 0) svg << ' ';
    svg << px(i) << ',' << py(points[i]);
  }
  svg << "\"/>";
  for (std::size_t i = 0; i < base_n; ++i) {
    svg << "<circle cx=\"" << px(i) << "\" cy=\"" << py(points[i])
        << "\" r=\"1.6\" fill=\"#8899aa\"/>";
  }
  if (row.current) {
    const char* color = row.regressed ? "#cc3333"
                        : row.improved ? "#2a9d4e"
                                       : "#3366cc";
    svg << "<line x1=\"" << px(base_n - 1) << "\" y1=\""
        << py(points[base_n - 1]) << "\" x2=\"" << px(base_n)
        << "\" y2=\"" << py(points[base_n])
        << "\" stroke=\"" << color << "\" stroke-width=\"1.4\"/>";
    svg << "<circle cx=\"" << px(base_n) << "\" cy=\"" << py(points[base_n])
        << "\" r=\"2.6\" fill=\"" << color << "\"/>";
  }
  svg << "</svg>";
  return svg.str();
}

std::vector<FileReport> build_reports(const std::vector<fs::path>& run_dirs,
                                      const std::vector<std::string>& files,
                                      const fs::path& current_dir,
                                      bool have_current, double threshold_pct,
                                      double sigma) {
  std::vector<FileReport> reports;
  for (const std::string& name : files) {
    if (std::none_of(run_dirs.begin(), run_dirs.end(),
                     [&](const fs::path& dir) {
                       return fs::exists(dir / name);
                     })) {
      std::fprintf(stderr, "bench_report: %s: no baseline (skipped)\n",
                   name.c_str());
      continue;
    }
    const auto base = aggregate_baseline(run_dirs, name);
    if (base.empty()) {
      std::fprintf(stderr, "bench_report: %s: baseline parse failure "
                   "(skipped)\n", name.c_str());
      continue;
    }
    std::optional<std::map<std::string, double>> cur;
    if (have_current) {
      const fs::path cur_path = current_dir / name;
      if (fs::exists(cur_path)) cur = load_metrics(cur_path);
    }
    FileReport report;
    report.name = name;
    for (const auto& [metric, stat] : base) {
      if (!reportable(metric)) continue;
      MetricRow row;
      row.metric = metric;
      row.history = stat.values;
      row.mean = stat.mean;
      row.gate = gate_for(metric);
      row.tolerance_pct = std::max(threshold_pct, sigma * stat.cv_pct);
      if (cur) {
        const auto it = cur->find(metric);
        if (it != cur->end()) {
          row.current = it->second;
          const double denom = std::abs(stat.mean);
          row.change_pct =
              denom > 0.0 ? 100.0 * (*row.current - stat.mean) / denom
                          : (*row.current == stat.mean ? 0.0 : 100.0);
          row.regressed = (row.gate == Gate::kHigherBetter &&
                           row.change_pct < -row.tolerance_pct) ||
                          (row.gate == Gate::kLowerBetter &&
                           row.change_pct > row.tolerance_pct);
          row.improved = (row.gate == Gate::kHigherBetter &&
                          row.change_pct > row.tolerance_pct) ||
                         (row.gate == Gate::kLowerBetter &&
                          row.change_pct < -row.tolerance_pct);
        }
      }
      report.rows.push_back(std::move(row));
    }
    // Gated metrics first (they're what the dashboard is for), then
    // alphabetical within each group.
    std::stable_sort(report.rows.begin(), report.rows.end(),
                     [](const MetricRow& a, const MetricRow& b) {
                       return (a.gate != Gate::kNone) >
                              (b.gate != Gate::kNone);
                     });
    reports.push_back(std::move(report));
  }
  return reports;
}

bool write_html(const std::string& path,
                const std::vector<FileReport>& reports,
                std::size_t n_runs, bool have_current, double threshold_pct,
                double sigma) {
  std::ofstream out(path);
  if (!out) return false;
  out << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
         "<title>carpool bench trends</title>\n<style>\n"
         "body{font:14px/1.45 -apple-system,'Segoe UI',sans-serif;"
         "margin:2em auto;max-width:72em;color:#222;}\n"
         "h1{font-size:1.4em;} h2{font-size:1.1em;margin-top:2em;"
         "border-bottom:1px solid #ddd;padding-bottom:.2em;}\n"
         "table{border-collapse:collapse;width:100%;}\n"
         "th,td{text-align:left;padding:.3em .6em;"
         "border-bottom:1px solid #eee;white-space:nowrap;}\n"
         "th{color:#666;font-weight:600;}\n"
         "td.num{text-align:right;font-variant-numeric:tabular-nums;}\n"
         "tr.gated td.metric{font-weight:600;}\n"
         ".spark{vertical-align:middle;}\n"
         ".delta-bad{color:#cc3333;font-weight:700;}\n"
         ".delta-good{color:#2a9d4e;}\n"
         ".delta-flat{color:#888;}\n"
         ".badge{font-size:.78em;border-radius:3px;padding:.1em .4em;"
         "margin-left:.4em;color:#fff;}\n"
         ".badge.reg{background:#cc3333;} .badge.gate{background:#8899aa;}\n"
         ".meta{color:#666;}\n"
         "</style></head><body>\n";
  out << "<h1>carpool bench trends</h1>\n";
  out << "<p class=\"meta\">" << n_runs << " baseline run(s)";
  if (have_current) out << " + current";
  out << "; tolerance = max(" << threshold_pct << "%, " << sigma
      << " &times; cv). Sparkline: baseline runs in order";
  if (have_current) {
    out << ", last point = current (red = regression beyond tolerance, "
           "green = gated improvement)";
  }
  out << ". Gated rows (bold) are the goodput/latency metrics bench_diff "
         "blocks on; the rest are informational.</p>\n";

  std::size_t regressions = 0;
  for (const FileReport& report : reports) {
    for (const MetricRow& row : report.rows) {
      if (row.regressed) ++regressions;
    }
  }
  if (have_current) {
    if (regressions > 0) {
      out << "<p><strong class=\"delta-bad\">" << regressions
          << " gated regression(s) beyond tolerance.</strong></p>\n";
    } else {
      out << "<p class=\"delta-good\">No gated regressions beyond "
             "tolerance.</p>\n";
    }
  }

  for (const FileReport& report : reports) {
    out << "<h2>" << html_escape(report.name) << "</h2>\n<table>\n"
        << "<tr><th>metric</th><th>trend</th><th>baseline mean</th>"
        << "<th>current</th><th>delta</th><th>tol</th></tr>\n";
    for (const MetricRow& row : report.rows) {
      const bool gated = row.gate != Gate::kNone;
      out << "<tr" << (gated ? " class=\"gated\"" : "") << ">";
      out << "<td class=\"metric\">" << html_escape(row.metric);
      if (row.regressed) {
        out << "<span class=\"badge reg\">REGRESSION</span>";
      } else if (gated) {
        out << "<span class=\"badge gate\">gated</span>";
      }
      out << "</td>";
      out << "<td>" << sparkline_svg(row) << "</td>";
      out << "<td class=\"num\">" << fmt_value(row.mean) << "</td>";
      if (row.current) {
        const char* cls = row.regressed            ? "delta-bad"
                          : row.improved           ? "delta-good"
                          : std::abs(row.change_pct) < 1e-9 ? "delta-flat"
                                                            : "";
        char delta[64];
        std::snprintf(delta, sizeof(delta), "%+.2f%%", row.change_pct);
        out << "<td class=\"num\">" << fmt_value(*row.current) << "</td>";
        out << "<td class=\"num " << cls << "\">" << delta << "</td>";
      } else {
        out << "<td class=\"num\">&mdash;</td><td class=\"num\">&mdash;"
               "</td>";
      }
      if (gated) {
        char tol[64];
        std::snprintf(tol, sizeof(tol), "%.1f%%", row.tolerance_pct);
        out << "<td class=\"num\">" << tol << "</td>";
      } else {
        out << "<td class=\"num\">&mdash;</td>";
      }
      out << "</tr>\n";
    }
    out << "</table>\n";
  }
  out << "</body></html>\n";
  return static_cast<bool>(out);
}

bool write_markdown(const std::string& path,
                    const std::vector<FileReport>& reports,
                    std::size_t n_runs, bool have_current) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# Bench trends\n\n" << n_runs << " baseline run(s)"
      << (have_current ? " + current" : "") << ".\n\n";
  out << "| file | metric | baseline | current | delta | status |\n"
      << "|---|---|---:|---:|---:|---|\n";
  for (const FileReport& report : reports) {
    for (const MetricRow& row : report.rows) {
      if (row.gate == Gate::kNone) continue;
      out << "| " << report.name << " | " << row.metric << " | "
          << fmt_value(row.mean) << " | ";
      if (row.current) {
        char delta[64];
        std::snprintf(delta, sizeof(delta), "%+.2f%%", row.change_pct);
        out << fmt_value(*row.current) << " | " << delta << " | "
            << (row.regressed ? "**REGRESSION**"
                : row.improved ? "improved"
                               : "ok");
      } else {
        out << "— | — | no current run";
      }
      out << " |\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_arg;
  std::string current_arg;
  std::string out_path = "bench_report.html";
  std::string md_path;
  double threshold_pct = 10.0;
  double sigma = 3.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_report: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--current") {
      current_arg = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--md") {
      md_path = next();
    } else if (arg == "--threshold") {
      threshold_pct = std::stod(next());
    } else if (arg == "--sigma") {
      sigma = std::stod(next());
    } else if (arg == "-h" || arg == "--help") {
      std::printf(
          "usage: bench_report <baseline_dir> [--current <dir>] "
          "[--out <report.html>]\n"
          "                    [--md <summary.md>] [--threshold <pct>] "
          "[--sigma <k>]\n");
      return 0;
    } else if (baseline_arg.empty()) {
      baseline_arg = arg;
    } else {
      std::fprintf(stderr, "bench_report: unexpected argument %s\n",
                   arg.c_str());
      return 2;
    }
  }
  if (baseline_arg.empty() || !fs::is_directory(baseline_arg)) {
    std::fprintf(stderr,
                 "bench_report: baseline directory required (got '%s')\n",
                 baseline_arg.c_str());
    return 2;
  }
  const bool have_current = !current_arg.empty();
  if (have_current && !fs::is_directory(current_arg)) {
    std::fprintf(stderr, "bench_report: --current %s is not a directory\n",
                 current_arg.c_str());
    return 2;
  }

  const std::vector<fs::path> run_dirs = discover_run_dirs(baseline_arg);
  std::vector<fs::path> all_dirs = run_dirs;
  if (have_current) all_dirs.push_back(current_arg);
  const std::vector<std::string> files = discover_bench_files(all_dirs);
  if (files.empty()) {
    std::fprintf(stderr, "bench_report: no BENCH_*.json found\n");
    return 2;
  }

  const std::vector<FileReport> reports =
      build_reports(run_dirs, files, current_arg, have_current,
                    threshold_pct, sigma);
  if (reports.empty()) {
    std::fprintf(stderr, "bench_report: nothing to report\n");
    return 2;
  }

  if (!write_html(out_path, reports, run_dirs.size(), have_current,
                  threshold_pct, sigma)) {
    std::fprintf(stderr, "bench_report: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  std::size_t metrics = 0;
  std::size_t regressions = 0;
  for (const FileReport& report : reports) {
    metrics += report.rows.size();
    for (const MetricRow& row : report.rows) {
      if (row.regressed) ++regressions;
    }
  }
  std::printf("bench_report: %s (%zu file(s), %zu metric(s), %zu "
              "regression(s))\n",
              out_path.c_str(), reports.size(), metrics, regressions);
  if (!md_path.empty()) {
    if (!write_markdown(md_path, reports, run_dirs.size(), have_current)) {
      std::fprintf(stderr, "bench_report: cannot write %s\n",
                   md_path.c_str());
      return 2;
    }
    std::printf("bench_report: %s\n", md_path.c_str());
  }
  return 0;
}
