// metric_lint — fail the build when a metric name lacks catalog metadata.
//
//   metric_lint [repo_root]          # default: current directory
//
// Scans *.cpp / *.hpp under src/, bench/, tools/ and examples/ (tests
// are exempt: they mint throwaway names) for string-literal metric
// names at instrumentation call sites —
//
//   counter("..."), gauge("..."), set_gauge("..."), histogram("..."),
//   latency_histogram("..."), OBS_SCOPED_TIMER("..."),
//   OBS_TIMED_SPAN("...")
//
// each call name a whole identifier, with optional whitespace around the
// `(`, and text after `//` on a line skipped — and checks each against
// the metadata catalog in src/obs/metrics_meta.cpp (exact name or
// registered `prefix*` family).
// Any unregistered name is listed with its file:line and the tool exits
// 1, which CI treats as a build failure: every metric that can appear
// in a schema_version-2 export must carry unit/layer/description
// metadata. Names built at runtime (prefix + suffix concatenation) are
// linted by their literal prefix, which the catalog's `prefix*` entries
// cover.
//
// Exit codes: 0 = all names registered, 1 = unregistered names found,
// 2 = usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/metrics_meta.hpp"

namespace {

namespace fs = std::filesystem;

struct Hit {
  std::string file;  ///< repo-relative
  std::size_t line;
  std::string name;
};

bool is_source_file(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

/// Calls whose first argument is a metric name.
constexpr std::string_view kSiteCalls[] = {
    "counter",           "gauge",            "set_gauge",     "histogram",
    "latency_histogram", "OBS_SCOPED_TIMER", "OBS_TIMED_SPAN"};

bool is_identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t skip_space(std::string_view line, std::size_t i) {
  while (i < line.size() &&
         std::isspace(static_cast<unsigned char>(line[i])) != 0) {
    ++i;
  }
  return i;
}

/// The metric names on one line: each is the non-empty string literal
/// that opens the argument list of a kSiteCalls identifier.
std::vector<std::string> site_names(std::string_view line) {
  std::vector<std::string> names;
  std::size_t i = 0;
  while (i < line.size()) {
    if (!is_identifier_char(line[i])) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < line.size() && is_identifier_char(line[i])) ++i;
    const std::string_view word = line.substr(begin, i - begin);
    if (std::find(std::begin(kSiteCalls), std::end(kSiteCalls), word) ==
        std::end(kSiteCalls)) {
      continue;
    }
    std::size_t at = skip_space(line, i);
    if (at == line.size() || line[at] != '(') continue;
    at = skip_space(line, at + 1);
    if (at == line.size() || line[at] != '"') continue;
    const std::size_t close = line.find('"', at + 1);
    if (close == std::string_view::npos || close == at + 1) continue;
    names.emplace_back(line.substr(at + 1, close - at - 1));
    i = close + 1;
  }
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: metric_lint [repo_root]\n");
    return 2;
  }
  const fs::path root = argc == 2 ? fs::path(argv[1]) : fs::path(".");
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "metric_lint: %s is not a directory\n",
                 root.string().c_str());
    return 2;
  }

  std::vector<Hit> unregistered;
  std::size_t sites = 0;
  std::size_t files = 0;
  for (const char* subdir : {"src", "bench", "tools", "examples"}) {
    const fs::path dir = root / subdir;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !is_source_file(entry.path())) {
        continue;
      }
      // The lint's own source quotes the call sites it looks for.
      if (entry.path().filename() == "metric_lint.cpp") continue;
      std::ifstream in(entry.path());
      if (!in) {
        std::fprintf(stderr, "metric_lint: cannot read %s\n",
                     entry.path().string().c_str());
        return 2;
      }
      ++files;
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      std::string line;
      std::size_t line_no = 0;
      while (std::getline(in, line)) {
        ++line_no;
        // Line comments often quote example names; don't lint them.
        const std::size_t comment = line.find("//");
        if (comment != std::string::npos) line.resize(comment);
        for (const std::string& name : site_names(line)) {
          ++sites;
          if (carpool::obs::find_metric_meta(name) == nullptr) {
            unregistered.push_back(Hit{rel, line_no, name});
          }
        }
      }
    }
  }

  if (files == 0) {
    std::fprintf(stderr, "metric_lint: no sources under %s\n",
                 root.string().c_str());
    return 2;
  }
  if (!unregistered.empty()) {
    // Stable, so two names on one line stay in column order.
    std::stable_sort(unregistered.begin(), unregistered.end(),
                     [](const Hit& a, const Hit& b) {
                       return std::tie(a.file, a.line) <
                              std::tie(b.file, b.line);
                     });
    std::fprintf(stderr,
                 "metric_lint: %zu metric name(s) missing from the "
                 "metadata catalog (src/obs/metrics_meta.cpp):\n",
                 unregistered.size());
    for (const Hit& hit : unregistered) {
      std::fprintf(stderr, "  %s:%zu: \"%s\"\n", hit.file.c_str(), hit.line,
                   hit.name.c_str());
    }
    std::fprintf(stderr,
                 "add a CatalogEntry (unit, layer, description) for each, "
                 "or a `prefix*` family entry for generated names\n");
    return 1;
  }
  std::printf("metric_lint: %zu site(s) across %zu file(s), all "
              "registered\n",
              sites, files);
  return 0;
}
