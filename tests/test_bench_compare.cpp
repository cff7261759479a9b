// tools/bench_compare.hpp is the reader behind the blocking bench_diff
// gate and the bench_report dashboard. What it flattens out of a metrics
// export is exactly what CI compares, and a file it cannot parse must
// stop the gate instead of dropping out of the comparison.

#include "bench_compare.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace carpool::benchcmp {
namespace {

fs::path write_file(const fs::path& path, const std::string& text) {
  fs::create_directories(path.parent_path());
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

fs::path temp_path(const std::string& name) {
  return fs::path(testing::TempDir()) / "bench_compare" / name;
}

TEST(BenchCompare, LoadMetricsFlattensARegistryExport) {
  obs::Registry reg;
  reg.counter("mac.ls_transition").add(3);  // cataloged: has a meta row
  reg.set_gauge("g.finite", 0.25);
  reg.set_gauge("g.nan", std::numeric_limits<double>::quiet_NaN());
  obs::Histogram& lat = reg.histogram("h.lat", {1.0, 10.0}, "ns");
  lat.record(0.5);
  lat.record(3.0);
  reg.histogram("h.empty", {1.0});
  const auto metrics = load_metrics(
      write_file(temp_path("BENCH_flat.json"), reg.to_json("flat")));

  // Numeric object leaves only: no `bench` string, no `meta` catalog, no
  // bucket arrays, and the null NaN gauge and empty-histogram min and
  // max are absent rather than zero.
  std::set<std::string> keys;
  for (const auto& [key, value] : metrics) keys.insert(key);
  std::set<std::string> expected = {"counters.mac.ls_transition",
                                    "gauges.g.finite"};
  for (const char* stat :
       {"count", "sum", "min", "max", "mean", "p50", "p99"}) {
    expected.insert(std::string("histograms.h.lat.") + stat);
  }
  for (const char* stat : {"count", "sum", "mean", "p50", "p99"}) {
    expected.insert(std::string("histograms.h.empty.") + stat);
  }
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(metrics.at("counters.mac.ls_transition"), 3.0);
  EXPECT_EQ(metrics.at("gauges.g.finite"), 0.25);
  EXPECT_EQ(metrics.at("histograms.h.lat.mean"), 1.75);
  EXPECT_EQ(metrics.at("histograms.h.lat.p99"), 10.0);
  EXPECT_EQ(metrics.at("histograms.h.empty.count"), 0.0);
}

TEST(BenchCompare, LoadMetricsRejectsMalformedFiles) {
  struct Case {
    const char* name;
    const char* text;
  };
  const Case cases[] = {
      {"trailing", R"({"counters": {"a.goodput": 5}} trailing garbage)"},
      {"nul", R"({"counters": {"a.goodput": nul}})"},
      {"exponent", R"({"gauges": {"b.goodput": 1e}})"},
      {"truncated", R"({"counters": {"a.goodput": 5)"},
  };
  for (const Case& c : cases) {
    const fs::path path = write_file(
        temp_path(std::string("BENCH_") + c.name + ".json"), c.text);
    try {
      load_metrics(path);
      ADD_FAILURE() << c.name << ": parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path.string()), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(load_metrics(temp_path("BENCH_absent.json")),
               std::runtime_error);
}

TEST(BenchCompare, MalformedBaselineRunFailsTheAggregate) {
  // A bad run must not silently drop out of the baseline mean.
  const fs::path root = temp_path("baseline");
  write_file(root / "run1" / "BENCH_x.json",
             R"({"counters": {"a.goodput": 5}})");
  write_file(root / "run2" / "BENCH_x.json",
             R"({"counters": {"a.goodput": 7}} trailing garbage)");
  const std::vector<fs::path> runs = discover_run_dirs(root);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_THROW(aggregate_baseline(runs, "BENCH_x.json"),
               std::runtime_error);
  write_file(root / "run2" / "BENCH_x.json",
             R"({"counters": {"a.goodput": 7}})");
  const auto base = aggregate_baseline(runs, "BENCH_x.json");
  ASSERT_EQ(base.count("counters.a.goodput"), 1u);
  EXPECT_EQ(base.at("counters.a.goodput").mean, 6.0);
  EXPECT_EQ(base.at("counters.a.goodput").runs, 2u);
}

}  // namespace
}  // namespace carpool::benchcmp
