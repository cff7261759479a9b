// Input tree for the MetricLintCli.* tests in tests/CMakeLists.txt; it
// is never compiled. metric_lint run on tests/metric_lint_fixture must
// report exactly the three unregistered names below, with file:line:
// the commented-out site is skipped and the registered name passes.

#include "obs/registry.hpp"

void record(carpool::obs::Registry& registry) {
  registry.counter("mac.ls_transition").add();
  registry.counter("fixture.unregistered_total").add();
  // registry.gauge("fixture.commented_out");
  registry.histogram ( "fixture.first" ); registry.set_gauge("fixture.second", 1.0);
}
