#pragma once

// bench_e2e workloads (README.md). Each is one closed-loop client driving
// a public entry point of the libraries: the next op starts when the
// previous one ends. Op `i` of a run with seed `s` uses the scenario seed
// chaos::derive_seed(s, i, salt), so the same seed gives the same inputs.
//
//   prepare(i)  builds op i's inputs (not timed)
//   run()       the timed op
//   check()     verifies the op's outputs (not timed)
//   trace()     reruns the prepared op untraced and traced, attributing
//               time to layers (layers.hpp); a replay that does not match
//               the untraced result is a failed check

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "layers.hpp"

namespace carpool::bench_e2e {

/// Op indices from here on are set-up warm-up ops, far from the measured
/// ones; set-up k runs warm-up ops kWarmupOp + k * warmup_ops() onwards.
inline constexpr std::uint64_t kWarmupOp = std::uint64_t{1} << 40;

/// Outcome of one op's output checks.
struct OpCheck {
  double work = 0.0;         ///< work units the op completed
  std::uint64_t digest = 0;  ///< informational digest of simulated outputs
  std::string error;         ///< empty when every check passed
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Ops in one set-up's discarded warm-up.
  [[nodiscard]] virtual std::size_t warmup_ops() const { return 1; }
  virtual void prepare(std::uint64_t op) = 0;
  virtual void run() = 0;
  [[nodiscard]] virtual OpCheck check() = 0;
  [[nodiscard]] virtual OpCheck trace(Attribution& at, SpanLog& spans) = 0;
};

struct WorkloadInfo {
  std::string_view name;
  std::string_view work_unit;  ///< what work_per_s counts
  std::size_t threads;         ///< 1, or 0 for N = min(4, nproc)
};

/// The five workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<WorkloadInfo>& workload_table();
[[nodiscard]] const WorkloadInfo* find_workload(std::string_view name);

struct WorkloadOptions {
  std::string input_dir;    ///< directory holding the frozen inputs
  std::size_t threads = 1;  ///< N for the parallel workloads
  bool small = false;       ///< self-test op sizes
};

/// Parse the workload's frozen inputs and construct it. Throws
/// std::runtime_error when an input is missing or invalid.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const WorkloadInfo& info, std::uint64_t seed,
    const WorkloadOptions& opts);

}  // namespace carpool::bench_e2e
