// bench_e2e — end-to-end workloads with checked outputs (README.md).
//
//   bench_e2e --workload steady [--seed 1] [--seconds 10]
//             [--results e2e_steady.json] [--trace e2e_trace_steady.json]
//   bench_e2e --self-test
//
// A run sets the workload up (input parse, construction and a discarded
// warm-up) and runs ops in a closed loop for --seconds, checking every
// op's outputs and printing every end-to-end metric; eight more set-ups,
// spread over the run, replace the workload along the way. Every timing
// on the result line is scaled to the reference host speed by a probe
// run next to it (host_scale below). With --trace
// it runs traced ops for --seconds instead, writes
// their coarse spans as Chrome trace JSON and prints the per-layer
// metrics; a traced run never reports end-to-end numbers. The last
// stdout line is one JSON object:
//
//   {"correct": true, "attempted": 130, "failed": 0, "metrics": {...}}
//
// Exit codes: 0 = every check passed, 1 = a check failed, 2 = usage.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/json.hpp"
#include "dsp/kernels.hpp"
#include "layers.hpp"
#include "par/par.hpp"
#include "workloads.hpp"

namespace carpool::bench_e2e {
namespace {

constexpr std::size_t kMaxReportedErrors = 5;
/// Shortest batch of consecutive ops work_per_s is measured over; the
/// host-speed probe runs once per batch.
constexpr double kBatchSeconds = 0.05;

// ------------------------------------------------------- host-speed probe
//
// The shared host this benchmark runs on slows floating-point code by up
// to 1.5 times for stretches of seconds to minutes, whatever the program
// does (README.md, "Host-speed probe"). The probe is a fixed loop of
// independent libm calls, so it needs the same execution resources as
// the soak, PHY and campus code and slows with them. Time measured next
// to a probe sample is scaled by kProbeReferenceNs / (probe sample): a
// reference second is a second of a host that runs the probe in
// kProbeReferenceNs.

constexpr int kProbeIterations = 200000;
/// The probe's time on the 4-vCPU Xeon host when it ran fastest.
constexpr double kProbeReferenceNs = 2.0e6;

double (*volatile const probe_exp)(double) = ::exp;
double (*volatile const probe_log1p)(double) = ::log1p;
thread_local volatile double probe_sink = 0.0;

/// One probe sample, in ns. The calls go through volatile pointers into
/// the shared libm, so no build flag can inline, vectorize or reorder
/// them: the probe runs the same instructions whatever the build.
std::int64_t probe_ns() {
  const std::int64_t t0 = now_ns();
  double acc = 0.0;
  double x = 0.1;
  for (int i = 0; i < kProbeIterations; ++i) {
    acc += probe_exp(-x) * probe_log1p(x);
    x += 1e-6;
  }
  probe_sink = acc;
  return now_ns() - t0;
}

struct RunOptions {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  WorkloadOptions inputs;
  std::string trace_path;  ///< traced run when non-empty
  std::string results_path;
  bool traced = false;
  std::size_t setups = 9;
  std::size_t min_ops = 3;
  std::size_t max_ops = std::numeric_limits<std::size_t>::max();
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::uint64_t digest = 0;
  std::vector<double> op_s;         ///< wall time per op
  std::vector<double> op_ref_s;     ///< the same in reference seconds
  std::vector<double> setup_s;      ///< wall time per set-up
  std::vector<double> setup_ref_s;  ///< the same in reference seconds
  std::vector<double> scale;        ///< reference s per wall s, per probe
  std::vector<Metric> metrics;
  std::vector<Metric> wall_metrics;  ///< the timings unscaled (--results)

  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
  void note(const std::string& error) {
    if (errors.size() < kMaxReportedErrors) errors.push_back(error);
  }
};

/// Peak resident set size of this process image in MiB. VmHWM resets at
/// exec; getrusage's ru_maxrss, the fallback, also keeps the peak of the
/// process that launched this one (run.py's Python interpreter).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

/// Run ops in a closed loop for o.seconds (at least min_ops, at most
/// max_ops). `one_op(op, elapsed)` prepares and runs op `op`, `elapsed`
/// seconds into the loop, and returns its checks.
template <class OneOp>
void op_loop(const RunOptions& o, RunResult& r, OneOp one_op) {
  Digest digest;
  const std::int64_t start = now_ns();
  for (std::uint64_t op = 0; op < o.max_ops; ++op) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (op >= o.min_ops && elapsed >= o.seconds) break;
    const OpCheck c = one_op(op, elapsed);
    ++r.attempted;
    if (!c.error.empty()) {
      ++r.failed;
      r.note("op " + std::to_string(op) + ": " + c.error);
    }
    digest.add(c.digest);
  }
  r.digest = digest.value();
}

/// Threads one op of the run uses: 1, or N for the parallel workloads.
std::size_t op_threads(const RunOptions& o) {
  return o.workload->threads == 0 ? o.inputs.threads : o.workload->threads;
}

/// The host's speed now, in reference seconds per wall second (below 1
/// while the host runs slow): one probe sample on each thread an op
/// uses, all at once. A parallel op runs at the sum of its threads'
/// speeds, so their scales are averaged.
double host_scale(const RunOptions& o, RunResult& r) {
  std::vector<std::int64_t> ns(std::max<std::size_t>(1, op_threads(o)));
  {
    std::vector<std::jthread> helpers;
    for (std::size_t i = 1; i < ns.size(); ++i) {
      helpers.emplace_back([&ns, i] { ns[i] = probe_ns(); });
    }
    ns[0] = probe_ns();
  }
  double s = 0.0;
  for (const std::int64_t t : ns) {
    s += kProbeReferenceNs / static_cast<double>(t);
  }
  s /= static_cast<double>(ns.size());
  r.scale.push_back(s);
  return s;
}

/// Parse, construct and run the discarded warm-up: one set-up. Returns
/// the workload and records the set-up time: input parse, construction
/// and the warm-up ops, without the untimed op preparation and checks.
std::unique_ptr<Workload> set_up(const RunOptions& o, std::size_t k,
                                 RunResult& r) {
  std::int64_t t0 = now_ns();
  std::unique_ptr<Workload> w = make_workload(*o.workload, o.seed, o.inputs);
  std::int64_t timed_ns = now_ns() - t0;
  for (std::size_t i = 0; i < w->warmup_ops(); ++i) {
    w->prepare(kWarmupOp + k * w->warmup_ops() + i);
    t0 = now_ns();
    w->run();
    timed_ns += now_ns() - t0;
    const OpCheck c = w->check();
    if (!c.error.empty()) r.note("warm-up op: " + c.error);
  }
  const double wall_s = static_cast<double>(timed_ns) / 1e9;
  r.setup_s.push_back(wall_s);
  r.setup_ref_s.push_back(wall_s * host_scale(o, r));
  return w;
}

RunResult run_e2e(const RunOptions& o) {
  RunResult r;
  const std::size_t setups = std::max<std::size_t>(1, o.setups);
  std::size_t done = 1;
  std::unique_ptr<Workload> w = set_up(o, 0, r);
  // Set-up k replaces the workload k/setups of the way through the run,
  // so the set-ups sample the host over the whole run as the ops do, not
  // only in the process's first second.
  const auto next_set_ups = [&](double elapsed) {
    while (done < setups && elapsed * static_cast<double>(setups) >=
                                o.seconds * static_cast<double>(done)) {
      w.reset();
      w = set_up(o, done++, r);
    }
  };

  // Consecutive ops form batches, each closed once it has run
  // kBatchSeconds: one op per batch on the soak and campus workloads, a
  // few dozen frames on link, so a batch averages the frame mix. One
  // probe sample after each batch scales its ops. work_per_s is the
  // median batch rate: a short stall moves a few batches, not the median.
  std::vector<double> rates;
  std::vector<double> wall_rates;
  std::size_t first = 0;  // first op of the open batch
  double batch_s = 0.0;
  double batch_work = 0.0;
  const auto close_batch = [&] {
    const double s = host_scale(o, r);
    for (std::size_t i = first; i < r.op_s.size(); ++i) {
      r.op_ref_s.push_back(r.op_s[i] * s);
    }
    rates.push_back(batch_work / (batch_s * s));
    wall_rates.push_back(batch_work / batch_s);
    first = r.op_s.size();
    batch_s = batch_work = 0.0;
  };
  op_loop(o, r, [&](std::uint64_t op, double elapsed) {
    next_set_ups(elapsed);
    w->prepare(op);
    const std::int64_t t0 = now_ns();
    w->run();
    const double op_s = static_cast<double>(now_ns() - t0) / 1e9;
    r.op_s.push_back(op_s);
    const OpCheck c = w->check();
    batch_s += op_s;
    batch_work += c.work;
    if (batch_s >= kBatchSeconds) close_batch();
    return c;
  });
  if (first < r.op_s.size()) close_batch();
  next_set_ups(o.seconds);

  r.metrics = {
      {"work_per_s", quantile(rates, 0.5), "1/s"},
      {"op_p50_ms", quantile(r.op_ref_s, 0.5) * 1e3, "ms"},
      {"setup_s", quantile(r.setup_ref_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  r.wall_metrics = {
      {"work_per_s", quantile(wall_rates, 0.5), "1/s"},
      {"op_p50_ms", quantile(r.op_s, 0.5) * 1e3, "ms"},
      {"setup_s", quantile(r.setup_s, 0.5), "s"},
  };
  return r;
}

RunResult run_trace(const RunOptions& o) {
  RunResult r;
  const std::unique_ptr<Workload> w = set_up(o, 0, r);
  Attribution at;
  SpanLog spans;
  op_loop(o, r, [&](std::uint64_t op, double /*elapsed*/) {
    w->prepare(op);
    const std::int64_t op0 = now_ns();
    OpCheck c = w->trace(at, spans);
    const std::int64_t op1 = now_ns();
    spans.add("op", op0, op1);
    r.op_s.push_back(static_cast<double>(op1 - op0) / 1e9);
    return c;
  });
  r.metrics = per_layer_metrics(at);
  if (!o.trace_path.empty() && !spans.write(o.trace_path)) {
    r.note("cannot write trace " + o.trace_path);
  }
  return r;
}

// ------------------------------------------------------------------ output

std::string number_json(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// The result line: one JSON object, the last line of stdout.
std::string result_line(const RunResult& r) {
  std::string out = std::string("{\"correct\": ") +
                    (r.correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           number_json(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

/// Detailed record of one run (e2e_*.json): the result line's content
/// plus the op-time distribution, set-up samples, kernel and digest.
std::string results_json(const RunOptions& o, const RunResult& r,
                         std::size_t threads) {
  using chaos::JsonValue;
  const auto num = [](double v) { return JsonValue(v); };
  chaos::JsonObject root;
  chaos::json_set(root, "workload", JsonValue(std::string(o.workload->name)));
  chaos::json_set(root, "mode",
                  JsonValue(std::string(o.traced ? "trace" : "e2e")));
  chaos::json_set(root, "seed", num(static_cast<double>(o.seed)));
  chaos::json_set(root, "seconds", num(o.seconds));
  chaos::json_set(root, "threads", num(static_cast<double>(threads)));
  chaos::json_set(root, "kernel",
                  JsonValue(std::string(dsp::active_backend().name)));
  chaos::json_set(root, "correct", JsonValue(r.correct()));
  chaos::json_set(root, "attempted", num(static_cast<double>(r.attempted)));
  chaos::json_set(root, "failed", num(static_cast<double>(r.failed)));
  char digest[24];
  std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, r.digest);
  chaos::json_set(root, "digest", JsonValue(std::string(digest)));
  chaos::JsonObject ops;
  chaos::json_set(ops, "n", num(static_cast<double>(r.op_s.size())));
  for (const auto& [label, q] :
       {std::pair{"p25", 0.25}, {"p50", 0.5}, {"p75", 0.75}, {"p90", 0.9}}) {
    chaos::json_set(ops, label, num(quantile(r.op_s, q) * 1e3));
  }
  chaos::json_set(root, "op_ms", JsonValue(std::move(ops)));
  chaos::JsonArray setups;
  for (const double s : r.setup_s) setups.push_back(num(s));
  chaos::json_set(root, "setup_s", JsonValue(std::move(setups)));
  chaos::JsonObject scale;
  chaos::json_set(scale, "n", num(static_cast<double>(r.scale.size())));
  for (const auto& [label, q] :
       {std::pair{"p25", 0.25}, {"p50", 0.5}, {"p75", 0.75}}) {
    chaos::json_set(scale, label, num(quantile(r.scale, q)));
  }
  chaos::json_set(root, "host_scale", JsonValue(std::move(scale)));
  const auto metric_object = [&](const std::vector<Metric>& list) {
    chaos::JsonObject out;
    for (const Metric& m : list) {
      chaos::JsonObject entry;
      chaos::json_set(entry, "value", num(m.value));
      chaos::json_set(entry, "unit", JsonValue(m.unit));
      chaos::json_set(out, m.name, JsonValue(std::move(entry)));
    }
    return JsonValue(std::move(out));
  };
  chaos::json_set(root, "metrics", metric_object(r.metrics));
  chaos::json_set(root, "wall_metrics", metric_object(r.wall_metrics));
  chaos::JsonArray errors;
  for (const std::string& e : r.errors) errors.push_back(JsonValue(e));
  chaos::json_set(root, "errors", JsonValue(std::move(errors)));
  return chaos::json_dump(JsonValue(std::move(root)));
}

void print_run(const RunOptions& o, const RunResult& r, std::size_t threads) {
  std::printf("bench_e2e: workload %s (%s), seed %" PRIu64
              ", %zu thread(s), kernel %s\n",
              std::string(o.workload->name).c_str(),
              o.traced ? "traced" : "end to end", o.seed, threads,
              dsp::active_backend().name);
  std::printf("ops: %zu attempted, %zu failed, digest 0x%016" PRIx64
              "; work is counted in %s\n",
              r.attempted, r.failed, r.digest,
              std::string(o.workload->work_unit).c_str());
  std::printf("op wall ms: n=%zu p25=%.4f p50=%.4f p75=%.4f p90=%.4f\n",
              r.op_s.size(), quantile(r.op_s, 0.25) * 1e3,
              quantile(r.op_s, 0.5) * 1e3, quantile(r.op_s, 0.75) * 1e3,
              quantile(r.op_s, 0.9) * 1e3);
  if (!r.scale.empty()) {
    std::printf("host speed: %zu probes, scale p25=%.4f p50=%.4f p75=%.4f "
                "reference s per wall s\n",
                r.scale.size(), quantile(r.scale, 0.25),
                quantile(r.scale, 0.5), quantile(r.scale, 0.75));
  }
  for (const Metric& m : r.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.wall_metrics) {
    std::printf("  %-34s %16.6f %s (wall clock)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", e.c_str());
  }
  std::printf("%s\n", result_line(r).c_str());
  std::fflush(stdout);
}

// --------------------------------------------------------------- self-test

std::vector<std::string> names_of(const std::vector<Metric>& metrics) {
  std::vector<std::string> out;
  for (const Metric& m : metrics) out.push_back(m.name);
  return out;
}

std::vector<std::string> names_in(const chaos::JsonValue& doc,
                                  std::string_view key) {
  std::vector<std::string> out;
  if (const chaos::JsonValue* list = doc.find(key); list != nullptr) {
    for (const chaos::JsonValue& e : list->as_array()) {
      if (const chaos::JsonValue* n = e.find("name"); n && n->is_string()) {
        out.push_back(n->as_string());
      }
    }
  }
  return out;
}

double metric_value(const RunResult& r, std::string_view name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Tiny op counts through every workload, in well under ten seconds.
int self_test(const WorkloadOptions& inputs) {
  const std::string bench_json = BENCH_E2E_BENCHMARK_JSON;
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "  ok  " : "  FAIL", what.c_str());
    if (!ok) ++failures;
  };

  std::ifstream in(bench_json);
  std::ostringstream text;
  text << in.rdbuf();
  const chaos::JsonParseResult doc = chaos::json_parse(text.str());
  expect(doc.ok(), "BENCHMARK.json parses (" + bench_json + ")");
  if (!doc.ok()) return 1;
  const std::vector<std::string> e2e_names =
      names_in(*doc.value, "end_to_end");
  const std::vector<std::string> layer_names =
      names_in(*doc.value, "per_layer");
  std::vector<std::string> table;
  for (const WorkloadInfo& w : workload_table()) table.emplace_back(w.name);
  expect(names_in(*doc.value, "workloads") == table,
         "BENCHMARK.json names exactly the five workloads");

  for (const WorkloadInfo& w : workload_table()) {
    const std::string name(w.name);
    RunOptions o;
    o.workload = &w;
    o.inputs = inputs;
    o.inputs.small = true;
    o.inputs.threads = std::max<std::size_t>(2, inputs.threads);
    o.seconds = 0.0;
    o.setups = 1;
    o.min_ops = o.max_ops = 2;

    const RunResult a = run_e2e(o);
    expect(a.correct(), name + ": every op passes its output checks" +
                            (a.errors.empty() ? "" : " (" + a.errors[0] + ")"));
    expect(names_of(a.metrics) == e2e_names,
           name + ": emits every end_to_end metric of BENCHMARK.json");
    expect(run_e2e(o).digest == a.digest, name + ": same seed, same digest");
    o.seed = 2;
    expect(run_e2e(o).digest != a.digest,
           name + ": another seed changes the digest");

    o.seed = 1;
    o.traced = true;
    o.min_ops = o.max_ops = 1;
    const RunResult t = run_trace(o);
    expect(t.correct(), name + ": traced replay matches the untraced op" +
                            (t.errors.empty() ? "" : " (" + t.errors[0] + ")"));
    expect(names_of(t.metrics) == layer_names,
           name + ": emits every per_layer metric of BENCHMARK.json");
    if (w.threads == 0) {
      expect(metric_value(t, "par.efficiency") > 0.0,
             name + ": results and fingerprints compared at 1 and N threads");
    }
    if (name == "link") {
      expect(metric_value(t, "carpool.rx.fcs_ok_ratio") > 0.0,
             "link: some subframe decoded with a valid FCS, so the PSDU "
             "comparison is not vacuous");
    }
  }
  std::printf("bench_e2e self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// --------------------------------------------------------------------- CLI

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "bench_e2e: %s\n", msg);
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S]\n"
               "                 [--results FILE] [--trace FILE]\n"
               "       bench_e2e --self-test\n"
               "workloads: steady steady_mt ladder link campus\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (text[0] == '-' || end == text || *end != '\0' || errno != 0) {
    usage((std::string(flag) + " wants a non-negative integer").c_str());
  }
  return v;
}

int run(int argc, char** argv) {
  RunOptions o;
  o.inputs.input_dir = BENCH_E2E_WORKLOAD_DIR;
  o.inputs.threads = std::min<std::size_t>(4, par::hardware_threads());
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage((arg + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = find_workload(value());
      if (o.workload == nullptr) usage("unknown workload");
    } else if (arg == "--seed") {
      o.seed = parse_u64("--seed", value());
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(parse_u64("--seconds", value()));
    } else if (arg == "--trace") {
      o.trace_path = value();
      o.traced = true;
    } else if (arg == "--results") {
      o.results_path = value();
    } else if (arg == "--self-test") {
      self = true;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }

  // The shipping default: the best kernel tier this CPU supports.
  dsp::select_kernel("auto");
  if (self) return self_test(o.inputs);
  if (o.workload == nullptr) usage("--workload is required");

  const std::size_t threads = op_threads(o);
  RunResult r;
  try {
    r = o.traced ? run_trace(o) : run_e2e(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  if (!o.results_path.empty()) {
    std::ofstream out(o.results_path);
    out << results_json(o, r, threads);
    if (!out) r.note("cannot write results " + o.results_path);
  }
  print_run(o, r, threads);
  return r.correct() ? 0 : 1;
}

}  // namespace
}  // namespace carpool::bench_e2e

int main(int argc, char** argv) { return carpool::bench_e2e::run(argc, argv); }
