// Frame-lifecycle span model (obs::Span / obs::SpanCollector,
// docs/OBSERVABILITY.md): tree assembly, id-remapped merges, the
// determinism contract under carpool::par sharding, and the Chrome
// trace-event exporter. Suite names contain "Span" so the CI tsan lane's
// test filter picks them up.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "par/par.hpp"

namespace carpool {
namespace {

obs::SpanRecord sim_record(std::uint64_t parent, std::string name,
                           double start, double duration) {
  obs::SpanRecord r;
  r.parent = parent;
  r.name = std::move(name);
  r.sim_start = start;
  r.sim_duration = duration;
  return r;
}

/// Strip wall-clock fields so records can be compared across runs.
obs::SpanRecord deterministic_part(obs::SpanRecord r) {
  r.wall_start_ns = 0;
  r.wall_ns = 0;
  return r;
}

bool same_modulo_wall(const obs::SpanRecord& a, const obs::SpanRecord& b) {
  const obs::SpanRecord x = deterministic_part(a);
  const obs::SpanRecord y = deterministic_part(b);
  return x.id == y.id && x.parent == y.parent && x.name == y.name &&
         x.ids.txop == y.ids.txop && x.ids.frame == y.ids.frame &&
         x.ids.subframe == y.ids.subframe && x.ids.sta == y.ids.sta &&
         x.sim_start == y.sim_start && x.sim_duration == y.sim_duration &&
         x.outcome == y.outcome;
}

TEST(SpanCollector, EmitAssignsContiguousIdsFromOne) {
  obs::SpanCollector collector;
  const std::uint64_t a = collector.emit(sim_record(0, "a", 0.0, 1.0));
  const std::uint64_t b = collector.emit(sim_record(a, "b", 0.1, 0.5));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  ASSERT_EQ(collector.records().size(), 2u);
  EXPECT_EQ(collector.records()[1].parent, a);
}

TEST(SpanCollector, CapDropsRecordsAndCounts) {
  obs::Registry reg;
  const obs::Registry::ScopedCurrent metric_scope(reg);
  obs::SpanCollector collector(/*max_records=*/2);
  EXPECT_NE(collector.emit(sim_record(0, "a", 0.0, 1.0)), 0u);
  EXPECT_NE(collector.emit(sim_record(0, "b", 1.0, 1.0)), 0u);
  EXPECT_EQ(collector.emit(sim_record(0, "c", 2.0, 1.0)), 0u);
  EXPECT_EQ(collector.records().size(), 2u);
  EXPECT_EQ(collector.dropped(), 1u);
  EXPECT_EQ(reg.counter_value("obs.spans_dropped"), 1u);
}

TEST(SpanRaii, NestingBuildsParentLinks) {
  if (!obs::trace_compiled_in()) {
    GTEST_SKIP() << "CARPOOL_ENABLE_TRACE=OFF: Span call sites are inert";
  }
  obs::SpanCollector collector;
  {
    const obs::SpanCollector::ScopedCurrent scope(collector);
    obs::Span outer("outer");
    outer.ids({.txop = 7}).sim_interval(1.0, 2.0);
    {
      obs::Span inner("inner");
      inner.outcome("ok");
      EXPECT_EQ(collector.open_span(), inner.id());
    }
    // Non-RAII emit parents itself to the innermost open span.
    obs::SpanRecord leaf;
    leaf.name = "leaf";
    leaf.sim_start = 1.5;
    collector.emit(std::move(leaf));
  }
  // Children complete (and append) before their parent: leaf-first order.
  ASSERT_EQ(collector.records().size(), 3u);
  const auto& records = collector.records();
  EXPECT_EQ(records[0].name, "inner");
  EXPECT_EQ(records[1].name, "leaf");
  EXPECT_EQ(records[2].name, "outer");
  EXPECT_EQ(records[0].parent, records[2].id);
  EXPECT_EQ(records[1].parent, records[2].id);
  EXPECT_EQ(records[2].parent, 0u);
  EXPECT_EQ(records[2].ids.txop, 7);
  // Sim-timeline span: wall fields zeroed; wall leaf keeps its clock.
  EXPECT_TRUE(records[2].on_sim_timeline());
  EXPECT_EQ(records[2].wall_ns, 0u);
  EXPECT_FALSE(records[0].on_sim_timeline());
}

TEST(SpanRaii, InertWithoutCollector) {
  obs::Span span("nobody.listening");
  span.ids({.sta = 3}).outcome("ok");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
}

TEST(SpanGate, CollectorSeesSpansOnlyWhenCompiledIn) {
  obs::SpanCollector collector;
  {
    const obs::SpanCollector::ScopedCurrent scope(collector);
    const obs::Span span("gated");
    EXPECT_EQ(span.active(), obs::trace_compiled_in());
  }
  // Gate off: the span site compiles to nothing and records nothing.
  EXPECT_EQ(collector.records().size(), obs::trace_compiled_in() ? 1u : 0u);
}

TEST(SpanMerge, RemapsIdsPastWatermark) {
  obs::SpanCollector a;
  const std::uint64_t a1 = a.emit(sim_record(0, "a1", 0.0, 1.0));
  a.emit(sim_record(a1, "a2", 0.0, 0.5));

  obs::SpanCollector b;
  const std::uint64_t b1 = b.emit(sim_record(0, "b1", 2.0, 1.0));
  b.emit(sim_record(b1, "b2", 2.0, 0.5));

  a.merge_from(b);
  ASSERT_EQ(a.records().size(), 4u);
  // b's ids 1,2 land as 3,4; parent links move with them.
  EXPECT_EQ(a.records()[2].id, 3u);
  EXPECT_EQ(a.records()[3].id, 4u);
  EXPECT_EQ(a.records()[3].parent, 3u);
  // Roots stay roots.
  EXPECT_EQ(a.records()[2].parent, 0u);
  // A second merge continues past the new watermark.
  obs::SpanCollector c;
  c.emit(sim_record(0, "c1", 4.0, 1.0));
  a.merge_from(c);
  EXPECT_EQ(a.records().back().id, 5u);
}

TEST(SpanMerge, FingerprintIgnoresWallClock) {
  obs::SpanCollector a;
  obs::SpanCollector b;
  for (obs::SpanCollector* c : {&a, &b}) {
    obs::SpanRecord r;
    r.name = "decode";
    r.outcome = "ok";
    r.wall_start_ns = (c == &a) ? 100u : 999999u;  // differs
    r.wall_ns = (c == &a) ? 10u : 777u;            // differs
    c->emit(std::move(r));
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  obs::SpanCollector c;
  obs::SpanRecord r;
  r.name = "decode";
  r.outcome = "failed";  // deterministic surface differs
  c.emit(std::move(r));
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(SpanChromeTrace, WriterEmitsBalancedTraceEvents) {
  obs::SpanCollector collector;
  const std::uint64_t txop = collector.emit(sim_record(0, "mac.txop", 1.0, 0.5));
  collector.emit(sim_record(txop, "mac.frame", 1.1, 0.3));
  obs::SpanRecord wall_leaf;
  wall_leaf.parent = txop;
  wall_leaf.name = "fec.viterbi_decode";
  wall_leaf.wall_start_ns = 1000;
  wall_leaf.wall_ns = 500;
  collector.emit(std::move(wall_leaf));

  const std::string json = obs::ChromeTraceWriter::to_json(collector.records());
  EXPECT_TRUE(json_parse(json).ok()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"mac.txop\""), std::string::npos);
  // Sim seconds -> trace microseconds.
  EXPECT_NE(json.find("\"ts\":1000000.0"), std::string::npos);
  // Both tracks get a thread_name metadata event; the wall leaf hangs
  // off a sim parent, which also emits a flow-event pair.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

/// One sharded job: a txop span wrapping per-item child spans plus a
/// direct emit, all deterministic functions of the job index.
int span_job(const par::ShardInfo& info) {
  obs::Span txop("job.txop");
  txop.ids({.txop = static_cast<std::int64_t>(info.index)})
      .sim_interval(static_cast<double>(info.index), 1.0)
      .outcome(info.index % 3 == 0 ? "ok" : "failed");
  for (int k = 0; k < 3; ++k) {
    obs::Span child("job.subframe");
    child.ids({.subframe = k});
  }
  obs::SpanRecord leaf;
  leaf.name = "job.leaf";
  leaf.sim_start = static_cast<double>(info.index) + 0.5;
  obs::SpanCollector::current()->emit(std::move(leaf));
  return static_cast<int>(info.index);
}

void run_span_sweep(std::size_t threads, obs::SpanCollector& collector) {
  obs::Registry reg;
  const obs::Registry::ScopedCurrent metric_scope(reg);
  const obs::SpanCollector::ScopedCurrent span_scope(collector);
  const auto results = par::run_sharded(16, threads, span_job);
  EXPECT_EQ(results.size(), 16u);
}

TEST(SpanSharding, SerialAndParallelStreamsAreIdentical) {
  if (!obs::trace_compiled_in()) {
    GTEST_SKIP() << "CARPOOL_ENABLE_TRACE=OFF: Span call sites are inert";
  }
  obs::SpanCollector serial;
  obs::SpanCollector parallel;
  run_span_sweep(1, serial);
  run_span_sweep(4, parallel);
  ASSERT_EQ(serial.records().size(), parallel.records().size());
  ASSERT_EQ(serial.records().size(), 16u * 5u);  // txop + 3 children + leaf
  EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
  for (std::size_t i = 0; i < serial.records().size(); ++i) {
    EXPECT_TRUE(same_modulo_wall(serial.records()[i], parallel.records()[i]))
        << "record " << i << ": " << serial.records()[i].name << " vs "
        << parallel.records()[i].name;
  }
}

TEST(SpanSharding, ParallelMergeIsTreeConsistent) {
  if (!obs::trace_compiled_in()) {
    GTEST_SKIP() << "CARPOOL_ENABLE_TRACE=OFF: Span call sites are inert";
  }
  obs::SpanCollector collector;
  run_span_sweep(4, collector);
  // The merged stream reassembles into a consistent forest: unique ids,
  // every parent resolves, and every child's parent is a job.txop root.
  std::set<std::uint64_t> ids;
  std::map<std::uint64_t, std::string> name_of;
  for (const auto& r : collector.records()) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
    name_of[r.id] = r.name;
  }
  std::size_t roots = 0;
  for (const auto& r : collector.records()) {
    if (r.parent == 0) {
      ++roots;
      EXPECT_EQ(r.name, "job.txop");
    } else {
      ASSERT_TRUE(ids.count(r.parent)) << "dangling parent " << r.parent;
      EXPECT_EQ(name_of[r.parent], "job.txop");
    }
  }
  EXPECT_EQ(roots, 16u);
}

}  // namespace
}  // namespace carpool
