#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "carpool/transceiver.hpp"
#include "channel/fading.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "mac/simulator.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/timer.hpp"
#include "phy/frame.hpp"
#include "traffic/generators.hpp"

namespace carpool {
namespace {

TEST(Registry, FindOrCreateReturnsSameHandle) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Registry, ConcurrentCounterIncrements) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      obs::Counter& c = reg.counter("concurrent");
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("concurrent").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Registry, ConcurrentHistogramRecords) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("h", {1.0, 2.0, 3.0});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 10000; ++i) h.record(1.5);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), 40000u);
  EXPECT_EQ(h.bucket_count(1), 40000u);  // (1, 2] bucket
  EXPECT_DOUBLE_EQ(h.min(), 1.5);
  EXPECT_DOUBLE_EQ(h.max(), 1.5);
}

TEST(Registry, HistogramBucketingAndStats) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("lat", {10.0, 100.0, 1000.0}, "ns");
  h.record(5.0);     // <= 10
  h.record(10.0);    // <= 10 (inclusive upper bound)
  h.record(50.0);    // <= 100
  h.record(5000.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 5000.0);
  EXPECT_DOUBLE_EQ(h.sum(), 5065.0);
  EXPECT_EQ(h.unit(), "ns");
  EXPECT_THROW((void)h.percentile(1.5), std::invalid_argument);
  EXPECT_THROW((void)h.percentile(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_LE(h.percentile(0.5), 100.0);
}

TEST(Registry, ResetValuesKeepsHandlesValid) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("c");
  obs::Histogram& h = reg.histogram("h", {1.0});
  c.add(7);
  h.record(0.5);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.add();  // handle still usable after reset
  EXPECT_EQ(reg.counter("c").value(), 1u);
}

TEST(Registry, JsonExportWellFormed) {
  obs::Registry reg;
  reg.counter("a.count").add(2);
  reg.set_gauge("b.value", 1.25);
  reg.histogram("c.lat", {1.0, 10.0}, "ns").record(3.0);
  const std::string json = reg.to_json("unit_test");
  EXPECT_TRUE(json_parse(json).ok()) << json;
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"c.lat\""), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
  // Ad-hoc names carry no catalog metadata; the meta section is present
  // but empty.
  EXPECT_NE(json.find("\"meta\": {}"), std::string::npos);
}

TEST(Registry, JsonExportGoldenText) {
  // Pins the export layout bench_diff and the dashboards read: one metric
  // per line, exact integer counters, null for a non-finite value.
  obs::Registry reg;
  reg.counter("mac.ls_transition").add(3);  // cataloged: gets a meta row
  reg.set_gauge("g.finite", 0.25);
  reg.set_gauge("g.nan", std::numeric_limits<double>::quiet_NaN());
  obs::Histogram& lat = reg.histogram("h.lat", {1.0, 10.0}, "ns");
  lat.record(0.5);
  lat.record(3.0);
  reg.histogram("h.empty", {1.0});
  const std::string expected =
      R"({
  "schema_version": 2,
  "bench": "golden",
  "counters": {
    "mac.ls_transition": 3
  },
  "gauges": {
    "g.finite": 0.25,
    "g.nan": null
  },
  "histograms": {
    "h.empty": {"count": 0, "sum": 0, "min": null, "max": null, )"
      R"("mean": 0, "p50": 0, "p99": 0, "buckets": [{"le": 1, "count": 0}, )"
      R"({"le": "+Inf", "count": 0}]},
    "h.lat": {"unit": "ns", "count": 2, "sum": 3.5, "min": 0.5, )"
      R"("max": 3, "mean": 1.75, "p50": 10, "p99": 10, "buckets": [)"
      R"({"le": 1, "count": 1}, {"le": 10, "count": 1}, )"
      R"({"le": "+Inf", "count": 0}]}
  },
  "meta": {
    "mac.ls_transition": {"unit": "count", "layer": "mac", )"
      R"("description": "Link-state machine state transitions"}
  }
}
)";
  EXPECT_EQ(reg.to_json("golden"), expected);
}

TEST(Registry, CatalogedMetricsExportMetadata) {
  obs::Registry reg;
  reg.counter("mac.ls_transition").add();       // cataloged exact name
  reg.set_gauge("fig13.bpsk.rte_on_ber", 0.1);  // cataloged prefix family
  reg.counter("made.up.name").add();            // uncataloged
  const std::string json = reg.to_json();
  EXPECT_TRUE(json_parse(json).ok()) << json;
  EXPECT_NE(json.find("\"mac.ls_transition\": {\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"fig13.bpsk.rte_on_ber\": {\"unit\""),
            std::string::npos);
  EXPECT_EQ(json.find("\"made.up.name\": {\"unit\""), std::string::npos);

  ASSERT_NE(reg.metric_meta("mac.ls_transition"), nullptr);
  EXPECT_FALSE(reg.metric_meta("mac.ls_transition")->description.empty());
  EXPECT_EQ(reg.metric_meta("made.up.name"), nullptr);
}

TEST(Registry, MetadataSurvivesMerge) {
  obs::Registry shard;
  shard.counter("phy.subframes_decoded").add(3);
  obs::Registry target;
  target.merge_from(shard);
  EXPECT_EQ(target.counter_value("phy.subframes_decoded"), 3u);
  EXPECT_NE(target.metric_meta("phy.subframes_decoded"), nullptr);
}

TEST(Registry, CsvExportGoldenText) {
  // Pins the CSV byte for byte: catalog and fallback units, RFC-4180
  // quoting, an empty cell for NaN, and 0 for an empty histogram's min
  // and max.
  obs::Registry reg;
  reg.counter("sim.bss_domains").add(7);  // cataloged, quoted description
  reg.counter("made.up.count");
  reg.set_gauge("fig13.bpsk.rte_on_ber", 0.1);  // cataloged prefix family
  reg.set_gauge("plain, with \"quotes\"", 1.5);
  reg.set_gauge("g.nan", std::numeric_limits<double>::quiet_NaN());
  obs::Histogram& lat = reg.histogram("lat", {10.0, 100.0}, "ns");
  lat.record(42.0);
  lat.record(250.0);
  reg.histogram("h.empty", {1.0});
  reg.latency_histogram("fec.viterbi_decode").record(1234.5);
  const std::string expected =
      "metric,type,layer,unit,value,count,sum,mean,min,max,p50,p99,"
      "description\n"
      "made.up.count,counter,,count,0,,,,,,,,\n"
      "sim.bss_domains,counter,sim,count,7,,,,,,,,"
      "\"Per-(epoch, AP) collision domains simulated\"\n"
      "fig13.bpsk.rte_on_ber,gauge,bench,ratio,0.1,,,,,,,,"
      "\"Bit error rate, RTE vs standard estimation (Fig. 13)\"\n"
      "g.nan,gauge,,,,,,,,,,,\n"
      "\"plain, with \"\"quotes\"\"\",gauge,,,1.5,,,,,,,,\n"
      "fec.viterbi_decode,histogram,fec,ns,,1,1234.5,1234.5,1234.5,1234.5,"
      "2500,2500,Viterbi decode wall time\n"
      "h.empty,histogram,,,,0,0,0,0,0,0,0,\n"
      "lat,histogram,,ns,,2,292,146,42,250,250,250,\n";
  EXPECT_EQ(reg.to_csv(), expected);
}

TEST(Registry, WriteCsvToFile) {
  obs::Registry reg;
  reg.counter("file.count").add(5);
  const std::string path = testing::TempDir() + "obs_stats.csv";
  ASSERT_TRUE(reg.write_csv(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), reg.to_csv());
}

TEST(Registry, ExportRestoresExactly) {
  // restore() reads to_json() back: a fresh registry given the export
  // reproduces every exporter's output, with an empty histogram (null
  // min and max), a zero counter and a histogram without a unit.
  obs::Registry reg;
  reg.counter("mac.ls_transition").add(3);
  reg.counter("zero.registered");
  reg.set_gauge("g.finite", 0.1);
  reg.set_gauge("g.tiny", -2.5e-300);
  obs::Histogram& lat = reg.histogram("h.lat", {1.0, 10.0}, "ns");
  lat.record(0.5);
  lat.record(3.0);
  lat.record(1e6 / 3.0);
  reg.histogram("h.empty", {1.0, 2.0}, "ms");
  reg.histogram("h.unitless", {0.5}).record(0.25);

  const JsonParseResult exported = json_parse(reg.to_json());
  ASSERT_TRUE(exported.ok());
  obs::Registry restored;
  std::string error;
  ASSERT_TRUE(restored.restore(*exported.value, error)) << error;
  EXPECT_EQ(restored.fingerprint(), reg.fingerprint());
  EXPECT_EQ(restored.to_json(), reg.to_json());
  EXPECT_EQ(restored.to_csv(), reg.to_csv());
}

TEST(Registry, EmptyRegistryExportsWellFormedJson) {
  const obs::Registry reg;
  EXPECT_TRUE(json_parse(reg.to_json()).ok());
}

TEST(Registry, TextExportMentionsEveryMetric) {
  obs::Registry reg;
  reg.counter("ctr").add();
  reg.set_gauge("ggg", 2.0);
  reg.histogram("hhh", {1.0}).record(0.5);
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("ctr"), std::string::npos);
  EXPECT_NE(text.find("ggg"), std::string::npos);
  EXPECT_NE(text.find("hhh"), std::string::npos);
}

TEST(Registry, WriteJsonToFile) {
  obs::Registry reg;
  reg.counter("file.count").add(5);
  const std::string path = testing::TempDir() + "obs_registry.json";
  ASSERT_TRUE(reg.write_json(path, "file_test"));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(json_parse(buf.str()).ok()) << buf.str();
  EXPECT_NE(buf.str().find("\"file.count\": 5"), std::string::npos);
}

// A full device accepts open() and buffered writes but fails the flush,
// so this is the case where success must be decided after close().
TEST(ObsWriters, ReportFailureWhenTheFinalFlushFails) {
  const std::string path = "/dev/full";
  if (!std::filesystem::exists(path)) GTEST_SKIP() << path << " is absent";
  obs::Registry reg;
  reg.counter("file.count").add(5);
  EXPECT_FALSE(reg.write_json(path, "full_device"));
  EXPECT_FALSE(reg.write_csv(path));
  obs::SpanRecord txop;
  txop.name = "mac.txop";
  txop.sim_start = 0.0;
  EXPECT_FALSE(obs::ChromeTraceWriter::write(path, {txop}));
}

void timed_helper() { OBS_SCOPED_TIMER("obs_test.helper"); }

TEST(Profiling, ScopedTimerFeedsGlobalRegistry) {
  obs::Histogram& h =
      obs::Registry::global().latency_histogram("obs_test.helper");
  const std::uint64_t before = h.count();
  for (int i = 0; i < 5; ++i) timed_helper();
  if (obs::profiling_compiled_in()) {
    EXPECT_EQ(h.count(), before + 5);
    EXPECT_GE(h.min(), 0.0);
  } else {
    EXPECT_EQ(h.count(), before);
  }
}

/// Acceptance scenario: a 20-STA Carpool simulator run plus one PHY-layer
/// decode, both under one span collector. The spans must carry the MAC
/// frame lifecycle (txop -> frame -> subframe, with collisions) and the
/// receive tree (rx_frame -> rx_subframe -> Viterbi).
TEST(SpanIntegration, CarpoolRunEmitsFrameLifecycleTree) {
  if (!obs::trace_compiled_in()) {
    GTEST_SKIP() << "CARPOOL_ENABLE_TRACE=OFF: Span call sites are inert";
  }
  obs::SpanCollector collector;
  {
    const obs::SpanCollector::ScopedCurrent scope(collector);
    mac::SimConfig cfg;
    cfg.scheme = mac::Scheme::kCarpool;
    cfg.num_stas = 20;
    cfg.duration = 5.0;
    cfg.seed = 7;
    mac::Simulator sim(cfg);
    for (mac::NodeId sta = 1; sta <= 20; ++sta) {
      for (auto& flow :
           traffic::make_voip_call(sta, traffic::VoipParams::near_peak())) {
        sim.add_flow(std::move(flow));
      }
    }
    const mac::SimResult result = sim.run();
    EXPECT_GT(result.dl_frames_delivered, 0u);
    EXPECT_GT(result.collisions, 0u);

    // PHY leg: decode one Carpool frame into the same collector.
    Rng rng(3);
    Bytes psdu(400);
    for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    const std::vector<SubframeSpec> subframes{
        SubframeSpec{MacAddress::for_station(1), append_fcs(psdu), 4}};
    const CarpoolTransmitter tx;
    FadingConfig ch;
    ch.snr_db = 30.0;
    ch.seed = 11;
    FadingChannel channel(ch);
    CarpoolRxConfig rxcfg;
    rxcfg.self = MacAddress::for_station(1);
    const CarpoolReceiver rx(rxcfg);
    const CarpoolRxResult phy =
        rx.receive(channel.transmit(tx.build(subframes)));
    ASSERT_FALSE(phy.subframes.empty());
  }

  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  for (const obs::SpanRecord& r : collector.records()) by_id[r.id] = &r;
  const auto parent_of = [&](const obs::SpanRecord& r) {
    const auto it = by_id.find(r.parent);
    return it == by_id.end() ? nullptr : it->second;
  };

  std::set<std::string> txop_outcomes;
  std::size_t subframes = 0;
  bool saw_decode_tree = false;
  for (const obs::SpanRecord& r : collector.records()) {
    if (r.name == "mac.txop") txop_outcomes.insert(r.outcome);
    if (r.name == "mac.subframe") {
      ++subframes;
      const obs::SpanRecord* frame = parent_of(r);
      ASSERT_NE(frame, nullptr) << "subframe " << r.id;
      EXPECT_EQ(frame->name, "mac.frame");
      EXPECT_EQ(frame->ids.txop, r.ids.txop);
      const obs::SpanRecord* txop = parent_of(*frame);
      ASSERT_NE(txop, nullptr) << "frame " << frame->id;
      EXPECT_EQ(txop->name, "mac.txop");
      EXPECT_EQ(txop->ids.txop, r.ids.txop);
    }
    if (r.name == "fec.viterbi_decode") {
      const obs::SpanRecord* sub = parent_of(r);
      if (sub == nullptr || sub->name != "carpool.rx_subframe") continue;
      const obs::SpanRecord* frame = parent_of(*sub);
      saw_decode_tree = saw_decode_tree || (frame != nullptr &&
                                            frame->name == "carpool.rx_frame");
    }
  }
  EXPECT_TRUE(txop_outcomes.count("collision")) << "no collided TXOP";
  EXPECT_TRUE(txop_outcomes.count("ok")) << "no delivered TXOP";
  EXPECT_GT(subframes, 0u);
  EXPECT_TRUE(saw_decode_tree);
}

TEST(SpanIntegration, SimulatorEmitsNoSpansWhenGateOff) {
  if (obs::trace_compiled_in()) {
    GTEST_SKIP() << "CARPOOL_ENABLE_TRACE=ON: span sites are compiled in";
  }
  obs::SpanCollector collector;
  const obs::SpanCollector::ScopedCurrent scope(collector);
  mac::SimConfig cfg;
  cfg.scheme = mac::Scheme::kCarpool;
  cfg.num_stas = 5;
  cfg.duration = 1.0;
  mac::Simulator sim(cfg);
  for (mac::NodeId sta = 1; sta <= 5; ++sta) {
    for (auto& flow : traffic::make_voip_call(sta)) {
      sim.add_flow(std::move(flow));
    }
  }
  const mac::SimResult result = sim.run();
  EXPECT_GT(result.dl_frames_delivered, 0u);
  EXPECT_TRUE(collector.records().empty());
}

}  // namespace
}  // namespace carpool
