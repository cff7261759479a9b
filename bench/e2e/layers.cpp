#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "obs/registry.hpp"
#include "par/par.hpp"
#include "sim/testbed.hpp"
#include "traffic/generators.hpp"

namespace carpool::bench_e2e {
namespace {

constexpr double kBoundaryEps = 1e-9;

// Stage histograms and decode counters the PHY records (cataloged in
// src/obs/metrics_meta.cpp).
constexpr std::string_view kViterbi = "fec.viterbi_decode";
constexpr std::string_view kEqualize = "phy.equalize";
constexpr std::string_view kOfdmDemod = "phy.ofdm_demodulate";
constexpr std::string_view kOfdmMod = "phy.ofdm_modulate";
constexpr std::string_view kAhdrTest = "carpool.ahdr_test";
constexpr std::string_view kAhdrEncode = "carpool.ahdr_encode";
constexpr std::string_view kSubframesDecoded = "phy.subframes_decoded";
constexpr std::string_view kFcsFailures = "phy.fcs_failures";
constexpr std::string_view kSideVerified = "carpool.side_groups_verified";
constexpr std::string_view kSideFailed = "carpool.side_groups_failed";

// ---- SoakRunner's single-collision-domain timeline, mirrored from
// src/chaos/runner.cpp so a replay makes exactly the runner's calls.

struct Episode {
  double start = 0.0;
  double stop = 0.0;
  std::vector<bool> joined;  ///< indexed by NodeId; [0] unused
  const chaos::TrafficPhase* phase = nullptr;
  double max_intensity = 0.0;
};

std::vector<Episode> segment_timeline(const chaos::Scenario& s) {
  std::vector<double> cuts{0.0, s.duration};
  for (const chaos::ChurnEvent& e : s.churn) cuts.push_back(e.time);
  for (const chaos::TrafficPhase& p : s.traffic) cuts.push_back(p.start);
  for (const chaos::InterferenceEpisode& e : s.interference) {
    cuts.push_back(e.start);
    cuts.push_back(e.stop);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end(),
                         [](double a, double b) {
                           return std::fabs(a - b) < kBoundaryEps;
                         }),
             cuts.end());

  std::vector<Episode> out;
  std::vector<bool> joined(s.num_stas + 1, true);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double start = cuts[i];
    if (start < -kBoundaryEps || start >= s.duration - kBoundaryEps) continue;
    for (const chaos::ChurnEvent& e : s.churn) {
      if (e.time <= start + kBoundaryEps && e.sta < joined.size()) {
        joined[e.sta] = e.join;
      }
    }
    Episode ep;
    ep.start = start;
    ep.stop = std::min(cuts[i + 1], s.duration);
    ep.joined = joined;
    for (const chaos::TrafficPhase& p : s.traffic) {
      if (p.start <= start + kBoundaryEps) ep.phase = &p;
    }
    for (const chaos::InterferenceEpisode& e : s.interference) {
      if (e.start < ep.stop - kBoundaryEps &&
          e.stop > ep.start + kBoundaryEps) {
        ep.max_intensity = std::max(ep.max_intensity, e.intensity);
      }
    }
    out.push_back(std::move(ep));
  }
  return out;
}

void append_flows(std::vector<mac::FlowSpec>& flows,
                  const chaos::TrafficPhase& p, mac::NodeId sta) {
  switch (p.kind) {
    case chaos::TrafficKind::kCbr:
      flows.push_back(traffic::make_cbr_flow(sta, p.frame_bytes, p.interval));
      break;
    case chaos::TrafficKind::kVoip:
      for (mac::FlowSpec& f : traffic::make_voip_call(sta)) {
        flows.push_back(std::move(f));
      }
      break;
    case chaos::TrafficKind::kPoisson:
      flows.push_back(traffic::make_poisson_flow(
          sta, p.interval, traffic::TraceKind::kLibrary, false));
      break;
    case chaos::TrafficKind::kSigcomm:
      for (mac::FlowSpec& f : traffic::make_sigcomm_background(sta)) {
        flows.push_back(std::move(f));
      }
      flows.push_back(traffic::make_cbr_flow(sta, p.frame_bytes, p.interval));
      break;
  }
}

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Field-by-field comparison helper: records the first mismatch.
class Differ {
 public:
  template <class T>
  void field(const char* name, const T& want, const T& got) {
    if (!diff_.empty()) return;
    bool equal;
    if constexpr (std::is_floating_point_v<T>) {
      equal = same_bits(want, got);
    } else {
      equal = want == got;
    }
    if (!equal) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s: %.17g != %.17g", name,
                    static_cast<double>(want), static_cast<double>(got));
      diff_ = buf;
    }
  }
  [[nodiscard]] std::string take() { return std::move(diff_); }

 private:
  std::string diff_;
};

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// ------------------------------------------------------------ StageSample

StageSample StageSample::read() {
  obs::Registry& reg = obs::Registry::global();
  StageSample s;
  obs::Histogram& viterbi = reg.latency_histogram(kViterbi);
  s.viterbi_ns = viterbi.sum();
  s.viterbi_calls = viterbi.count();
  s.equalize_ns = reg.latency_histogram(kEqualize).sum();
  s.ofdm_demod_ns = reg.latency_histogram(kOfdmDemod).sum();
  s.ofdm_mod_ns = reg.latency_histogram(kOfdmMod).sum();
  s.ahdr_test_ns = reg.latency_histogram(kAhdrTest).sum();
  s.ahdr_encode_ns = reg.latency_histogram(kAhdrEncode).sum();
  s.subframes_decoded = reg.counter_value(kSubframesDecoded);
  s.fcs_failures = reg.counter_value(kFcsFailures);
  s.side_verified = reg.counter_value(kSideVerified);
  s.side_failed = reg.counter_value(kSideFailed);
  return s;
}

StageSample StageSample::operator-(const StageSample& before) const {
  StageSample d;
  d.viterbi_ns = viterbi_ns - before.viterbi_ns;
  d.equalize_ns = equalize_ns - before.equalize_ns;
  d.ofdm_demod_ns = ofdm_demod_ns - before.ofdm_demod_ns;
  d.ofdm_mod_ns = ofdm_mod_ns - before.ofdm_mod_ns;
  d.ahdr_test_ns = ahdr_test_ns - before.ahdr_test_ns;
  d.ahdr_encode_ns = ahdr_encode_ns - before.ahdr_encode_ns;
  d.viterbi_calls = viterbi_calls - before.viterbi_calls;
  d.subframes_decoded = subframes_decoded - before.subframes_decoded;
  d.fcs_failures = fcs_failures - before.fcs_failures;
  d.side_verified = side_verified - before.side_verified;
  d.side_failed = side_failed - before.side_failed;
  return d;
}

StageSample& StageSample::operator+=(const StageSample& o) {
  viterbi_ns += o.viterbi_ns;
  equalize_ns += o.equalize_ns;
  ofdm_demod_ns += o.ofdm_demod_ns;
  ofdm_mod_ns += o.ofdm_mod_ns;
  ahdr_test_ns += o.ahdr_test_ns;
  ahdr_encode_ns += o.ahdr_encode_ns;
  viterbi_calls += o.viterbi_calls;
  subframes_decoded += o.subframes_decoded;
  fcs_failures += o.fcs_failures;
  side_verified += o.side_verified;
  side_failed += o.side_failed;
  return *this;
}

// ------------------------------------------------------- per-layer metrics

std::vector<Metric> per_layer_metrics(const Attribution& a) {
  const double total = a.total_ns > 0.0 ? a.total_ns : 1.0;
  const auto share = [total](double ns) { return ns / total; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const auto per_ms = [&](const Meter& m) {
    return ratio(count(m.calls), static_cast<double>(m.ns) / 1e6);
  };

  const double mac_children =
      static_cast<double>(a.phy_model.ns + a.phy_control.ns + a.traffic.ns +
                          a.invariants.ns + a.snr.ns + a.sinr.ns);
  const double mac_self =
      std::max(0.0, static_cast<double>(a.engine_ns) - mac_children);
  // Receive time: timed receive() calls on link, decode probes on ladder.
  const double rx_ns = static_cast<double>(a.rx.ns) + a.probe_ns;
  const double rx_frames = count(a.rx.calls + a.probes);
  const StageSample& st = a.stages;
  const double rx_stages = st.viterbi_ns + st.equalize_ns +
                           st.ofdm_demod_ns + st.ahdr_test_ns;
  const double timed_calls =
      mac_children + a.probe_ns +
      static_cast<double>(a.tx_build.ns + a.channel.ns + a.rx.ns);
  const double shard_p50 = quantile(a.shard_ns, 0.5);
  const double shard_max =
      a.shard_ns.empty()
          ? 0.0
          : *std::max_element(a.shard_ns.begin(), a.shard_ns.end());

  return {
      {"mac.judgements", count(a.phy_model.calls), "count"},
      {"mac.self_share", share(mac_self), "fraction"},
      {"mac.phy_model.calls", count(a.phy_model.calls), "count"},
      {"mac.phy_model.symbols_per_call",
       ratio(count(a.phy_symbols), count(a.phy_model.calls)), "symbols"},
      {"mac.phy_model.calls_per_ms", per_ms(a.phy_model), "1/ms"},
      {"mac.phy_model.share",
       share(static_cast<double>(a.phy_model.ns + a.phy_control.ns)),
       "fraction"},
      {"mac.collision_ratio",
       ratio(count(a.collisions), count(a.tx_attempts)), "fraction"},
      {"mac.aggregated_receivers",
       ratio(count(a.ap_subunits), count(a.ap_txops)), "receivers"},
      {"traffic.calls", count(a.traffic.calls), "count"},
      {"traffic.share", share(static_cast<double>(a.traffic.ns)), "fraction"},
      {"chaos.invariants.share", share(static_cast<double>(a.invariants.ns)),
       "fraction"},
      {"chaos.snr.share", share(static_cast<double>(a.snr.ns)), "fraction"},
      {"chaos.probes", count(a.probes), "count"},
      {"chaos.probes_per_s", ratio(count(a.probes), a.probe_ns / 1e9), "1/s"},
      {"chaos.probe.share", share(a.probe_ns), "fraction"},
      {"chaos.repeats", count(a.repeats), "count"},
      {"sim.sinr.calls", count(a.sinr.calls), "count"},
      {"sim.sinr.calls_per_ms", per_ms(a.sinr), "1/ms"},
      {"sim.sinr.share", share(static_cast<double>(a.sinr.ns)), "fraction"},
      {"sim.domains", count(a.domains), "count"},
      {"sim.epochs", count(a.epochs), "count"},
      {"par.efficiency", quantile(a.efficiency, 0.5), "fraction"},
      {"par.shard_imbalance", ratio(shard_max, shard_p50), "ratio"},
      {"carpool.tx_build.share", share(static_cast<double>(a.tx_build.ns)),
       "fraction"},
      {"carpool.ahdr_encode.share", share(st.ahdr_encode_ns), "fraction"},
      {"carpool.rx.share", share(rx_ns), "fraction"},
      {"carpool.rx.attributed_fraction",
       ratio(rx_stages + static_cast<double>(a.frontend.ns), rx_ns),
       "fraction"},
      {"carpool.rx.symbols_skipped_ratio",
       ratio(count(a.symbols_skipped),
             count(a.symbols_full + a.symbols_skipped)),
       "fraction"},
      {"carpool.rx.fcs_ok_ratio",
       ratio(count(st.subframes_decoded - st.fcs_failures),
             count(st.subframes_decoded)),
       "fraction"},
      {"carpool.side_verified_ratio",
       ratio(count(st.side_verified),
             count(st.side_verified + st.side_failed)),
       "fraction"},
      {"carpool.ahdr_test.share", share(st.ahdr_test_ns), "fraction"},
      {"phy.frontend.share", share(static_cast<double>(a.frontend.ns)),
       "fraction"},
      {"phy.ofdm_demod.share", share(st.ofdm_demod_ns), "fraction"},
      {"phy.equalize.share", share(st.equalize_ns), "fraction"},
      {"phy.ofdm_mod.share", share(st.ofdm_mod_ns), "fraction"},
      {"fec.viterbi.share", share(st.viterbi_ns), "fraction"},
      {"fec.viterbi.calls_per_frame", ratio(count(st.viterbi_calls), rx_frames),
       "calls"},
      {"channel.share", share(static_cast<double>(a.channel.ns)), "fraction"},
      {"obs.trace_overhead",
       a.untraced_ns > 0.0 ? a.traced_ns / a.untraced_ns - 1.0 : 0.0,
       "ratio"},
      {"obs.attributed_fraction", share(timed_calls), "fraction"},
  };
}

// ---------------------------------------------------------------- SpanLog

SpanLog::SpanLog() : origin_ns_(now_ns()) {}

void SpanLog::add(std::string name, std::int64_t start_ns,
                  std::int64_t end_ns, int track) {
  spans_.push_back({std::move(name), start_ns, end_ns, track});
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << R"({"name":"thread_name","ph":"M","pid":1,"tid":1,)"
      << R"("args":{"name":"untraced ops"}},)" << '\n';
  out << R"({"name":"thread_name","ph":"M","pid":1,"tid":2,)"
      << R"("args":{"name":"traced replay"}})";
  char buf[96];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f,\"tid\":%d}",
                  static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.track);
    out << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1," << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ------------------------------------------------------- timed call sites

double TimedPhyModel::subframe_error_prob(
    const mac::SubframeChannelQuery& query) const {
  const std::int64_t t0 = now_ns();
  const double p = inner_.subframe_error_prob(query);
  at_.phy_model.add(now_ns() - t0);
  at_.phy_symbols += query.num_symbols;
  return p;
}

double TimedPhyModel::control_error_prob(double snr_db) const {
  const std::int64_t t0 = now_ns();
  const double p = inner_.control_error_prob(snr_db);
  at_.phy_control.add(now_ns() - t0);
  return p;
}

void time_flow(mac::FlowSpec& flow, Attribution& at) {
  flow.next = [next = std::move(flow.next), &at](double now, Rng& rng) {
    const std::int64_t t0 = now_ns();
    const std::pair<double, std::size_t> arrival = next(now, rng);
    at.traffic.add(now_ns() - t0);
    return arrival;
  };
}

// ------------------------------------------------------------ soak replay

SoakTotals totals_of(const chaos::SoakReport& report) {
  return {report.frames_judged,    report.steps,
          report.episodes_run,     report.repeats,
          report.sim_seconds,      report.mean_goodput_bps,
          report.violations.size(), report.margins.minima()};
}

std::string diff_totals(const SoakTotals& want, const SoakTotals& got) {
  Differ d;
  d.field("frames_judged", want.frames_judged, got.frames_judged);
  d.field("steps", want.steps, got.steps);
  d.field("episodes_run", want.episodes_run, got.episodes_run);
  d.field("repeats", want.repeats, got.repeats);
  d.field("sim_seconds", want.sim_seconds, got.sim_seconds);
  d.field("mean_goodput_bps", want.mean_goodput_bps, got.mean_goodput_bps);
  d.field("violations", want.violations, got.violations);
  d.field("margins.size", want.margins.size(), got.margins.size());
  for (const auto& [name, margin] : want.margins) {
    const auto it = got.margins.find(name);
    d.field(("margin " + name).c_str(), margin,
            it == got.margins.end() ? std::nan("") : it->second);
  }
  return d.take();
}

SoakTotals replay_soak(const chaos::Scenario& scenario,
                       const chaos::SoakOptions& opts, Attribution& at,
                       SpanLog& spans) {
  chaos::Scenario s = scenario;
  if (s.traffic.empty()) {
    s.traffic.push_back({0.0, chaos::TrafficKind::kCbr, 1200, 4e-3});
  }
  if (s.topology.has_value() || !s.snr_trace.empty() ||
      s.shadowing.has_value() || s.inject.has_value() ||
      s.probe_interval > 0.0 || s.num_stas == 0 || opts.max_frames == 0) {
    throw std::invalid_argument(
        "replay_soak: only probe-free single-domain budget campaigns");
  }
  const std::vector<Episode> episodes = segment_timeline(s);
  const auto phy = std::make_shared<TimedPhyModel>(at);

  SoakTotals out;
  std::vector<chaos::EpisodeSummary> summaries;
  chaos::MarginTracker margins;
  bool stop = false;
  const std::size_t max_repeats = std::max<std::size_t>(1, opts.max_repeats);
  for (std::size_t repeat = 0; repeat < max_repeats && !stop; ++repeat) {
    const std::int64_t repeat_start = now_ns();
    for (std::size_t ei = 0; ei < episodes.size() && !stop; ++ei) {
      const Episode& ep = episodes[ei];
      const std::uint64_t frame_base = out.frames_judged;

      mac::SimConfig cfg;
      cfg.scheme = s.scheme;
      cfg.duration = ep.stop - ep.start;
      cfg.link_policy = s.link_policy;
      cfg.default_snr_db = s.default_snr_db;
      cfg.num_stas = s.num_stas;
      cfg.seed = chaos::derive_seed(s.seed, repeat, ei);
      cfg.phy = phy;

      const sim::TestbedLayout layout;
      std::vector<sim::MobilityPath> paths(s.num_stas + 1);
      std::vector<bool> has_path(s.num_stas + 1, false);
      for (const chaos::MobilityTrack& t : s.mobility) {
        if (t.sta < paths.size()) {
          paths[t.sta] = sim::MobilityPath(t.waypoints);
          has_path[t.sta] = true;
        }
      }
      cfg.sta_snr_fn = [&s, &at, layout, paths = std::move(paths),
                        has_path = std::move(has_path),
                        ep_start = ep.start](mac::NodeId sta, double now) {
        const std::int64_t t0 = now_ns();
        const double t = ep_start + now;
        double snr = s.default_snr_db;
        if (sta < has_path.size() && has_path[sta]) {
          snr = layout.snr_db_along(paths[sta], t, s.power_magnitude);
        }
        for (const chaos::InterferenceEpisode& e : s.interference) {
          if (t < e.start || t >= e.stop) continue;
          if (!e.stas.empty() &&
              std::find(e.stas.begin(), e.stas.end(),
                        static_cast<std::uint32_t>(sta)) == e.stas.end()) {
            continue;
          }
          snr -= e.snr_penalty_db;
        }
        at.snr.add(now_ns() - t0);
        return snr;
      };

      chaos::StepInvariants checker(frame_base, ep.start, ei, repeat,
                                    &margins);
      std::uint64_t episode_judged = 0;
      bool stop_episode = false;
      cfg.observer = [&](const mac::SimStepView& view) {
        ++out.steps;
        episode_judged = view.frames_judged;
        if (view.txop.downlink && !view.txop.collision) {
          ++at.ap_txops;
          at.ap_subunits += view.txop.subunits;
        }
        const std::int64_t t0 = now_ns();
        const bool violated = checker.check(view).has_value();
        at.invariants.add(now_ns() - t0);
        if (violated) ++out.violations;
        if (violated || frame_base + view.frames_judged >= opts.max_frames) {
          stop = stop_episode = true;
          return false;
        }
        return true;
      };

      mac::Simulator sim(std::move(cfg));
      if (ep.phase != nullptr) {
        std::vector<mac::FlowSpec> flows;
        for (mac::NodeId sta = 1; sta <= s.num_stas; ++sta) {
          if (ep.joined[sta]) append_flows(flows, *ep.phase, sta);
        }
        for (mac::FlowSpec& f : flows) {
          time_flow(f, at);
          sim.add_flow(std::move(f));
        }
      }
      const mac::SimResult res = sim.run();

      if (!stop_episode) {
        const std::int64_t t0 = now_ns();
        bool violated = false;
        if (opts.check_fairness) {
          violated = chaos::check_fairness(res, opts.fairness,
                                           frame_base + episode_judged,
                                           ep.stop, ei, repeat, &margins)
                         .has_value();
        }
        if (!violated && opts.check_energy) {
          violated = chaos::check_energy(res, frame_base + episode_judged,
                                         ep.stop, ei, repeat, &margins)
                         .has_value();
        }
        at.invariants.add(now_ns() - t0);
        if (violated) {
          ++out.violations;
          stop = true;
        }
      }
      at.tx_attempts += res.tx_attempts;
      at.collisions += res.collisions;
      out.frames_judged += episode_judged;
      out.sim_seconds += res.duration;
      ++out.episodes_run;
      summaries.push_back({ei, repeat, ep.start, ep.stop, ep.max_intensity,
                           res.downlink_goodput_bps + res.uplink_goodput_bps,
                           episode_judged});
    }
    out.repeats = repeat + 1;
    const std::int64_t repeat_end = now_ns();
    at.engine_ns += repeat_end - repeat_start;
    at.shard_ns.push_back(static_cast<double>(repeat_end - repeat_start));
    spans.add("replay.repeat", repeat_start, repeat_end, 2);
    if (out.frames_judged >= opts.max_frames) break;
  }

  par::KahanSum goodput;
  std::size_t judged_episodes = 0;
  for (const chaos::EpisodeSummary& ep : summaries) {
    if (ep.frames_judged > 0) {
      goodput.add(ep.goodput_bps);
      ++judged_episodes;
    }
  }
  if (judged_episodes > 0) {
    out.mean_goodput_bps =
        goodput.value() / static_cast<double>(judged_episodes);
  }
  if (out.violations == 0 && opts.check_cliffs &&
      chaos::check_goodput_cliffs(summaries, 0.10, &margins).has_value()) {
    ++out.violations;
  }
  out.margins = margins.minima();
  return out;
}

std::string diff_sim_results(const mac::SimResult& want,
                             const mac::SimResult& got) {
  Differ d;
  d.field("duration", want.duration, got.duration);
  d.field("downlink_goodput_bps", want.downlink_goodput_bps,
          got.downlink_goodput_bps);
  d.field("uplink_goodput_bps", want.uplink_goodput_bps,
          got.uplink_goodput_bps);
  d.field("mean_delay_s", want.mean_delay_s, got.mean_delay_s);
  d.field("p95_delay_s", want.p95_delay_s, got.p95_delay_s);
  d.field("max_delay_s", want.max_delay_s, got.max_delay_s);
  d.field("dl_frames_delivered", want.dl_frames_delivered,
          got.dl_frames_delivered);
  d.field("dl_frames_dropped", want.dl_frames_dropped, got.dl_frames_dropped);
  d.field("ul_frames_delivered", want.ul_frames_delivered,
          got.ul_frames_delivered);
  d.field("ul_frames_dropped", want.ul_frames_dropped, got.ul_frames_dropped);
  d.field("tx_attempts", want.tx_attempts, got.tx_attempts);
  d.field("collisions", want.collisions, got.collisions);
  d.field("subframe_failures", want.subframe_failures, got.subframe_failures);
  d.field("false_positive_decodes", want.false_positive_decodes,
          got.false_positive_decodes);
  d.field("ls_transitions", want.ls_transitions, got.ls_transitions);
  d.field("airtime_payload", want.airtime_payload, got.airtime_payload);
  d.field("airtime_overhead", want.airtime_overhead, got.airtime_overhead);
  d.field("airtime_collision", want.airtime_collision,
          got.airtime_collision);
  d.field("mean_ap_queue_depth", want.mean_ap_queue_depth,
          got.mean_ap_queue_depth);
  d.field("avg_aggregated_receivers", want.avg_aggregated_receivers,
          got.avg_aggregated_receivers);
  d.field("jain_fairness", want.jain_fairness, got.jain_fairness);
  d.field("per_sta_goodput_bps.size", want.per_sta_goodput_bps.size(),
          got.per_sta_goodput_bps.size());
  for (std::size_t i = 0; i < want.per_sta_goodput_bps.size() &&
                          i < got.per_sta_goodput_bps.size();
       ++i) {
    d.field("per_sta_goodput_bps", want.per_sta_goodput_bps[i],
            got.per_sta_goodput_bps[i]);
  }
  d.field("node_energy.size", want.node_energy.size(),
          got.node_energy.size());
  for (std::size_t i = 0;
       i < want.node_energy.size() && i < got.node_energy.size(); ++i) {
    d.field("node_energy.joules", want.node_energy[i].joules,
            got.node_energy[i].joules);
  }
  return d.take();
}

// ----------------------------------------------------------------- Digest

Digest& Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 0x100000001b3ULL;
  }
  return *this;
}

Digest& Digest::add(double v) noexcept {
  return add(std::bit_cast<std::uint64_t>(v));
}

}  // namespace carpool::bench_e2e
