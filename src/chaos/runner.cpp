#include "chaos/runner.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>

#include "carpool/transceiver.hpp"
#include "chaos/checkpoint.hpp"
#include "channel/shadowing.hpp"
#include "impair/impair.hpp"
#include "mac/domain_sim.hpp"
#include "mac/simulator.hpp"
#include "obs/registry.hpp"
#include "par/par.hpp"
#include "phy/frame.hpp"
#include "sim/multi_bss.hpp"
#include "sim/topology.hpp"
#include "traffic/generators.hpp"

namespace carpool::chaos {
namespace {

constexpr double kBoundaryEps = 1e-9;

/// Multi-BSS context for a topology scenario, built once per campaign:
/// the AP grid, every STA's mobility path, and the pre-computed
/// association timeline whose handover instants become episode cuts.
/// Null for classic single-collision-domain scenarios.
struct TopoCtx {
  sim::Topology topo;
  std::vector<sim::MobilityPath> paths;  ///< indexed by STA id; [0] unused
  sim::AssociationTimeline timeline;
};

std::optional<TopoCtx> make_topo_ctx(const Scenario& s) {
  if (!s.topology.has_value()) return std::nullopt;
  sim::Topology topo(*s.topology, s.power_magnitude);
  std::vector<sim::MobilityPath> paths(s.num_stas + 1);
  for (const MobilityTrack& t : s.mobility) {
    if (t.sta < paths.size()) {
      paths[t.sta] = sim::MobilityPath(t.waypoints);
    }
  }
  sim::AssociationTimeline timeline(topo, s.num_stas, paths, s.duration);
  return TopoCtx{std::move(topo), std::move(paths), std::move(timeline)};
}

/// One contiguous slice of the timeline with constant membership,
/// traffic phase, and interference set.
struct Episode {
  double start = 0.0;
  double stop = 0.0;
  std::vector<bool> joined;  ///< indexed by NodeId; [0] unused
  const TrafficPhase* phase = nullptr;  ///< nullptr = idle segment
  double max_intensity = 0.0;  ///< strongest overlapping interference
};

/// Timeline -> episodes: split at churn, traffic, and interference
/// boundaries so each slice runs under a constant configuration.
/// `extra_cuts` adds topology handover instants, so within an episode
/// every STA's association is constant too.
std::vector<Episode> segment_timeline(const Scenario& s,
                                      const std::vector<double>& extra_cuts =
                                          {}) {
  std::vector<double> cuts{0.0, s.duration};
  for (const ChurnEvent& e : s.churn) cuts.push_back(e.time);
  for (const TrafficPhase& p : s.traffic) cuts.push_back(p.start);
  for (const InterferenceEpisode& e : s.interference) {
    cuts.push_back(e.start);
    cuts.push_back(e.stop);
  }
  cuts.insert(cuts.end(), extra_cuts.begin(), extra_cuts.end());
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
    const double stop = cuts[i + 1];
    if (start < -kBoundaryEps || start >= s.duration - kBoundaryEps) {
      continue;
    }
    // Membership in force at this slice: all churn up to its start.
    for (const ChurnEvent& e : s.churn) {
      if (e.time <= start + kBoundaryEps && e.sta < joined.size()) {
        joined[e.sta] = e.join;
      }
    }
    Episode ep;
    ep.start = start;
    ep.stop = std::min(stop, s.duration);
    ep.joined = joined;
    for (const TrafficPhase& p : s.traffic) {
      if (p.start <= start + kBoundaryEps) ep.phase = &p;
    }
    for (const InterferenceEpisode& e : s.interference) {
      if (e.start < ep.stop - kBoundaryEps &&
          e.stop > ep.start + kBoundaryEps) {
        ep.max_intensity = std::max(ep.max_intensity, e.intensity);
      }
    }
    out.push_back(std::move(ep));
  }
  return out;
}

/// Append the traffic-phase flows of one STA (`sta` is the id the flows
/// address inside the simulator that consumes them — the global id in the
/// single-domain path, the domain-local id in a multi-BSS domain).
void append_flows(std::vector<mac::FlowSpec>& flows, const TrafficPhase& p,
                  mac::NodeId sta) {
  switch (p.kind) {
    case TrafficKind::kCbr:
      flows.push_back(traffic::make_cbr_flow(sta, p.frame_bytes,
                                             p.interval));
      break;
    case TrafficKind::kVoip: {
      auto call = traffic::make_voip_call(sta);
      flows.insert(flows.end(), std::make_move_iterator(call.begin()),
                   std::make_move_iterator(call.end()));
      break;
    }
    case TrafficKind::kPoisson:
      flows.push_back(traffic::make_poisson_flow(
          sta, p.interval, traffic::TraceKind::kLibrary, false));
      break;
    case TrafficKind::kSigcomm: {
      auto bg = traffic::make_sigcomm_background(sta);
      flows.insert(flows.end(), std::make_move_iterator(bg.begin()),
                   std::make_move_iterator(bg.end()));
      flows.push_back(traffic::make_cbr_flow(sta, p.frame_bytes,
                                             p.interval));
      break;
    }
  }
}

/// Flows for one episode under its traffic phase.
std::vector<mac::FlowSpec> build_flows(const Episode& ep,
                                       const Scenario& s) {
  std::vector<mac::FlowSpec> flows;
  if (ep.phase == nullptr) return flows;
  for (mac::NodeId sta = 1; sta <= s.num_stas; ++sta) {
    if (!ep.joined[sta]) continue;
    append_flows(flows, *ep.phase, sta);
  }
  return flows;
}

/// PHY decode probe harness: one real Carpool frame per probe pushed
/// through a trace-gated Gilbert-Elliott chain, decoded by a real
/// CarpoolReceiver. Probe index == chain frame index, so the episode
/// trace is computable up front from the scenario's interference
/// schedule and the whole probe sequence replays bit for bit.
///
/// Each probe targets one STA, and a multi-BSS campaign runs one harness
/// per collision domain holding exactly the probes whose target STA is
/// associated with that domain's AP at probe time: a probe measures the
/// link the STA is actually on, not AP 0's. Domain 0 keeps the legacy
/// chain salt, so single-domain scenarios are unchanged.
class ProbeHarness {
 public:
  struct Probe {
    double time = 0.0;
    std::uint32_t sta = 1;  ///< target STA (global id)
  };

  /// `shadow` (nullable) is the repeat's correlated-shadowing process;
  /// together with the scenario's recorded SNR trace and the topology
  /// SINR of the probed link it contributes a per-probe gain offset so
  /// measured channels reach the real PHY decode path, not just the
  /// analytic MAC model.
  ProbeHarness(const Scenario& s, std::uint64_t repeat,
               const channel::CorrelatedShadowing* shadow,
               const TopoCtx* topo, std::uint32_t domain,
               std::vector<Probe> probes)
      : chain_(derive_seed(s.seed, repeat, 0x70726f62ULL + domain)),
        probes_(std::move(probes)) {
    if (probes_.empty()) return;
    // Recorded-trace / shadowing / topology gain per probe, applied
    // before the interference stage (signal power moves first,
    // interference power is layered on top). Offsets are evaluated for
    // the probe's target STA on its associated AP's link.
    if (!s.snr_trace.empty() || shadow != nullptr || topo != nullptr) {
      static const sim::MobilityPath kNoPath;
      impair::SnrOffsetTraceConfig offsets;
      offsets.offset_db.resize(probes_.size(), 0.0);
      for (std::size_t i = 0; i < probes_.size(); ++i) {
        const double t = probes_[i].time;
        const std::uint32_t sta = probes_[i].sta;
        double off = 0.0;
        if (topo != nullptr) {
          const sim::MobilityPath& path =
              sta < topo->paths.size() ? topo->paths[sta] : kNoPath;
          off += topo->topo.sinr_db(domain,
                                    topo->topo.position(sta, path, t)) -
                 s.default_snr_db;
        }
        if (!s.snr_trace.empty()) {
          off += s.snr_trace.snr_at(sta, t, s.default_snr_db) -
                 s.default_snr_db;
        }
        if (shadow != nullptr && sta >= 1) {
          off += shadow->offset_db(sta - 1, t);
        }
        offsets.offset_db[i] = off;
      }
      chain_.add(impair::make_snr_offset_trace(std::move(offsets)));
    }
    // Map interference episodes onto probe-index spans.
    impair::EpisodeTrace trace;
    std::uint64_t span_first = 0;
    bool open = false;
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      bool inside = false;
      for (const InterferenceEpisode& e : s.interference) {
        if (probes_[i].time >= e.start && probes_[i].time < e.stop) {
          inside = true;
          break;
        }
      }
      if (inside && !open) {
        span_first = i;
        open = true;
      } else if (!inside && open) {
        trace.spans.push_back({span_first, i - 1});
        open = false;
      }
    }
    if (open) trace.spans.push_back({span_first, probes_.size() - 1});

    impair::GilbertElliottConfig ge;
    ge.bad_noise_power = 1.0;
    chain_.add(impair::make_trace_gated(std::move(trace),
                                        impair::make_gilbert_elliott(ge)));

    // One deterministic two-subframe frame shared by every probe; the
    // impairment chain's (seed, frame) streams supply the per-probe
    // variation.
    Rng rng(derive_seed(s.seed, repeat, 0x70736475ULL));
    const MacAddress self{{0x02, 0xC4, 0x47, 0x00, 0x00, 0x01}};
    std::vector<SubframeSpec> subframes(2);
    for (SubframeSpec& sub : subframes) {
      sub.receiver = self;
      Bytes body(200);
      for (std::uint8_t& b : body) {
        b = static_cast<std::uint8_t>(rng.uniform_int(256));
      }
      sub.psdu = append_fcs(body);
      sub.mcs_index = 2;
    }
    const CarpoolTransmitter tx;
    wave_ = tx.build(subframes);
    CarpoolRxConfig rx_cfg;
    rx_cfg.self = self;
    rx_ = std::make_unique<CarpoolReceiver>(rx_cfg);
  }

  [[nodiscard]] const std::vector<Probe>& probes() const noexcept {
    return probes_;
  }

  /// Run the next scheduled probe and return the decode result.
  [[nodiscard]] CarpoolRxResult fire() {
    const CxVec rx_wave = chain_.run(wave_);
    obs::Registry::current().counter("chaos.probes").add();
    return rx_->receive(rx_wave);
  }

 private:
  impair::ImpairmentChain chain_;
  std::vector<Probe> probes_;
  CxVec wave_;
  std::unique_ptr<CarpoolReceiver> rx_;
};

/// The whole timeline's probe schedule, partitioned by collision domain:
/// probe k fires at (k+1)*probe_interval and targets STA (k % num_stas)+1;
/// its domain is that STA's associated AP at probe time (always 0 without
/// a topology — the classic single-domain schedule, unchanged).
std::vector<std::vector<ProbeHarness::Probe>> plan_probes(
    const Scenario& s, const TopoCtx* topo) {
  const std::size_t n_domains =
      topo != nullptr ? topo->topo.ap_count() : 1;
  std::vector<std::vector<ProbeHarness::Probe>> plan(n_domains);
  if (s.probe_interval <= 0.0 || s.num_stas == 0) return plan;
  std::size_t k = 0;
  for (double t = s.probe_interval; t < s.duration;
       t += s.probe_interval, ++k) {
    ProbeHarness::Probe probe;
    probe.time = t;
    probe.sta = static_cast<std::uint32_t>(k % s.num_stas) + 1;
    std::size_t domain = 0;
    if (topo != nullptr) domain = topo->timeline.ap_at(probe.sta, t);
    plan[domain].push_back(probe);
  }
  return plan;
}

// ----------------------------------------------------- repeat execution
//
// One full timeline pass, extracted so every repeat of the wave
// scheduler (docs/PARALLELISM.md), live or detached, runs the *same*
// code. A `live` pass runs with the real campaign coordinates — frame
// budget and fault injection armed, violations stamped with
// campaign-wide frame counts. A detached pass (live == false) runs the
// identical simulation from frame base 0 with those stop checks
// disarmed; the frame base feeds only stop checks and recorded
// coordinates (see StepInvariants), so a detached pass is bit-identical
// to a live one right up to the first stop event.

struct RepeatOutcome {
  std::vector<EpisodeSummary> summaries;
  std::vector<std::uint64_t> episode_steps;  ///< observer calls per episode
  std::uint64_t judged = 0;   ///< reception judgements across the repeat
  std::uint64_t steps = 0;    ///< observer invocations
  std::uint64_t probes = 0;   ///< PHY decode probes executed
  std::size_t episodes_run = 0;
  double sim_seconds = 0.0;
  std::vector<Violation> violations;
  MarginTracker margins;  ///< per-invariant minima over the repeat
  bool stopped = false;  ///< a stop event fired (violation/inject/budget)
};

RepeatOutcome run_one_repeat(const Scenario& s,
                             const std::vector<Episode>& episodes,
                             const TopoCtx* topo, std::size_t repeat,
                             std::uint64_t campaign_base,
                             const SoakOptions& opts, bool live) {
  RepeatOutcome out;

  // Correlated shadowing (channel/shadowing.hpp): one process per repeat
  // spanning the whole timeline, seeded from (scenario seed, repeat) so
  // serial and detached passes see identical offsets. Station positions
  // come from the first mobility waypoint when present, else the testbed
  // layout's receiver grid.
  const sim::TestbedLayout shadow_layout;
  std::optional<channel::CorrelatedShadowing> shadowing;
  if (s.shadowing.has_value() && s.num_stas > 0) {
    std::vector<std::pair<double, double>> positions;
    positions.reserve(s.num_stas);
    for (std::uint32_t sta = 1; sta <= s.num_stas; ++sta) {
      const sim::Point* p = nullptr;
      for (const MobilityTrack& t : s.mobility) {
        if (t.sta == sta && !t.waypoints.empty()) {
          p = &t.waypoints.front().p;
          break;
        }
      }
      if (p != nullptr) {
        positions.emplace_back(p->x, p->y);
      } else {
        const auto& rx = shadow_layout.receivers();
        const sim::Point& q = rx[(sta - 1) % rx.size()];
        positions.emplace_back(q.x, q.y);
      }
    }
    channel::ShadowingConfig sc;
    sc.sigma_db = s.shadowing->sigma_db;
    sc.decorr_distance_m = s.shadowing->decorr_distance;
    sc.decorr_time_s = s.shadowing->decorr_time;
    sc.sample_interval_s = s.shadowing->sample_interval;
    shadowing.emplace(sc, std::move(positions), s.duration,
                      derive_seed(s.seed, repeat, 0x73686164ULL));
  }
  const channel::CorrelatedShadowing* shadow =
      shadowing.has_value() ? &*shadowing : nullptr;

  // One probe harness per collision domain, each holding the probes whose
  // target STA is associated with that domain (always one domain, all
  // probes, without a topology).
  std::vector<std::vector<ProbeHarness::Probe>> probe_plan =
      plan_probes(s, topo);
  const std::size_t n_domains = probe_plan.size();
  std::vector<ProbeHarness> probes;
  probes.reserve(n_domains);
  for (std::size_t d = 0; d < n_domains; ++d) {
    probes.emplace_back(s, repeat, shadow, topo,
                        static_cast<std::uint32_t>(d),
                        std::move(probe_plan[d]));
  }
  std::vector<std::size_t> next_probe(n_domains, 0);
  bool stop_campaign = false;
  bool injected_done = false;

  for (std::size_t ei = 0; ei < episodes.size() && !stop_campaign; ++ei) {
    const Episode& ep = episodes[ei];
    const double ep_start = ep.start;

    bool stop_episode = false;
    std::uint64_t episode_judged_total = 0;
    std::uint64_t episode_steps_total = 0;
    EpisodeSummary summary;
    summary.index = ei;
    summary.repeat = repeat;
    summary.start = ep.start;
    summary.stop = ep.stop;
    summary.intensity = ep.max_intensity;

    // One collision domain per AP, run sequentially in AP order (the
    // multi-BSS serial reference; whole-repeat sharding happens a level
    // up). The classic path is the one-domain special case.
    for (std::size_t d = 0; d < n_domains && !stop_episode; ++d) {
      // STAs this domain serves during the episode: joined, and (with a
      // topology) associated with AP `d` for the whole slice — episodes
      // are cut at handover instants, so association is constant here.
      std::vector<mac::NodeId> members;
      for (mac::NodeId sta = 1; sta <= s.num_stas; ++sta) {
        if (!ep.joined[sta]) continue;
        if (topo != nullptr &&
            topo->timeline.ap_at(sta, ep.start) != d) {
          continue;
        }
        members.push_back(sta);
      }
      if (topo != nullptr && members.empty()) {
        // An AP serving nobody this slice has no collision domain to
        // run; its pending probes fire at catch-up the next time the
        // domain is active. The classic path never skips: it always ran
        // a full-width simulator even when churn emptied the cell.
        continue;
      }

      const std::uint64_t frame_base =
          campaign_base + out.judged + episode_judged_total;

      mac::SimConfig cfg;
      cfg.scheme = s.scheme;
      cfg.duration = ep.stop - ep.start;
      cfg.link_policy = s.link_policy;
      cfg.default_snr_db = s.default_snr_db;

      if (topo == nullptr) {
        // Single collision domain: global STA numbering, mobility over
        // the testbed pathloss map.
        cfg.num_stas = s.num_stas;
        cfg.seed = derive_seed(s.seed, repeat, ei);

        // Time-varying SNR: mobility via the testbed pathloss map, plus
        // the penalty of every interference episode in force at the
        // absolute time of the judgement.
        const sim::TestbedLayout layout;
        std::vector<sim::MobilityPath> paths(s.num_stas + 1);
        std::vector<bool> has_path(s.num_stas + 1, false);
        for (const MobilityTrack& t : s.mobility) {
          if (t.sta < paths.size()) {
            paths[t.sta] = sim::MobilityPath(t.waypoints);
            has_path[t.sta] = true;
          }
        }
        cfg.sta_snr_fn = [&s, layout, paths = std::move(paths),
                          has_path = std::move(has_path), ep_start,
                          shadow](mac::NodeId sta, double now) {
          const double t = ep_start + now;
          double snr = s.default_snr_db;
          if (sta < has_path.size() && has_path[sta]) {
            snr = layout.snr_db_along(paths[sta], t, s.power_magnitude);
          }
          // Recorded channel: where the capture has samples for this STA
          // the measured SNR replaces the synthetic base (step-hold
          // between samples); interference penalties and shadowing still
          // layer on.
          if (!s.snr_trace.empty()) {
            snr = s.snr_trace.snr_at(static_cast<std::uint32_t>(sta), t,
                                     snr);
          }
          for (const InterferenceEpisode& e : s.interference) {
            if (t < e.start || t >= e.stop) continue;
            if (!e.stas.empty() &&
                std::find(e.stas.begin(), e.stas.end(),
                          static_cast<std::uint32_t>(sta)) ==
                    e.stas.end()) {
              continue;
            }
            snr -= e.snr_penalty_db;
          }
          if (shadow != nullptr && sta >= 1) {
            snr += shadow->offset_db(static_cast<std::size_t>(sta) - 1, t);
          }
          return snr;
        };
      } else {
        // Multi-BSS domain: local STA numbering (local l = members[l-1]),
        // SNR base from the topology SINR of this AP at the STA's
        // position; recorded traces, interference penalties, and
        // shadowing layer on top exactly as in the single-domain path.
        cfg.num_stas = members.size();
        cfg.seed = sim::MultiBssSim::domain_seed(
            derive_seed(s.seed, repeat, ei), d, ei);
        cfg.sta_snr_fn = [&s,
                          sinr = sim::DomainSinr(topo->topo, d, members,
                                                 topo->paths, ep_start),
                          members, ep_start,
                          shadow](mac::NodeId local, double now) {
          const double t = ep_start + now;
          const mac::NodeId sta = members[local - 1];
          double snr = sinr(local, now);
          if (!s.snr_trace.empty()) {
            snr = s.snr_trace.snr_at(static_cast<std::uint32_t>(sta), t,
                                     snr);
          }
          for (const InterferenceEpisode& e : s.interference) {
            if (t < e.start || t >= e.stop) continue;
            if (!e.stas.empty() &&
                std::find(e.stas.begin(), e.stas.end(),
                          static_cast<std::uint32_t>(sta)) ==
                    e.stas.end()) {
              continue;
            }
            snr -= e.snr_penalty_db;
          }
          if (shadow != nullptr && sta >= 1) {
            snr += shadow->offset_db(static_cast<std::size_t>(sta) - 1, t);
          }
          return snr;
        };
      }

      StepInvariants checker(frame_base, ep.start, ei, repeat,
                             &out.margins);
      std::uint64_t episode_judged = 0;
      std::uint64_t episode_steps = 0;
      ProbeHarness& domain_probes = probes[d];
      std::size_t& probe_cursor = next_probe[d];
      cfg.observer = [&](const mac::SimStepView& view) {
        ++out.steps;
        ++episode_steps;
        episode_judged = view.frames_judged;

        if (auto v = checker.check(view)) {
          out.violations.push_back(std::move(*v));
          stop_campaign = stop_episode = true;
          return false;
        }

        // Deliberately seeded fault: trips the moment the campaign-wide
        // judgement count crosses the scripted frame. Recorded with
        // exactly that frame so replay and shrinking compare bit for bit.
        if (live && s.inject && !injected_done &&
            frame_base + view.frames_judged >= s.inject->frame) {
          injected_done = true;
          Violation v;
          v.invariant = "injected";
          v.detail = "deliberately seeded fault (scenario "
                     "inject_violation)";
          v.frame = s.inject->frame;
          v.time = ep.start + view.now;
          v.episode = ei;
          v.repeat = repeat;
          out.violations.push_back(std::move(v));
          stop_campaign = stop_episode = true;
          return false;
        }

        // PHY decode probes due by now on this domain's link.
        while (probe_cursor < domain_probes.probes().size() &&
               domain_probes.probes()[probe_cursor].time <=
                   ep.start + view.now) {
          ++probe_cursor;
          ++out.probes;
          const CarpoolRxResult rx = domain_probes.fire();
          if (auto v = check_decode(rx, frame_base + view.frames_judged,
                                    ep.start + view.now, ei, repeat,
                                    opts.rte_norm_bound, &out.margins)) {
            out.violations.push_back(std::move(*v));
            stop_campaign = stop_episode = true;
            return false;
          }
        }

        if (live && opts.max_frames > 0 &&
            frame_base + view.frames_judged >= opts.max_frames) {
          stop_campaign = stop_episode = true;  // budget, not a violation
          return false;
        }
        return true;
      };

      mac::DomainSim sim(cfg, static_cast<std::uint32_t>(d));
      if (topo == nullptr) {
        for (mac::FlowSpec& f : build_flows(ep, s)) {
          sim.add_flow(std::move(f));
        }
      } else if (ep.phase != nullptr) {
        std::vector<mac::FlowSpec> flows;
        for (std::size_t local = 1; local <= members.size(); ++local) {
          append_flows(flows, *ep.phase,
                       static_cast<mac::NodeId>(local));
        }
        for (mac::FlowSpec& f : flows) sim.add_flow(std::move(f));
      }
      const mac::SimResult res = sim.run();

      // Episode-end invariants run only on domains that completed without
      // a stop event: a stopping repeat is re-run live anyway, so
      // skipping its partial slice keeps detached and live passes
      // bit-identical.
      if (!stop_episode) {
        if (opts.check_fairness) {
          if (auto v = check_fairness(res, opts.fairness,
                                      frame_base + episode_judged, ep.stop,
                                      ei, repeat, &out.margins)) {
            out.violations.push_back(std::move(*v));
            stop_campaign = stop_episode = true;
          }
        }
        if (!stop_episode && opts.check_energy) {
          if (auto v = check_energy(res, frame_base + episode_judged,
                                    ep.stop, ei, repeat, &out.margins)) {
            out.violations.push_back(std::move(*v));
            stop_campaign = stop_episode = true;
          }
        }
      }

      episode_judged_total += episode_judged;
      episode_steps_total += episode_steps;
      out.sim_seconds += res.duration;
      summary.goodput_bps +=
          res.downlink_goodput_bps + res.uplink_goodput_bps;
      if (topo != nullptr) {
        obs::Registry::current().counter("sim.bss_domain_runs").add();
      }
    }

    out.judged += episode_judged_total;
    ++out.episodes_run;
    summary.frames_judged = episode_judged_total;
    out.summaries.push_back(summary);
    out.episode_steps.push_back(episode_steps_total);
    if (stop_episode) break;
  }

  out.stopped = stop_campaign;
  return out;
}

/// Append a finished repeat's output to the campaign report.
void consume_repeat(SoakReport& report, RepeatOutcome&& o) {
  report.frames_judged += o.judged;
  report.steps += o.steps;
  report.probes += o.probes;
  report.episodes_run += o.episodes_run;
  report.sim_seconds += o.sim_seconds;
  std::move(o.summaries.begin(), o.summaries.end(),
            std::back_inserter(report.episode_summaries));
  std::move(o.violations.begin(), o.violations.end(),
            std::back_inserter(report.violations));
  report.margins.merge_from(o.margins);
}

/// Would the serial campaign have stopped inside this repeat? True when
/// the detached pass hit a violation, or when the real campaign frame
/// base pushes some observed step across the frame budget or the
/// scripted injection frame. Exactness: within an episode
/// view.frames_judged is monotone and ends at the summary's count, so a
/// threshold is crossed at some observer step iff it is crossed at the
/// episode's final count — provided the observer fired at all, hence the
/// episode_steps guard. Which stop event wins (and at which coordinates)
/// is settled by the authoritative live re-run, not here.
bool repeat_is_stopping(const RepeatOutcome& o, const Scenario& s,
                        const SoakOptions& opts,
                        std::uint64_t campaign_base) {
  if (!o.violations.empty() || o.stopped) return true;
  std::uint64_t base = campaign_base;
  for (std::size_t i = 0; i < o.summaries.size(); ++i) {
    const std::uint64_t judged = o.summaries[i].frames_judged;
    if (o.episode_steps[i] > 0) {
      if (opts.max_frames > 0 && base + judged >= opts.max_frames) {
        return true;
      }
      if (s.inject && base + judged >= s.inject->frame) return true;
    }
    base += judged;
  }
  return false;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t repeat,
                          std::uint64_t salt) noexcept {
  std::uint64_t sm = seed ^ (0x9e3779b97f4a7c15ULL * (repeat + 1)) ^
                     (0xbf58476d1ce4e5b9ULL * (salt + 1));
  return splitmix64(sm);
}

SoakReport SoakRunner::run(const Scenario& scenario) const {
  // Everything a detached repeat job reads lives in this jointly-owned
  // block: parallel wave jobs capture the shared_ptr by value, so a
  // watchdog-abandoned attempt thread (detached in
  // par::detail::run_attempt_with_watchdog) that outlives this frame —
  // or this SoakRunner — still runs against live scenario, episode,
  // topology, and option state instead of dangling references. Episode
  // phase pointers alias ctx->s.traffic, which is why the scenario and
  // its episodes must share one lifetime.
  struct CampaignCtx {
    Scenario s;
    SoakOptions opts;
    std::optional<TopoCtx> topo;
    std::vector<Episode> episodes;
  };
  auto ctx = std::make_shared<CampaignCtx>();
  ctx->s = scenario;
  ctx->opts = opts_;
  Scenario& s = ctx->s;
  if (s.traffic.empty()) {
    // An empty mix would soak an idle channel; default to the steady CBR
    // load every built-in scenario uses.
    s.traffic.push_back({0.0, TrafficKind::kCbr, 1200, 4e-3});
  }

  SoakReport report;

  // ----- checkpoint resume (docs/FAULT_TOLERANCE.md) -----
  // Digests are computed over the *effective* scenario (after the
  // traffic default above), matching what make_checkpoint records.
  std::size_t start_repeat = 0;
  const bool checkpointing = !opts_.checkpoint_dir.empty();
  const std::string ck_path =
      checkpointing ? checkpoint_path(opts_.checkpoint_dir, s.name)
                    : std::string();
  if (checkpointing && opts_.resume) {
    std::ifstream in(ck_path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      const CheckpointParseResult parsed = checkpoint_from_json(buf.str());
      if (!parsed.ok()) {
        report.resume_error =
            ck_path + ": " + parsed.error.to_string();
        return report;
      }
      const CampaignCheckpoint& ck = *parsed.checkpoint;
      if (ck.schema_version != kCheckpointSchemaVersion) {
        report.resume_error =
            ck_path + ": schema_version " +
            std::to_string(ck.schema_version) + " (want " +
            std::to_string(kCheckpointSchemaVersion) + ")";
        return report;
      }
      if (ck.scenario_digest != scenario_digest(s)) {
        report.resume_error =
            ck_path + ": scenario digest mismatch (checkpoint is for a "
                      "different scenario)";
        return report;
      }
      if (ck.options_digest != soak_options_digest(opts_)) {
        report.resume_error =
            ck_path + ": options digest mismatch (campaign knobs "
                      "changed since the checkpoint)";
        return report;
      }
      report.resumed = true;
      report.resumed_repeats = ck.repeats_done;
      report.frames_judged = ck.frames_judged;
      report.steps = ck.steps;
      report.probes = ck.probes;
      report.episodes_run = ck.episodes_run;
      report.sim_seconds = ck.sim_seconds;
      report.episode_summaries = ck.episodes;
      report.repeats = ck.repeats_done;
      for (const auto& [name, margin] : ck.margins) {
        report.margins.observe(name, margin);
      }
      obs::Registry::current().restore(ck.registry);
      if (obs::SpanCollector* sc = obs::SpanCollector::current();
          sc != nullptr) {
        sc->restore_allocated(ck.span_watermark);
      }
      start_repeat = ck.repeats_done;
      obs::Registry::current().counter("chaos.checkpoint_resume").add();
    }
    // No checkpoint file yet: fall through to a fresh campaign.
  }

  // Campaign-start instrumentation is part of the restored snapshot on a
  // resume — adding it again would double-count.
  if (!report.resumed) {
    obs::Registry::current().counter("chaos.campaigns").add();
  }

  // Multi-BSS topology: build the campus once per campaign and cut the
  // timeline at handover instants so every episode slice has constant
  // associations (docs/MULTI_AP.md).
  ctx->topo = make_topo_ctx(s);
  const TopoCtx* topo = ctx->topo.has_value() ? &*ctx->topo : nullptr;
  if (topo != nullptr && !report.resumed) {
    obs::Registry& reg = obs::Registry::current();
    reg.counter("mac.roam_handover")
        .add(topo->timeline.handovers().size());
    reg.set_gauge("sim.bss_ap_count",
                  static_cast<double>(topo->topo.ap_count()));
    std::size_t cochannel_pairs = 0;
    for (std::size_t a = 0; a < topo->topo.ap_count(); ++a) {
      for (std::size_t b = a + 1; b < topo->topo.ap_count(); ++b) {
        if (topo->topo.channel_of(a) == topo->topo.channel_of(b)) {
          ++cochannel_pairs;
        }
      }
    }
    reg.set_gauge("sim.bss_cochannel_pairs",
                  static_cast<double>(cochannel_pairs));
  }

  ctx->episodes = segment_timeline(
      s, topo != nullptr ? topo->timeline.handover_times()
                         : std::vector<double>{});
  const std::vector<Episode>& episodes = ctx->episodes;
  // A single-pass run (max_frames == 0) has exactly one repeat.
  const std::size_t max_repeats =
      opts_.max_frames == 0 ? 1
                            : std::max<std::size_t>(1, opts_.max_repeats);
  const std::size_t threads =
      opts_.threads == 0 ? par::hardware_threads() : opts_.threads;

  // Flush a resumable checkpoint covering exactly `repeats_done` cleanly
  // consumed repeats. Only clean, non-degraded prefixes are recorded: a
  // checkpoint written past a quarantined repeat or a violation would
  // resume into a hole. Flushes happen strictly *before* the
  // end-of-campaign finalization below, so a resumed run replays the
  // finalization (goodput mean, cliff check, end counters) itself and
  // lands on the uninterrupted run's exact registry state.
  const std::size_t checkpoint_every =
      std::max<std::size_t>(1, opts_.checkpoint_every);
  const auto flush_checkpoint = [&](std::size_t repeats_done) {
    if (!checkpointing) return;
    if (!report.violations.empty()) return;
    if (report.degraded.degraded()) return;
    const CampaignCheckpoint ck =
        make_checkpoint(s, opts_, report, repeats_done);
    if (write_checkpoint_file(ck_path, ck)) {
      report.checkpoint_path = ck_path;
      obs::Registry::current().counter("chaos.checkpoint_write").add();
    }
  };

  // Waves of `threads` repeats fan across the pool (docs/PARALLELISM.md).
  // A wave's first repeat starts at a frame base this thread already
  // knows, so it runs live: real base, budget and injection checks armed.
  // The rest run detached (frame base 0, stop checks disarmed); a
  // detached pass with no stop event is bit-identical to the live pass,
  // so walking the wave in repeat order its shard metrics merge into the
  // ambient registry and its outcome joins the report. The first
  // detached repeat the campaign would have stopped in is re-run live on
  // this thread — that re-run supplies the authoritative violations,
  // coordinates, and metrics — and the rest of the wave is discarded.
  // At threads=1 every wave is one live repeat.
  //
  // Without retries or faults there is no DegradedReport sink, so a
  // throwing repeat kills the campaign with its own exception.
  const bool resilient =
      opts_.retry.enabled() || opts_.fault_plan.has_value();
  const auto budget_spent = [&] {
    return opts_.max_frames > 0 && report.frames_judged >= opts_.max_frames;
  };
  std::size_t next_repeat = start_repeat;
  std::size_t last_flush = start_repeat;
  // A resumed campaign that already met its budget skips straight to
  // finalization (a resumed single-pass run has no repeat left either).
  bool stop = budget_spent();
  while (!stop && next_repeat < max_repeats) {
    const std::size_t wave = std::min(threads, max_repeats - next_repeat);
    // Captures by value only: `base` and `live_base` because this thread
    // mutates next_repeat and the report while detached attempts may
    // still be running, and `ctx` so an abandoned attempt keeps the
    // campaign state alive (run_sharded_resilient copies the callable
    // into shared state that outlives this frame).
    const std::size_t base = next_repeat;
    const std::uint64_t live_base = report.frames_judged;
    const auto repeat_job = [ctx, base,
                             live_base](const par::ShardInfo& info) {
      const TopoCtx* job_topo =
          ctx->topo.has_value() ? &*ctx->topo : nullptr;
      const bool live = info.index == 0;
      return run_one_repeat(ctx->s, ctx->episodes, job_topo,
                            base + info.index, live ? live_base : 0,
                            ctx->opts, live);
    };
    // Fault-plan entries address campaign repeat numbers; re-base them
    // onto this wave's shard indices.
    par::FaultPlan windowed;
    if (opts_.fault_plan.has_value()) {
      windowed = opts_.fault_plan->window(next_repeat, wave);
    }
    par::DegradedReport wave_degraded;
    par::Sharded<RepeatOutcome> shards = par::run_sharded_resilient(
        wave, threads, opts_.retry,
        opts_.fault_plan.has_value() ? &windowed : nullptr, repeat_job,
        resilient ? &wave_degraded : nullptr);
    // Quarantined repeats: remap wave-local indices back to campaign
    // repeat numbers and keep going — the campaign degrades, it does
    // not abort. Their outcomes (null registry slot) are skipped below.
    for (const par::QuarantinedShard& q : wave_degraded.quarantined) {
      report.degraded.quarantined.push_back(
          {next_repeat + q.index, q.attempts, q.error});
    }
    report.degraded.retries += wave_degraded.retries;
    report.degraded.stalls += wave_degraded.stalls;
    for (std::size_t i = 0; i < wave && !stop; ++i) {
      const std::size_t repeat = next_repeat + i;
      report.repeats = repeat + 1;
      if (shards.metrics[i] == nullptr) continue;
      RepeatOutcome& o = shards.results[i];
      if (i > 0 &&
          repeat_is_stopping(o, s, opts_, report.frames_judged)) {
        o = run_one_repeat(s, episodes, topo, repeat, report.frames_judged,
                           opts_, /*live=*/true);
      } else {
        obs::Registry::current().merge_from(*shards.metrics[i]);
        // Span buffers follow the same consume-or-discard rule as shard
        // metrics: a re-run repeat's detached buffer is dropped because
        // the live re-run wrote the authoritative spans into the
        // ambient collector.
        if (obs::SpanCollector* sc = obs::SpanCollector::current();
            sc != nullptr && i < shards.spans.size()) {
          sc->merge_from(*shards.spans[i]);
        }
      }
      const bool stopped = o.stopped;
      consume_repeat(report, std::move(o));
      stop = stopped || budget_spent();
    }
    next_repeat += wave;
    if (!stop && next_repeat < max_repeats &&
        next_repeat - last_flush >= checkpoint_every) {
      flush_checkpoint(next_repeat);
      last_flush = next_repeat;
    }
  }

  // Final checkpoint: a clean, non-degraded campaign leaves a resume
  // point covering everything it consumed, so `--resume` after the fact
  // is a no-op that reproduces the same report and fingerprint.
  flush_checkpoint(report.repeats);

  // Judged-episode goodput mean, reduced in episode order (KahanSum for
  // stability; the fixed order is what makes it thread-count invariant).
  par::KahanSum goodput_sum;
  std::size_t goodput_n = 0;
  for (const EpisodeSummary& ep : report.episode_summaries) {
    if (ep.frames_judged > 0) {
      goodput_sum.add(ep.goodput_bps);
      ++goodput_n;
    }
  }
  if (goodput_n > 0) {
    report.mean_goodput_bps =
        goodput_sum.value() / static_cast<double>(goodput_n);
  }

  if (report.violations.empty() && opts_.check_cliffs) {
    if (auto v = check_goodput_cliffs(report.episode_summaries, 0.10,
                                      &report.margins)) {
      report.violations.push_back(std::move(*v));
    }
  }

  obs::Registry& reg = obs::Registry::current();
  reg.counter("chaos.violations").add(report.violations.size());
  reg.counter("chaos.frames_judged").add(report.frames_judged);

  if (!report.violations.empty() && !opts_.bundle_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts_.bundle_dir, ec);
    if (!ec) {
      ReproBundle bundle{scenario, report.violations.front()};
      const std::string path = opts_.bundle_dir + "/bundle_" + s.name +
                               "_" + bundle.violation.invariant + ".json";
      std::ofstream out(path);
      if (out) {
        out << bundle_to_json(bundle);
        report.bundle_path = path;
        reg.counter("chaos.bundles_written").add();
      }
    }
  }

  return report;
}

// -------------------------------------------------------- repro bundles

std::string bundle_to_json(const ReproBundle& bundle) {
  JsonObject root;
  json_set(root, "schema_version", JsonValue(1.0));
  JsonObject v;
  json_set(v, "invariant", JsonValue(bundle.violation.invariant));
  json_set(v, "detail", JsonValue(bundle.violation.detail));
  json_set(v, "frame",
           JsonValue(static_cast<double>(bundle.violation.frame)));
  json_set(v, "time", JsonValue(bundle.violation.time));
  json_set(v, "episode",
           JsonValue(static_cast<double>(bundle.violation.episode)));
  json_set(v, "repeat",
           JsonValue(static_cast<double>(bundle.violation.repeat)));
  json_set(root, "violation", JsonValue(std::move(v)));
  json_set(root, "scenario", scenario_to_value(bundle.scenario));
  return json_dump(JsonValue(std::move(root)));
}

BundleParseResult bundle_from_json(std::string_view text) {
  BundleParseResult out;
  const JsonParseResult doc = json_parse(text);
  if (!doc.ok()) {
    out.error.message = "JSON syntax error at " + doc.error.to_string();
    return out;
  }
  const JsonValue& root = *doc.value;
  if (!root.is_object()) {
    out.error.message = "bundle must be a JSON object";
    return out;
  }
  const JsonValue* v = root.find("violation");
  if (v == nullptr || !v->is_object()) {
    out.error.path = "violation";
    out.error.message = "required object missing";
    return out;
  }
  ReproBundle bundle;
  const JsonValue* inv = v->find("invariant");
  if (inv == nullptr || !inv->is_string()) {
    out.error.path = "violation.invariant";
    out.error.message = "expected a string";
    return out;
  }
  bundle.violation.invariant = inv->as_string();
  if (const JsonValue* d = v->find("detail");
      d != nullptr && d->is_string()) {
    bundle.violation.detail = d->as_string();
  }
  // `frame` is required; `episode` and `repeat` are optional, but a
  // present value must be a valid index.
  const auto read_index = [&](const char* key, bool required,
                              std::uint64_t& n) {
    const JsonValue* f = v->find(key);
    if ((f == nullptr && !required) || json_to_u64(f, n)) return true;
    out.error.path = std::string("violation.") + key;
    out.error.message = "expected a non-negative integer (<= 2^53)";
    return false;
  };
  std::uint64_t episode = 0;
  std::uint64_t repeat = 0;
  if (!read_index("frame", true, bundle.violation.frame) ||
      !read_index("episode", false, episode) ||
      !read_index("repeat", false, repeat)) {
    return out;
  }
  bundle.violation.episode = episode;
  bundle.violation.repeat = repeat;
  if (const JsonValue* t = v->find("time");
      t != nullptr && t->is_number()) {
    bundle.violation.time = t->as_number();
  }
  const JsonValue* sc = root.find("scenario");
  if (sc == nullptr) {
    out.error.path = "scenario";
    out.error.message = "required object missing";
    return out;
  }
  ScenarioParseResult parsed = scenario_from_value(*sc);
  if (!parsed.ok()) {
    out.error.path = "scenario." + parsed.error.path;
    out.error.message = parsed.error.message;
    return out;
  }
  bundle.scenario = std::move(*parsed.scenario);
  out.bundle = std::move(bundle);
  return out;
}

ReplayResult replay_bundle(const ReproBundle& bundle) {
  SoakOptions opts;
  // Run far enough to cross the recorded frame even when the violation
  // happened on a later timeline repeat; skip campaign-level checks.
  opts.max_frames = bundle.violation.frame + 1;
  opts.check_cliffs = false;
  const SoakReport report = SoakRunner(opts).run(bundle.scenario);

  ReplayResult out;
  if (!report.violations.empty()) {
    out.violation = report.violations.front();
    out.reproduced =
        out.violation->invariant == bundle.violation.invariant &&
        out.violation->frame == bundle.violation.frame &&
        out.violation->episode == bundle.violation.episode &&
        out.violation->repeat == bundle.violation.repeat;
  }
  return out;
}

}  // namespace carpool::chaos
