#include "chaos/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <sstream>

#include "carpool/transceiver.hpp"
#include "chaos/checkpoint.hpp"
#include "channel/shadowing.hpp"
#include "impair/impair.hpp"
#include "mac/simulator.hpp"
#include "obs/registry.hpp"
#include "par/par.hpp"
#include "phy/frame.hpp"
#include "sim/topology.hpp"
#include "traffic/generators.hpp"

namespace carpool::chaos {
namespace {

constexpr double kBoundaryEps = 1e-9;

/// Where every STA is and which collision domain serves it, built once
/// per campaign. `paths[sta]` is STA `sta`'s mobility path (empty when it
/// has no track). With a topology, the campus and its association
/// timeline answer the domain questions; without one, a campaign is a
/// single collision domain, domain 0, serving every STA.
struct Domains {
  struct Campus {
    Campus(const Scenario& s, const std::vector<sim::MobilityPath>& paths)
        : topo(*s.topology, s.power_magnitude),
          timeline(topo, s.num_stas, paths, s.duration) {}

    sim::Topology topo;
    sim::AssociationTimeline timeline;
  };

  Domains() = default;
  explicit Domains(const Scenario& s) : paths(s.num_stas + 1) {
    for (const MobilityTrack& t : s.mobility) {
      if (t.sta < paths.size()) paths[t.sta] = sim::MobilityPath(t.waypoints);
    }
    if (s.topology.has_value()) campus.emplace(s, paths);
  }

  [[nodiscard]] std::size_t count() const noexcept {
    return campus.has_value() ? campus->topo.ap_count() : 1;
  }

  /// The domain serving `sta` at time `t`: its associated AP.
  [[nodiscard]] std::size_t serving(mac::NodeId sta, double t) const {
    return campus.has_value() ? campus->timeline.ap_at(sta, t) : 0;
  }

  /// The STAs domain `d`'s simulator holds during a slice starting at
  /// `start`, by local id: members[local - 1] is the global id. Without
  /// a topology that is every STA under its own id, joined or not, so
  /// churn never narrows the simulator; with one, the `joined` STAs
  /// associated with AP `d` (episodes are cut at handover instants, so
  /// association is constant within the slice).
  [[nodiscard]] std::vector<mac::NodeId> members(
      std::size_t d, const std::vector<bool>& joined, double start) const {
    std::vector<mac::NodeId> out;
    for (mac::NodeId sta = 1; sta < paths.size(); ++sta) {
      if (!campus.has_value() || (joined[sta] && serving(sta, start) == d)) {
        out.push_back(sta);
      }
    }
    return out;
  }

  /// Extra episode cuts: the roaming handover instants.
  [[nodiscard]] std::vector<double> handover_times() const {
    return campus.has_value() ? campus->timeline.handover_times()
                              : std::vector<double>{};
  }

  sim::TestbedLayout testbed;  ///< classic SNR map, shadowing positions
  std::vector<sim::MobilityPath> paths;  ///< indexed by STA id; [0] unused
  std::optional<Campus> campus;          ///< engaged iff a topology is set
};

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
                                      const std::vector<double>& extra_cuts) {
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

/// Add the traffic-phase flows of one STA to a domain simulator; `sta` is
/// the STA's local id in that simulator.
void add_flows(mac::DomainSim& sim, const TrafficPhase& p, mac::NodeId sta) {
  switch (p.kind) {
    case TrafficKind::kCbr:
      sim.add_flow(traffic::make_cbr_flow(sta, p.frame_bytes, p.interval));
      break;
    case TrafficKind::kVoip:
      for (mac::FlowSpec& f : traffic::make_voip_call(sta)) {
        sim.add_flow(std::move(f));
      }
      break;
    case TrafficKind::kPoisson:
      sim.add_flow(traffic::make_poisson_flow(
          sta, p.interval, traffic::TraceKind::kLibrary, false));
      break;
    case TrafficKind::kSigcomm:
      for (mac::FlowSpec& f : traffic::make_sigcomm_background(sta)) {
        sim.add_flow(std::move(f));
      }
      sim.add_flow(traffic::make_cbr_flow(sta, p.frame_bytes, p.interval));
      break;
  }
}

/// PHY decode probe harness: one real Carpool frame per probe pushed
/// through a trace-gated Gilbert-Elliott chain, decoded by a real
/// CarpoolReceiver. Probe index == chain frame index, so the episode
/// trace is computable up front from the scenario's interference
/// schedule and the whole probe sequence replays bit for bit.
///
/// Each probe targets one STA, and a campaign runs one harness per
/// collision domain holding exactly the probes whose target STA that
/// domain serves at probe time: with a topology, a probe measures the
/// link the STA is actually on, not AP 0's. Domain 0 keeps the legacy
/// chain salt, so single-domain scenarios are unchanged.
class ProbeHarness {
 public:
  struct Probe {
    double time = 0.0;
    std::uint32_t sta = 1;  ///< target STA (global id)
  };

  /// `shadow` (nullable) is the repeat's correlated-shadowing process.
  /// Each probe's gain offset is the probed STA's own recorded-trace
  /// sample and shadowing offset, plus, with a topology, the SINR of its
  /// link to this domain's AP; measured channels thus reach the real PHY
  /// decode path, not just the analytic MAC model. Without a topology a
  /// probe takes no mobility offset.
  ProbeHarness(const Scenario& s, const Domains& domains,
               std::uint64_t repeat,
               const channel::CorrelatedShadowing* shadow,
               std::uint32_t domain, std::vector<Probe> probes)
      : chain_(derive_seed(s.seed, repeat, 0x70726f62ULL + domain)),
        probes_(std::move(probes)) {
    if (probes_.empty()) return;
    // Recorded-trace / shadowing / topology gain per probe, applied
    // before the interference stage (signal power moves first,
    // interference power is layered on top).
    const bool campus = domains.campus.has_value();
    if (!s.snr_trace.empty() || shadow != nullptr || campus) {
      impair::SnrOffsetTraceConfig offsets;
      offsets.offset_db.resize(probes_.size(), 0.0);
      for (std::size_t i = 0; i < probes_.size(); ++i) {
        const double t = probes_[i].time;
        const std::uint32_t sta = probes_[i].sta;
        double off = 0.0;
        if (campus) {
          const sim::Topology& topo = domains.campus->topo;
          off += topo.sinr_db(domain,
                              topo.position(sta, domains.paths[sta], t)) -
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
/// its domain is the one serving that STA at probe time.
std::vector<std::vector<ProbeHarness::Probe>> plan_probes(
    const Scenario& s, const Domains& domains) {
  std::vector<std::vector<ProbeHarness::Probe>> plan(domains.count());
  if (s.probe_interval <= 0.0 || s.num_stas == 0) return plan;
  std::size_t k = 0;
  for (double t = s.probe_interval; t < s.duration;
       t += s.probe_interval, ++k) {
    ProbeHarness::Probe probe;
    probe.time = t;
    probe.sta = static_cast<std::uint32_t>(k % s.num_stas) + 1;
    plan[domains.serving(probe.sta, t)].push_back(probe);
  }
  return plan;
}

// ----------------------------------------------------- repeat execution
//
// One full timeline pass, extracted so every repeat of the campaign
// stream (docs/PARALLELISM.md), live or provisional, runs the *same* code.
// A `live` pass runs with the real campaign coordinates — frame budget
// and fault injection armed, violations stamped with campaign-wide frame
// counts. A provisional pass (live == false) runs the identical simulation
// from frame base 0 with those stop checks disarmed; the frame base feeds
// only stop checks and recorded coordinates (see StepInvariants), so a
// provisional pass is bit-identical to a live one right up to the first stop
// event. A provisional pass also ends at its next observer step once the
// campaign is cancelled; its output is then never consumed.

/// Everything a repeat job reads. SoakRunner::run owns it and declares
/// it before the RepeatStream that references it, so the stream drains
/// every repeat still in flight before the context goes. Episode phase
/// pointers alias `s.traffic`, which is why the scenario and its episodes
/// share one lifetime; the SNR hooks of a repeat's simulators point into
/// `domains`.
struct CampaignCtx {
  Scenario s;
  SoakOptions opts;
  Domains domains;
  std::vector<Episode> episodes;
  /// Set once the campaign stops: provisional repeats still running end
  /// early, and nothing past the stop is consumed.
  std::atomic<bool> cancel{false};
};

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

RepeatOutcome run_one_repeat(const CampaignCtx& ctx, std::size_t repeat,
                             std::uint64_t campaign_base, bool live) {
  const Scenario& s = ctx.s;
  const Domains& domains = ctx.domains;
  const std::vector<Episode>& episodes = ctx.episodes;
  const SoakOptions& opts = ctx.opts;
  RepeatOutcome out;

  // Correlated shadowing (channel/shadowing.hpp): one process per repeat
  // spanning the whole timeline, seeded from (scenario seed, repeat) so
  // serial and provisional passes see identical offsets. Station positions
  // come from the first waypoint of the STA's mobility path when it has
  // one, else the testbed layout's receiver grid.
  std::optional<channel::CorrelatedShadowing> shadowing;
  if (s.shadowing.has_value() && s.num_stas > 0) {
    const std::vector<sim::Point>& grid = domains.testbed.receivers();
    std::vector<std::pair<double, double>> positions;
    positions.reserve(s.num_stas);
    for (std::uint32_t sta = 1; sta <= s.num_stas; ++sta) {
      const sim::MobilityPath& path = domains.paths[sta];
      const sim::Point p = path.empty() ? grid[(sta - 1) % grid.size()]
                                        : path.waypoints().front().p;
      positions.emplace_back(p.x, p.y);
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
  // target STA that domain serves.
  std::vector<std::vector<ProbeHarness::Probe>> probe_plan =
      plan_probes(s, domains);
  const std::size_t n_domains = probe_plan.size();
  std::vector<ProbeHarness> probes;
  probes.reserve(n_domains);
  for (std::size_t d = 0; d < n_domains; ++d) {
    probes.emplace_back(s, domains, repeat, shadow,
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

    // One collision domain at a time, in domain order (whole-repeat
    // sharding happens a level up).
    for (std::size_t d = 0; d < n_domains && !stop_episode; ++d) {
      std::vector<mac::NodeId> members = domains.members(d, ep.joined,
                                                         ep.start);
      // An AP serving nobody this slice has no collision domain to run;
      // its pending probes fire at catch-up the next time the domain is
      // active.
      if (members.empty()) continue;

      const std::uint64_t frame_base =
          campaign_base + out.judged + episode_judged_total;

      mac::SimConfig cfg;
      cfg.scheme = s.scheme;
      cfg.duration = ep.stop - ep.start;
      cfg.link_policy = s.link_policy;
      cfg.default_snr_db = s.default_snr_db;
      cfg.num_stas = members.size();
      const std::uint64_t episode_seed = derive_seed(s.seed, repeat, ei);
      cfg.seed = domains.campus.has_value()
                     ? derive_seed(episode_seed, d, ei)
                     : episode_seed;

      // Time-varying SNR of local STA `local` (global id
      // members[local - 1]) at the absolute time of the judgement. The
      // base is the topology SINR of this domain's AP at the STA's
      // position, or without a topology the testbed pathloss map along
      // the STA's mobility path (default_snr_db without one). A recorded
      // trace replaces the base where the capture has samples for the
      // STA (step-hold between samples); the penalty of every
      // interference episode in force and the shadowing offset layer on.
      std::optional<sim::DomainSinr> sinr;
      if (domains.campus.has_value()) {
        sinr.emplace(domains.campus->topo, d, members, domains.paths,
                     ep_start);
      }
      cfg.sta_snr_fn = [&s, &domains, sinr = std::move(sinr), members,
                        ep_start, shadow](mac::NodeId local, double now) {
        const double t = ep_start + now;
        const mac::NodeId sta = members[local - 1];
        double snr = s.default_snr_db;
        if (sinr.has_value()) {
          snr = (*sinr)(local, now);
        } else if (!domains.paths[sta].empty()) {
          snr = domains.testbed.snr_db_along(domains.paths[sta], t,
                                             s.power_magnitude);
        }
        if (!s.snr_trace.empty()) {
          snr = s.snr_trace.snr_at(sta, t, snr);
        }
        for (const InterferenceEpisode& e : s.interference) {
          if (t < e.start || t >= e.stop) continue;
          if (!e.stas.empty() &&
              std::find(e.stas.begin(), e.stas.end(), sta) == e.stas.end()) {
            continue;
          }
          snr -= e.snr_penalty_db;
        }
        if (shadow != nullptr) {
          snr += shadow->offset_db(static_cast<std::size_t>(sta) - 1, t);
        }
        return snr;
      };

      StepInvariants checker(frame_base, ep.start, ei, repeat,
                             &out.margins);
      std::uint64_t episode_judged = 0;
      std::uint64_t episode_steps = 0;
      ProbeHarness& domain_probes = probes[d];
      std::size_t& probe_cursor = next_probe[d];
      cfg.observer = [&](const mac::SimStepView& view) {
        if (!live && ctx.cancel.load()) {
          stop_campaign = stop_episode = true;  // past the stop: discarded
          return false;
        }
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
      if (ep.phase != nullptr) {
        for (std::size_t local = 1; local <= members.size(); ++local) {
          if (ep.joined[members[local - 1]]) {
            add_flows(sim, *ep.phase, static_cast<mac::NodeId>(local));
          }
        }
      }
      const mac::SimResult res = sim.run();

      // Episode-end invariants run only on domains that completed without
      // a stop event: a stopping repeat is re-run live anyway, so
      // skipping its partial slice keeps provisional and live passes
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
      if (domains.campus.has_value()) {
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
/// the provisional pass hit a violation, or when the real campaign frame
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

/// A campaign's repeats in flight (docs/PARALLELISM.md). Repeats are
/// dispatched in index order into a look-ahead of 2N - 1 repeats starting
/// at the next one to consume, N workers of one pool run them, and the
/// calling thread takes them back strictly in repeat order. A repeat
/// dispatched when every earlier repeat has been consumed runs live at the
/// campaign's real frame base; any other runs provisionally. Every repeat
/// runs through par::run_shard, so retries and planned faults (addressed
/// by campaign repeat number) apply to each. At N = 1 the look-ahead is
/// one repeat, always live, run inline on the calling thread: no thread
/// is spawned and no repeat runs twice.
class RepeatStream {
 public:
  struct Repeat {
    bool live = false;
    par::ShardRun run;
    RepeatOutcome outcome;
  };

  /// Stream repeats [first, end) on `threads` workers (capped at the
  /// repeat count).
  RepeatStream(CampaignCtx& ctx, std::size_t first, std::size_t end,
               std::size_t threads)
      : ctx_(ctx),
        next_dispatch_(first),
        end_(end),
        workers_(std::max<std::size_t>(1, std::min(threads, end - first))),
        collect_spans_(obs::SpanCollector::current() != nullptr) {}

  RepeatStream(const RepeatStream&) = delete;
  RepeatStream& operator=(const RepeatStream&) = delete;

  /// Cancel the provisional repeats still in flight; the pool, declared
  /// last, then drains before the slots its workers write are destroyed.
  ~RepeatStream() { cancel(); }

  /// Everything still in flight is past the stop: end it early.
  void cancel() noexcept { ctx_.cancel.store(true); }

  /// Fill the look-ahead — `frames_judged` is the live frame base of a
  /// repeat dispatched now — then block until the next repeat to consume
  /// has finished and hand it over.
  [[nodiscard]] Repeat take(std::uint64_t frames_judged) {
    while (next_dispatch_ < end_ && slots_.size() < 2 * workers_ - 1) {
      dispatch(frames_judged);
    }
    Slot& front = slots_.front();
    {
      std::unique_lock lock(mutex_);
      done_cv_.wait(lock, [&front] { return front.done; });
    }
    Repeat out = std::move(front.repeat);
    slots_.pop_front();
    return out;
  }

 private:
  struct Slot {
    Repeat repeat;
    bool done = false;  ///< guarded by mutex_
  };

  void dispatch(std::uint64_t frames_judged) {
    const std::size_t repeat = next_dispatch_++;
    const bool live = slots_.empty();  // every earlier repeat consumed
    Slot& slot = slots_.emplace_back();  // deque: other slots stay put
    slot.repeat.live = live;
    auto work = [this, &slot, repeat, live,
                 base = live ? frames_judged : 0] {
      const SoakOptions& opts = ctx_.opts;
      par::run_shard(
          slot.repeat.run, slot.repeat.outcome, par::ShardInfo{repeat, end_},
          [&](const par::ShardInfo&) {
            return run_one_repeat(ctx_, repeat, base, live);
          },
          opts.retry,
          opts.fault_plan.has_value() ? &*opts.fault_plan : nullptr,
          collect_spans_);
      {
        const std::scoped_lock lock(mutex_);
        slot.done = true;
      }
      done_cv_.notify_all();
    };
    if (workers_ == 1) {
      work();
      return;
    }
    if (!pool_.has_value()) pool_.emplace(workers_);
    pool_->submit(std::move(work));
  }

  CampaignCtx& ctx_;
  std::size_t next_dispatch_;
  const std::size_t end_;
  const std::size_t workers_;
  const bool collect_spans_;
  std::deque<Slot> slots_;  ///< dispatched, not yet taken; front is next
  std::mutex mutex_;
  std::condition_variable done_cv_;
  std::optional<par::ThreadPool> pool_;  ///< last: destroyed (drained) first
};

}  // namespace

SoakReport SoakRunner::run(const Scenario& scenario) const {
  CampaignCtx ctx;
  ctx.s = scenario;
  ctx.opts = opts_;
  Scenario& s = ctx.s;
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
      // Checked in full before it changes a metric; the ambient registry
      // can still refuse a histogram it holds with other bounds.
      std::string registry_error;
      if (!obs::Registry::current().restore(ck.registry, registry_error)) {
        report.resume_error = ck_path + ": registry: " + registry_error;
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

  // Collision domains, built once per campaign: every STA's mobility
  // path and, with a topology, the campus, whose handover instants cut
  // the timeline so every episode slice has constant associations
  // (docs/MULTI_AP.md).
  ctx.domains = Domains(s);
  const Domains& domains = ctx.domains;
  if (domains.campus.has_value() && !report.resumed) {
    const sim::Topology& topo = domains.campus->topo;
    obs::Registry& reg = obs::Registry::current();
    reg.counter("mac.roam_handover")
        .add(domains.campus->timeline.handovers().size());
    reg.set_gauge("sim.bss_ap_count", static_cast<double>(topo.ap_count()));
    reg.set_gauge("sim.bss_cochannel_pairs",
                  static_cast<double>(topo.cochannel_pairs()));
  }

  ctx.episodes = segment_timeline(s, domains.handover_times());
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

  // Repeats stream through RepeatStream and are consumed here strictly
  // in repeat order (docs/PARALLELISM.md). A live repeat and a provisional
  // repeat with no stop event are exactly what a live run produces, so
  // their shard metrics merge into the ambient registry and their
  // outcomes join the report. The first provisional repeat the campaign
  // would have stopped in is re-run live on this thread — that re-run
  // supplies the authoritative violations, coordinates, and metrics — and
  // everything after it is cancelled unconsumed. Quarantines and retries
  // count only for consumed repeats. Without retries or faults a failed
  // repeat is not quarantined: the first consumed repeat that threw
  // rethrows its own exception once the stream has drained.
  const bool resilient =
      opts_.retry.enabled() || opts_.fault_plan.has_value();
  const auto budget_spent = [&] {
    return opts_.max_frames > 0 && report.frames_judged >= opts_.max_frames;
  };
  // A resumed campaign that already met its budget skips straight to
  // finalization (a resumed single-pass run has no repeat left either).
  bool stop = budget_spent();
  RepeatStream stream(ctx, start_repeat, max_repeats, threads);
  std::size_t last_flush = start_repeat;
  for (std::size_t repeat = start_repeat; !stop && repeat < max_repeats;
       ++repeat) {
    RepeatStream::Repeat taken = stream.take(report.frames_judged);
    report.repeats = repeat + 1;
    report.degraded.record(repeat, taken.run);
    if (!taken.run.ok) {
      if (!resilient) taken.run.rethrow(repeat);
      continue;  // quarantined: the campaign degrades, it does not abort
    }
    RepeatOutcome& o = taken.outcome;
    if (!taken.live &&
        repeat_is_stopping(o, s, opts_, report.frames_judged)) {
      stream.cancel();
      o = run_one_repeat(ctx, repeat, report.frames_judged, /*live=*/true);
    } else {
      obs::Registry::current().merge_from(*taken.run.metrics);
      // Span buffers follow the same consume-or-discard rule as shard
      // metrics: a re-run repeat's provisional buffer is dropped because
      // the live re-run wrote the authoritative spans into the
      // ambient collector.
      if (obs::SpanCollector* sc = obs::SpanCollector::current();
          sc != nullptr && taken.run.spans != nullptr) {
        sc->merge_from(*taken.run.spans);
      }
    }
    const bool stopped = o.stopped;
    consume_repeat(report, std::move(o));
    stop = stopped || budget_spent();
    if (!stop && repeat + 1 < max_repeats &&
        repeat + 1 - last_flush >= checkpoint_every) {
      flush_checkpoint(repeat + 1);
      last_flush = repeat + 1;
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
  // `invariant` and `frame` are required; `detail`, `time`, `episode`
  // and `repeat` are optional, but a present value must be valid.
  JsonReader in;
  ReproBundle bundle;
  Violation& violation = bundle.violation;
  std::uint64_t episode = 0;
  std::uint64_t repeat = 0;
  if (const JsonValue* v = read_member(in, root, "", "violation",
                                       JsonValue::Kind::kObject, true)) {
    read_string(in, *v, "violation.", "invariant", violation.invariant,
                true);
    read_string(in, *v, "violation.", "detail", violation.detail);
    read_uint(in, *v, "violation.", "frame", violation.frame, true);
    read_uint(in, *v, "violation.", "episode", episode);
    read_uint(in, *v, "violation.", "repeat", repeat);
    read_number(in, *v, "violation.", "time", violation.time);
  }
  violation.episode = episode;
  violation.repeat = repeat;
  const JsonValue* sc = read_member(in, root, "", "scenario",
                                    JsonValue::Kind::kObject, true);
  if (in.failed) {
    out.error = in.error;
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
