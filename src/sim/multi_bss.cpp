#include "sim/multi_bss.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "mac/simulator.hpp"
#include "obs/registry.hpp"
#include "par/par.hpp"
#include "traffic/generators.hpp"

namespace carpool::sim {

MultiBssSim::MultiBssSim(MultiBssConfig config)
    : config_(std::move(config)),
      topo_(config_.topology, config_.power_magnitude, config_.layout_seed) {
  if (config_.num_stas == 0) {
    throw std::invalid_argument("MultiBssSim: need at least one STA");
  }
  if (!(config_.duration > 0.0)) {
    throw std::invalid_argument("MultiBssSim: duration must be positive");
  }
}

mac::SimConfig MultiBssSim::domain_config(
    std::size_t epoch, std::size_t ap, double start, double stop,
    const std::vector<mac::NodeId>& stas) const {
  mac::SimConfig cfg;
  cfg.scheme = config_.scheme;
  cfg.params = config_.params;
  cfg.aggregation = config_.aggregation;
  cfg.link_policy = config_.link_policy;
  cfg.num_stas = stas.size();
  cfg.duration = stop - start;
  cfg.seed = derive_seed(config_.seed, ap, epoch);
  // Shadowing or trace overlays compose on top of this hook exactly as in
  // the single-BSS path.
  cfg.sta_snr_fn = DomainSinr(topo_, ap, stas, config_.paths, start);
  return cfg;
}

MultiBssResult MultiBssSim::run() {
  const std::size_t ap_count = topo_.ap_count();
  AssociationTimeline timeline(topo_, config_.num_stas, config_.paths,
                               config_.duration);

  // Epoch boundaries: campaign start/end plus every handover instant.
  std::vector<double> bounds{0.0};
  for (double t : timeline.handover_times()) {
    if (t > 0.0 && t < config_.duration) bounds.push_back(t);
  }
  bounds.push_back(config_.duration);
  const std::size_t epochs = bounds.size() - 1;

  MultiBssResult out;
  out.ap_count = ap_count;
  out.duration = config_.duration;
  out.handovers = timeline.handovers();

  // One job per (epoch, AP) cell, flattened epoch-major so the
  // index-ordered merge reads like the serial nested loop.
  const std::size_t jobs = epochs * ap_count;
  const std::size_t workers =
      config_.threads <= 1 ? 1 : static_cast<std::size_t>(config_.threads);
  out.runs = par::run_sharded(jobs, workers, [&](const par::ShardInfo& info) {
    const std::size_t epoch = info.index / ap_count;
    const std::size_t ap = info.index % ap_count;
    DomainRun run;
    run.epoch = epoch;
    run.ap = ap;
    run.start = bounds[epoch];
    run.stop = bounds[epoch + 1];
    for (mac::NodeId sta = 1; sta <= config_.num_stas; ++sta) {
      if (timeline.ap_at(sta, run.start) == ap) run.stas.push_back(sta);
    }
    if (run.stas.empty()) {
      run.result.duration = run.stop - run.start;
      return run;
    }
    mac::DomainSim domain(
        domain_config(epoch, ap, run.start, run.stop, run.stas),
        static_cast<std::uint32_t>(ap));
    for (std::size_t local = 1; local <= run.stas.size(); ++local) {
      domain.add_flow(traffic::make_cbr_flow(
          static_cast<mac::NodeId>(local), config_.frame_bytes,
          config_.cbr_interval));
    }
    run.result = domain.run();
    return run;
  });

  // Aggregate in (epoch, AP) order — fixed-order arithmetic, so the
  // summary metrics are identical at any thread count.
  out.per_ap_goodput_bps.assign(ap_count, 0.0);
  for (const DomainRun& run : out.runs) {
    const double slice = run.stop - run.start;
    if (run.stas.empty()) {
      ++out.domains_idle;
      continue;
    }
    ++out.domains_simulated;
    out.per_ap_goodput_bps[run.ap] +=
        (run.result.downlink_goodput_bps + run.result.uplink_goodput_bps) *
        slice / config_.duration;
    out.dl_frames_delivered += run.result.dl_frames_delivered;
    out.dl_frames_dropped += run.result.dl_frames_dropped;
    out.collisions += run.result.collisions;
  }
  for (double g : out.per_ap_goodput_bps) out.aggregate_goodput_bps += g;

  // Campaign-level observability (consumed by bench_multi_bss and the
  // soak engine's fingerprint canary).
  obs::Registry& reg = obs::Registry::current();
  reg.counter("mac.roam_handover").add(out.handovers.size());
  reg.counter("sim.bss_epochs").add(epochs);
  reg.counter("sim.bss_domains").add(out.domains_simulated);
  reg.counter("sim.bss_domains_idle").add(out.domains_idle);
  reg.set_gauge("sim.bss_ap_count", static_cast<double>(ap_count));
  reg.set_gauge("sim.bss_cochannel_pairs",
                static_cast<double>(topo_.cochannel_pairs()));
  return out;
}

}  // namespace carpool::sim
