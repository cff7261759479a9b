#include "mac/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "carpool/bloom.hpp"
#include "common/stats.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace carpool::mac {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct BackoffState {
  long counter = -1;  ///< -1 = needs a fresh draw
  unsigned cw;

  explicit BackoffState(unsigned cw_min) : cw(cw_min) {}

  void draw(Rng& rng, unsigned effective_cw) {
    counter = static_cast<long>(rng.uniform_int(effective_cw + 1));
  }
  void on_success(unsigned cw_min) {
    cw = cw_min;
    counter = -1;
  }
  void on_failure(unsigned cw_max) {
    cw = std::min(cw * 2 + 1, cw_max);
    counter = -1;
  }
};

/// Charge every frame of `su` one retry and drop, in place, those past
/// `retry_limit`; returns how many were dropped.
std::size_t charge_retry(SubUnit& su, std::size_t retry_limit) {
  std::size_t kept = 0;
  for (MacFrame& f : su.frames) {
    if (++f.retries <= retry_limit) su.frames[kept++] = f;
  }
  const std::size_t dropped = su.frames.size() - kept;
  su.frames.resize(kept);
  return dropped;
}

/// Odds that an overhearer's A-HDR Bloom test passes falsely for some
/// subframe of an n-subunit Carpool aggregate, indexed by n: a function
/// of the subunit count alone, evaluated once per count.
const std::array<double, kMaxReceivers + 1>& false_positive_odds() {
  static const std::array<double, kMaxReceivers + 1> odds = [] {
    std::array<double, kMaxReceivers + 1> table{};
    for (std::size_t n = 1; n <= kMaxReceivers; ++n) {
      const double r = theoretical_fp_rate(n, 4);
      table[n] = 1.0 - std::pow(1.0 - r, static_cast<double>(kMaxReceivers));
    }
    return table;
  }();
  return odds;
}

struct ArrivalEvent {
  double time;
  std::size_t flow;
  std::size_t size;
  bool operator>(const ArrivalEvent& other) const { return time > other.time; }
};

}  // namespace

DomainSim::DomainSim(SimConfig config, std::uint32_t domain)
    : config_(std::move(config)), domain_(domain) {
  if (config_.num_stas == 0) {
    throw std::invalid_argument("DomainSim: need at least one STA");
  }
  if (config_.scheme == Scheme::kCarpool &&
      config_.aggregation.max_receivers > kMaxReceivers) {
    // The A-HDR Bloom filter addresses at most kMaxReceivers subframes.
    throw std::invalid_argument(
        "DomainSim: Carpool aggregates at most 8 receivers");
  }
  if (!config_.phy) {
    config_.phy = std::make_shared<AnalyticPhyModel>();
  }
}

void DomainSim::add_flow(FlowSpec flow) {
  if (!flow.next) throw std::invalid_argument("add_flow: null generator");
  if (flow.src != kApNode && flow.dst != kApNode) {
    throw std::invalid_argument("add_flow: STA-to-STA flows unsupported");
  }
  const NodeId sta = flow.src == kApNode ? flow.dst : flow.src;
  if (sta == kApNode || sta > config_.num_stas) {
    throw std::invalid_argument("add_flow: STA id out of range");
  }
  flows_.push_back(std::move(flow));
}

SimResult DomainSim::run() {
  const MacParams& p = config_.params;
  const PhyErrorModel& phy = *config_.phy;
  Rng rng(config_.seed);
  Rng traffic_rng = rng.split(1);
  Rng phy_rng = rng.split(2);
  Rng backoff_rng = rng.split(3);

  double now = 0.0;
  auto sta_snr = [&](NodeId sta) {
    if (config_.sta_snr_fn) return config_.sta_snr_fn(sta, now);
    const std::size_t idx = sta - 1;
    return idx < config_.sta_snr_db.size() ? config_.sta_snr_db[idx]
                                           : config_.default_snr_db;
  };

  // --- state ---
  ApQueues ap_queues;
  std::vector<std::deque<MacFrame>> uplink(config_.num_stas + 1);
  BackoffState ap_backoff(p.cw_min);
  std::vector<BackoffState> sta_backoff(config_.num_stas + 1,
                                        BackoffState(p.cw_min));
  std::vector<EnergyAccumulator> energy(config_.num_stas + 1);
  std::vector<double> airtime_occupancy(config_.num_stas + 1, 0.0);

  // Per-STA link-state machine: one place decides every station's PHY
  // rate and whether it is schedulable at all (docs/LINK_STATE.md). The
  // machine is seeded with the configured link SNRs and fed every
  // sequential-ACK outcome below; it consumes no randomness.
  LinkStateMachine links(config_.link_policy, config_.num_stas,
                         p.data_rate_bps);
  for (NodeId sta = 1; sta <= config_.num_stas; ++sta) {
    links.observe_snr(sta, sta_snr(sta));
  }
  auto rate_of = [&](NodeId node) {
    if (node == kApNode) return p.data_rate_bps;
    const double rate = links.rate_bps(node);
    return rate > 0.0 ? rate : p.data_rate_bps;
  };

  // Carpool capability table (Sec. 4.3 backward compatibility).
  std::vector<std::uint8_t> carpool_capable;
  if (config_.num_legacy_stas > 0) {
    carpool_capable.assign(config_.num_stas + 1, 1);
    for (NodeId sta = 1;
         sta <= std::min<std::size_t>(config_.num_legacy_stas,
                                      config_.num_stas);
         ++sta) {
      carpool_capable[sta] = 0;
    }
  }

  // Hidden-terminal map: hidden[a][b] = STAs a and b cannot sense each
  // other. The AP hears and is heard by everyone.
  std::vector<std::vector<bool>> hidden;
  if (config_.hidden_pair_fraction > 0.0) {
    Rng topo_rng = rng.split(4);
    hidden.assign(config_.num_stas + 1,
                  std::vector<bool>(config_.num_stas + 1, false));
    for (NodeId a = 1; a <= config_.num_stas; ++a) {
      for (NodeId b = a + 1; b <= config_.num_stas; ++b) {
        if (topo_rng.bernoulli(config_.hidden_pair_fraction)) {
          hidden[a][b] = hidden[b][a] = true;
        }
      }
    }
  }

  std::priority_queue<ArrivalEvent, std::vector<ArrivalEvent>,
                      std::greater<ArrivalEvent>>
      arrivals;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto [t, size] = flows_[i].next(0.0, traffic_rng);
    if (t >= 0.0) arrivals.push(ArrivalEvent{t, i, size});
  }

  SimResult result;
  result.duration = config_.duration;
  std::vector<double> delays;  ///< delivered downlink frames, in order
  std::uint64_t dl_bytes = 0, ul_bytes = 0;
  std::vector<std::uint64_t> dl_bytes_per_sta(config_.num_stas + 1, 0);
  std::uint64_t frame_counter = 0;
  double queue_depth_integral = 0.0;
  double last_depth_sample = 0.0;
  std::uint64_t ap_txops = 0, ap_subunits = 0;

  double idle_start = 0.0;
  std::size_t slots_consumed = 0;
  std::uint64_t frames_judged = 0;
  bool observer_stop = false;

  // Invoke SimConfig::observer (when set) after a resolved channel event;
  // sets observer_stop when the callback asks to end the run.
  auto notify_observer = [&](const SimTxopInfo& txop) {
    if (!config_.observer) return;
    SimStepView view;
    view.now = now;
    view.frames_generated = frame_counter;
    view.frames_judged = frames_judged;
    std::uint64_t inflight = ap_queues.depth();
    for (NodeId sta = 1; sta <= config_.num_stas; ++sta) {
      inflight += uplink[sta].size();
    }
    view.frames_inflight = inflight;
    view.num_stas = config_.num_stas;
    view.totals = &result;
    view.links = &links;
    view.params = &p;
    view.txop = txop;
    if (!config_.observer(view)) observer_stop = true;
  };

  auto sample_queue_depth = [&](double t) {
    queue_depth_integral +=
        static_cast<double>(ap_queues.depth()) * (t - last_depth_sample);
    last_depth_sample = t;
  };

  auto deliver_arrival = [&](const ArrivalEvent& ev) {
    const FlowSpec& flow = flows_[ev.flow];
    MacFrame frame;
    frame.id = ++frame_counter;
    frame.src = flow.src;
    frame.dst = flow.dst;
    frame.payload_bytes = ev.size;
    frame.enqueue_time = ev.time;
    if (flow.src == kApNode) {
      sample_queue_depth(ev.time);
      ap_queues.enqueue(std::move(frame));
    } else {
      uplink[flow.src].push_back(std::move(frame));
    }
    const auto [t, size] = flows_[ev.flow].next(ev.time, traffic_rng);
    if (t >= 0.0) arrivals.push(ArrivalEvent{std::max(t, ev.time), ev.flow,
                                             size});
  };

  auto ap_active = [&] { return !ap_queues.empty(); };
  auto effective_ap_cw = [&]() -> unsigned {
    if (config_.scheme == Scheme::kWiFox &&
        ap_queues.depth() > config_.wifox_backlog_threshold) {
      const double scaled =
          std::max(1.0, config_.wifox_cw_scale * ap_backoff.cw);
      return static_cast<unsigned>(scaled);
    }
    return ap_backoff.cw;
  };

  const std::size_t retry_limit = p.retry_limit;

  // Put a subunit's frames back at the head of `node`'s queue.
  auto requeue = [&](NodeId node, const SubUnit& su) {
    if (node == kApNode) {
      ap_queues.requeue_front(su);
      return;
    }
    for (auto it = su.frames.rbegin(); it != su.frames.rend(); ++it) {
      uplink[node].push_front(*it);
    }
  };

  // Per-pass buffers, kept for the whole run so a TXOP does not allocate:
  // contenders and slot winners; each node's transmission (the AP's is
  // refilled in place by ApQueues::build); the link decisions the AP's
  // build used; one subunit's failed MPDUs on their way back to the
  // queue; and, per STA, the subunit a downlink aggregate addresses to it.
  std::vector<NodeId> active;
  std::vector<NodeId> winners;
  std::vector<Transmission> node_tx(config_.num_stas + 1);
  LinkSnapshot ap_snapshot;
  SubUnit failed;
  std::vector<const SubUnit*> addressed(config_.num_stas + 1, nullptr);

  // Frame-lifecycle span ordinals (docs/OBSERVABILITY.md): every resolved
  // channel event — success or collision — consumes a txop id, every
  // aggregate frame put on air a frame id. Counted unconditionally so the
  // ordinals are deterministic whether or not a SpanCollector is
  // installed.
  std::int64_t txop_seq = 0;
  std::int64_t frame_seq = 0;

  while (!observer_stop && now < config_.duration) {
    // 1. arrivals due now.
    while (!arrivals.empty() && arrivals.top().time <= now) {
      const ArrivalEvent ev = arrivals.top();
      arrivals.pop();
      deliver_arrival(ev);
    }

    // Expire overdue downlink frames.
    if (std::isfinite(config_.delivery_deadline)) {
      sample_queue_depth(now);
      result.dl_frames_dropped +=
          ap_queues.drop_expired(now, config_.delivery_deadline);
    }

    // 2. active contenders.
    active.clear();
    if (ap_active()) active.push_back(kApNode);
    for (NodeId sta = 1; sta <= config_.num_stas; ++sta) {
      if (!uplink[sta].empty()) active.push_back(sta);
    }
    if (active.empty()) {
      if (arrivals.empty()) break;
      now = arrivals.top().time;
      idle_start = now;
      slots_consumed = 0;
      continue;
    }

    // 3. ensure backoff counters.
    for (const NodeId node : active) {
      BackoffState& b = node == kApNode ? ap_backoff : sta_backoff[node];
      if (b.counter < 0) {
        b.draw(backoff_rng, node == kApNode ? effective_ap_cw() : b.cw);
      }
    }

    long k = std::numeric_limits<long>::max();
    for (const NodeId node : active) {
      const BackoffState& b = node == kApNode ? ap_backoff : sta_backoff[node];
      k = std::min(k, b.counter);
    }
    const double tx_start =
        std::max(now, idle_start + p.difs +
                          static_cast<double>(slots_consumed +
                                              static_cast<std::size_t>(k)) *
                              p.slot_time);

    // Arrivals that land before the transmission starts interrupt the
    // countdown: burn the slots that elapsed and reconsider.
    if (!arrivals.empty() && arrivals.top().time < tx_start) {
      const double arr = arrivals.top().time;
      long burned = 0;
      if (arr > idle_start + p.difs) {
        burned = static_cast<long>((arr - idle_start - p.difs) / p.slot_time) -
                 static_cast<long>(slots_consumed);
        burned = std::clamp(burned, 0L, k);
      }
      for (const NodeId node : active) {
        BackoffState& b = node == kApNode ? ap_backoff : sta_backoff[node];
        b.counter -= burned;
      }
      slots_consumed += static_cast<std::size_t>(burned);
      now = arr;
      continue;
    }

    if (tx_start >= config_.duration) {
      now = config_.duration;
      break;
    }

    // 4. winners: counters that hit zero.
    winners.clear();
    for (const NodeId node : active) {
      BackoffState& b = node == kApNode ? ap_backoff : sta_backoff[node];
      b.counter -= k;
      if (b.counter == 0) winners.push_back(node);
    }
    // WiFox gives a backlogged AP strict channel-access priority: on a
    // slot tie the AP's transmission captures the medium (the colliding
    // STAs resume their backoff as after any busy period).
    if (config_.scheme == Scheme::kWiFox && winners.size() > 1 &&
        ap_queues.depth() > config_.wifox_backlog_threshold) {
      const bool ap_tied =
          std::find(winners.begin(), winners.end(), kApNode) != winners.end();
      if (ap_tied) {
        for (const NodeId node : winners) {
          if (node != kApNode) sta_backoff[node].counter = -1;
        }
        winners.assign(1, kApNode);
      }
    }
    slots_consumed = 0;  // channel about to go busy
    now = tx_start;

    // Build the transmissions of all winners.
    for (const NodeId node : winners) {
      if (node == kApNode) {
        sample_queue_depth(now);
        // Move suspended links whose timeout expired into Probing, then
        // freeze this TXOP's decisions: per-subframe rates + blocked mask.
        links.advance(now);
        links.snapshot(ap_snapshot);
        ap_queues.build(node_tx[kApNode], config_.scheme, p,
                        config_.aggregation, airtime_occupancy, ap_snapshot,
                        carpool_capable);
      } else {
        node_tx[node] =
            build_single_frame(uplink[node].front(), p, rate_of(node));
        uplink[node].pop_front();
      }
    }

    const std::size_t n_winners = winners.size();
    result.tx_attempts += n_winners;

    // RTS/CTS exchange time (Fig. 7: one multicast RTS, then one CTS per
    // receiver for Carpool-style transmissions).
    auto control_time = [&](const Transmission& tx) {
      if (!config_.use_rts_cts) return 0.0;
      const std::size_t ncts = tx.sequential_ack ? tx.subunits.size() : 1;
      return p.rts_duration() +
             static_cast<double>(ncts) * (p.sifs + p.cts_duration()) + p.sifs;
    };

    if (n_winners > 1) {
      // Collision. With RTS/CTS only the RTS is wasted.
      ++result.collisions;
      double busy = 0.0;
      for (const NodeId node : winners) {
        const double cost = config_.use_rts_cts
                                ? p.rts_duration()
                                : node_tx[node].data_duration;
        busy = std::max(busy, cost);
      }
      busy += p.sifs + p.ack_duration();  // timeout
      result.airtime_collision += busy;

      for (const NodeId node : winners) {
        BackoffState& b = node == kApNode ? ap_backoff : sta_backoff[node];
        b.on_failure(p.cw_max);
        energy[node].add_tx(config_.use_rts_cts
                                ? p.rts_duration()
                                : node_tx[node].data_duration);
        // Frames return to their queues with a retry charged.
        for (SubUnit& su : node_tx[node].subunits) {
          const std::size_t dropped = charge_retry(su, retry_limit);
          if (node == kApNode) {
            result.dl_frames_dropped += dropped;
          } else {
            result.ul_frames_dropped += dropped;
          }
          if (!su.frames.empty()) requeue(node, su);
        }
      }
      {
        // Collision TXOP span: closes after the observer so any probe
        // decode it fires nests underneath.
        obs::Span txop_span("mac.txop");
        txop_span.ids({.txop = txop_seq})
            .sim_interval(now, busy)
            .outcome("collision");
        ++txop_seq;
        now += busy;
        idle_start = now;
        SimTxopInfo info;
        info.collision = true;
        info.data_duration = busy;
        notify_observer(info);
      }
      continue;
    }

    // Single winner: carry out the full sequence.
    const NodeId src = winners.front();
    Transmission& tx = node_tx[src];
    if (tx.subunits.empty()) {
      // Queue raced empty (deadline expiry); nothing to send.
      BackoffState& b = src == kApNode ? ap_backoff : sta_backoff[src];
      b.on_success(p.cw_min);
      idle_start = now;
      continue;
    }

    const double ctrl = control_time(tx);
    const double sequence = ctrl + tx.total_duration();
    const bool is_downlink = src == kApNode;

    // Hidden terminals: an active STA that cannot sense `src` keeps
    // counting down and fires into the ongoing transmission. With RTS/CTS
    // only the RTS is vulnerable — after the AP's CTS everyone defers.
    if (!hidden.empty() && src != kApNode) {
      const double vulnerable =
          config_.use_rts_cts ? p.rts_duration() : tx.data_duration;
      const long slots_in_window =
          static_cast<long>(vulnerable / p.slot_time);
      NodeId intruder = 0;
      for (const NodeId node : active) {
        if (node == src || node == kApNode || !hidden[src][node]) continue;
        BackoffState& b = sta_backoff[node];
        if (b.counter >= 0 && b.counter <= slots_in_window) {
          intruder = node;
          break;
        }
      }
      if (intruder != 0) {
        ++result.collisions;
        const double busy =
            vulnerable + p.sifs + p.ack_duration();  // timeout
        result.airtime_collision += busy;
        energy[src].add_tx(vulnerable);
        // Both parties lose their frames (retry accounting).
        auto requeue_loser = [&](NodeId node) {
          sta_backoff[node].on_failure(p.cw_max);
          for (SubUnit& su : node_tx[node].subunits) {
            result.ul_frames_dropped += charge_retry(su, retry_limit);
            if (!su.frames.empty()) requeue(node, su);
          }
        };
        requeue_loser(src);
        node_tx[intruder] = build_single_frame(uplink[intruder].front(), p,
                                               rate_of(intruder));
        uplink[intruder].pop_front();
        energy[intruder].add_tx(node_tx[intruder].data_duration);
        requeue_loser(intruder);
        sta_backoff[intruder].on_failure(p.cw_max);
        {
          obs::Span txop_span("mac.txop");
          txop_span.ids({.txop = txop_seq, .sta = src})
              .sim_interval(now, busy)
              .outcome("hidden_terminal");
          ++txop_seq;
          now += busy;
          idle_start = now;
          SimTxopInfo info;
          info.collision = true;
          info.data_duration = busy;
          notify_observer(info);
        }
        continue;
      }
    }
    if (is_downlink) {
      ++ap_txops;
      ap_subunits += tx.subunits.size();
    }

    // TXOP and frame spans stay open for the rest of this loop body, so
    // per-subframe slices, ACK outcomes, and any full-PHY decode probe the
    // end-of-iteration observer fires all nest under them. Both live on
    // the simulated timeline (no wall clock in fingerprinted output).
    const std::int64_t txop_id = txop_seq++;
    const std::int64_t frame_id = frame_seq++;
    obs::Span txop_span("mac.txop");
    txop_span.ids({.txop = txop_id, .sta = static_cast<std::int64_t>(src)})
        .sim_interval(now, sequence);
    obs::Span frame_span("mac.frame");
    frame_span
        .ids({.txop = txop_id,
              .frame = frame_id,
              .sta = static_cast<std::int64_t>(src)})
        .sim_interval(now + ctrl, tx.data_duration);

    // Judge reception frame by frame: every MPDU has its own FCS and is
    // selectively retransmitted (802.11n block ACK; Carpool's sequential
    // ACK reports per-subframe, and subframes carry per-MPDU checks too).
    std::size_t ok_subunits = 0;
    std::uint64_t delivered_payload_bits = 0;
    std::int64_t subframe_index = -1;
    for (SubUnit& su : tx.subunits) {
      ++subframe_index;
      const NodeId peer = is_downlink ? su.dst : kApNode;
      const double snr = is_downlink ? sta_snr(su.dst) : sta_snr(src);
      const bool ack_ok = !phy_rng.bernoulli(phy.control_error_prob(snr));

      bool any_delivered = false;
      std::uint64_t frames_ok = 0;
      std::uint64_t frames_dropped = 0;
      failed.dst = su.dst;
      failed.frames.clear();
      // Per-frame symbol spans within the subunit, at this link's rate —
      // for downlink, the rate the AP's build() actually used (frozen in
      // ap_snapshot; feedback during this judging loop must not shift it).
      double link_rate = rate_of(src);
      if (is_downlink) {
        const double decided = ap_snapshot.rate_bps(su.dst);
        link_rate = decided > 0.0 ? decided : p.data_rate_bps;
      }
      const double bytes_per_symbol =
          link_rate * MacParams::symbol_duration / 8.0;
      double byte_offset = 0.0;
      for (MacFrame f : su.frames) {
        SubframeChannelQuery query;
        query.snr_db = snr;
        query.start_symbol =
            su.start_symbol +
            static_cast<std::size_t>(byte_offset / bytes_per_symbol);
        query.num_symbols = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   static_cast<double>(f.on_air_bytes()) / bytes_per_symbol +
                   0.5));
        query.rte = uses_rte(config_.scheme);
        query.coherence_time = config_.coherence_time;
        query.rate_bps = link_rate;
        query.time = now;
        byte_offset += static_cast<double>(f.on_air_bytes());

        ++frames_judged;
        const bool data_ok =
            !phy_rng.bernoulli(phy.subframe_error_prob(query));
        if (data_ok && ack_ok) {
          any_delivered = true;
          ++frames_ok;
          const double delay = now + sequence - f.enqueue_time;
          if (is_downlink) {
            ++result.dl_frames_delivered;
            dl_bytes += f.payload_bytes;
            if (su.dst < dl_bytes_per_sta.size()) {
              dl_bytes_per_sta[su.dst] += f.payload_bytes;
            }
            delays.push_back(delay);
          } else {
            ++result.ul_frames_delivered;
            ul_bytes += f.payload_bytes;
          }
          delivered_payload_bits += 8 * f.payload_bytes;
        } else {
          ++result.subframe_failures;
          if (++f.retries <= retry_limit) {
            failed.frames.push_back(f);
          } else {
            ++frames_dropped;
            if (is_downlink) {
              ++result.dl_frames_dropped;
            } else {
              ++result.ul_frames_dropped;
            }
          }
        }
      }
      // Subframe span: this receiver's symbol slice of the aggregate
      // frame plus its sequential-ACK outcome (paper Sec. 4.2): whether
      // any of its frames got through, and whether the ACK itself
      // survived. The whole interval is known here, so it is emitted
      // directly rather than held open.
      if (obs::SpanCollector* sc = obs::SpanCollector::current();
          sc != nullptr) {
        obs::SpanRecord rec;
        rec.parent = frame_span.id();
        rec.name = "mac.subframe";
        rec.ids = {.txop = txop_id,
                   .frame = frame_id,
                   .subframe = subframe_index,
                   .sta = static_cast<std::int64_t>(peer)};
        rec.sim_start = now + ctrl + static_cast<double>(su.start_symbol) *
                                         MacParams::symbol_duration;
        rec.sim_duration = static_cast<double>(su.num_symbols) *
                           MacParams::symbol_duration;
        rec.outcome =
            !ack_ok ? "ack_lost" : (any_delivered ? "ok" : "failed");
        sc->emit(std::move(rec));
      }
      if (any_delivered) {
        ++ok_subunits;
        // Receiver ACK transmission energy.
        energy[peer].add_tx(p.ack_duration());
      }
      if (is_downlink) {
        // Every sequential-ACK outcome feeds the link-state machine —
        // the same interface trace-driven PHY tables and real decodes
        // (feedback_from_decode) report through, so every PhyErrorModel
        // exercises identical policy code.
        AckFeedback fb;
        fb.time = now + sequence;
        fb.ack_ok = ack_ok;
        fb.frames_ok = static_cast<std::uint32_t>(frames_ok);
        fb.frames_failed =
            static_cast<std::uint32_t>(failed.frames.size()) +
            static_cast<std::uint32_t>(frames_dropped);
        fb.snr_db = snr;
        links.on_feedback(su.dst, fb);
      }
      if (is_downlink && su.dst < airtime_occupancy.size()) {
        airtime_occupancy[su.dst] +=
            p.payload_duration(8 * static_cast<std::uint64_t>(su.bytes));
      }
      if (!failed.frames.empty()) {
        // Partial-ACK selective retransmission: only the failed MPDUs
        // return to the head of their queue.
        requeue(src, failed);
      }
    }

    txop_span.outcome(ok_subunits > 0 ? "ok" : "failed");
    frame_span.outcome(ok_subunits > 0 ? "ok" : "failed");

    BackoffState& b = src == kApNode ? ap_backoff : sta_backoff[src];
    if (ok_subunits > 0) {
      b.on_success(p.cw_min);
    } else {
      b.on_failure(p.cw_max);
    }

    // --- energy accounting over the sequence ---
    energy[src].add_tx(ctrl > 0.0 ? p.rts_duration() + tx.data_duration
                                  : tx.data_duration);
    const bool carpool_like = config_.scheme == Scheme::kCarpool;
    if (is_downlink) {
      for (const SubUnit& su : tx.subunits) addressed[su.dst] = &su;
    }
    // The constructor bounds a Carpool aggregate at kMaxReceivers.
    const double p_false_positive =
        carpool_like && is_downlink
            ? false_positive_odds()[tx.subunits.size()]
            : 0.0;
    for (NodeId sta = 1; sta <= config_.num_stas; ++sta) {
      if (sta == src) continue;
      if (const SubUnit* own = addressed[sta]; own != nullptr) {
        // Header + own subframe (Carpool) or whole frame (others).
        const double own_time = static_cast<double>(own->num_symbols) *
                                MacParams::symbol_duration;
        const double rx_time =
            carpool_like ? p.plcp_header + 2 * MacParams::symbol_duration +
                               own_time
                         : tx.data_duration;
        energy[sta].add_rx(rx_time);
      } else {
        // Overhearers: PHY header (+ A-HDR) then idle via NAV.
        double rx_time = p.plcp_header;
        if (carpool_like) rx_time += 2 * MacParams::symbol_duration;
        // Bloom false positive: decode one irrelevant subframe.
        if (carpool_like && is_downlink) {
          if (phy_rng.bernoulli(p_false_positive)) {
            const SubUnit& victim =
                tx.subunits[phy_rng.uniform_int(tx.subunits.size())];
            rx_time += static_cast<double>(victim.num_symbols) *
                       MacParams::symbol_duration;
            ++result.false_positive_decodes;
          }
        }
        energy[sta].add_rx(rx_time);
      }
    }
    if (is_downlink) {
      for (const SubUnit& su : tx.subunits) addressed[su.dst] = nullptr;
    } else {
      energy[kApNode].add_rx(tx.data_duration);
    }

    // Airtime accounting.
    const double payload_time =
        static_cast<double>(delivered_payload_bits) / p.data_rate_bps;
    result.airtime_payload += payload_time;
    result.airtime_overhead += sequence - payload_time;

    now += sequence;
    idle_start = now;
    SimTxopInfo info;
    info.downlink = is_downlink;
    info.sequential_ack = tx.sequential_ack;
    info.subunits = tx.subunits.size();
    info.data_duration = tx.data_duration;
    info.ack_overhead = tx.ack_overhead;
    notify_observer(info);
  }

  sample_queue_depth(std::min(now, config_.duration));

  // --- finalize metrics ---
  result.lq_suspensions = links.suspensions();
  result.lq_probes = links.probes();
  result.ls_transitions = links.transition_count();
  result.ls_rate_downgrades = links.rate_downgrades();
  result.ls_rate_upgrades = links.rate_upgrades();
  result.link_transitions = links.transitions();

  const double T = config_.duration;
  result.downlink_goodput_bps = static_cast<double>(dl_bytes) * 8.0 / T;
  result.uplink_goodput_bps = static_cast<double>(ul_bytes) * 8.0 / T;
  if (!delays.empty()) {
    // Sum in delivery order (before the selection below reorders), then
    // select the order statistics instead of sorting: the k-th smallest
    // of a multiset is one value, so this matches a sorted lookup bit
    // for bit.
    double delay_sum = 0.0;
    for (const double d : delays) delay_sum += d;
    result.mean_delay_s = delay_sum / static_cast<double>(delays.size());
    const auto p95 = delays.begin() + static_cast<std::ptrdiff_t>(
                                          nearest_rank(0.95, delays.size()));
    std::nth_element(delays.begin(), p95, delays.end());
    result.p95_delay_s = *p95;
    result.max_delay_s = *std::max_element(p95, delays.end());
  }
  result.mean_ap_queue_depth = queue_depth_integral / T;
  result.airtime_idle =
      std::max(0.0, T - result.airtime_payload - result.airtime_overhead -
                        result.airtime_collision);
  result.avg_aggregated_receivers =
      ap_txops == 0 ? 0.0
                    : static_cast<double>(ap_subunits) /
                          static_cast<double>(ap_txops);
  result.per_sta_goodput_bps.resize(config_.num_stas + 1, 0.0);
  double fair_sum = 0.0, fair_sq = 0.0;
  std::size_t fair_n = 0;
  for (NodeId sta = 1; sta <= config_.num_stas; ++sta) {
    const double x = static_cast<double>(dl_bytes_per_sta[sta]) * 8.0 / T;
    result.per_sta_goodput_bps[sta] = x;
    if (x > 0.0) {
      fair_sum += x;
      fair_sq += x * x;
      ++fair_n;
    }
  }
  if (fair_n > 0 && fair_sq > 0.0) {
    result.jain_fairness =
        fair_sum * fair_sum / (static_cast<double>(fair_n) * fair_sq);
  }
  result.node_energy.resize(config_.num_stas + 1);
  for (NodeId node = 0; node <= config_.num_stas; ++node) {
    NodeEnergy& ne = result.node_energy[node];
    ne.tx_seconds = energy[node].tx_seconds();
    ne.rx_seconds = energy[node].rx_seconds();
    ne.idle_seconds = energy[node].idle_seconds(T);
    ne.joules = energy[node].joules(T);
  }
  return result;
}

}  // namespace carpool::mac
