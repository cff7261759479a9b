#include "mac/aggregation.hpp"

#include <algorithm>
#include <stdexcept>

namespace carpool::mac {
namespace {

std::size_t symbols_for(double seconds) {
  return static_cast<std::size_t>(seconds / MacParams::symbol_duration + 0.5);
}

/// Pop frames from `queue` into the empty subunit `su` until the subunit
/// or aggregate caps are hit. `subunit_cap` is the SIG LENGTH limit for
/// Carpool/MU subframes, or the full A-MPDU limit when the subunit is the
/// whole aggregate.
void pop_subunit(std::deque<MacFrame>& queue, SubUnit& su,
                 std::size_t subunit_cap, std::size_t aggregate_budget,
                 bool allow_aggregation) {
  while (!queue.empty()) {
    const MacFrame& head = queue.front();
    // Delimiters only exist between aggregated MPDUs.
    const std::size_t cost =
        head.on_air_bytes() + (allow_aggregation ? kMpduDelimiterBytes : 0);
    const std::size_t next_size = su.bytes + cost;
    if (!su.frames.empty() &&
        (!allow_aggregation || next_size > subunit_cap ||
         next_size > aggregate_budget)) {
      break;
    }
    su.bytes += cost;
    su.frames.push_back(head);
    queue.pop_front();
    if (!allow_aggregation) break;
  }
}

}  // namespace

void ApQueues::enqueue(MacFrame frame) {
  if (frame.dst >= queues_.size()) queues_.resize(frame.dst + 1);
  total_bytes_ += frame.on_air_bytes();
  ++total_frames_;
  queues_[frame.dst].push_back(std::move(frame));
}

std::size_t ApQueues::drop_expired(double now, double max_age) {
  std::size_t dropped = 0;
  for (auto& queue : queues_) {
    while (!queue.empty() &&
           now - queue.front().enqueue_time > max_age) {
      total_bytes_ -= queue.front().on_air_bytes();
      --total_frames_;
      queue.pop_front();
      ++dropped;
    }
  }
  return dropped;
}

void ApQueues::requeue_front(const SubUnit& subunit) {
  if (subunit.frames.empty()) return;
  auto& queue = queues_[subunit.dst];
  for (auto it = subunit.frames.rbegin(); it != subunit.frames.rend(); ++it) {
    queue.push_front(*it);
    total_bytes_ += it->on_air_bytes();
    ++total_frames_;
  }
}

void ApQueues::build(Transmission& out, Scheme scheme,
                     const MacParams& params, const AggregationPolicy& policy,
                     std::span<const double> airtime_occupancy,
                     const LinkSnapshot& links,
                     std::span<const std::uint8_t> carpool_capable) {
  // Recycle the previous aggregate's frame vectors: cleared, not freed.
  for (SubUnit& su : out.subunits) {
    su.frames.clear();
    spare_frames_.push_back(std::move(su.frames));
  }
  out.subunits.clear();
  out.src = kApNode;
  out.data_duration = 0.0;
  out.ack_overhead = 0.0;
  out.sequential_ack = false;
  // Queue slot 0 belongs to the AP and is never a destination; the
  // snapshot is only ever consulted for real stations (it throws on 0).
  auto is_blocked = [&](std::size_t sta) {
    return sta != kApNode && links.blocked(static_cast<NodeId>(sta));
  };
  // STA with the oldest head-of-line frame among schedulable stations.
  long first = -1;
  double first_time = 0.0;
  for (std::size_t sta = 0; sta < queues_.size(); ++sta) {
    if (queues_[sta].empty() || is_blocked(sta)) continue;
    const double t = queues_[sta].front().enqueue_time;
    if (first < 0 || t < first_time) {
      first = static_cast<long>(sta);
      first_time = t;
    }
  }
  if (first < 0) return;

  auto capable = [&](NodeId sta) {
    return carpool_capable.empty() ||
           (sta < carpool_capable.size() && carpool_capable[sta] != 0);
  };
  // A legacy head-of-line station is served with a plain legacy frame
  // (Sec. 4.3: the AP runs the protocol version the client supports).
  Scheme effective = scheme;
  if (is_multi_receiver(scheme) &&
      !capable(static_cast<NodeId>(first))) {
    effective = Scheme::kDcf80211;
  }
  const Scheme original = scheme;
  scheme = effective;

  const bool aggregate_per_sta =
      scheme == Scheme::kAmpdu || is_multi_receiver(scheme);

  // Pick receivers oldest-head-of-line first, or least-airtime first
  // under time fairness (Sec. 8).
  order_.clear();
  if (is_multi_receiver(scheme)) {
    heads_.clear();
    for (std::size_t sta = 0; sta < queues_.size(); ++sta) {
      if (is_blocked(sta)) continue;
      if (!queues_[sta].empty()) {
        double key = queues_[sta].front().enqueue_time;
        if (policy.time_fairness && sta < airtime_occupancy.size()) {
          key = airtime_occupancy[sta];
        }
        heads_.emplace_back(key, static_cast<NodeId>(sta));
      }
    }
    std::sort(heads_.begin(), heads_.end());
    for (const auto& [t, sta] : heads_) {
      if (order_.size() >= policy.max_receivers) break;
      if (is_multi_receiver(original) && !capable(sta)) continue;
      order_.push_back(sta);
    }
  } else {
    order_.push_back(static_cast<NodeId>(first));
  }

  // Multi-receiver subframes are bounded by the SIG LENGTH field; a plain
  // A-MPDU's single subunit may fill the whole 64 KB aggregate.
  const std::size_t subunit_cap = is_multi_receiver(scheme)
                                      ? policy.max_subframe_bytes
                                      : policy.max_aggregate_bytes;
  std::size_t budget = policy.max_aggregate_bytes;
  for (const NodeId dst : order_) {
    if (budget < kMacHeaderBytes + kMpduDelimiterBytes) break;
    SubUnit& su = out.subunits.emplace_back();
    su.dst = dst;
    if (!spare_frames_.empty()) {
      su.frames = std::move(spare_frames_.back());
      spare_frames_.pop_back();
    }
    // order_ holds only STAs with queued frames, so `su` gets at least one.
    pop_subunit(queues_[dst], su, subunit_cap, budget, aggregate_per_sta);
    budget -= std::min(budget, su.bytes);
    for (const MacFrame& f : su.frames) {
      total_bytes_ -= f.on_air_bytes();
      --total_frames_;
    }
  }
  if (out.subunits.empty()) return;

  // Durations and symbol geometry.
  const std::size_t n = out.subunits.size();
  double offset = 0.0;  // payload-section time offset after the preamble
  double duration = params.plcp_header;
  switch (scheme) {
    case Scheme::kDcf80211:
    case Scheme::kWiFox:
    case Scheme::kAmpdu:
      break;
    case Scheme::kMuAggregation:
      // Per-receiver 48-bit MAC address headers at the basic rate
      // (the strawman cost the paper quantifies in Sec. 3).
      duration += static_cast<double>(48 * n) / params.basic_rate_bps;
      break;
    case Scheme::kCarpool:
      duration += 2.0 * MacParams::symbol_duration;  // A-HDR
      break;
  }
  for (SubUnit& su : out.subunits) {
    if (scheme == Scheme::kCarpool) {
      duration += MacParams::symbol_duration;  // per-subframe SIG
      offset += MacParams::symbol_duration;
    }
    const double link_rate = links.rate_bps(su.dst);
    const double rate = link_rate > 0.0 ? link_rate : params.data_rate_bps;
    const double payload_time =
        8.0 * static_cast<double>(su.bytes) / rate;
    su.start_symbol = symbols_for(offset);
    su.num_symbols = std::max<std::size_t>(1, symbols_for(payload_time));
    offset += payload_time;
    duration += payload_time;
  }
  out.data_duration = duration;
  out.sequential_ack = is_multi_receiver(scheme);
  out.ack_overhead =
      static_cast<double>(n) * (params.sifs + params.ack_duration());
  if (!out.sequential_ack) {
    out.ack_overhead = params.sifs + params.ack_duration();
  }
}

Transmission build_single_frame(const MacFrame& frame,
                                const MacParams& params, double rate_bps) {
  Transmission tx;
  tx.src = frame.src;
  SubUnit su;
  su.dst = frame.dst;
  su.frames.push_back(frame);
  su.bytes = frame.on_air_bytes();
  const double rate = rate_bps > 0.0 ? rate_bps : params.data_rate_bps;
  const double payload_time = 8.0 * static_cast<double>(su.bytes) / rate;
  su.start_symbol = 0;
  su.num_symbols = std::max<std::size_t>(1, symbols_for(payload_time));
  tx.subunits.push_back(std::move(su));
  tx.data_duration = params.plcp_header + payload_time;
  tx.ack_overhead = params.sifs + params.ack_duration();
  tx.sequential_ack = false;
  return tx;
}

}  // namespace carpool::mac
