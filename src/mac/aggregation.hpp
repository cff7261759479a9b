#pragma once

// AP-side queueing and the per-scheme transmission builders.
//
// The AP keeps one FIFO per associated STA. On winning a TXOP the scheme
// decides what goes on the air:
//   802.11 / WiFox : the globally oldest frame, alone
//   A-MPDU         : the oldest frame's STA, aggregated up to the caps
//   MU-Aggregation : up to max_receivers STAs (oldest-first), with a
//                    per-receiver MAC-address header at the basic rate
//   Carpool        : up to max_receivers STAs, A-HDR (2 symbols) and one
//                    SIG symbol per subframe
//
// An aggregate takes whatever is queued when the AP wins the channel, up
// to the byte and receiver caps; it never waits for more frames to
// arrive, so there is no latency limit to end it. Stale frames leave
// through SimConfig::delivery_deadline instead.

#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "mac/frame.hpp"
#include "mac/link_state.hpp"
#include "mac/params.hpp"
#include "mac/scheme.hpp"

namespace carpool::mac {

struct AggregationPolicy {
  std::size_t max_aggregate_bytes = 65535;  ///< 802.11n A-MPDU cap
  std::size_t max_subframe_bytes = 4095;    ///< SIG LENGTH field cap
  std::size_t max_receivers = 8;            ///< Carpool kMaxReceivers
  /// Time-fairness control (paper Sec. 8): pick receivers with the least
  /// airtime occupancy first instead of the oldest head-of-line frame.
  /// Requires an occupancy table passed to build().
  bool time_fairness = false;
};

class ApQueues {
 public:
  void enqueue(MacFrame frame);

  [[nodiscard]] bool empty() const noexcept { return total_frames_ == 0; }
  [[nodiscard]] std::size_t depth() const noexcept { return total_frames_; }
  [[nodiscard]] std::size_t queued_bytes() const noexcept {
    return total_bytes_;
  }

  /// Remove frames whose age exceeds `max_age`; returns how many dropped.
  std::size_t drop_expired(double now, double max_age);

  /// Build the next transmission per `scheme` into `out`, overwriting
  /// whatever it held: `out` gets no subunits if nothing is queued. The
  /// frame vectors of `out`'s previous subunits are cleared and reused,
  /// not freed, so a caller that passes the same Transmission every TXOP
  /// does not allocate once the buffers have grown. Frames leave the
  /// queues; failed subunits must be returned via requeue_front().
  /// `airtime_occupancy[sta]` (optional) feeds the time-fairness policy.
  /// `links` is the per-STA LinkStateMachine decision snapshot
  /// (docs/LINK_STATE.md): it supplies both each receiver's PHY rate (the
  /// Carpool format allows a different MCS per subframe; 0 = use
  /// params.data_rate_bps) and the blocked mask that holds suspended
  /// stations out of scheduling entirely until the machine probes them
  /// again. An empty snapshot means no policy: default rate, nobody
  /// blocked.
  /// `carpool_capable[sta]` (optional, 0/1 flags) marks stations that
  /// negotiated Carpool at association (Sec. 4.3); others always get
  /// legacy single-destination transmissions, even under a multi-receiver
  /// scheme.
  void build(Transmission& out, Scheme scheme, const MacParams& params,
             const AggregationPolicy& policy,
             std::span<const double> airtime_occupancy = {},
             const LinkSnapshot& links = {},
             std::span<const std::uint8_t> carpool_capable = {});

  /// Put a failed subunit's frames back at the head of their queue.
  void requeue_front(const SubUnit& subunit);

 private:
  std::vector<std::deque<MacFrame>> queues_;  // index = dst NodeId
  std::size_t total_frames_ = 0;
  std::size_t total_bytes_ = 0;
  // build() scratch, kept so a TXOP does not allocate: (key, STA) heads
  // in receiver order, the chosen receivers, and the frame vectors of
  // subunits `out` no longer needs.
  std::vector<std::pair<double, NodeId>> heads_;
  std::vector<NodeId> order_;
  std::vector<std::vector<MacFrame>> spare_frames_;
};

/// Airtime of a single (non-aggregated) uplink/downlink frame plus ACK.
/// `rate_bps` overrides the PHY data rate (0 = params.data_rate_bps).
Transmission build_single_frame(const MacFrame& frame,
                                const MacParams& params,
                                double rate_bps = 0.0);

}  // namespace carpool::mac
