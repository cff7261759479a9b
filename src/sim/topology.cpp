#include "sim/topology.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace carpool::sim {
namespace {

constexpr double kMinLinkDistance = 0.5;  ///< near-field clamp, metres

double distance_clamped(Point a, Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::max(kMinLinkDistance, std::hypot(dx, dy));
}

}  // namespace

Topology::Topology(TopologySpec spec, double power_magnitude,
                   std::uint64_t layout_seed)
    : spec_(spec),
      tx_power_dbm_(usrp_power_magnitude_to_dbm(power_magnitude)) {
  if (spec_.ap_count == 0) {
    throw std::invalid_argument("Topology: need at least one AP");
  }
  if (spec_.channel_count == 0) {
    throw std::invalid_argument("Topology: need at least one channel");
  }
  if (!(spec_.ap_spacing > 0.0)) {
    throw std::invalid_argument("Topology: ap_spacing must be positive");
  }
  if (!(spec_.roam_interval > 0.0)) {
    throw std::invalid_argument("Topology: roam_interval must be positive");
  }
  if (!(spec_.cell_size > 0.0)) {
    throw std::invalid_argument("Topology: cell_size must be positive");
  }
  if (spec_.roam_hysteresis_db < 0.0) {
    throw std::invalid_argument("Topology: roam_hysteresis_db must be >= 0");
  }
  if (spec_.activity_factor < 0.0 || spec_.activity_factor > 1.0) {
    throw std::invalid_argument("Topology: activity_factor must be in [0,1]");
  }

  // Row-major square grid: ceil(sqrt(N)) columns.
  grid_cols_ = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(spec_.ap_count))));
  ap_pos_.reserve(spec_.ap_count);
  for (std::size_t ap = 0; ap < spec_.ap_count; ++ap) {
    const std::size_t row = ap / grid_cols_;
    const std::size_t col = ap % grid_cols_;
    ap_pos_.push_back(Point{static_cast<double>(col) * spec_.ap_spacing,
                            static_cast<double>(row) * spec_.ap_spacing});
  }

  // Deterministic scatter offsets shared by every cell: the same Rng
  // recipe as TestbedLayout so a seed names one campus layout. Offsets
  // keep >= 1 m from the AP at the cell centre.
  Rng rng(layout_seed);
  const double half = spec_.cell_size / 2.0;
  scatter_.reserve(kScatterPoints);
  while (scatter_.size() < kScatterPoints) {
    const Point offset{rng.uniform(-half + kMinLinkDistance,
                                   half - kMinLinkDistance),
                       rng.uniform(-half + kMinLinkDistance,
                                   half - kMinLinkDistance)};
    if (std::hypot(offset.x, offset.y) < 1.0) continue;
    scatter_.push_back(offset);
  }
}

Point Topology::ap_position(std::size_t ap) const {
  if (ap >= ap_pos_.size()) {
    throw std::out_of_range("Topology: AP index out of range");
  }
  return ap_pos_[ap];
}

std::size_t Topology::channel_of(std::size_t ap) const noexcept {
  return ap % spec_.channel_count;
}

std::size_t Topology::cochannel_pairs() const noexcept {
  std::size_t pairs = 0;
  for (std::size_t a = 0; a < spec_.ap_count; ++a) {
    for (std::size_t b = a + 1; b < spec_.ap_count; ++b) {
      if (channel_of(a) == channel_of(b)) ++pairs;
    }
  }
  return pairs;
}

std::size_t Topology::home_ap(mac::NodeId sta) const noexcept {
  if (sta == mac::kApNode) return 0;
  return static_cast<std::size_t>(sta - 1) % spec_.ap_count;
}

Point Topology::home_position(mac::NodeId sta) const {
  const Point ap = ap_position(home_ap(sta));
  const std::size_t local = static_cast<std::size_t>(sta - 1) / spec_.ap_count;
  const Point& offset = scatter_[local % scatter_.size()];
  return Point{ap.x + offset.x, ap.y + offset.y};
}

Point Topology::position(mac::NodeId sta, const MobilityPath& path,
                         double time) const {
  if (!path.empty()) return path.position_at(time);
  return home_position(sta);
}

double Topology::rx_power_dbm(std::size_t ap, Point p) const {
  const double d = distance_clamped(ap_position(ap), p);
  return tx_power_dbm_ - pathloss_.loss_db(d);
}

double Topology::sinr_db(std::size_t ap, Point p) const {
  const double signal_dbm = rx_power_dbm(ap, p);
  const double noise_mw =
      std::pow(10.0, pathloss_.config().noise_floor_dbm / 10.0);
  double interference_mw = 0.0;
  const std::size_t ch = channel_of(ap);
  for (std::size_t other = 0; other < spec_.ap_count; ++other) {
    if (other == ap || channel_of(other) != ch) continue;
    interference_mw +=
        spec_.activity_factor * std::pow(10.0, rx_power_dbm(other, p) / 10.0);
  }
  if (interference_mw == 0.0) {
    // Exact single-BSS SNR, so a non-overlapping topology is bit-for-bit
    // the same link as PathLossModel::snr_db.
    return signal_dbm - pathloss_.config().noise_floor_dbm;
  }
  return signal_dbm - 10.0 * std::log10(noise_mw + interference_mw);
}

std::size_t Topology::associate(Point p, std::ptrdiff_t current) const {
  std::size_t best = 0;
  double best_dbm = rx_power_dbm(0, p);
  for (std::size_t ap = 1; ap < spec_.ap_count; ++ap) {
    const double dbm = rx_power_dbm(ap, p);
    if (dbm > best_dbm) {
      best = ap;
      best_dbm = dbm;
    }
  }
  if (current >= 0 &&
      static_cast<std::size_t>(current) < spec_.ap_count &&
      static_cast<std::size_t>(current) != best) {
    const double current_dbm =
        rx_power_dbm(static_cast<std::size_t>(current), p);
    if (best_dbm < current_dbm + spec_.roam_hysteresis_db) {
      return static_cast<std::size_t>(current);
    }
  }
  return best;
}

DomainSinr::DomainSinr(const Topology& topo, std::size_t ap,
                       const std::vector<mac::NodeId>& stas,
                       const std::vector<MobilityPath>& paths, double start)
    : topo_(&topo), ap_(ap), start_(start) {
  links_.reserve(stas.size());
  for (const mac::NodeId sta : stas) {
    if (sta < paths.size() && !paths[sta].empty()) {
      links_.push_back(Link{&paths[sta], 0.0});
    } else {
      links_.push_back(
          Link{nullptr, topo.sinr_db(ap, topo.home_position(sta))});
    }
  }
}

double DomainSinr::operator()(mac::NodeId local, double now) const {
  const Link& link = links_[local - 1];
  if (link.path == nullptr) return link.sinr_db;
  return topo_->sinr_db(ap_, link.path->position_at(start_ + now));
}

AssociationTimeline::AssociationTimeline(
    const Topology& topo, std::size_t num_stas,
    const std::vector<MobilityPath>& paths, double duration) {
  if (!(duration > 0.0)) {
    throw std::invalid_argument("AssociationTimeline: duration must be > 0");
  }
  static const MobilityPath kNoPath;
  intervals_.assign(num_stas + 1, {});
  for (mac::NodeId sta = 1; sta <= num_stas; ++sta) {
    const MobilityPath& path = sta < paths.size() ? paths[sta] : kNoPath;
    std::size_t current =
        topo.associate(topo.position(sta, path, 0.0), -1);
    double span_start = 0.0;
    // Static STAs never roam: a single interval, no grid walk.
    if (!path.empty() && topo.ap_count() > 1) {
      const double step = topo.spec().roam_interval;
      for (double t = step; t < duration; t += step) {
        const std::size_t next = topo.associate(
            topo.position(sta, path, t),
            static_cast<std::ptrdiff_t>(current));
        if (next == current) continue;
        intervals_[sta].push_back(
            AssociationInterval{span_start, t, current});
        handovers_.push_back(Handover{t, sta, current, next});
        current = next;
        span_start = t;
      }
    }
    intervals_[sta].push_back(
        AssociationInterval{span_start, duration, current});
  }
  std::stable_sort(handovers_.begin(), handovers_.end(),
                   [](const Handover& a, const Handover& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.sta < b.sta;
                   });
}

std::size_t AssociationTimeline::ap_at(mac::NodeId sta, double time) const {
  if (sta == mac::kApNode || sta >= intervals_.size() ||
      intervals_[sta].empty()) {
    throw std::out_of_range("AssociationTimeline: unknown STA");
  }
  const auto& spans = intervals_[sta];
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (time >= it->start) return it->ap;
  }
  return spans.front().ap;
}

std::vector<double> AssociationTimeline::handover_times() const {
  std::vector<double> times;
  times.reserve(handovers_.size());
  for (const Handover& h : handovers_) times.push_back(h.time);
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

}  // namespace carpool::sim
