#include "phy/constellation.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "fec/interleaver.hpp"

namespace carpool {
namespace {

// Gray-coded PAM levels per axis, indexed by the axis bits packed with the
// first (earliest) bit as LSB. Values follow IEEE 802.11 Tables 17-(9..11).
constexpr std::array<double, 2> kPam2{-1.0, 1.0};
constexpr std::array<double, 4> kPam4{-3.0, 3.0, -1.0, 1.0};
constexpr std::array<double, 8> kPam8{-7.0, 7.0, -1.0, 1.0,
                                      -5.0, 5.0, -3.0, 3.0};

double pam_level(unsigned packed, std::size_t bits_per_axis) {
  switch (bits_per_axis) {
    case 1:
      return kPam2[packed];
    case 2:
      return kPam4[packed];
    case 3:
      return kPam8[packed];
    default:
      throw std::logic_error("pam_level: unsupported axis width");
  }
}

double normalization(Modulation mod) {
  switch (mod) {
    case Modulation::kBpsk:
      return 1.0;
    case Modulation::kQpsk:
      return 1.0 / std::sqrt(2.0);
    case Modulation::kQam16:
      return 1.0 / std::sqrt(10.0);
    case Modulation::kQam64:
      return 1.0 / std::sqrt(42.0);
  }
  throw std::logic_error("unknown modulation");
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Squared distance from one received coordinate to each level of an axis.
/// Point (level_i[i], level_q[q]) lies at di[i] + dq[q]: the same two
/// squares and one sum std::norm(received - point) computes.
template <std::size_t N>
std::array<double, N> axis_distances(double x,
                                     const std::array<double, 8>& levels) {
  std::array<double, N> d{};
  for (std::size_t k = 0; k < N; ++k) {
    const double diff = x - levels[k];
    d[k] = diff * diff;
  }
  return d;
}

/// Minimum over the entries whose index has bit `b` clear (first) and set
/// (second). Like std::min(acc, d), a NaN entry never wins.
template <std::size_t N>
std::array<double, 2> split_min(const std::array<double, N>& d,
                                std::size_t b) {
  std::array<double, 2> m{kInf, kInf};
  for (std::size_t k = 0; k < N; ++k) {
    double& acc = m[(k >> b) & 1u];
    acc = std::min(acc, d[k]);
  }
  return m;
}

template <std::size_t N>
double all_min(const std::array<double, N>& d) {
  double m = kInf;
  for (const double v : d) m = std::min(m, v);
  return m;
}

/// IB label bits on the I axis (low), QB on the Q axis (high).
template <std::size_t IB, std::size_t QB>
std::size_t nearest_label(Cx r, const std::array<double, 8>& level_i,
                          const std::array<double, 8>& level_q) {
  const auto di = axis_distances<std::size_t{1} << IB>(r.real(), level_i);
  const auto dq = axis_distances<std::size_t{1} << QB>(r.imag(), level_q);
  std::size_t best = 0;
  double best_dist = kInf;
  for (std::size_t label = 0; label < (std::size_t{1} << (IB + QB));
       ++label) {
    const double d =
        di[label & ((std::size_t{1} << IB) - 1)] + dq[label >> IB];
    if (d < best_dist) {
      best_dist = d;
      best = label;
    }
  }
  return best;
}

/// Max-log LLRs from per-axis minima. For each bit, the minimum over its
/// labels of fl(di + dq) is fl(min di + min dq): rounding is monotone, so
/// the pair of axis minima attains the joint minimum. An all-NaN axis
/// gives +inf, just as the full search skips every NaN distance and keeps
/// its +inf start.
template <std::size_t IB, std::size_t QB>
void soft_llrs(Cx r, double gain, const std::array<double, 8>& level_i,
               const std::array<double, 8>& level_q, std::span<double> llr) {
  const auto di = axis_distances<std::size_t{1} << IB>(r.real(), level_i);
  const auto dq = axis_distances<std::size_t{1} << QB>(r.imag(), level_q);
  const double di_min = all_min(di);
  const double dq_min = all_min(dq);
  for (std::size_t b = 0; b < IB; ++b) {
    const auto [min0, min1] = split_min(di, b);
    llr[b] = gain * ((min0 + dq_min) - (min1 + dq_min));
  }
  for (std::size_t b = 0; b < QB; ++b) {
    const auto [min0, min1] = split_min(dq, b);
    llr[IB + b] = gain * ((di_min + min0) - (di_min + min1));
  }
}

}  // namespace

std::size_t bits_per_symbol(Modulation mod) noexcept {
  switch (mod) {
    case Modulation::kBpsk:
      return 1;
    case Modulation::kQpsk:
      return 2;
    case Modulation::kQam16:
      return 4;
    case Modulation::kQam64:
      return 6;
  }
  return 1;
}

std::string_view modulation_name(Modulation mod) noexcept {
  switch (mod) {
    case Modulation::kBpsk:
      return "BPSK";
    case Modulation::kQpsk:
      return "QPSK";
    case Modulation::kQam16:
      return "QAM16";
    case Modulation::kQam64:
      return "QAM64";
  }
  return "?";
}

Constellation::Constellation(Modulation mod)
    : mod_(mod), nbits_(bits_per_symbol(mod)) {
  const double norm = normalization(mod);
  const std::size_t count = std::size_t{1} << nbits_;
  points_.resize(count);
  for (std::size_t label = 0; label < count; ++label) {
    if (mod == Modulation::kBpsk) {
      points_[label] = Cx{pam_level(static_cast<unsigned>(label), 1), 0.0};
      continue;
    }
    const std::size_t axis_bits = nbits_ / 2;
    const unsigned mask = (1u << axis_bits) - 1u;
    const unsigned i_packed = static_cast<unsigned>(label) & mask;
    const unsigned q_packed = (static_cast<unsigned>(label) >> axis_bits) & mask;
    points_[label] = norm * Cx{pam_level(i_packed, axis_bits),
                               pam_level(q_packed, axis_bits)};
  }
  // Every point sits on the grid of its axis levels (BPSK: Q = 0), which
  // is what makes the demappers' split distances exact.
  const std::size_t i_bits = mod == Modulation::kBpsk ? 1 : nbits_ / 2;
  const std::size_t i_mask = (std::size_t{1} << i_bits) - 1;
  for (std::size_t label = 0; label < count; ++label) {
    level_i_[label & i_mask] = points_[label].real();
    level_q_[label >> i_bits] = points_[label].imag();
  }
}

Cx Constellation::map(std::span<const std::uint8_t> bits) const {
  if (bits.size() != nbits_) {
    throw std::invalid_argument("Constellation::map: wrong bit count");
  }
  unsigned label = 0;
  for (std::size_t i = 0; i < nbits_; ++i) {
    label |= static_cast<unsigned>(bits[i] & 1u) << i;
  }
  return points_[label];
}

CxVec Constellation::map_all(std::span<const std::uint8_t> bits) const {
  if (bits.size() % nbits_ != 0) {
    throw std::invalid_argument("Constellation::map_all: size mismatch");
  }
  CxVec out;
  out.reserve(bits.size() / nbits_);
  for (std::size_t i = 0; i < bits.size(); i += nbits_) {
    out.push_back(map(bits.subspan(i, nbits_)));
  }
  return out;
}

std::size_t Constellation::nearest(Cx received) const noexcept {
  switch (mod_) {
    case Modulation::kBpsk:
      return nearest_label<1, 0>(received, level_i_, level_q_);
    case Modulation::kQpsk:
      return nearest_label<1, 1>(received, level_i_, level_q_);
    case Modulation::kQam16:
      return nearest_label<2, 2>(received, level_i_, level_q_);
    case Modulation::kQam64:
      return nearest_label<3, 3>(received, level_i_, level_q_);
  }
  return 0;
}

Bits Constellation::demap_hard(Cx received) const {
  const std::size_t label = nearest(received);
  Bits bits(nbits_);
  for (std::size_t i = 0; i < nbits_; ++i) {
    bits[i] = static_cast<std::uint8_t>((label >> i) & 1u);
  }
  return bits;
}

void Constellation::demap_soft(Cx received, double gain,
                               std::span<double> llr) const {
  if (llr.size() != nbits_) {
    throw std::invalid_argument("Constellation::demap_soft: wrong llr count");
  }
  switch (mod_) {
    case Modulation::kBpsk:
      return soft_llrs<1, 0>(received, gain, level_i_, level_q_, llr);
    case Modulation::kQpsk:
      return soft_llrs<1, 1>(received, gain, level_i_, level_q_, llr);
    case Modulation::kQam16:
      return soft_llrs<2, 2>(received, gain, level_i_, level_q_, llr);
    case Modulation::kQam64:
      return soft_llrs<3, 3>(received, gain, level_i_, level_q_, llr);
  }
}

const Constellation& constellation(Modulation mod) {
  static const Constellation bpsk{Modulation::kBpsk};
  static const Constellation qpsk{Modulation::kQpsk};
  static const Constellation qam16{Modulation::kQam16};
  static const Constellation qam64{Modulation::kQam64};
  switch (mod) {
    case Modulation::kBpsk:
      return bpsk;
    case Modulation::kQpsk:
      return qpsk;
    case Modulation::kQam16:
      return qam16;
    case Modulation::kQam64:
      return qam64;
  }
  throw std::logic_error("unknown modulation");
}

const Interleaver& interleaver_for(Modulation mod) {
  static const Interleaver bpsk{48, 1};
  static const Interleaver qpsk{96, 2};
  static const Interleaver qam16{192, 4};
  static const Interleaver qam64{288, 6};
  switch (mod) {
    case Modulation::kBpsk:
      return bpsk;
    case Modulation::kQpsk:
      return qpsk;
    case Modulation::kQam16:
      return qam16;
    case Modulation::kQam64:
      return qam64;
  }
  throw std::logic_error("unknown modulation");
}

}  // namespace carpool
