#include "mac/phy_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/hash.hpp"

namespace carpool::mac {

double AnalyticPhyModel::symbol_error_prob(double snr_db,
                                           double staleness_ratio) const {
  const double effective_snr =
      snr_db - params_.stale_penalty_db * std::max(0.0, staleness_ratio);
  const double x =
      (effective_snr - params_.snr50_db) / params_.steepness_db;
  return 1.0 / (1.0 + std::exp(x));
}

double AnalyticPhyModel::rate_margin_db(double rate_bps) {
  // Mirror the 802.11n waterfall spacing: the SNR needed for MCS0 (6.5M)
  // is ~23 dB below what MCS7 (65M) needs. Piecewise from the same
  // threshold table used by rate adaptation.
  constexpr double kRates[] = {6.5e6, 13e6,  19.5e6, 26e6,
                               39e6,  52e6,  58.5e6, 65e6};
  constexpr double kThresholds[] = {5, 8, 11, 14, 18, 22, 26, 28};
  if (rate_bps <= 0.0 || rate_bps >= kRates[7]) return 0.0;
  double margin = kThresholds[7] - kThresholds[0];
  for (std::size_t i = 0; i < 8; ++i) {
    if (rate_bps >= kRates[i]) margin = kThresholds[7] - kThresholds[i];
  }
  return margin;
}

namespace {

/// Memo slot for a folded key: splitmix64's finalizer, whose top six bits
/// pick one of 64 slots.
std::size_t memo_slot(std::uint64_t z) {
  return static_cast<std::size_t>(mix64(z) >> 58);
}

}  // namespace

double AnalyticPhyModel::subframe_error_prob(
    const SubframeChannelQuery& query) const {
  static_assert(kMemoSlots == 64, "memo_slot and the filled masks hold 64");
  SubframeKey key;
  key.snr_bits = std::bit_cast<std::uint64_t>(query.snr_db);
  key.rate_bits = std::bit_cast<std::uint64_t>(query.rate_bps);
  key.coherence_bits = std::bit_cast<std::uint64_t>(query.coherence_time);
  key.num_symbols = query.num_symbols;
  key.start_symbol = query.rte ? 0 : query.start_symbol;
  key.rte = query.rte;
  const std::size_t slot = memo_slot(
      key.snr_bits ^ std::rotl(key.rate_bits, 13) ^
      std::rotl(key.coherence_bits, 26) ^ std::rotl(key.num_symbols, 39) ^
      std::rotl(key.start_symbol, 52) ^ static_cast<std::uint64_t>(key.rte));
  const std::uint64_t slot_bit = std::uint64_t{1} << slot;
  SubframeMemo& memo = subframe_memo_[slot];
  if ((subframe_filled_ & slot_bit) != 0 && memo.key == key) {
    return memo.answer;
  }
  memo.key = key;
  memo.answer = compute_subframe_error_prob(query);
  subframe_filled_ |= slot_bit;
  return memo.answer;
}

double AnalyticPhyModel::control_error_prob(double snr_db) const {
  const std::uint64_t snr_bits = std::bit_cast<std::uint64_t>(snr_db);
  const std::size_t slot = memo_slot(snr_bits);
  const std::uint64_t slot_bit = std::uint64_t{1} << slot;
  ControlMemo& memo = control_memo_[slot];
  if ((control_filled_ & slot_bit) != 0 && memo.snr_bits == snr_bits) {
    return memo.answer;
  }
  memo.snr_bits = snr_bits;
  memo.answer = compute_control_error_prob(snr_db);
  control_filled_ |= slot_bit;
  return memo.answer;
}

double AnalyticPhyModel::compute_subframe_error_prob(
    const SubframeChannelQuery& query) const {
  // Success requires every symbol group to decode; staleness grows with
  // the symbol's distance from the last channel-estimate refresh: the
  // preamble (standard) or the last verified data pilot (RTE).
  const double effective_snr = query.snr_db + rate_margin_db(query.rate_bps);
  double success = 1.0;
  if (query.rte) {
    // RTE pins staleness at the residual, so every symbol fails with the
    // same probability: evaluate it once. The multiply stays sequential
    // (not pow) so the product rounds exactly as a per-symbol loop does.
    const double symbol_success =
        1.0 - symbol_error_prob(effective_snr,
                                params_.rte_residual_symbols *
                                    params_.symbol_duration /
                                    query.coherence_time);
    for (std::size_t s = 0; s < query.num_symbols; ++s) {
      success *= symbol_success;
      if (success <= 1e-9) return 1.0;
    }
    return 1.0 - success;
  }
  for (std::size_t s = 0; s < query.num_symbols; ++s) {
    const double staleness = static_cast<double>(query.start_symbol + s) *
                             params_.symbol_duration / query.coherence_time;
    success *= 1.0 - symbol_error_prob(effective_snr, staleness);
    if (success <= 1e-9) return 1.0;
  }
  return 1.0 - success;
}

double AnalyticPhyModel::compute_control_error_prob(double snr_db) const {
  // Control frames ride the basic rate (MCS0-class robustness) right
  // after a fresh preamble: a few symbols at zero staleness with the full
  // low-rate margin.
  const double per_symbol =
      symbol_error_prob(snr_db + rate_margin_db(6.5e6), 0.0);
  return 1.0 - std::pow(1.0 - per_symbol, 4.0);
}

namespace {

/// splitmix64: one hashed uniform per (seed, Markov step).
double step_uniform(std::uint64_t seed, std::uint64_t step) {
  const std::uint64_t z = mix64(seed + 0x9e3779b97f4a7c15ULL * (step + 1));
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

}  // namespace

GilbertElliottPhyModel::GilbertElliottPhyModel(
    std::shared_ptr<const PhyErrorModel> inner, const Params& params)
    : inner_(std::move(inner)), params_(params) {
  if (!inner_) inner_ = std::make_shared<AnalyticPhyModel>();
  if (params_.period <= 0.0) params_.period = 5e-3;
}

bool GilbertElliottPhyModel::state_at_step(std::uint64_t step) const {
  if (step < cursor_step_) {
    // Backward query: replay the chain from its (good) start state.
    cursor_step_ = 0;
    cursor_bad_ = false;
  }
  while (cursor_step_ < step) {
    const double u = step_uniform(params_.seed, cursor_step_);
    cursor_bad_ = cursor_bad_ ? u >= params_.p_bad_to_good
                              : u < params_.p_good_to_bad;
    ++cursor_step_;
  }
  return cursor_bad_;
}

bool GilbertElliottPhyModel::bad_at(double time) const {
  const double step = std::max(0.0, time) / params_.period;
  return state_at_step(static_cast<std::uint64_t>(step));
}

double GilbertElliottPhyModel::subframe_error_prob(
    const SubframeChannelQuery& query) const {
  SubframeChannelQuery faded = query;
  if (bad_at(query.time)) faded.snr_db -= params_.bad_snr_penalty_db;
  return inner_->subframe_error_prob(faded);
}

double GilbertElliottPhyModel::control_error_prob(double snr_db) const {
  const double snr =
      cursor_bad_ ? snr_db - params_.bad_snr_penalty_db : snr_db;
  return inner_->control_error_prob(snr);
}

}  // namespace carpool::mac
