#include "phy/ofdm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/kernels.hpp"
#include "fec/scrambler.hpp"
#include "obs/timer.hpp"

namespace carpool {
namespace {

constexpr std::size_t bin_of(int subcarrier) {
  return subcarrier >= 0 ? static_cast<std::size_t>(subcarrier)
                         : kFftSize - static_cast<std::size_t>(-subcarrier);
}

std::array<std::size_t, kNumDataSubcarriers> make_data_bins() {
  std::array<std::size_t, kNumDataSubcarriers> bins{};
  std::size_t idx = 0;
  for (int sc = -26; sc <= 26; ++sc) {
    if (sc == 0 || sc == -21 || sc == -7 || sc == 7 || sc == 21) continue;
    bins[idx++] = bin_of(sc);
  }
  return bins;
}

const std::array<std::size_t, kNumDataSubcarriers> kDataBins = make_data_bins();
constexpr std::array<std::size_t, kNumPilots> kPilotBins{
    bin_of(-21), bin_of(-7), bin_of(7), bin_of(21)};
constexpr std::array<double, kNumPilots> kPilotBase{1.0, 1.0, 1.0, -1.0};

// Normalise so the time-domain symbol has unit mean power when the 52
// occupied bins carry unit-power points.
const double kScale = static_cast<double>(kFftSize) / std::sqrt(52.0);

std::array<double, 127> make_polarity() {
  // The polarity sequence equals 1 - 2*s_n where s_n is the output of the
  // 802.11 scrambler LFSR seeded with all ones.
  std::array<double, 127> seq{};
  Scrambler lfsr(0x7F);
  for (double& value : seq) value = lfsr.next_bit() ? -1.0 : 1.0;
  return seq;
}

const std::array<double, 127> kPolarity = make_polarity();

}  // namespace

std::span<const std::size_t> data_bins() noexcept { return kDataBins; }
std::span<const std::size_t> pilot_bins() noexcept { return kPilotBins; }
std::span<const double> pilot_base() noexcept { return kPilotBase; }

double pilot_polarity(std::size_t symbol_index) noexcept {
  return kPolarity[symbol_index % kPolarity.size()];
}

OfdmModulator::OfdmModulator(std::span<const Cx> head, std::size_t symbols) {
  wave_.reserve(head.size() + symbols * kSymbolLen);
  wave_.assign(head.begin(), head.end());
  queue_.reserve(std::min(symbols, kGroup));
}

void OfdmModulator::add(std::span<const Cx> data, std::size_t symbol_index,
                        double phase_offset) {
  if (data.size() != kNumDataSubcarriers) {
    throw std::invalid_argument("OfdmModulator: need 48 data points");
  }
  Queued& q = queue_.emplace_back();
  std::copy(data.begin(), data.end(), q.data.begin());
  q.symbol_index = symbol_index;
  q.phase_offset = phase_offset;
  if (queue_.size() == kGroup) flush();
}

CxVec OfdmModulator::finish() {
  flush();
  return std::move(wave_);
}

void OfdmModulator::flush() {
  if (queue_.empty()) return;
  OBS_TIMED_SPAN("phy.ofdm_modulate");
  const std::size_t count = queue_.size();
  bins_.assign(count * kFftSize, Cx{});
  for (std::size_t s = 0; s < count; ++s) {
    const Queued& q = queue_[s];
    Cx* bins = bins_.data() + s * kFftSize;
    // Each bin times the rotation as the plain double products
    // std::complex's multiply evaluates: the points and the rotation are
    // finite, so its NaN recovery never runs.
    const Cx rotation = cx_exp(q.phase_offset);
    const double cr = rotation.real();
    const double ci = rotation.imag();
    for (std::size_t i = 0; i < kNumDataSubcarriers; ++i) {
      const double pr = q.data[i].real();
      const double pi = q.data[i].imag();
      bins[kDataBins[i]] = Cx{pr * cr - pi * ci, pr * ci + pi * cr};
    }
    const double polarity = pilot_polarity(q.symbol_index);
    for (std::size_t i = 0; i < kNumPilots; ++i) {
      const double pr = kPilotBase[i] * polarity;
      bins[kPilotBins[i]] = Cx{pr * cr - 0.0 * ci, pr * ci + 0.0 * cr};
    }
  }
  dsp::active_backend().fft_batch(bins_.data(), kFftSize, count, +1);
  // ifft()'s 1/N and then the power scale: the two roundings per value
  // that two scaling passes would give.
  const double inv_n = 1.0 / static_cast<double>(kFftSize);
  double* raw = reinterpret_cast<double*>(bins_.data());
  for (std::size_t i = 0; i < 2 * bins_.size(); ++i) {
    raw[i] = raw[i] * inv_n * kScale;
  }
  for (std::size_t s = 0; s < count; ++s) {
    const auto time = bins_.begin() + static_cast<long>(s * kFftSize);
    wave_.insert(wave_.end(), time + (kFftSize - kCpLen), time + kFftSize);
    wave_.insert(wave_.end(), time, time + kFftSize);
  }
  queue_.clear();
}

CxVec assemble_symbol(std::span<const Cx> data, std::size_t symbol_index,
                      double phase_offset) {
  OfdmModulator modulator({}, 1);
  modulator.add(data, symbol_index, phase_offset);
  return modulator.finish();
}

CxVec extract_symbol(std::span<const Cx> samples) {
  if (samples.size() != kSymbolLen) {
    throw std::invalid_argument("extract_symbol: need 80 samples");
  }
  OBS_TIMED_SPAN("phy.ofdm_demodulate");
  CxVec time(samples.begin() + kCpLen, samples.end());
  fft_inplace(time);
  scale(time, 1.0 / kScale);
  return time;
}

CxVec extract_symbols(std::span<const Cx> samples, std::size_t count) {
  if (samples.size() < count * kSymbolLen) {
    throw std::invalid_argument("extract_symbols: not enough samples");
  }
  CxVec bins(count * kFftSize);
  for (std::size_t s = 0; s < count; ++s) {
    const Cx* src = samples.data() + s * kSymbolLen + kCpLen;
    std::copy(src, src + kFftSize, bins.begin() + s * kFftSize);
  }
  demodulate_windows(bins);
  return bins;
}

void demodulate_windows(std::span<Cx> windows) {
  OBS_TIMED_SPAN("phy.ofdm_demodulate");
  dsp::active_backend().fft_batch(windows.data(), kFftSize,
                                  windows.size() / kFftSize, -1);
  scale(windows, 1.0 / kScale);
}

CxVec gather_data(std::span<const Cx> bins) {
  if (bins.size() != kFftSize) {
    throw std::invalid_argument("gather_data: need 64 bins");
  }
  CxVec out(kNumDataSubcarriers);
  for (std::size_t i = 0; i < kNumDataSubcarriers; ++i) {
    out[i] = bins[kDataBins[i]];
  }
  return out;
}

CxVec gather_pilots(std::span<const Cx> bins) {
  if (bins.size() != kFftSize) {
    throw std::invalid_argument("gather_pilots: need 64 bins");
  }
  CxVec out(kNumPilots);
  for (std::size_t i = 0; i < kNumPilots; ++i) out[i] = bins[kPilotBins[i]];
  return out;
}

}  // namespace carpool
