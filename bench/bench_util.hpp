#pragma once

// Shared helpers for the reproduction benches. Every bench regenerates one
// table/figure of the paper and prints rows in the paper's units, with a
// header stating what the paper reported so the shapes can be compared at
// a glance (absolute values differ: our substrate is a simulator, not the
// authors' USRP testbed).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "carpool/transceiver.hpp"
#include "channel/fading.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dsp/kernels.hpp"
#include "obs/registry.hpp"
#include "phy/frame.hpp"
#include "sim/testbed.hpp"

namespace carpool::bench {

/// Directory BENCH_* artifacts land in: $CARPOOL_BENCH_DIR (created on
/// demand) when set, else the CWD — so CI artifact collection and
/// bench_report ingestion don't depend on where the bench was launched.
inline std::string bench_output_dir() {
  const char* dir = std::getenv("CARPOOL_BENCH_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr,
                 "warning: cannot create CARPOOL_BENCH_DIR %s (%s); "
                 "falling back to CWD\n",
                 dir, ec.message().c_str());
    return {};
  }
  return std::string(dir);
}

/// Unified machine-readable output: every bench binary ends by dumping the
/// global obs::Registry — its own gauges plus the counters and per-stage
/// latency histograms (Viterbi, FFT/OFDM, equalizer, A-HDR) accumulated by
/// the instrumented hot paths — as BENCH_<name>.json (schema_version 2
/// with per-metric metadata, see docs/OBSERVABILITY.md) plus a columnar
/// BENCH_<name>.csv (Registry::to_csv). The printed tables stay the
/// human-readable view; the JSON is what tooling and perf regressions
/// diff. Both land in $CARPOOL_BENCH_DIR when set, else the CWD.
inline void write_metrics(const std::string& name) {
  const std::string dir = bench_output_dir();
  const std::string base =
      dir.empty() ? "BENCH_" + name : dir + "/BENCH_" + name;
  const std::string path = base + ".json";
  if (obs::Registry::global().write_json(path, name)) {
    std::printf("\nmetrics: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
  const std::string csv_path = base + ".csv";
  if (obs::Registry::global().write_csv(csv_path)) {
    std::printf("metrics csv: %s\n", csv_path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", csv_path.c_str());
  }
}

/// Record a bench result in the registry so it lands in the JSON export.
/// Resolves Registry::current(), not global(), so a gauge set inside a
/// carpool::par shard job stays in the shard's registry and reaches the
/// global one via the deterministic merge.
inline void gauge(const std::string& name, double value) {
  obs::Registry::current().set_gauge(name, value);
}

/// Strict --kernel flag handling shared by the bench CLIs (the
/// resolve_threads flag-hardening rule): an unknown backend name or a
/// tier this CPU cannot run is a usage error (exit 2), never a silent
/// fallback. On success the selection applies process-wide.
inline void apply_kernel_flag(const char* prog, const char* text) {
  const std::string error = dsp::select_kernel_flag(text);
  if (error.empty()) return;
  std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
  std::exit(2);
}

inline void banner(const char* figure, const char* what,
                   const char* paper_says) {
  std::printf(
      "\n================================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("Paper: %s\n", paper_says);
  std::printf(
      "================================================================\n");
}

/// printf-style formatting into a string, for sharded benches that
/// compute table rows in parallel and print them in job-index order.
template <class... Args>
[[nodiscard]] inline std::string rowf(const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return std::string(buf);
}

inline Bytes random_psdu(std::size_t n, Rng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return out;
}

/// The paper's TX power sweep (USRP power magnitude units).
inline const std::vector<double>& power_sweep() {
  static const std::vector<double> kPowers{0.0125, 0.025, 0.05, 0.1, 0.2};
  return kPowers;
}

/// Raw (pre-FEC) BER accumulator, per symbol position and overall.
struct RawBer {
  std::vector<std::size_t> errors_per_symbol;
  std::vector<std::size_t> bits_per_symbol;
  std::size_t total_errors = 0;
  std::size_t total_bits = 0;

  void add(const DecodedSubframe& sub, const Bits& reference,
           std::size_t n_cbps) {
    if (errors_per_symbol.size() < sub.raw_symbol_bits.size()) {
      errors_per_symbol.resize(sub.raw_symbol_bits.size(), 0);
      bits_per_symbol.resize(sub.raw_symbol_bits.size(), 0);
    }
    for (std::size_t s = 0; s < sub.raw_symbol_bits.size(); ++s) {
      const std::span<const std::uint8_t> want(reference.data() + s * n_cbps,
                                               n_cbps);
      const std::size_t errors =
          hamming_distance(sub.raw_symbol_bits[s], want);
      errors_per_symbol[s] += errors;
      bits_per_symbol[s] += n_cbps;
      total_errors += errors;
      total_bits += n_cbps;
    }
  }

  [[nodiscard]] double ber() const {
    return total_bits == 0 ? 0.0
                           : static_cast<double>(total_errors) /
                                 static_cast<double>(total_bits);
  }

  [[nodiscard]] double ber_at(std::size_t symbol) const {
    return symbol < bits_per_symbol.size() && bits_per_symbol[symbol] > 0
               ? static_cast<double>(errors_per_symbol[symbol]) /
                     static_cast<double>(bits_per_symbol[symbol])
               : 0.0;
  }
};

/// Single-receiver Carpool link experiment: one frame layout transmitted
/// through `frames` independent fading realisations.
struct LinkRun {
  RawBer raw;
  RatioCounter fcs_fail;
  std::size_t side_bit_errors = 0;   ///< 2-bit symbols compared as a unit
  std::size_t side_bits_total = 0;
};

inline LinkRun run_link(const std::vector<SubframeSpec>& subframes,
                        const CarpoolFrameConfig& txcfg,
                        const CarpoolRxConfig& rxcfg_in,
                        const FadingConfig& base_channel, std::size_t frames,
                        std::uint64_t seed_base) {
  const CarpoolTransmitter tx(txcfg);
  const CxVec wave = tx.build(subframes);
  const Mcs& m = mcs(subframes[0].mcs_index);
  const Bits reference =
      code_data_bits(build_data_bits(subframes[0].psdu, m), m);
  const std::vector<unsigned> tx_side =
      expected_side_bits(subframes[0], txcfg.crc_scheme);
  const std::size_t bits_per_sym = side_bits_per_symbol(txcfg.crc_scheme.mod);

  LinkRun out;
  CarpoolRxConfig rxcfg = rxcfg_in;
  rxcfg.self = subframes[0].receiver;
  const CarpoolReceiver rx(rxcfg);

  for (std::size_t f = 0; f < frames; ++f) {
    FadingConfig ch = base_channel;
    ch.seed = seed_base * 10007 + f;
    FadingChannel channel(ch);
    const CxVec rx_wave = channel.transmit(wave);
    const CarpoolRxResult result = rx.receive(rx_wave);
    for (const DecodedSubframe& sub : result.subframes) {
      if (sub.index != 0) continue;
      out.raw.add(sub, reference, m.n_cbps);
      out.fcs_fail.add(!sub.fcs_ok);
      if (rxcfg.side_channel_present && txcfg.inject_side_channel) {
        const std::size_t n = std::min(sub.side_bits.size(), tx_side.size());
        for (std::size_t s = 0; s < n; ++s) {
          const unsigned diff = sub.side_bits[s] ^ tx_side[s];
          for (std::size_t b = 0; b < bits_per_sym; ++b) {
            if ((diff >> b) & 1u) ++out.side_bit_errors;
            ++out.side_bits_total;
          }
        }
      }
    }
  }
  return out;
}

/// MCS index whose payload modulation matches `mod` (highest coding rate,
/// as the paper's BER figures use uncoded symbol comparisons anyway).
inline std::size_t mcs_for_modulation(Modulation mod) {
  switch (mod) {
    case Modulation::kBpsk:
      return 0;
    case Modulation::kQpsk:
      return 2;
    case Modulation::kQam16:
      return 4;
    case Modulation::kQam64:
      return 7;
  }
  return 0;
}

}  // namespace carpool::bench
