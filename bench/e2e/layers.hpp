#pragma once

// bench_e2e per-layer attribution (README.md, "Reading the trace").
//
// Nothing here runs inside the timed end-to-end loop. A traced op reruns
// the untraced op's work with the benchmark's own timers around the calls
// it makes into each module, so the per-layer numbers come from the
// benchmark's files and need no program change:
//
//  - soak workloads replay every campaign repeat through mac::Simulator
//    with a timed PhyErrorModel decorator, a timed sta_snr_fn, a timed
//    StepInvariants observer and timed flow generators (replay_soak);
//  - campus replays every DomainRun through MultiBssSim::domain_config
//    plus mac::DomainSim with the same wrappers;
//  - link and the ladder's decode probes read the latency-histogram sums
//    and counters the PHY already records (StageSample).
//
// A replay that does not reproduce the untraced result bit for bit fails
// the op. Spans are recorded only at coarse boundaries (op, repeat,
// domain, frame) and written as Chrome trace JSON at the end of the run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/runner.hpp"
#include "chaos/scenario.hpp"
#include "mac/phy_model.hpp"
#include "mac/simulator.hpp"

namespace carpool::bench_e2e {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linearly interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// One named result with its unit, as printed on the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Calls into one layer and the wall time they took.
struct Meter {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void add(std::int64_t elapsed_ns) noexcept {
    ++calls;
    ns += elapsed_ns;
  }
};

/// Sums and counts the PHY records in the global obs::Registry: latency
/// histogram sums of its timed stages and its decode counters. The
/// difference of two samples taken around a call is that call's share.
struct StageSample {
  double viterbi_ns = 0.0;
  double equalize_ns = 0.0;
  double ofdm_demod_ns = 0.0;
  double ofdm_mod_ns = 0.0;
  double ahdr_test_ns = 0.0;
  double ahdr_encode_ns = 0.0;
  std::uint64_t viterbi_calls = 0;
  std::uint64_t subframes_decoded = 0;
  std::uint64_t fcs_failures = 0;
  std::uint64_t side_verified = 0;
  std::uint64_t side_failed = 0;

  [[nodiscard]] static StageSample read();
  [[nodiscard]] StageSample operator-(const StageSample& before) const;
  StageSample& operator+=(const StageSample& other);
};

/// Everything a traced run accumulates across its ops.
struct Attribution {
  /// Wall time of the traced work; the denominator of every share.
  double total_ns = 0.0;
  /// Traced and untraced time of the same work (obs.trace_overhead).
  double traced_ns = 0.0;
  double untraced_ns = 0.0;

  // mac: the replayed event engine and what it calls out to.
  std::int64_t engine_ns = 0;  ///< replay wall time of the MAC engine
  Meter phy_model;             ///< PhyErrorModel::subframe_error_prob
  Meter phy_control;           ///< PhyErrorModel::control_error_prob
  std::uint64_t phy_symbols = 0;
  std::uint64_t tx_attempts = 0;
  std::uint64_t collisions = 0;
  std::uint64_t ap_txops = 0;
  std::uint64_t ap_subunits = 0;
  Meter traffic;     ///< FlowSpec::next
  Meter invariants;  ///< StepInvariants::check, check_fairness, check_energy
  Meter snr;         ///< scenario sta_snr_fn (mobility and interference)
  Meter sinr;        ///< multi-BSS sta_snr_fn (Topology::sinr_db)

  // chaos
  std::uint64_t probes = 0;
  double probe_ns = 0.0;
  std::uint64_t repeats = 0;

  // sim
  std::uint64_t domains = 0;
  std::uint64_t epochs = 0;

  // par: t1 / (N * tN) per traced op, and the wall time of every shard
  // (campaign repeat or collision domain) of the replays.
  std::vector<double> efficiency;
  std::vector<double> shard_ns;

  // carpool / phy / fec / channel
  Meter tx_build;  ///< CarpoolTransmitter::build
  Meter channel;   ///< FadingChannel::transmit
  Meter rx;        ///< CarpoolReceiver::receive
  Meter frontend;  ///< receive_frontend on the same waveform
  StageSample stages;
  std::uint64_t symbols_full = 0;
  std::uint64_t symbols_skipped = 0;
};

/// The per-layer metrics of a traced run, in BENCHMARK.json order.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const Attribution& at);

/// Chrome trace-event log of coarse spans (op, repeat, domain, frame).
class SpanLog {
 public:
  SpanLog();
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           int track = 1);
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int track;
  };
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
};

/// AnalyticPhyModel with its two entry points timed into an Attribution.
class TimedPhyModel final : public mac::PhyErrorModel {
 public:
  explicit TimedPhyModel(Attribution& at) : at_(at) {}
  [[nodiscard]] double subframe_error_prob(
      const mac::SubframeChannelQuery& query) const override;
  [[nodiscard]] double control_error_prob(double snr_db) const override;

 private:
  mac::AnalyticPhyModel inner_;
  Attribution& at_;
};

/// Wrap a flow's generator so its calls land in at.traffic.
void time_flow(mac::FlowSpec& flow, Attribution& at);

/// What a soak replay reproduced, compared field by field against the
/// SoakReport of the untraced campaign.
struct SoakTotals {
  std::uint64_t frames_judged = 0;
  std::uint64_t steps = 0;
  std::size_t episodes_run = 0;
  std::size_t repeats = 0;
  double sim_seconds = 0.0;
  double mean_goodput_bps = 0.0;
  std::size_t violations = 0;
  /// Minimum margin per invariant: sensitive to every episode's per-STA
  /// goodput, energy ledger and airtime, not just the totals above.
  std::map<std::string, double, std::less<>> margins;
};

[[nodiscard]] SoakTotals totals_of(const chaos::SoakReport& report);
/// Empty when equal, else the first field that differs.
[[nodiscard]] std::string diff_totals(const SoakTotals& want,
                                      const SoakTotals& got);

/// Replay a frame-budget campaign of a single-collision-domain scenario
/// (no topology, recorded SNR trace, shadowing or injected fault) repeat
/// by repeat through mac::Simulator, the serial path of SoakRunner::run,
/// with every call out of the MAC timed into `at`. Decode probes are not
/// replayed: replay the scenario with probe_interval = 0.
[[nodiscard]] SoakTotals replay_soak(const chaos::Scenario& scenario,
                                     const chaos::SoakOptions& opts,
                                     Attribution& at, SpanLog& spans);

/// Bit-exact comparison of the SimResult fields a domain replay must
/// reproduce; empty when equal, else the first field that differs.
[[nodiscard]] std::string diff_sim_results(const mac::SimResult& want,
                                           const mac::SimResult& got);

/// FNV-1a folding of simulated outputs into an informational digest.
class Digest {
 public:
  Digest& add(std::uint64_t v) noexcept;
  Digest& add(double v) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace carpool::bench_e2e
