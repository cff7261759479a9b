#include "obs/metrics_meta.hpp"

#include <array>

namespace carpool::obs {
namespace {

struct CatalogEntry {
  std::string_view name;  ///< exact name, or a `prefix*` family
  MetricMeta meta;
};

// Keep this list in sync with every counter()/gauge()/latency_histogram()
// name literal in src/, bench/, and tools/ — tools/metric_lint enforces
// the sync as a CI step.
constexpr std::array kCatalog{
    // --- mac: per-STA link-state machine (src/mac/link_state.cpp) ---
    CatalogEntry{"mac.ls_transition",
                 {"count", "mac", "Link-state machine state transitions"}},
    CatalogEntry{"mac.ls_rate_up",
                 {"count", "mac", "Rate-adaptation steps to a faster MCS"}},
    CatalogEntry{"mac.ls_rate_down",
                 {"count", "mac", "Rate-adaptation steps to a slower MCS"}},
    CatalogEntry{"mac.lq_suspend",
                 {"count", "mac",
                  "STAs suspended from aggregation by the link gate"}},
    CatalogEntry{"mac.lq_probe",
                 {"count", "mac",
                  "Probe transmissions to suspended STAs"}},

    // --- impair: channel impairment engine (src/impair) ---
    CatalogEntry{"impair.frames",
                 {"count", "impair", "Frames passed through the impairment "
                                     "pipeline"}},
    CatalogEntry{"impair.ge_bad_periods",
                 {"count", "impair",
                  "Gilbert-Elliott bad-state periods entered"}},
    CatalogEntry{"impair.trace_gated_frames",
                 {"count", "impair",
                  "Frames gated by a replayed SNR trace segment"}},
    CatalogEntry{"impair.snr_offset_frames",
                 {"count", "impair",
                  "Frames scaled by a recorded-channel SNR offset"}},

    // --- phy: frontend, estimation, decode (src/phy, src/carpool) ---
    CatalogEntry{"phy.subframes_decoded",
                 {"count", "phy", "Subframes that reached FCS judgement"}},
    CatalogEntry{"phy.fcs_failures",
                 {"count", "phy", "Subframes whose FCS check failed"}},
    CatalogEntry{"phy.sig_failures",
                 {"count", "phy", "SIG field decode failures"}},
    CatalogEntry{"phy.decode_exceptions",
                 {"count", "phy",
                  "Receiver exceptions mapped to kInternalError"}},
    CatalogEntry{"phy.rte_updates",
                 {"count", "phy",
                  "Real-time channel-estimate updates applied"}},
    CatalogEntry{"phy.rte_delta_clamped",
                 {"count", "phy",
                  "RTE updates clamped by the per-symbol delta bound"}},
    CatalogEntry{"phy.rte_freeze",
                 {"count", "phy",
                  "RTE freezes after a divergence guard trip"}},
    CatalogEntry{"phy.rte_rollback",
                 {"count", "phy",
                  "RTE rollbacks to the preamble estimate"}},

    // --- carpool: A-HDR + side channel (src/carpool) ---
    CatalogEntry{"carpool.side_groups_verified",
                 {"count", "carpool",
                  "Side-channel groups that verified clean"}},
    CatalogEntry{"carpool.side_groups_failed",
                 {"count", "carpool",
                  "Side-channel groups that failed verification"}},

    // --- mac/sim: multi-BSS topology engine (src/sim) ---
    CatalogEntry{"mac.roam_handover",
                 {"count", "mac",
                  "STA handovers between APs on the association timeline"}},
    CatalogEntry{"sim.bss_epochs",
                 {"count", "sim",
                  "Epoch slices a multi-BSS campaign was cut into"}},
    CatalogEntry{"sim.bss_domains",
                 {"count", "sim",
                  "Per-(epoch, AP) collision domains simulated"}},
    CatalogEntry{"sim.bss_domains_idle",
                 {"count", "sim",
                  "Per-(epoch, AP) domains skipped with no associated "
                  "STA"}},
    CatalogEntry{"sim.bss_domain_runs",
                 {"count", "sim",
                  "Per-domain simulator runs inside soak episodes"}},
    CatalogEntry{"sim.bss_ap_count",
                 {"count", "sim", "Access points in the active topology"}},
    CatalogEntry{"sim.bss_cochannel_pairs",
                 {"count", "sim",
                  "AP pairs sharing a channel in the reuse plan"}},

    // --- chaos: soak engine (src/chaos) ---
    CatalogEntry{"chaos.campaigns",
                 {"count", "chaos", "Soak campaigns started"}},
    CatalogEntry{"chaos.probes",
                 {"count", "chaos", "Full-PHY decode probes fired"}},
    CatalogEntry{"chaos.frames_judged",
                 {"count", "chaos", "Frames judged across all campaigns"}},
    CatalogEntry{"chaos.violations",
                 {"count", "chaos", "Invariant violations detected"}},
    CatalogEntry{"chaos.bundles_written",
                 {"count", "chaos", "Repro bundles written to disk"}},
    CatalogEntry{"chaos.shrink_attempts",
                 {"count", "chaos", "Scenario mutations tried by the "
                                    "ddmin shrinker"}},
    CatalogEntry{"chaos.fuzz.rounds",
                 {"count", "chaos", "Fuzz mutation rounds completed"}},
    CatalogEntry{"chaos.fuzz.evals",
                 {"count", "chaos",
                  "Fuzz scenario evaluations consumed"}},
    CatalogEntry{"chaos.fuzz.corpus_adds",
                 {"count", "chaos",
                  "Fuzz corpus admissions (novel coverage or tightened "
                  "margin)"}},
    CatalogEntry{"chaos.fuzz.violations",
                 {"count", "chaos", "Invariant violations found by the "
                                    "fuzzer"}},

    // --- ops: fault-tolerance bookkeeping (docs/FAULT_TOLERANCE.md).
    // The whole "ops" layer is excluded from Registry::fingerprint():
    // these count wall-clock accidents (retries, resumes) that must not
    // perturb determinism comparisons. ---
    CatalogEntry{"par.shard_retry",
                 {"count", "ops",
                  "Shard attempts beyond the first (retries after a "
                  "throw or a torn result)"}},
    CatalogEntry{"par.shard_quarantine",
                 {"count", "ops",
                  "Shards quarantined after exhausting the retry "
                  "budget"}},
    CatalogEntry{"par.threads_env_invalid",
                 {"count", "ops",
                  "Unparseable CARPOOL_THREADS values ignored (fell "
                  "back to serial)"}},
    CatalogEntry{"dsp.kernel_env_invalid",
                 {"count", "ops",
                  "Unparseable CARPOOL_KERNEL values ignored (fell "
                  "back to the scalar backend)"}},
    CatalogEntry{"chaos.checkpoint_write",
                 {"count", "ops",
                  "Campaign checkpoints flushed to disk"}},
    CatalogEntry{"chaos.checkpoint_resume",
                 {"count", "ops",
                  "Campaigns resumed from a checkpoint"}},

    // --- obs: the observability layer itself ---
    // A cap overflow is collection bookkeeping, not a simulation event: a
    // resumed campaign re-collects spans only for its remaining repeats,
    // so the drop count legitimately differs from an uninterrupted run's.
    // The "ops" layer keeps it out of Registry::fingerprint().
    CatalogEntry{"obs.spans_dropped",
                 {"count", "ops",
                  "Spans dropped at the SpanCollector record cap"}},

    // --- wall-clock stage timers (OBS_SCOPED_TIMER / OBS_TIMED_SPAN) ---
    CatalogEntry{"phy.equalize",
                 {"ns", "phy", "Per-symbol equalization wall time"}},
    CatalogEntry{"phy.ofdm_modulate",
                 {"ns", "phy", "OFDM modulation wall time, one sample per "
                               "group of up to 32 symbols (batched IFFT + "
                               "CP)"}},
    CatalogEntry{"phy.ofdm_demodulate",
                 {"ns", "phy", "OFDM demodulation (FFT) wall time"}},
    CatalogEntry{"fec.viterbi_decode",
                 {"ns", "fec", "Viterbi decode wall time"}},
    CatalogEntry{"carpool.ahdr_encode",
                 {"ns", "carpool", "A-HDR Bloom-filter encode wall time"}},
    CatalogEntry{"carpool.ahdr_test",
                 {"ns", "carpool", "A-HDR Bloom-filter membership test "
                                   "wall time"}},

    // --- bench gauges (bench/*) ---
    CatalogEntry{"ablation.ge_static_goodput_bps",
                 {"bit/s", "bench",
                  "Downlink goodput under Gilbert-Elliott loss, static "
                  "MCS"}},
    CatalogEntry{"ablation.ge_feedback_goodput_bps",
                 {"bit/s", "bench",
                  "Downlink goodput under Gilbert-Elliott loss, feedback "
                  "rate adaptation"}},
    CatalogEntry{"robustness.goodput_frac.intensity_*",
                 {"ratio", "bench",
                  "Goodput under impairment as a fraction of the clean "
                  "channel, per intensity step"}},
    CatalogEntry{"robustness.monotone",
                 {"bool", "bench",
                  "1 when goodput degrades monotonically with intensity"}},
    CatalogEntry{"robustness.no_cliff",
                 {"bool", "bench",
                  "1 when no adjacent intensity step loses more than the "
                  "cliff bound"}},
    CatalogEntry{"robustness.status_matrix_ok",
                 {"bool", "bench",
                  "1 when the DecodeStatus matrix matches the golden "
                  "table"}},
    CatalogEntry{"fig13.*",
                 {"ratio", "bench",
                  "Bit error rate, RTE vs standard estimation (Fig. 13)"}},
    CatalogEntry{"multi_bss.goodput_bps.*",
                 {"bit/s", "bench",
                  "Aggregate downlink goodput of the campus, per AP-count "
                  "sweep point"}},
    CatalogEntry{"multi_bss.per_ap_goodput_bps.*",
                 {"bit/s", "bench",
                  "Mean per-AP downlink goodput, per AP-count sweep "
                  "point"}},
    CatalogEntry{"multi_bss.handovers.*",
                 {"count", "bench",
                  "Handovers over the campaign, per AP-count sweep "
                  "point"}},
    CatalogEntry{"multi_bss.scaling_monotone",
                 {"bool", "bench",
                  "1 when aggregate goodput is non-decreasing in AP count "
                  "(MPR-style scaling, arXiv:1006.4408)"}},

    // --- bench_micro kernel throughput (docs/KERNELS.md) ---
    // Absolute rates are informational (host-dependent); the simd_speedup
    // ratios gate in CI via bench_diff. Speedup names carry the best-tier
    // suffix (e.g. .avx512) so the gate only fires against baselines
    // recorded for the same tier.
    CatalogEntry{"micro.fft64.symbols_per_sec.*",
                 {"symbol/s", "bench",
                  "64-point OFDM FFTs per second, per kernel backend"}},
    CatalogEntry{"micro.viterbi.symbols_per_sec.*",
                 {"symbol/s", "bench",
                  "Viterbi ACS trellis steps per second, per kernel "
                  "backend"}},
    CatalogEntry{"micro.fft64.simd_speedup.*",
                 {"ratio", "bench",
                  "FFT symbols/sec speedup of the best SIMD tier over the "
                  "scalar reference"}},
    CatalogEntry{"micro.viterbi.simd_speedup.*",
                 {"ratio", "bench",
                  "Viterbi ACS speedup of the best SIMD tier over the "
                  "scalar reference"}},
};

}  // namespace

const MetricMeta* find_metric_meta(std::string_view name) noexcept {
  const CatalogEntry* best = nullptr;
  std::size_t best_len = 0;
  for (const CatalogEntry& e : kCatalog) {
    if (!e.name.empty() && e.name.back() == '*') {
      const std::string_view prefix = e.name.substr(0, e.name.size() - 1);
      if (name.size() >= prefix.size() &&
          name.substr(0, prefix.size()) == prefix &&
          (best == nullptr || prefix.size() > best_len)) {
        best = &e;
        best_len = prefix.size();
      }
    } else if (e.name == name) {
      return &e.meta;  // exact match always wins
    }
  }
  return best == nullptr ? nullptr : &best->meta;
}

}  // namespace carpool::obs
