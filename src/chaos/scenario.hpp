#pragma once

// carpool::chaos — scenario model for the soak engine (docs/SOAK.md).
//
// A Scenario is a deterministic timeline: per-STA mobility waypoints that
// move TestbedLayout SNRs over time, scripted interference episodes (a
// Gilbert-Elliott stage keyed on/off by the schedule, plus an SNR penalty
// on the analytic MAC path), STA join/leave churn, and traffic-mix
// phases. Together with a seed it fully determines a campaign: the
// SoakRunner derives every RNG stream from (scenario seed, repeat,
// episode index), so a (scenario, seed, frame) triple replays bit for
// bit — the contract repro bundles and the shrinker rely on.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/snr_trace.hpp"
#include "common/json.hpp"
#include "mac/link_state.hpp"
#include "mac/scheme.hpp"
#include "sim/testbed.hpp"
#include "sim/topology.hpp"

namespace carpool::chaos {

/// One STA's movement through the room (absolute scenario time).
struct MobilityTrack {
  std::uint32_t sta = 0;
  std::vector<sim::TimedPoint> waypoints;
};

/// A scripted interference episode: while [start, stop) is in force the
/// affected STAs lose `snr_penalty_db` on the analytic MAC path and PHY
/// decode probes falling inside the window run through a Gilbert-Elliott
/// stage scaled by `intensity` (1.0 = the default bad-state power).
struct InterferenceEpisode {
  double start = 0.0;
  double stop = 0.0;
  double snr_penalty_db = 10.0;
  double intensity = 1.0;
  std::vector<std::uint32_t> stas;  ///< empty = all stations
};

/// STA membership change at `time`. STAs 1..num_stas all start joined.
struct ChurnEvent {
  double time = 0.0;
  std::uint32_t sta = 0;
  bool join = false;  ///< false = leave
};

enum class TrafficKind {
  kCbr,      ///< fixed-size, fixed-interval downlink
  kVoip,     ///< Brady ON/OFF voice, both directions
  kPoisson,  ///< Poisson downlink, trace-matched sizes
  kSigcomm,  ///< SIGCOMM'08 background uplink + CBR downlink
};

[[nodiscard]] std::string_view traffic_kind_name(TrafficKind kind) noexcept;

/// Traffic mix in force from `start` until the next phase begins.
struct TrafficPhase {
  double start = 0.0;
  TrafficKind kind = TrafficKind::kCbr;
  std::size_t frame_bytes = 1200;  ///< CBR frame size
  double interval = 4e-3;          ///< CBR / Poisson mean interval (s)
};

/// Gudmundson-style correlated shadowing between stations
/// (channel/shadowing.hpp): per-STA log-normal dB offsets with
/// exponential spatial correlation between nearby STAs and AR(1)
/// temporal correlation, layered on top of the synthetic or recorded SNR
/// base. The runner derives the process seed from (scenario seed,
/// repeat), so campaigns stay bit-reproducible.
struct ShadowingSpec {
  double sigma_db = 4.0;          ///< marginal std-dev (dB)
  double decorr_distance = 5.0;   ///< spatial e-folding distance (m)
  double decorr_time = 1.0;       ///< temporal e-folding time (s)
  double sample_interval = 0.1;   ///< process time-grid step (s)
};

/// A deliberately seeded fault: the runner reports an "injected"
/// violation the moment the campaign-wide reception-judgement count
/// crosses `frame`. Exists so repro bundles and the shrinker can be
/// tested end to end against a violation with a known ground truth.
struct InjectedViolation {
  std::uint64_t frame = 0;
};

struct Scenario {
  std::string name = "scenario";
  std::uint64_t seed = 1;
  double duration = 10.0;          ///< timeline length (sim seconds)
  std::size_t num_stas = 8;
  mac::Scheme scheme = mac::Scheme::kCarpool;
  double power_magnitude = 0.1;    ///< USRP TX power knob (testbed SNR map)
  double default_snr_db = 25.0;    ///< STAs without a mobility track
  double probe_interval = 0.0;     ///< PHY decode probe period; 0 = off
  mac::LinkPolicyConfig link_policy{};  ///< defaults: all layers off

  std::vector<MobilityTrack> mobility;  ///< at most one track per STA
  std::vector<InterferenceEpisode> interference;
  std::vector<ChurnEvent> churn;
  std::vector<TrafficPhase> traffic;
  std::optional<InjectedViolation> inject;

  /// Multi-BSS topology (sim/topology.hpp): AP grid + channel reuse plan
  /// + roaming parameters. When set, the runner segments episodes at
  /// handover instants, runs one collision domain per AP over the joined
  /// STAs associated with it, seeds each domain from the episode seed
  /// and the AP index, derives each STA's SNR base from the topology
  /// SINR of its *associated* AP, and decode probes target that AP too.
  /// Disengaged = the classic scenario: one collision domain holding
  /// every STA, seeded from the episode seed, with the testbed SNR map
  /// (or default_snr_db) as the SNR base.
  std::optional<sim::TopologySpec> topology;

  /// Recorded per-STA SNR timeline (chaos/snr_trace.hpp); where samples
  /// exist they replace the synthetic mobility/testbed SNR base. Empty =
  /// fully synthetic channel.
  SnrTrace snr_trace;
  /// Correlated shadowing layered on the SNR base; disengaged = none.
  std::optional<ShadowingSpec> shadowing;

  /// Total timeline length — the quantity the shrinker's acceptance
  /// ratio is measured against.
  [[nodiscard]] double timeline_seconds() const noexcept { return duration; }
};

struct ScenarioParseResult {
  std::optional<Scenario> scenario;
  JsonPathError error;  ///< meaningful iff !scenario

  [[nodiscard]] bool ok() const noexcept { return scenario.has_value(); }
};

/// Parse + validate a scenario from JSON text. Never throws: syntax
/// errors surface with line/column, schema errors with a dotted path.
[[nodiscard]] ScenarioParseResult scenario_from_json(std::string_view text);

/// Validate an already-parsed document (repro bundles embed scenarios).
[[nodiscard]] ScenarioParseResult scenario_from_value(const JsonValue& v);

/// Serialize; scenario_from_json(scenario_to_json(s)) reproduces `s`
/// field for field (the round-trip the chaos tests pin).
[[nodiscard]] std::string scenario_to_json(const Scenario& s);
[[nodiscard]] JsonValue scenario_to_value(const Scenario& s);

/// The built-in scenarios `tools/soak` runs when no file is given:
/// "steady" (static mix, no chaos), "roaming" (mobility + churn), and
/// "interference_ladder" (stepped episode intensities for the cliff
/// check). All are expected to complete violation-free.
[[nodiscard]] std::vector<Scenario> default_scenarios();

}  // namespace carpool::chaos
