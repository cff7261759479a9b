#include "chaos/fuzz.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "chaos/checkpoint.hpp"
#include "chaos/shrink.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "par/par.hpp"
#include "sim/testbed.hpp"

namespace carpool::chaos {
namespace {

// ---------------------------------------------------------- mutation ops
//
// Every operator edits a scenario copy in place and returns whether it
// applied. Outputs are clamped to the schema rules scenario_from_value
// enforces (stop > start, intensity >= 0, frame_bytes in [1, 4000],
// interval > 0, waypoint times strictly increasing, shadowing scales
// positive, ...), so a mutant always survives a serialize -> parse round
// trip — the "schema-valid by construction" contract.

constexpr double kMinDuration = 0.5;
constexpr double kMaxDuration = 120.0;

std::uint32_t pick_sta(const Scenario& s, Rng& rng) {
  return 1 + static_cast<std::uint32_t>(rng.uniform_int(s.num_stas));
}

bool op_split_episode(Scenario& s, Rng& rng) {
  if (s.interference.empty()) return false;
  InterferenceEpisode& e =
      s.interference[rng.uniform_int(s.interference.size())];
  if (e.stop - e.start < 2e-3) return false;
  InterferenceEpisode second = e;
  const double mid = 0.5 * (e.start + e.stop);
  second.start = mid;
  second.intensity =
      std::clamp(e.intensity * rng.uniform(0.5, 1.5), 0.0, 8.0);
  e.stop = mid;
  s.interference.push_back(std::move(second));
  return true;
}

bool op_shift_episode(Scenario& s, Rng& rng) {
  if (s.interference.empty()) return false;
  InterferenceEpisode& e =
      s.interference[rng.uniform_int(s.interference.size())];
  const double width = e.stop - e.start;
  const double delta = rng.gaussian(0.0, 0.25 * width + 1e-3);
  e.start = std::clamp(e.start + delta, 0.0,
                       std::max(0.0, s.duration - 1e-3));
  e.stop = e.start + width;  // width > 0, so stop > start holds
  return true;
}

bool op_intensify_episode(Scenario& s, Rng& rng) {
  if (s.interference.empty()) return false;
  InterferenceEpisode& e =
      s.interference[rng.uniform_int(s.interference.size())];
  e.intensity =
      std::clamp(e.intensity * rng.uniform(1.2, 2.5) + 0.1, 0.0, 8.0);
  e.snr_penalty_db =
      std::clamp(e.snr_penalty_db * rng.uniform(1.0, 1.6), 0.0, 40.0);
  return true;
}

bool op_add_episode(Scenario& s, Rng& rng) {
  const double width =
      std::max(1e-3, s.duration * rng.uniform(0.05, 0.3));
  InterferenceEpisode e;
  e.start = rng.uniform(0.0, std::max(1e-3, s.duration - width));
  e.stop = e.start + width;
  e.snr_penalty_db = rng.uniform(5.0, 25.0);
  e.intensity = rng.uniform(0.5, 2.5);
  if (rng.bernoulli(0.5)) e.stas.push_back(pick_sta(s, rng));
  s.interference.push_back(std::move(e));
  return true;
}

bool op_drop_episode(Scenario& s, Rng& rng) {
  if (s.interference.empty()) return false;
  s.interference.erase(s.interference.begin() +
                       static_cast<long>(
                           rng.uniform_int(s.interference.size())));
  return true;
}

bool op_add_churn(Scenario& s, Rng& rng) {
  const std::uint32_t sta = pick_sta(s, rng);
  const double leave = rng.uniform(0.05, 0.85) * s.duration;
  s.churn.push_back({leave, sta, false});
  if (rng.bernoulli(0.75)) {
    const double join = leave + rng.uniform(0.05, 0.4) * s.duration;
    s.churn.push_back({std::min(join, s.duration), sta, true});
  }
  return true;
}

bool op_drop_churn(Scenario& s, Rng& rng) {
  if (s.churn.empty()) return false;
  s.churn.erase(s.churn.begin() +
                static_cast<long>(rng.uniform_int(s.churn.size())));
  return true;
}

bool op_jitter_waypoint(Scenario& s, Rng& rng) {
  if (s.mobility.empty()) return false;
  MobilityTrack& t = s.mobility[rng.uniform_int(s.mobility.size())];
  if (t.waypoints.empty()) return false;
  sim::TimedPoint& wp = t.waypoints[rng.uniform_int(t.waypoints.size())];
  const double room = sim::TestbedLayout::kRoomSize;
  wp.p.x = std::clamp(wp.p.x + rng.gaussian(0.0, 1.0), 0.0, room);
  wp.p.y = std::clamp(wp.p.y + rng.gaussian(0.0, 1.0), 0.0, room);
  return true;
}

bool op_add_mobility(Scenario& s, Rng& rng) {
  const std::uint32_t sta = pick_sta(s, rng);
  const double room = sim::TestbedLayout::kRoomSize;
  std::vector<sim::TimedPoint> wps(2);
  wps[0].time = 0.0;
  wps[0].p = {rng.uniform(0.0, room), rng.uniform(0.0, room)};
  wps[1].time = std::max(0.1, s.duration * rng.uniform(0.3, 1.0));
  wps[1].p = {rng.uniform(0.0, room), rng.uniform(0.0, room)};
  for (MobilityTrack& t : s.mobility) {
    if (t.sta == sta) {
      t.waypoints = std::move(wps);
      return true;
    }
  }
  s.mobility.push_back({sta, std::move(wps)});
  return true;
}

bool op_swap_traffic(Scenario& s, Rng& rng) {
  if (s.traffic.size() < 2) return false;
  const std::size_t i = rng.uniform_int(s.traffic.size());
  std::size_t j = rng.uniform_int(s.traffic.size() - 1);
  if (j >= i) ++j;
  // Swap the mixes but keep the (strictly increasing) start times.
  std::swap(s.traffic[i].kind, s.traffic[j].kind);
  std::swap(s.traffic[i].frame_bytes, s.traffic[j].frame_bytes);
  std::swap(s.traffic[i].interval, s.traffic[j].interval);
  return true;
}

bool op_retime_traffic(Scenario& s, Rng& rng) {
  if (s.traffic.empty()) return false;
  TrafficPhase& p = s.traffic[rng.uniform_int(s.traffic.size())];
  if (rng.bernoulli(1.0 / 3.0)) {
    p.kind = static_cast<TrafficKind>(rng.uniform_int(4));
  }
  p.interval = std::clamp(p.interval * rng.uniform(0.5, 2.0), 1e-4, 0.1);
  const double bytes =
      std::round(static_cast<double>(p.frame_bytes) *
                 rng.uniform(0.5, 2.0));
  p.frame_bytes = static_cast<std::size_t>(
      std::clamp(bytes, 1.0, 4000.0));
  return true;
}

bool op_scale_duration(Scenario& s, Rng& rng) {
  const double scaled = std::clamp(s.duration * rng.uniform(0.7, 1.4),
                                   kMinDuration, kMaxDuration);
  if (std::fabs(scaled - s.duration) < 1e-9) return false;
  s.duration = scaled;
  // Keep interference inside the new timeline (stop > start preserved).
  for (auto it = s.interference.begin(); it != s.interference.end();) {
    if (it->start >= s.duration - 1e-6) {
      it = s.interference.erase(it);
      continue;
    }
    it->stop = std::min(it->stop, s.duration);
    if (it->stop - it->start < 1e-6) {
      it = s.interference.erase(it);
    } else {
      ++it;
    }
  }
  return true;
}

// Scenario JSON stores seeds as numbers, exact only up to 2^53 — a
// wider seed would not survive the bundle/fuzz-state round-trip, so the
// mutator never produces one.
constexpr std::uint64_t kSeedMask = (1ULL << 53) - 1;

bool op_reseed(Scenario& s, Rng& rng) {
  s.seed = rng() & kSeedMask;
  return true;
}

bool op_nudge_snr(Scenario& s, Rng& rng) {
  s.default_snr_db =
      std::clamp(s.default_snr_db + rng.gaussian(0.0, 3.0), 0.0, 40.0);
  return true;
}

bool op_perturb_shadowing(Scenario& s, Rng& rng) {
  if (!s.shadowing.has_value()) {
    ShadowingSpec sp;
    sp.sigma_db = rng.uniform(1.0, 8.0);
    sp.decorr_distance = rng.uniform(1.0, 10.0);
    sp.decorr_time = rng.uniform(0.2, 3.0);
    sp.sample_interval = std::max(0.05, s.duration / 2000.0);
    s.shadowing = sp;
  } else {
    s.shadowing->sigma_db = std::clamp(
        s.shadowing->sigma_db * rng.uniform(0.7, 1.6), 0.1, 16.0);
  }
  return true;
}

using MutationOp = bool (*)(Scenario&, Rng&);

struct NamedOp {
  std::string_view name;
  MutationOp fn;
};

constexpr NamedOp kOps[] = {
    {"split_episode", op_split_episode},
    {"shift_episode", op_shift_episode},
    {"intensify_episode", op_intensify_episode},
    {"add_episode", op_add_episode},
    {"drop_episode", op_drop_episode},
    {"add_churn", op_add_churn},
    {"drop_churn", op_drop_churn},
    {"jitter_waypoint", op_jitter_waypoint},
    {"add_mobility", op_add_mobility},
    {"swap_traffic", op_swap_traffic},
    {"retime_traffic", op_retime_traffic},
    {"scale_duration", op_scale_duration},
    {"reseed", op_reseed},
    {"nudge_snr", op_nudge_snr},
    {"perturb_shadowing", op_perturb_shadowing},
};
constexpr std::size_t kNumOps = std::size(kOps);

}  // namespace

std::uint64_t coverage_signature(const obs::Registry& reg) {
  const obs::MetricsSnapshot snap = reg.snapshot();
  std::uint64_t h = kFnv1aBasis;
  // Counters only: gauges can carry wall-clock-adjacent values and
  // histograms are explicitly nondeterministic; counters are the
  // deterministic event surface (the same one fingerprint() digests).
  for (const auto& row : snap.counters) {
    if (row.value == 0) continue;
    h = fnv1a64(row.name, h);
    h = fnv1a64_u64(static_cast<std::uint64_t>(std::bit_width(row.value)), h);
  }
  return h;
}

Mutation ScenarioMutator::mutate(const Scenario& base, Rng& rng) const {
  const std::size_t num_ops = kNumOps + (config_.allow_inject ? 1 : 0);
  for (int attempt = 0; attempt < 12; ++attempt) {
    const std::size_t k = rng.uniform_int(num_ops);
    Scenario cand = base;
    if (k == kNumOps) {  // gated inject_fault slot
      InjectedViolation iv;
      iv.frame = 1 + rng.uniform_int(std::max<std::uint64_t>(
                         1, config_.inject_max_frame));
      cand.inject = iv;
      return {std::move(cand), "inject_fault"};
    }
    if (kOps[k].fn(cand, rng)) {
      return {std::move(cand), kOps[k].name};
    }
  }
  Scenario cand = base;  // reseed always applies — guaranteed progress
  cand.seed = rng() & kSeedMask;
  return {std::move(cand), "reseed"};
}

std::uint64_t FuzzReport::corpus_digest() const {
  std::uint64_t h = kFnv1aBasis;
  for (const CorpusEntry& e : corpus) {
    h = fnv1a64(scenario_to_json(e.scenario), h);
    h = fnv1a64_u64(e.signature, h);
    h = fnv1a64_u64(std::bit_cast<std::uint64_t>(e.min_margin), h);
  }
  return h;
}

namespace {

/// One evaluation's full output: the soak report, the coverage signature
/// of its (private) metric registry, and that registry itself so the
/// engine can merge kept evaluations into the ambient registry in
/// batch-index order — identical content at any thread count.
struct EvalOutcome {
  SoakReport report;
  std::uint64_t signature = 0;
  std::unique_ptr<obs::Registry> metrics;
};

EvalOutcome evaluate(const Scenario& sc, const FuzzOptions& opts) {
  EvalOutcome out;
  out.metrics = std::make_unique<obs::Registry>();
  SoakOptions so;
  so.max_frames = opts.eval_frames;
  so.threads = 1;  // parallelism lives at the batch level
  so.rte_norm_bound = opts.rte_norm_bound;
  {
    const obs::Registry::ScopedCurrent scope(*out.metrics);
    out.report = SoakRunner(so).run(sc);
  }
  out.signature = coverage_signature(*out.metrics);
  return out;
}

const CorpusEntry& tournament_select(
    const std::vector<CorpusEntry>& corpus, Rng& rng) {
  const std::size_t a = rng.uniform_int(corpus.size());
  const std::size_t b = rng.uniform_int(corpus.size());
  // Tournament of two by margin: closer to a violation wins.
  return corpus[corpus[b].min_margin < corpus[a].min_margin ? b : a];
}

// ------------------------------------- fuzz state persistence (resume)
// docs/FAULT_TOLERANCE.md. Doubles round-trip bit-exactly through the
// JSON writer (%.17g) and scenarios round-trip field-for-field, so
// a restored corpus evolves bit-identically to the uninterrupted run.

constexpr std::int64_t kFuzzStateSchemaVersion = 1;

std::string fuzz_state_to_json(const FuzzReport& report,
                               std::uint64_t fuzz_seed) {
  JsonObject root;
  json_set(root, "schema_version",
           JsonValue(static_cast<double>(kFuzzStateSchemaVersion)));
  json_set(root, "fuzz_seed", JsonValue(json_hex_u64(fuzz_seed)));
  json_set(root, "rounds_run",
           JsonValue(static_cast<double>(report.rounds_run)));
  json_set(root, "evals", JsonValue(static_cast<double>(report.evals)));
  json_set(root, "corpus_adds",
           JsonValue(static_cast<double>(report.corpus_adds)));
  JsonArray corpus;
  corpus.reserve(report.corpus.size());
  for (const CorpusEntry& e : report.corpus) {
    JsonObject entry;
    json_set(entry, "signature", JsonValue(json_hex_u64(e.signature)));
    json_set(entry, "min_margin", JsonValue(e.min_margin));
    json_set(entry, "round", JsonValue(static_cast<double>(e.round)));
    json_set(entry, "op", JsonValue(e.op));
    json_set(entry, "scenario", scenario_to_value(e.scenario));
    corpus.push_back(JsonValue(std::move(entry)));
  }
  json_set(root, "corpus", JsonValue(std::move(corpus)));
  return json_dump(JsonValue(std::move(root)));
}

/// Parse + validate a fuzz state file into `report`. Returns false with
/// `error` set when the document is unusable (the caller surfaces it).
bool fuzz_state_from_json(std::string_view text, std::uint64_t fuzz_seed,
                          FuzzReport& report, std::string& error) {
  const JsonParseResult parsed = json_parse(text);
  if (!parsed.ok()) {
    error = "fuzz state JSON: " + parsed.error.to_string();
    return false;
  }
  const JsonValue& root = *parsed.value;
  std::uint64_t version = 0;
  if (!json_to_u64(root.find("schema_version"), version) ||
      version != static_cast<std::uint64_t>(kFuzzStateSchemaVersion)) {
    error = "fuzz state: unsupported schema_version";
    return false;
  }
  std::uint64_t seed = 0;
  if (!json_from_hex_u64(root.find("fuzz_seed"), seed)) {
    error = "fuzz state: bad fuzz_seed";
    return false;
  }
  if (seed != fuzz_seed) {
    error = "fuzz state: seed mismatch (state is for --fuzz-seed " +
            std::to_string(seed) + ")";
    return false;
  }
  std::uint64_t rounds = 0;
  std::uint64_t evals = 0;
  std::uint64_t adds = 0;
  const JsonValue* corpus = root.find("corpus");
  if (!json_to_u64(root.find("rounds_run"), rounds) ||
      !json_to_u64(root.find("evals"), evals) ||
      !json_to_u64(root.find("corpus_adds"), adds) || corpus == nullptr ||
      !corpus->is_array()) {
    error = "fuzz state: missing campaign fields";
    return false;
  }
  report.rounds_run = static_cast<std::size_t>(rounds);
  report.evals = evals;
  report.corpus_adds = adds;
  for (const JsonValue& ev : corpus->as_array()) {
    CorpusEntry entry;
    if (!json_from_hex_u64(ev.find("signature"), entry.signature)) {
      error = "fuzz state: corpus entry with bad signature";
      return false;
    }
    const JsonValue* margin = ev.find("min_margin");
    const JsonValue* op = ev.find("op");
    const JsonValue* scenario = ev.find("scenario");
    std::uint64_t round = 0;
    if (margin == nullptr || !margin->is_number() ||
        !json_to_u64(ev.find("round"), round) || op == nullptr ||
        !op->is_string() || scenario == nullptr) {
      error = "fuzz state: malformed corpus entry";
      return false;
    }
    entry.min_margin = margin->as_number();
    entry.round = static_cast<std::size_t>(round);
    entry.op = op->as_string();
    const ScenarioParseResult sp = scenario_from_value(*scenario);
    if (!sp.ok()) {
      error = "fuzz state: corpus scenario: " + sp.error.to_string();
      return false;
    }
    entry.scenario = *sp.scenario;
    report.corpus.push_back(std::move(entry));
  }
  return true;
}

bool write_fuzz_state(const std::string& path, const FuzzReport& report,
                      std::uint64_t fuzz_seed) {
  // Durable atomic write (fsync + rename) shared with the campaign
  // checkpoint; see write_state_file_atomic.
  return write_state_file_atomic(path,
                                 fuzz_state_to_json(report, fuzz_seed));
}

}  // namespace

FuzzReport FuzzEngine::run(const std::vector<Scenario>& seeds) const {
  FuzzReport report;
  obs::Registry& ambient = obs::Registry::current();
  const std::size_t threads =
      opts_.threads == 0 ? par::hardware_threads() : opts_.threads;

  MutatorConfig mcfg;
  mcfg.allow_inject = opts_.allow_inject;
  mcfg.inject_max_frame = std::max<std::uint64_t>(1, opts_.eval_frames);
  const ScenarioMutator mutator(mcfg);

  std::map<std::uint64_t, std::size_t> by_signature;
  bool stop = false;

  // ----- fuzz state resume (docs/FAULT_TOLERANCE.md) -----
  const bool checkpointing = !opts_.checkpoint_dir.empty();
  const std::string state_path =
      checkpointing ? opts_.checkpoint_dir + "/fuzz_state.json"
                    : std::string();
  std::size_t start_round = 1;
  if (checkpointing && opts_.resume) {
    std::ifstream in(state_path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      std::string error;
      if (!fuzz_state_from_json(buf.str(), opts_.seed, report, error)) {
        report.resume_error = state_path + ": " + error;
        return report;
      }
      for (std::size_t i = 0; i < report.corpus.size(); ++i) {
        by_signature[report.corpus[i].signature] = i;
      }
      report.resumed = true;
      start_round = report.rounds_run + 1;
      ambient.counter("chaos.checkpoint_resume").add();
    }
    // No state file yet: fall through to a fresh campaign.
  }

  const auto flush_state = [&]() {
    if (!checkpointing) return;
    if (!report.hits.empty()) return;  // hits are not a resumable prefix
    if (write_fuzz_state(state_path, report, opts_.seed)) {
      ambient.counter("chaos.checkpoint_write").add();
    }
  };

  const auto handle_hit = [&](Scenario&& sc, const SoakReport& rep,
                              std::size_t round, std::size_t bi,
                              std::string op) {
    FuzzHit hit;
    hit.scenario = std::move(sc);
    hit.violation = rep.violations.front();
    hit.round = round;
    hit.batch_index = bi;
    hit.op = std::move(op);
    ambient.counter("chaos.fuzz.violations").add();

    const ReproBundle bundle{hit.scenario, hit.violation};
    if (!opts_.bundle_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(opts_.bundle_dir, ec);
      if (!ec) {
        const std::string stem = opts_.bundle_dir + "/fuzz_r" +
                                 std::to_string(round) + "_b" +
                                 std::to_string(bi) + "_" +
                                 hit.violation.invariant;
        std::ofstream f(stem + ".json");
        if (f) {
          f << bundle_to_json(bundle);
          hit.bundle_path = stem + ".json";
        }
      }
    }
    hit.shrunk = hit.scenario;
    hit.shrunk_violation = hit.violation;
    if (opts_.shrink_hits) {
      const ShrinkResult sr = shrink_bundle(bundle);
      hit.shrunk = sr.scenario;
      hit.shrunk_violation = sr.violation;
      hit.timeline_ratio = sr.timeline_ratio;
      if (!hit.bundle_path.empty()) {
        const std::string shrunk_path =
            hit.bundle_path.substr(0, hit.bundle_path.size() - 5) +
            "_shrunk.json";
        std::ofstream f(shrunk_path);
        if (f) f << bundle_to_json({sr.scenario, sr.violation});
      }
    }
    report.hits.push_back(std::move(hit));
    if (opts_.stop_on_violation) stop = true;
  };

  const auto admit = [&](Scenario&& sc, const EvalOutcome& o,
                         std::size_t round, std::string op) {
    const double margin = o.report.min_margin();
    const auto it = by_signature.find(o.signature);
    if (it != by_signature.end()) {
      CorpusEntry& existing = report.corpus[it->second];
      // Known signature: keep it only if this mutant is strictly closer
      // to a violation — margin hill-climbing on covered ground.
      if (margin < existing.min_margin - 1e-12) {
        existing.scenario = std::move(sc);
        existing.min_margin = margin;
        existing.round = round;
        existing.op = std::move(op);
        ++report.corpus_adds;
        ambient.counter("chaos.fuzz.corpus_adds").add();
      }
      return;
    }
    CorpusEntry entry;
    entry.scenario = std::move(sc);
    entry.signature = o.signature;
    entry.min_margin = margin;
    entry.round = round;
    entry.op = std::move(op);
    by_signature[o.signature] = report.corpus.size();
    report.corpus.push_back(std::move(entry));
    ++report.corpus_adds;
    ambient.counter("chaos.fuzz.corpus_adds").add();
    if (report.corpus.size() > std::max<std::size_t>(1, opts_.corpus_max)) {
      // Evict the entry farthest from any violation (largest margin,
      // first occurrence on ties — deterministic).
      std::size_t worst = 0;
      for (std::size_t i = 1; i < report.corpus.size(); ++i) {
        if (report.corpus[i].min_margin >
            report.corpus[worst].min_margin) {
          worst = i;
        }
      }
      report.corpus.erase(report.corpus.begin() +
                          static_cast<long>(worst));
      by_signature.clear();
      for (std::size_t i = 0; i < report.corpus.size(); ++i) {
        by_signature[report.corpus[i].signature] = i;
      }
    }
  };

  const auto consume = [&](EvalOutcome&& o, Scenario&& sc,
                           std::size_t round, std::size_t bi,
                           std::string op) {
    ambient.merge_from(*o.metrics);
    ++report.evals;
    ambient.counter("chaos.fuzz.evals").add();
    if (!o.report.ok()) {
      handle_hit(std::move(sc), o.report, round, bi, std::move(op));
      return;
    }
    admit(std::move(sc), o, round, std::move(op));
  };

  // Round 0: evaluate the seed corpus with the same machinery. A
  // resumed campaign's corpus already contains the admitted seeds (and
  // their evolution) — re-seeding would double-count evals.
  if (!report.resumed) {
    auto outcomes = par::run_sharded(
        seeds.size(), threads, [&](const par::ShardInfo& info) {
          return evaluate(seeds[info.index], opts_);
        });
    for (std::size_t i = 0; i < seeds.size() && !stop; ++i) {
      consume(std::move(outcomes[i]), Scenario(seeds[i]), 0, i, "seed");
    }
    if (!stop) flush_state();
  }

  for (std::size_t round = start_round; round <= opts_.rounds && !stop;
       ++round) {
    if (report.corpus.empty()) break;
    Rng round_rng(derive_seed(opts_.seed, round, 0x66757a7aULL));
    // Mutants are generated serially against the round-start corpus, so
    // the batch is a pure function of (seed corpus, fuzz seed, round).
    std::vector<Mutation> batch;
    batch.reserve(opts_.batch);
    for (std::size_t b = 0; b < std::max<std::size_t>(1, opts_.batch);
         ++b) {
      const CorpusEntry& parent =
          tournament_select(report.corpus, round_rng);
      batch.push_back(mutator.mutate(parent.scenario, round_rng));
    }
    auto outcomes = par::run_sharded(
        batch.size(), threads, [&](const par::ShardInfo& info) {
          return evaluate(batch[info.index].scenario, opts_);
        });
    for (std::size_t i = 0; i < batch.size() && !stop; ++i) {
      consume(std::move(outcomes[i]), std::move(batch[i].scenario), round,
              i, std::string(batch[i].op));
    }
    ++report.rounds_run;
    ambient.counter("chaos.fuzz.rounds").add();
    if (!stop) flush_state();
  }

  return report;
}

}  // namespace carpool::chaos
