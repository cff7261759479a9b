#include "chaos/checkpoint.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/json.hpp"
#include "obs/span.hpp"

namespace carpool::chaos {
namespace {

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ static_cast<std::uint8_t>(v >> (8 * i))) * 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mix_double(std::uint64_t h, double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return mix_u64(h, bits);
}

// ------------------------------------------------------- field readers
// All return false (and fill `err` with a dotted path) on shape errors,
// so checkpoint_from_json never throws.

bool want_u64(const JsonValue* v, const char* path, std::uint64_t& out,
              ScenarioError& err) {
  if (!json_to_u64(v, out)) {
    err = {path, "expected a non-negative integer (<= 2^53)"};
    return false;
  }
  return true;
}

bool want_double(const JsonValue* v, const char* path, double& out,
                 ScenarioError& err) {
  if (v == nullptr || !v->is_number()) {
    err = {path, "expected a number"};
    return false;
  }
  out = v->as_number();
  return true;
}

bool want_string(const JsonValue* v, const char* path, std::string& out,
                 ScenarioError& err) {
  if (v == nullptr || !v->is_string()) {
    err = {path, "expected a string"};
    return false;
  }
  out = v->as_string();
  return true;
}

JsonValue episode_to_value(const EpisodeSummary& e) {
  JsonObject o;
  json_set(o, "index", JsonValue(static_cast<double>(e.index)));
  json_set(o, "repeat", JsonValue(static_cast<double>(e.repeat)));
  json_set(o, "start", JsonValue(e.start));
  json_set(o, "stop", JsonValue(e.stop));
  json_set(o, "intensity", JsonValue(e.intensity));
  json_set(o, "goodput_bps", JsonValue(e.goodput_bps));
  json_set(o, "frames_judged",
           JsonValue(static_cast<double>(e.frames_judged)));
  return JsonValue(std::move(o));
}

}  // namespace

std::uint64_t scenario_digest(const Scenario& s) {
  return fnv1a(scenario_to_json(s));
}

std::uint64_t soak_options_digest(const SoakOptions& opts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix_u64(h, opts.max_frames);
  h = mix_u64(h, opts.check_cliffs ? 1 : 0);
  h = mix_u64(h, opts.check_fairness ? 1 : 0);
  h = mix_double(h, opts.fairness.jain_floor);
  h = mix_double(h, opts.fairness.min_share_floor);
  h = mix_u64(h, opts.fairness.min_frames);
  h = mix_u64(h, opts.check_energy ? 1 : 0);
  h = mix_double(h, opts.rte_norm_bound);
  return h;
}

std::string checkpoint_to_json(const CampaignCheckpoint& ck) {
  JsonObject root;
  json_set(root, "schema_version",
           JsonValue(static_cast<double>(ck.schema_version)));
  json_set(root, "scenario_name", JsonValue(ck.scenario_name));
  json_set(root, "scenario_digest",
           JsonValue(json_hex_u64(ck.scenario_digest)));
  json_set(root, "options_digest", JsonValue(json_hex_u64(ck.options_digest)));
  json_set(root, "repeats_done",
           JsonValue(static_cast<double>(ck.repeats_done)));
  json_set(root, "frames_judged",
           JsonValue(static_cast<double>(ck.frames_judged)));
  json_set(root, "steps", JsonValue(static_cast<double>(ck.steps)));
  json_set(root, "probes", JsonValue(static_cast<double>(ck.probes)));
  json_set(root, "episodes_run",
           JsonValue(static_cast<double>(ck.episodes_run)));
  json_set(root, "sim_seconds", JsonValue(ck.sim_seconds));
  json_set(root, "span_watermark",
           JsonValue(static_cast<double>(ck.span_watermark)));

  JsonArray episodes;
  episodes.reserve(ck.episodes.size());
  for (const EpisodeSummary& e : ck.episodes) {
    episodes.push_back(episode_to_value(e));
  }
  json_set(root, "episodes", JsonValue(std::move(episodes)));

  JsonObject margins;
  for (const auto& [name, margin] : ck.margins) {
    json_set(margins, name, JsonValue(margin));
  }
  json_set(root, "margins", JsonValue(std::move(margins)));

  JsonObject counters;
  for (const auto& row : ck.registry.counters) {
    json_set(counters, row.name, JsonValue(static_cast<double>(row.value)));
  }
  JsonObject gauges;
  for (const auto& row : ck.registry.gauges) {
    json_set(gauges, row.name, JsonValue(row.value));
  }
  JsonObject histograms;
  for (const auto& row : ck.registry.histograms) {
    JsonObject hist;
    json_set(hist, "unit", JsonValue(row.unit));
    json_set(hist, "count", JsonValue(static_cast<double>(row.count)));
    json_set(hist, "sum", JsonValue(row.sum));
    json_set(hist, "min", JsonValue(row.min));
    json_set(hist, "max", JsonValue(row.max));
    JsonArray bounds;
    bounds.reserve(row.bounds.size());
    for (const double b : row.bounds) bounds.push_back(JsonValue(b));
    json_set(hist, "bounds", JsonValue(std::move(bounds)));
    JsonArray buckets;
    buckets.reserve(row.buckets.size());
    for (const std::uint64_t b : row.buckets) {
      buckets.push_back(JsonValue(static_cast<double>(b)));
    }
    json_set(hist, "buckets", JsonValue(std::move(buckets)));
    json_set(histograms, row.name, JsonValue(std::move(hist)));
  }
  JsonObject registry;
  json_set(registry, "counters", JsonValue(std::move(counters)));
  json_set(registry, "gauges", JsonValue(std::move(gauges)));
  json_set(registry, "histograms", JsonValue(std::move(histograms)));
  json_set(root, "registry", JsonValue(std::move(registry)));

  return json_dump(JsonValue(std::move(root)));
}

CheckpointParseResult checkpoint_from_json(std::string_view text) {
  CheckpointParseResult result;
  const JsonParseResult parsed = json_parse(text);
  if (!parsed.ok()) {
    result.error = {"", "checkpoint JSON: " + parsed.error.to_string()};
    return result;
  }
  const JsonValue& root = *parsed.value;
  if (!root.is_object()) {
    result.error = {"", "checkpoint root must be an object"};
    return result;
  }

  CampaignCheckpoint ck;
  ScenarioError err;
  std::uint64_t u = 0;
  if (!want_u64(root.find("schema_version"), "schema_version", u, err)) {
    result.error = err;
    return result;
  }
  ck.schema_version = static_cast<std::int64_t>(u);
  if (!want_string(root.find("scenario_name"), "scenario_name",
                   ck.scenario_name, err)) {
    result.error = err;
    return result;
  }
  if (!json_from_hex_u64(root.find("scenario_digest"), ck.scenario_digest)) {
    result.error = {"scenario_digest", "expected a 0x-prefixed hex string"};
    return result;
  }
  if (!json_from_hex_u64(root.find("options_digest"), ck.options_digest)) {
    result.error = {"options_digest", "expected a 0x-prefixed hex string"};
    return result;
  }
  if (!want_u64(root.find("repeats_done"), "repeats_done", u, err)) {
    result.error = err;
    return result;
  }
  ck.repeats_done = static_cast<std::size_t>(u);
  if (!want_u64(root.find("frames_judged"), "frames_judged",
                ck.frames_judged, err) ||
      !want_u64(root.find("steps"), "steps", ck.steps, err) ||
      !want_u64(root.find("probes"), "probes", ck.probes, err)) {
    result.error = err;
    return result;
  }
  if (!want_u64(root.find("episodes_run"), "episodes_run", u, err)) {
    result.error = err;
    return result;
  }
  ck.episodes_run = static_cast<std::size_t>(u);
  if (!want_double(root.find("sim_seconds"), "sim_seconds", ck.sim_seconds,
                   err) ||
      !want_u64(root.find("span_watermark"), "span_watermark",
                ck.span_watermark, err)) {
    result.error = err;
    return result;
  }

  const JsonValue* episodes = root.find("episodes");
  if (episodes == nullptr || !episodes->is_array()) {
    result.error = {"episodes", "expected an array"};
    return result;
  }
  for (const JsonValue& ev : episodes->as_array()) {
    if (!ev.is_object()) {
      result.error = {"episodes[]", "expected an object"};
      return result;
    }
    EpisodeSummary e;
    if (!want_u64(ev.find("index"), "episodes[].index", u, err)) {
      result.error = err;
      return result;
    }
    e.index = static_cast<std::size_t>(u);
    if (!want_u64(ev.find("repeat"), "episodes[].repeat", u, err)) {
      result.error = err;
      return result;
    }
    e.repeat = static_cast<std::size_t>(u);
    if (!want_double(ev.find("start"), "episodes[].start", e.start, err) ||
        !want_double(ev.find("stop"), "episodes[].stop", e.stop, err) ||
        !want_double(ev.find("intensity"), "episodes[].intensity",
                     e.intensity, err) ||
        !want_double(ev.find("goodput_bps"), "episodes[].goodput_bps",
                     e.goodput_bps, err) ||
        !want_u64(ev.find("frames_judged"), "episodes[].frames_judged",
                  e.frames_judged, err)) {
      result.error = err;
      return result;
    }
    ck.episodes.push_back(e);
  }

  const JsonValue* margins = root.find("margins");
  if (margins == nullptr || !margins->is_object()) {
    result.error = {"margins", "expected an object"};
    return result;
  }
  for (const auto& [name, mv] : margins->as_object()) {
    if (!mv.is_number()) {
      result.error = {"margins." + name, "expected a number"};
      return result;
    }
    ck.margins.emplace_back(name, mv.as_number());
  }

  const JsonValue* registry = root.find("registry");
  if (registry == nullptr || !registry->is_object()) {
    result.error = {"registry", "expected an object"};
    return result;
  }
  const JsonValue* counters = registry->find("counters");
  if (counters == nullptr || !counters->is_object()) {
    result.error = {"registry.counters", "expected an object"};
    return result;
  }
  for (const auto& [name, cv] : counters->as_object()) {
    obs::MetricsSnapshot::CounterRow row;
    row.name = name;
    if (!json_to_u64(&cv, row.value)) {
      result.error = {"registry.counters." + name,
                      "expected a non-negative integer (<= 2^53)"};
      return result;
    }
    ck.registry.counters.push_back(std::move(row));
  }
  const JsonValue* gauges = registry->find("gauges");
  if (gauges == nullptr || !gauges->is_object()) {
    result.error = {"registry.gauges", "expected an object"};
    return result;
  }
  for (const auto& [name, gv] : gauges->as_object()) {
    if (!gv.is_number()) {
      result.error = {"registry.gauges." + name, "expected a number"};
      return result;
    }
    obs::MetricsSnapshot::GaugeRow row;
    row.name = name;
    row.value = gv.as_number();
    ck.registry.gauges.push_back(std::move(row));
  }
  const JsonValue* histograms = registry->find("histograms");
  if (histograms == nullptr || !histograms->is_object()) {
    result.error = {"registry.histograms", "expected an object"};
    return result;
  }
  for (const auto& [name, hv] : histograms->as_object()) {
    if (!hv.is_object()) {
      result.error = {"registry.histograms." + name, "expected an object"};
      return result;
    }
    obs::MetricsSnapshot::HistogramRow row;
    row.name = name;
    if (!want_string(hv.find("unit"), "registry.histograms[].unit",
                     row.unit, err) ||
        !want_u64(hv.find("count"), "registry.histograms[].count",
                  row.count, err) ||
        !want_double(hv.find("sum"), "registry.histograms[].sum", row.sum,
                     err) ||
        !want_double(hv.find("min"), "registry.histograms[].min", row.min,
                     err) ||
        !want_double(hv.find("max"), "registry.histograms[].max", row.max,
                     err)) {
      result.error = err;
      return result;
    }
    const JsonValue* bounds = hv.find("bounds");
    const JsonValue* buckets = hv.find("buckets");
    if (bounds == nullptr || !bounds->is_array() || buckets == nullptr ||
        !buckets->is_array()) {
      result.error = {"registry.histograms." + name,
                      "expected bounds/buckets arrays"};
      return result;
    }
    for (const JsonValue& b : bounds->as_array()) {
      if (!b.is_number()) {
        result.error = {"registry.histograms." + name + ".bounds",
                        "expected numbers"};
        return result;
      }
      row.bounds.push_back(b.as_number());
    }
    for (const JsonValue& b : buckets->as_array()) {
      std::uint64_t bucket = 0;
      if (!json_to_u64(&b, bucket)) {
        result.error = {"registry.histograms." + name + ".buckets",
                        "expected non-negative integers (<= 2^53)"};
        return result;
      }
      row.buckets.push_back(bucket);
    }
    if (row.buckets.size() != row.bounds.size() + 1) {
      result.error = {"registry.histograms." + name,
                      "buckets must have bounds+1 entries"};
      return result;
    }
    row.mean = row.count == 0
                   ? 0.0
                   : row.sum / static_cast<double>(row.count);
    ck.registry.histograms.push_back(std::move(row));
  }

  result.checkpoint = std::move(ck);
  return result;
}

std::string checkpoint_path(const std::string& dir,
                            const std::string& scenario_name) {
  std::string safe;
  safe.reserve(scenario_name.size());
  for (const char c : scenario_name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    safe += ok ? c : '_';
  }
  if (safe.empty()) safe = "scenario";
  return dir + "/checkpoint_" + safe + ".json";
}

bool write_state_file_atomic(const std::string& path,
                             std::string_view contents) {
  const std::filesystem::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
    // "already exists" is fine; real failures surface at the write below.
  }
  const std::string tmp = path + ".tmp";
#if defined(_WIN32)
  // No portable fsync: fall back to plain buffered write + rename.
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) return false;
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    if (!out) return false;
  }
#else
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = true;
  std::size_t off = 0;
  while (off < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + off, contents.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  // fsync before rename: otherwise a power loss after the rename can
  // leave a zero-length or torn file under the *final* name, which a
  // later --resume parses and aborts on.
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  if (!ok) {
    std::filesystem::remove(std::filesystem::path(tmp), ec);
    return false;
  }
#endif
  std::filesystem::rename(std::filesystem::path(tmp), target, ec);
  if (ec) {
    std::filesystem::remove(std::filesystem::path(tmp), ec);
    return false;
  }
#if !defined(_WIN32)
  // Make the rename durable too. Best effort: the file data is already
  // safe, and some filesystems reject opening directories.
  const std::string dir = target.has_parent_path()
                              ? target.parent_path().string()
                              : std::string(".");
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
#endif
  return true;
}

bool write_checkpoint_file(const std::string& path,
                           const CampaignCheckpoint& ck) {
  return write_state_file_atomic(path, checkpoint_to_json(ck));
}

CampaignCheckpoint make_checkpoint(const Scenario& scenario,
                                   const SoakOptions& opts,
                                   const SoakReport& report,
                                   std::size_t repeats_done) {
  CampaignCheckpoint ck;
  ck.scenario_name = scenario.name;
  ck.scenario_digest = scenario_digest(scenario);
  ck.options_digest = soak_options_digest(opts);
  ck.repeats_done = repeats_done;
  ck.frames_judged = report.frames_judged;
  ck.steps = report.steps;
  ck.probes = report.probes;
  ck.episodes_run = report.episodes_run;
  ck.sim_seconds = report.sim_seconds;
  ck.episodes = report.episode_summaries;
  for (const auto& [name, margin] : report.margins.minima()) {
    ck.margins.emplace_back(name, margin);
  }
  ck.registry = obs::Registry::current().snapshot();
  if (const obs::SpanCollector* spans = obs::SpanCollector::current();
      spans != nullptr) {
    ck.span_watermark = spans->allocated();
  }
  return ck;
}

}  // namespace carpool::chaos
