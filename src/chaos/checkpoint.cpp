#include "chaos/checkpoint.hpp"

#include <bit>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <system_error>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/hash.hpp"
#include "common/json.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace carpool::chaos {
namespace {

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
  return fnv1a64(scenario_to_json(s));
}

std::uint64_t soak_options_digest(const SoakOptions& opts) {
  const auto mix_double = [](double v, std::uint64_t h) {
    return fnv1a64_u64(std::bit_cast<std::uint64_t>(v), h);
  };
  std::uint64_t h = kFnv1aBasis;
  h = fnv1a64_u64(opts.max_frames, h);
  h = fnv1a64_u64(opts.check_cliffs ? 1 : 0, h);
  h = fnv1a64_u64(opts.check_fairness ? 1 : 0, h);
  h = mix_double(opts.fairness.jain_floor, h);
  h = mix_double(opts.fairness.min_share_floor, h);
  h = fnv1a64_u64(opts.fairness.min_frames, h);
  h = fnv1a64_u64(opts.check_energy ? 1 : 0, h);
  h = mix_double(opts.rte_norm_bound, h);
  return h;
}

std::string checkpoint_to_json(const CampaignCheckpoint& ck) {
  JsonObject root;
  json_set(root, "schema_version",
           JsonValue(static_cast<double>(kCheckpointSchemaVersion)));
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

  json_set(root, "registry", ck.registry);

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
  JsonReader in;
  std::uint64_t version = 0;
  if (read_uint(in, root, "", "schema_version", version, true) &&
      version != static_cast<std::uint64_t>(kCheckpointSchemaVersion)) {
    in.fail("schema_version",
            std::to_string(version) + " (want " +
                std::to_string(kCheckpointSchemaVersion) + ")");
  }
  if (in.failed) {  // another version's fields would only mislead
    result.error = in.error;
    return result;
  }

  CampaignCheckpoint ck;
  std::uint64_t repeats_done = 0;
  std::uint64_t episodes_run = 0;
  read_string(in, root, "", "scenario_name", ck.scenario_name, true);
  read_hex_u64(in, root, "", "scenario_digest", ck.scenario_digest, true);
  read_hex_u64(in, root, "", "options_digest", ck.options_digest, true);
  read_uint(in, root, "", "repeats_done", repeats_done, true);
  read_uint(in, root, "", "frames_judged", ck.frames_judged, true);
  read_uint(in, root, "", "steps", ck.steps, true);
  read_uint(in, root, "", "probes", ck.probes, true);
  read_uint(in, root, "", "episodes_run", episodes_run, true);
  read_number(in, root, "", "sim_seconds", ck.sim_seconds, true);
  read_uint(in, root, "", "span_watermark", ck.span_watermark, true);
  ck.repeats_done = static_cast<std::size_t>(repeats_done);
  ck.episodes_run = static_cast<std::size_t>(episodes_run);

  if (const JsonValue* episodes = read_member(
          in, root, "", "episodes", JsonValue::Kind::kArray, true)) {
    for (std::size_t i = 0; i < episodes->as_array().size(); ++i) {
      const JsonValue& ev = episodes->as_array()[i];
      const std::string path = "episodes[" + std::to_string(i) + "].";
      EpisodeSummary& e = ck.episodes.emplace_back();
      std::uint64_t index = 0;
      std::uint64_t repeat = 0;
      read_uint(in, ev, path, "index", index, true);
      read_uint(in, ev, path, "repeat", repeat, true);
      read_number(in, ev, path, "start", e.start, true);
      read_number(in, ev, path, "stop", e.stop, true);
      read_number(in, ev, path, "intensity", e.intensity, true);
      read_number(in, ev, path, "goodput_bps", e.goodput_bps, true);
      read_uint(in, ev, path, "frames_judged", e.frames_judged, true);
      e.index = static_cast<std::size_t>(index);
      e.repeat = static_cast<std::size_t>(repeat);
    }
  }

  if (const JsonValue* margins = read_member(
          in, root, "", "margins", JsonValue::Kind::kObject, true)) {
    for (const auto& [name, mv] : margins->as_object()) {
      read_number(in, *margins, "margins.", name,
                  ck.margins.emplace_back(name, 0.0).second, true);
    }
  }

  // The registry section is checked by the code that reads it back, on
  // a throwaway registry, so a resume never starts on a section that
  // Registry::restore would refuse.
  if (const JsonValue* registry = read_member(
          in, root, "", "registry", JsonValue::Kind::kObject, true);
      registry != nullptr && !in.failed) {
    obs::Registry scratch;
    std::string error;
    if (!scratch.restore(*registry, error)) in.fail("registry", error);
    ck.registry = *registry;
  }

  if (in.failed) {
    result.error = in.error;
    return result;
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
  ck.registry = *json_parse(obs::Registry::current().to_json()).value;
  if (const obs::SpanCollector* spans = obs::SpanCollector::current();
      spans != nullptr) {
    ck.span_watermark = spans->allocated();
  }
  return ck;
}

}  // namespace carpool::chaos
