#include "chaos/scenario.hpp"

#include <cmath>
#include <limits>

namespace carpool::chaos {
namespace {

// ---------------------------------------------------------- field access
//
// All readers share the convention: on failure they record the first
// error (dotted path + message) and return false, so parse_scenario can
// bail out early without exceptions.

struct Ctx {
  ScenarioError error;
  bool failed = false;

  bool fail(std::string path, std::string message) {
    if (!failed) {
      error.path = std::move(path);
      error.message = std::move(message);
      failed = true;
    }
    return false;
  }
};

bool read_number(Ctx& ctx, const JsonValue& obj, const std::string& path,
                 std::string_view key, double& out, bool required) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) {
      return ctx.fail(path + std::string(key), "required field missing");
    }
    return true;
  }
  if (!v->is_number()) {
    return ctx.fail(path + std::string(key), "expected a number");
  }
  out = v->as_number();
  if (!std::isfinite(out)) {
    return ctx.fail(path + std::string(key), "must be finite");
  }
  return true;
}

bool read_uint(Ctx& ctx, const JsonValue& obj, const std::string& path,
               std::string_view key, std::uint64_t& out, bool required) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) {
      return ctx.fail(path + std::string(key), "required field missing");
    }
    return true;
  }
  if (!json_to_u64(v, out)) {
    return ctx.fail(path + std::string(key),
                    "expected a non-negative integer (<= 2^53)");
  }
  return true;
}

bool read_bool(Ctx& ctx, const JsonValue& obj, const std::string& path,
               std::string_view key, bool& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_bool()) {
    return ctx.fail(path + std::string(key), "expected a boolean");
  }
  out = v->as_bool();
  return true;
}

bool read_string(Ctx& ctx, const JsonValue& obj, const std::string& path,
                 std::string_view key, std::string& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_string()) {
    return ctx.fail(path + std::string(key), "expected a string");
  }
  out = v->as_string();
  return true;
}

bool parse_scheme(Ctx& ctx, const std::string& name, mac::Scheme& out) {
  if (name == "carpool") {
    out = mac::Scheme::kCarpool;
  } else if (name == "dcf" || name == "802.11") {
    out = mac::Scheme::kDcf80211;
  } else if (name == "ampdu") {
    out = mac::Scheme::kAmpdu;
  } else if (name == "mu") {
    out = mac::Scheme::kMuAggregation;
  } else if (name == "wifox") {
    out = mac::Scheme::kWiFox;
  } else {
    return ctx.fail("scheme", "unknown scheme '" + name +
                                  "' (carpool|dcf|ampdu|mu|wifox)");
  }
  return true;
}

bool parse_traffic_kind(Ctx& ctx, const std::string& path,
                        const std::string& name, TrafficKind& out) {
  if (name == "cbr") {
    out = TrafficKind::kCbr;
  } else if (name == "voip") {
    out = TrafficKind::kVoip;
  } else if (name == "poisson") {
    out = TrafficKind::kPoisson;
  } else if (name == "sigcomm") {
    out = TrafficKind::kSigcomm;
  } else {
    return ctx.fail(path, "unknown traffic kind '" + name +
                              "' (cbr|voip|poisson|sigcomm)");
  }
  return true;
}

bool parse_mobility(Ctx& ctx, const JsonValue& v, Scenario& s) {
  const JsonValue* arr = v.find("mobility");
  if (arr == nullptr) return true;
  if (!arr->is_array()) return ctx.fail("mobility", "expected an array");
  for (std::size_t i = 0; i < arr->as_array().size(); ++i) {
    const std::string path = "mobility[" + std::to_string(i) + "].";
    const JsonValue& t = arr->as_array()[i];
    if (!t.is_object()) {
      return ctx.fail("mobility[" + std::to_string(i) + "]",
                      "expected an object");
    }
    MobilityTrack track;
    std::uint64_t sta = 0;
    if (!read_uint(ctx, t, path, "sta", sta, true)) return false;
    if (sta == 0 || sta > s.num_stas) {
      return ctx.fail(path + "sta", "must be in [1, num_stas]");
    }
    track.sta = static_cast<std::uint32_t>(sta);
    for (std::size_t j = 0; j < s.mobility.size(); ++j) {
      if (s.mobility[j].sta == track.sta) {
        return ctx.fail(path + "sta", "STA already has a track (mobility[" +
                                          std::to_string(j) + "])");
      }
    }
    const JsonValue* wps = t.find("waypoints");
    if (wps == nullptr || !wps->is_array()) {
      return ctx.fail(path + "waypoints", "expected an array");
    }
    if (wps->as_array().empty()) {
      return ctx.fail(path + "waypoints", "need at least one waypoint");
    }
    double prev_t = -std::numeric_limits<double>::infinity();
    for (std::size_t w = 0; w < wps->as_array().size(); ++w) {
      const std::string wpath = path + "waypoints[" + std::to_string(w) +
                                "].";
      const JsonValue& wp = wps->as_array()[w];
      if (!wp.is_object()) {
        return ctx.fail(wpath, "expected an object");
      }
      sim::TimedPoint tp;
      if (!read_number(ctx, wp, wpath, "t", tp.time, true)) return false;
      if (!read_number(ctx, wp, wpath, "x", tp.p.x, true)) return false;
      if (!read_number(ctx, wp, wpath, "y", tp.p.y, true)) return false;
      if (tp.time <= prev_t) {
        return ctx.fail(wpath + "t", "waypoint times must be strictly "
                                     "increasing");
      }
      prev_t = tp.time;
      track.waypoints.push_back(tp);
    }
    s.mobility.push_back(std::move(track));
  }
  return true;
}

bool parse_interference(Ctx& ctx, const JsonValue& v, Scenario& s) {
  const JsonValue* arr = v.find("interference");
  if (arr == nullptr) return true;
  if (!arr->is_array()) {
    return ctx.fail("interference", "expected an array");
  }
  for (std::size_t i = 0; i < arr->as_array().size(); ++i) {
    const std::string path = "interference[" + std::to_string(i) + "].";
    const JsonValue& e = arr->as_array()[i];
    if (!e.is_object()) {
      return ctx.fail("interference[" + std::to_string(i) + "]",
                      "expected an object");
    }
    InterferenceEpisode ep;
    if (!read_number(ctx, e, path, "start", ep.start, true)) return false;
    if (!read_number(ctx, e, path, "stop", ep.stop, true)) return false;
    if (!read_number(ctx, e, path, "snr_penalty_db", ep.snr_penalty_db,
                     false)) {
      return false;
    }
    if (!read_number(ctx, e, path, "intensity", ep.intensity, false)) {
      return false;
    }
    if (ep.stop <= ep.start) {
      return ctx.fail(path + "stop", "must be greater than start");
    }
    if (ep.intensity < 0.0) {
      return ctx.fail(path + "intensity", "must be non-negative");
    }
    const JsonValue* stas = e.find("stas");
    if (stas != nullptr) {
      if (!stas->is_array()) {
        return ctx.fail(path + "stas", "expected an array");
      }
      for (const JsonValue& sv : stas->as_array()) {
        std::uint64_t sta = 0;
        if (!json_to_u64(&sv, sta) || sta < 1 ||
            sta > std::numeric_limits<std::uint32_t>::max()) {
          return ctx.fail(path + "stas", "expected STA ids >= 1");
        }
        ep.stas.push_back(static_cast<std::uint32_t>(sta));
      }
    }
    s.interference.push_back(std::move(ep));
  }
  return true;
}

bool parse_churn(Ctx& ctx, const JsonValue& v, Scenario& s) {
  const JsonValue* arr = v.find("churn");
  if (arr == nullptr) return true;
  if (!arr->is_array()) return ctx.fail("churn", "expected an array");
  for (std::size_t i = 0; i < arr->as_array().size(); ++i) {
    const std::string path = "churn[" + std::to_string(i) + "].";
    const JsonValue& e = arr->as_array()[i];
    if (!e.is_object()) {
      return ctx.fail("churn[" + std::to_string(i) + "]",
                      "expected an object");
    }
    ChurnEvent ev;
    if (!read_number(ctx, e, path, "time", ev.time, true)) return false;
    std::uint64_t sta = 0;
    if (!read_uint(ctx, e, path, "sta", sta, true)) return false;
    if (sta == 0 || sta > s.num_stas) {
      return ctx.fail(path + "sta", "must be in [1, num_stas]");
    }
    ev.sta = static_cast<std::uint32_t>(sta);
    std::string kind;
    if (!read_string(ctx, e, path, "event", kind)) return false;
    if (kind == "join") {
      ev.join = true;
    } else if (kind == "leave") {
      ev.join = false;
    } else {
      return ctx.fail(path + "event", "expected \"join\" or \"leave\"");
    }
    s.churn.push_back(ev);
  }
  return true;
}

bool parse_traffic(Ctx& ctx, const JsonValue& v, Scenario& s) {
  const JsonValue* arr = v.find("traffic");
  if (arr == nullptr) return true;
  if (!arr->is_array()) return ctx.fail("traffic", "expected an array");
  double prev_start = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < arr->as_array().size(); ++i) {
    const std::string path = "traffic[" + std::to_string(i) + "].";
    const JsonValue& e = arr->as_array()[i];
    if (!e.is_object()) {
      return ctx.fail("traffic[" + std::to_string(i) + "]",
                      "expected an object");
    }
    TrafficPhase phase;
    if (!read_number(ctx, e, path, "start", phase.start, true)) {
      return false;
    }
    if (phase.start <= prev_start) {
      return ctx.fail(path + "start",
                      "phase starts must be strictly increasing");
    }
    prev_start = phase.start;
    std::string kind = "cbr";
    if (!read_string(ctx, e, path, "kind", kind)) return false;
    if (!parse_traffic_kind(ctx, path + "kind", kind, phase.kind)) {
      return false;
    }
    std::uint64_t bytes = phase.frame_bytes;
    if (!read_uint(ctx, e, path, "frame_bytes", bytes, false)) return false;
    if (bytes == 0 || bytes > 4000) {
      return ctx.fail(path + "frame_bytes", "must be in [1, 4000]");
    }
    phase.frame_bytes = static_cast<std::size_t>(bytes);
    if (!read_number(ctx, e, path, "interval", phase.interval, false)) {
      return false;
    }
    if (phase.interval <= 0.0) {
      return ctx.fail(path + "interval", "must be positive");
    }
    s.traffic.push_back(phase);
  }
  return true;
}

bool parse_link_policy(Ctx& ctx, const JsonValue& v, Scenario& s) {
  const JsonValue* lp = v.find("link_policy");
  if (lp == nullptr) return true;
  if (!lp->is_object()) {
    return ctx.fail("link_policy", "expected an object");
  }
  const std::string path = "link_policy.";
  mac::LinkPolicyConfig& c = s.link_policy;
  if (!read_bool(ctx, *lp, path, "rate_adaptation", c.rate_adaptation)) {
    return false;
  }
  if (!read_bool(ctx, *lp, path, "feedback", c.feedback)) return false;
  if (!read_bool(ctx, *lp, path, "suspension", c.suspension)) return false;
  return true;
}

bool parse_topology(Ctx& ctx, const JsonValue& v, Scenario& s) {
  const JsonValue* topo = v.find("topology");
  if (topo == nullptr) return true;
  if (!topo->is_object()) {
    return ctx.fail("topology", "expected an object");
  }
  const std::string path = "topology.";
  sim::TopologySpec spec;
  std::uint64_t ap_count = spec.ap_count;
  if (!read_uint(ctx, *topo, path, "ap_count", ap_count, false)) {
    return false;
  }
  if (ap_count == 0 || ap_count > 1024) {
    return ctx.fail(path + "ap_count", "must be in [1, 1024]");
  }
  spec.ap_count = static_cast<std::size_t>(ap_count);
  if (!read_number(ctx, *topo, path, "ap_spacing", spec.ap_spacing, false)) {
    return false;
  }
  if (spec.ap_spacing <= 0.0) {
    return ctx.fail(path + "ap_spacing", "must be positive");
  }
  std::uint64_t channels = spec.channel_count;
  if (!read_uint(ctx, *topo, path, "channel_count", channels, false)) {
    return false;
  }
  if (channels == 0) {
    return ctx.fail(path + "channel_count", "must be >= 1");
  }
  spec.channel_count = static_cast<std::size_t>(channels);
  if (!read_number(ctx, *topo, path, "roam_hysteresis_db",
                   spec.roam_hysteresis_db, false)) {
    return false;
  }
  if (spec.roam_hysteresis_db < 0.0) {
    return ctx.fail(path + "roam_hysteresis_db", "must be non-negative");
  }
  if (!read_number(ctx, *topo, path, "roam_interval", spec.roam_interval,
                   false)) {
    return false;
  }
  if (spec.roam_interval <= 0.0) {
    return ctx.fail(path + "roam_interval", "must be positive");
  }
  if (!read_number(ctx, *topo, path, "activity_factor",
                   spec.activity_factor, false)) {
    return false;
  }
  if (spec.activity_factor < 0.0 || spec.activity_factor > 1.0) {
    return ctx.fail(path + "activity_factor", "must be in [0, 1]");
  }
  if (!read_number(ctx, *topo, path, "cell_size", spec.cell_size, false)) {
    return false;
  }
  if (spec.cell_size <= 0.0) {
    return ctx.fail(path + "cell_size", "must be positive");
  }
  s.topology = spec;
  return true;
}

bool parse_snr_trace(Ctx& ctx, const JsonValue& v, Scenario& s) {
  const JsonValue* arr = v.find("snr_trace");
  if (arr == nullptr) return true;
  if (!arr->is_array()) return ctx.fail("snr_trace", "expected an array");
  std::vector<SnrSample> samples;
  for (std::size_t i = 0; i < arr->as_array().size(); ++i) {
    const std::string path = "snr_trace[" + std::to_string(i) + "].";
    const JsonValue& e = arr->as_array()[i];
    if (!e.is_object()) {
      return ctx.fail("snr_trace[" + std::to_string(i) + "]",
                      "expected an object");
    }
    SnrSample sample;
    if (!read_number(ctx, e, path, "t", sample.time, true)) return false;
    if (sample.time < 0.0) {
      return ctx.fail(path + "t", "must be non-negative");
    }
    std::uint64_t sta = 0;
    if (!read_uint(ctx, e, path, "sta", sta, true)) return false;
    if (sta == 0 || sta > s.num_stas) {
      return ctx.fail(path + "sta", "must be in [1, num_stas]");
    }
    sample.sta = static_cast<std::uint32_t>(sta);
    if (!read_number(ctx, e, path, "snr_db", sample.snr_db, true)) {
      return false;
    }
    samples.push_back(sample);
  }
  s.snr_trace = SnrTrace(std::move(samples));
  return true;
}

bool parse_shadowing(Ctx& ctx, const JsonValue& v, Scenario& s) {
  const JsonValue* sh = v.find("shadowing");
  if (sh == nullptr) return true;
  if (!sh->is_object()) {
    return ctx.fail("shadowing", "expected an object");
  }
  const std::string path = "shadowing.";
  ShadowingSpec spec;
  if (!read_number(ctx, *sh, path, "sigma_db", spec.sigma_db, false)) {
    return false;
  }
  if (!read_number(ctx, *sh, path, "decorrelation_distance",
                   spec.decorr_distance, false)) {
    return false;
  }
  if (!read_number(ctx, *sh, path, "decorrelation_time", spec.decorr_time,
                   false)) {
    return false;
  }
  if (!read_number(ctx, *sh, path, "sample_interval", spec.sample_interval,
                   false)) {
    return false;
  }
  if (spec.sigma_db < 0.0) {
    return ctx.fail(path + "sigma_db", "must be non-negative");
  }
  if (spec.decorr_distance <= 0.0) {
    return ctx.fail(path + "decorrelation_distance", "must be positive");
  }
  if (spec.decorr_time <= 0.0) {
    return ctx.fail(path + "decorrelation_time", "must be positive");
  }
  if (spec.sample_interval <= 0.0) {
    return ctx.fail(path + "sample_interval", "must be positive");
  }
  s.shadowing = spec;
  return true;
}

// ------------------------------------------------------------- emitters

JsonValue point_value(const sim::TimedPoint& tp) {
  JsonObject o;
  json_set(o, "t", JsonValue(tp.time));
  json_set(o, "x", JsonValue(tp.p.x));
  json_set(o, "y", JsonValue(tp.p.y));
  return JsonValue(std::move(o));
}

}  // namespace

std::string_view traffic_kind_name(TrafficKind kind) noexcept {
  switch (kind) {
    case TrafficKind::kCbr:
      return "cbr";
    case TrafficKind::kVoip:
      return "voip";
    case TrafficKind::kPoisson:
      return "poisson";
    case TrafficKind::kSigcomm:
      return "sigcomm";
  }
  return "?";
}

ScenarioParseResult scenario_from_value(const JsonValue& v) {
  ScenarioParseResult out;
  Ctx ctx;
  if (!v.is_object()) {
    ctx.fail("", "scenario must be a JSON object");
    out.error = ctx.error;
    return out;
  }
  Scenario s;
  read_string(ctx, v, "", "name", s.name);
  read_uint(ctx, v, "", "seed", s.seed, false);
  read_number(ctx, v, "", "duration", s.duration, true);
  std::uint64_t num_stas = s.num_stas;
  read_uint(ctx, v, "", "num_stas", num_stas, false);
  std::string scheme;
  read_string(ctx, v, "", "scheme", scheme);
  read_number(ctx, v, "", "power_magnitude", s.power_magnitude, false);
  read_number(ctx, v, "", "default_snr_db", s.default_snr_db, false);
  read_number(ctx, v, "", "probe_interval", s.probe_interval, false);
  if (!ctx.failed) {
    if (s.duration <= 0.0) {
      ctx.fail("duration", "must be positive");
    } else if (num_stas == 0 || num_stas > 64) {
      ctx.fail("num_stas", "must be in [1, 64]");
    } else if (s.probe_interval < 0.0) {
      ctx.fail("probe_interval", "must be non-negative");
    } else {
      s.num_stas = static_cast<std::size_t>(num_stas);
      if (!scheme.empty()) parse_scheme(ctx, scheme, s.scheme);
    }
  }
  if (!ctx.failed) {
    parse_link_policy(ctx, v, s);
    parse_mobility(ctx, v, s);
    parse_interference(ctx, v, s);
    parse_churn(ctx, v, s);
    parse_traffic(ctx, v, s);
    parse_topology(ctx, v, s);
    parse_snr_trace(ctx, v, s);
    parse_shadowing(ctx, v, s);
  }
  if (!ctx.failed) {
    const JsonValue* inj = v.find("inject_violation");
    if (inj != nullptr) {
      if (!inj->is_object()) {
        ctx.fail("inject_violation", "expected an object");
      } else {
        InjectedViolation iv;
        if (read_uint(ctx, *inj, "inject_violation.", "frame", iv.frame,
                      true)) {
          s.inject = iv;
        }
      }
    }
  }
  if (ctx.failed) {
    out.error = ctx.error;
    return out;
  }
  out.scenario = std::move(s);
  return out;
}

ScenarioParseResult scenario_from_json(std::string_view text) {
  const JsonParseResult doc = json_parse(text);
  if (!doc.ok()) {
    ScenarioParseResult out;
    out.error.path = "";
    out.error.message = "JSON syntax error at " + doc.error.to_string();
    return out;
  }
  return scenario_from_value(*doc.value);
}

JsonValue scenario_to_value(const Scenario& s) {
  JsonObject root;
  json_set(root, "name", JsonValue(s.name));
  json_set(root, "seed", JsonValue(static_cast<double>(s.seed)));
  json_set(root, "duration", JsonValue(s.duration));
  json_set(root, "num_stas", JsonValue(static_cast<double>(s.num_stas)));
  std::string scheme = "carpool";
  switch (s.scheme) {
    case mac::Scheme::kDcf80211: scheme = "dcf"; break;
    case mac::Scheme::kAmpdu: scheme = "ampdu"; break;
    case mac::Scheme::kMuAggregation: scheme = "mu"; break;
    case mac::Scheme::kWiFox: scheme = "wifox"; break;
    case mac::Scheme::kCarpool: scheme = "carpool"; break;
  }
  json_set(root, "scheme", JsonValue(std::move(scheme)));
  json_set(root, "power_magnitude", JsonValue(s.power_magnitude));
  json_set(root, "default_snr_db", JsonValue(s.default_snr_db));
  json_set(root, "probe_interval", JsonValue(s.probe_interval));
  {
    JsonObject lp;
    json_set(lp, "rate_adaptation", JsonValue(s.link_policy.rate_adaptation));
    json_set(lp, "feedback", JsonValue(s.link_policy.feedback));
    json_set(lp, "suspension", JsonValue(s.link_policy.suspension));
    json_set(root, "link_policy", JsonValue(std::move(lp)));
  }
  {
    JsonArray tracks;
    for (const MobilityTrack& t : s.mobility) {
      JsonObject o;
      json_set(o, "sta", JsonValue(static_cast<double>(t.sta)));
      JsonArray wps;
      for (const sim::TimedPoint& tp : t.waypoints) {
        wps.push_back(point_value(tp));
      }
      json_set(o, "waypoints", JsonValue(std::move(wps)));
      tracks.push_back(JsonValue(std::move(o)));
    }
    json_set(root, "mobility", JsonValue(std::move(tracks)));
  }
  {
    JsonArray eps;
    for (const InterferenceEpisode& e : s.interference) {
      JsonObject o;
      json_set(o, "start", JsonValue(e.start));
      json_set(o, "stop", JsonValue(e.stop));
      json_set(o, "snr_penalty_db", JsonValue(e.snr_penalty_db));
      json_set(o, "intensity", JsonValue(e.intensity));
      if (!e.stas.empty()) {
        JsonArray stas;
        for (const std::uint32_t sta : e.stas) {
          stas.push_back(JsonValue(static_cast<double>(sta)));
        }
        json_set(o, "stas", JsonValue(std::move(stas)));
      }
      eps.push_back(JsonValue(std::move(o)));
    }
    json_set(root, "interference", JsonValue(std::move(eps)));
  }
  {
    JsonArray churn;
    for (const ChurnEvent& e : s.churn) {
      JsonObject o;
      json_set(o, "time", JsonValue(e.time));
      json_set(o, "sta", JsonValue(static_cast<double>(e.sta)));
      json_set(o, "event",
               JsonValue(std::string(e.join ? "join" : "leave")));
      churn.push_back(JsonValue(std::move(o)));
    }
    json_set(root, "churn", JsonValue(std::move(churn)));
  }
  {
    JsonArray traffic;
    for (const TrafficPhase& p : s.traffic) {
      JsonObject o;
      json_set(o, "start", JsonValue(p.start));
      json_set(o, "kind", JsonValue(std::string(traffic_kind_name(p.kind))));
      json_set(o, "frame_bytes",
               JsonValue(static_cast<double>(p.frame_bytes)));
      json_set(o, "interval", JsonValue(p.interval));
      traffic.push_back(JsonValue(std::move(o)));
    }
    json_set(root, "traffic", JsonValue(std::move(traffic)));
  }
  if (s.topology) {
    JsonObject o;
    json_set(o, "ap_count",
             JsonValue(static_cast<double>(s.topology->ap_count)));
    json_set(o, "ap_spacing", JsonValue(s.topology->ap_spacing));
    json_set(o, "channel_count",
             JsonValue(static_cast<double>(s.topology->channel_count)));
    json_set(o, "roam_hysteresis_db",
             JsonValue(s.topology->roam_hysteresis_db));
    json_set(o, "roam_interval", JsonValue(s.topology->roam_interval));
    json_set(o, "activity_factor", JsonValue(s.topology->activity_factor));
    json_set(o, "cell_size", JsonValue(s.topology->cell_size));
    json_set(root, "topology", JsonValue(std::move(o)));
  }
  if (!s.snr_trace.empty()) {
    JsonArray samples;
    for (const SnrSample& sample : s.snr_trace.samples()) {
      JsonObject o;
      json_set(o, "t", JsonValue(sample.time));
      json_set(o, "sta", JsonValue(static_cast<double>(sample.sta)));
      json_set(o, "snr_db", JsonValue(sample.snr_db));
      samples.push_back(JsonValue(std::move(o)));
    }
    json_set(root, "snr_trace", JsonValue(std::move(samples)));
  }
  if (s.shadowing) {
    JsonObject o;
    json_set(o, "sigma_db", JsonValue(s.shadowing->sigma_db));
    json_set(o, "decorrelation_distance",
             JsonValue(s.shadowing->decorr_distance));
    json_set(o, "decorrelation_time", JsonValue(s.shadowing->decorr_time));
    json_set(o, "sample_interval", JsonValue(s.shadowing->sample_interval));
    json_set(root, "shadowing", JsonValue(std::move(o)));
  }
  if (s.inject) {
    JsonObject o;
    json_set(o, "frame", JsonValue(static_cast<double>(s.inject->frame)));
    json_set(root, "inject_violation", JsonValue(std::move(o)));
  }
  return JsonValue(std::move(root));
}

std::string scenario_to_json(const Scenario& s) {
  return json_dump(scenario_to_value(s));
}

std::vector<Scenario> default_scenarios() {
  std::vector<Scenario> out;

  {
    Scenario s;
    s.name = "steady";
    s.seed = 42;
    s.duration = 10.0;
    s.num_stas = 8;
    s.link_policy.rate_adaptation = true;
    s.link_policy.feedback = true;
    s.link_policy.suspension = true;
    s.traffic.push_back({0.0, TrafficKind::kCbr, 1200, 4e-3});
    out.push_back(std::move(s));
  }

  {
    Scenario s;
    s.name = "roaming";
    s.seed = 7;
    s.duration = 12.0;
    s.num_stas = 6;
    s.probe_interval = 0.5;
    s.link_policy.rate_adaptation = true;
    s.link_policy.feedback = true;
    s.link_policy.suspension = true;
    // STA 1 walks from near the AP to the far corner and back.
    MobilityTrack t;
    t.sta = 1;
    t.waypoints = {{0.0, {5.0, 4.0}}, {6.0, {9.5, 9.5}}, {12.0, {5.0, 4.0}}};
    s.mobility.push_back(std::move(t));
    s.churn.push_back({4.0, 5, false});
    s.churn.push_back({8.0, 5, true});
    s.traffic.push_back({0.0, TrafficKind::kCbr, 1200, 4e-3});
    s.traffic.push_back({6.0, TrafficKind::kVoip, 120, 1e-2});
    out.push_back(std::move(s));
  }

  {
    Scenario s;
    s.name = "interference_ladder";
    s.seed = 99;
    s.duration = 16.0;
    s.num_stas = 6;
    s.probe_interval = 0.25;
    s.link_policy.rate_adaptation = true;
    s.link_policy.feedback = true;
    s.link_policy.suspension = true;
    // Stepped episode intensities: the cliff invariant compares goodput
    // across adjacent rungs (0 -> 4 -> 8 -> 12 dB penalty).
    s.interference.push_back({4.0, 8.0, 4.0, 0.5, {}});
    s.interference.push_back({8.0, 12.0, 8.0, 1.0, {}});
    s.interference.push_back({12.0, 16.0, 12.0, 1.5, {}});
    s.traffic.push_back({0.0, TrafficKind::kCbr, 1200, 4e-3});
    out.push_back(std::move(s));
  }

  return out;
}

}  // namespace carpool::chaos
