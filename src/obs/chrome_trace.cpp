#include "obs/chrome_trace.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace carpool::obs {
namespace {

constexpr int kPid = 1;
constexpr int kTidSim = 1;
constexpr int kTidWall = 2;
/// Breathing room between re-based wall-clock roots (µs).
constexpr double kRootGapUs = 10.0;

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

void append_args(std::string& out, const SpanRecord& r) {
  out += "\"args\":{\"span\":" + std::to_string(r.id) +
         ",\"parent\":" + std::to_string(r.parent);
  if (r.ids.txop >= 0) out += ",\"txop\":" + std::to_string(r.ids.txop);
  if (r.ids.frame >= 0) out += ",\"frame\":" + std::to_string(r.ids.frame);
  if (r.ids.subframe >= 0) {
    out += ",\"subframe\":" + std::to_string(r.ids.subframe);
  }
  if (r.ids.sta >= 0) out += ",\"sta\":" + std::to_string(r.ids.sta);
  if (!r.outcome.empty()) {
    out += ",\"outcome\":\"";
    append_escaped(out, r.outcome);
    out += '"';
  }
  out += '}';
}

void append_complete_event(std::string& out, const SpanRecord& r, int tid,
                           double ts_us, double dur_us) {
  out += "{\"name\":\"";
  append_escaped(out, r.name);
  out += "\",\"ph\":\"X\",\"pid\":" + std::to_string(kPid) +
         ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + num(ts_us) +
         ",\"dur\":" + num(dur_us) + ",";
  append_args(out, r);
  out += '}';
}

void append_flow_event(std::string& out, char ph, std::uint64_t flow_id,
                       int tid, double ts_us) {
  out += "{\"name\":\"decode\",\"cat\":\"causal\",\"ph\":\"";
  out += ph;
  if (ph == 'f') out += "\",\"bp\":\"e";
  out += "\",\"id\":" + std::to_string(flow_id) +
         ",\"pid\":" + std::to_string(kPid) +
         ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + num(ts_us) + '}';
}

void append_thread_name(std::string& out, int tid, std::string_view name) {
  out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(kPid) + ",\"tid\":" + std::to_string(tid) +
         ",\"args\":{\"name\":\"";
  append_escaped(out, name);
  out += "\"}}";
}

}  // namespace

std::string ChromeTraceWriter::to_json(
    const std::vector<SpanRecord>& records) {
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  by_id.reserve(records.size());
  for (const SpanRecord& r : records) by_id.emplace(r.id, &r);

  // Find each wall-clock record's wall root: the topmost ancestor that is
  // itself on the wall clock. RAII order appends children before parents,
  // so the chain may pass through ids not yet "placed" — this walk only
  // needs the static parent links.
  const auto wall_root_of = [&](const SpanRecord& r) -> const SpanRecord* {
    const SpanRecord* cur = &r;
    while (cur->parent != 0) {
      const auto it = by_id.find(cur->parent);
      if (it == by_id.end() || it->second->on_sim_timeline()) break;
      cur = it->second;
    }
    return cur;
  };

  // Assign each wall root a cursor slot in first-appearance order (the
  // first appearance is usually a leaf of that root, which preserves
  // causal ordering across roots).
  std::unordered_map<std::uint64_t, double> root_ts_us;
  std::vector<const SpanRecord*> roots_in_order;
  for (const SpanRecord& r : records) {
    if (r.on_sim_timeline()) continue;
    const SpanRecord* root = wall_root_of(r);
    if (root_ts_us.find(root->id) == root_ts_us.end()) {
      root_ts_us.emplace(root->id, 0.0);  // placeholder, cursor pass below
      roots_in_order.push_back(root);
    }
  }
  double cursor_us = 0.0;
  for (const SpanRecord* root : roots_in_order) {
    root_ts_us[root->id] = cursor_us;
    cursor_us += static_cast<double>(root->wall_ns) / 1e3 + kRootGapUs;
  }

  std::string out;
  out.reserve(256 + records.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  append_thread_name(out, kTidSim, "MAC (sim time)");
  out += ",\n";
  append_thread_name(out, kTidWall, "PHY decode (wall)");

  std::uint64_t next_flow = 1;
  for (const SpanRecord& r : records) {
    out += ",\n";
    if (r.on_sim_timeline()) {
      append_complete_event(out, r, kTidSim, r.sim_start * 1e6,
                            r.sim_duration * 1e6);
      continue;
    }
    const SpanRecord* root = wall_root_of(r);
    const double base_us = root_ts_us[root->id];
    const double offset_us =
        static_cast<double>(r.wall_start_ns - root->wall_start_ns) / 1e3;
    const double ts_us = base_us + offset_us;
    append_complete_event(out, r, kTidWall, ts_us,
                          static_cast<double>(r.wall_ns) / 1e3);
    // Arrow from the causing sim-time span to this wall-clock root.
    if (&r == root && r.parent != 0) {
      const auto it = by_id.find(r.parent);
      if (it != by_id.end() && it->second->on_sim_timeline()) {
        const std::uint64_t flow = next_flow++;
        out += ",\n";
        append_flow_event(out, 's', flow, kTidSim,
                          it->second->sim_start * 1e6);
        out += ",\n";
        append_flow_event(out, 'f', flow, kTidWall, ts_us);
      }
    }
  }
  out += "\n]}\n";
  return out;
}

bool ChromeTraceWriter::write(const std::string& path,
                              const std::vector<SpanRecord>& records) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_json(records);
  out.close();  // flush here: a failed final write must not count as success
  return static_cast<bool>(out);
}

}  // namespace carpool::obs
