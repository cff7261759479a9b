#include "chaos/snr_trace.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>

#include "common/json.hpp"

namespace carpool::chaos {
namespace {

/// Walk `text` line by line, handing each non-blank, non-comment line to
/// `fn(line_text, line_number)`; stops early when `fn` returns false.
template <class Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    ++line_no;
    const std::size_t nl = text.find('\n', pos);
    std::string_view line = nl == std::string_view::npos
                                ? text.substr(pos)
                                : text.substr(pos, nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' ||
            line.back() == '\t')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    if (line.empty() || line.front() == '#') continue;
    if (!fn(line, line_no)) return;
  }
}

bool parse_double(std::string_view field, double& out) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end && std::isfinite(out);
}

/// Shared by both readers: validates one row into `out`; returns a
/// non-empty message on failure. The sta bound keeps its cast defined.
std::string to_sample(double time, double sta, double snr, SnrSample& out) {
  if (!std::isfinite(time) || time < 0.0) {
    return "time must be a finite non-negative number";
  }
  if (sta < 1.0 || sta != std::floor(sta) || sta > 1e9) {
    return "sta must be an integer >= 1";
  }
  if (!std::isfinite(snr)) return "snr_db must be finite";
  out = {time, static_cast<std::uint32_t>(sta), snr};
  return {};
}

}  // namespace

std::string SnrTraceError::to_string() const {
  return line > 0 ? "line " + std::to_string(line) + ": " + message
                  : message;
}

SnrTrace::SnrTrace(std::vector<SnrSample> samples)
    : samples_(std::move(samples)) {
  std::stable_sort(samples_.begin(), samples_.end(),
                   [](const SnrSample& a, const SnrSample& b) {
                     return a.time < b.time;
                   });
  for (const SnrSample& s : samples_) {
    per_sta_[s.sta].emplace_back(s.time, s.snr_db);
    max_sta_ = std::max(max_sta_, s.sta);
  }
}

double SnrTrace::snr_at(std::uint32_t sta, double time,
                        double fallback_db) const {
  const auto it = per_sta_.find(sta);
  if (it == per_sta_.end()) return fallback_db;
  const auto& series = it->second;
  // Last sample with sample.time <= time.
  auto up = std::upper_bound(
      series.begin(), series.end(), time,
      [](double t, const std::pair<double, double>& s) {
        return t < s.first;
      });
  if (up == series.begin()) return fallback_db;
  return std::prev(up)->second;
}

double SnrTrace::mean_snr_at(double time, double fallback_db) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [sta, series] : per_sta_) {
    auto up = std::upper_bound(
        series.begin(), series.end(), time,
        [](double t, const std::pair<double, double>& s) {
          return t < s.first;
        });
    if (up == series.begin()) continue;
    sum += std::prev(up)->second;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : fallback_db;
}

SnrTraceParseResult snr_trace_from_csv(std::string_view text) {
  SnrTraceParseResult out;
  std::vector<SnrSample> samples;
  bool failed = false;
  for_each_line(text, [&](std::string_view line, std::size_t line_no) {
    // Split into exactly three comma-separated fields.
    std::array<std::string_view, 3> fields;
    std::size_t count = 0;
    std::size_t pos = 0;
    while (count < 3) {
      const std::size_t comma = line.find(',', pos);
      std::string_view f = comma == std::string_view::npos
                               ? line.substr(pos)
                               : line.substr(pos, comma - pos);
      while (!f.empty() && (f.front() == ' ' || f.front() == '\t')) {
        f.remove_prefix(1);
      }
      while (!f.empty() && (f.back() == ' ' || f.back() == '\t')) {
        f.remove_suffix(1);
      }
      fields[count++] = f;
      if (comma == std::string_view::npos) break;
      pos = comma + 1;
    }
    if (count != 3 || line.find(',', pos) != std::string_view::npos) {
      out.error = {"expected 3 comma-separated fields (time,sta,snr_db)",
                   line_no};
      failed = true;
      return false;
    }
    double time = 0.0;
    double sta = 0.0;
    double snr = 0.0;
    if (!parse_double(fields[0], time) || !parse_double(fields[1], sta) ||
        !parse_double(fields[2], snr)) {
      // A non-numeric first row is a header; skip it once at the top.
      if (samples.empty() && !parse_double(fields[0], time)) return true;
      out.error = {"expected numeric fields (time,sta,snr_db)", line_no};
      failed = true;
      return false;
    }
    SnrSample sample;
    if (std::string msg = to_sample(time, sta, snr, sample); !msg.empty()) {
      out.error = {std::move(msg), line_no};
      failed = true;
      return false;
    }
    samples.push_back(sample);
    return true;
  });
  if (failed) return out;
  if (samples.empty()) {
    out.error = {"capture log holds no samples", 0};
    return out;
  }
  out.trace = SnrTrace(std::move(samples));
  return out;
}

SnrTraceParseResult snr_trace_from_jsonl(std::string_view text) {
  SnrTraceParseResult out;
  std::vector<SnrSample> samples;
  bool failed = false;
  for_each_line(text, [&](std::string_view line, std::size_t line_no) {
    const JsonParseResult doc = json_parse(line);
    if (!doc.ok()) {
      out.error = {"bad JSON object: " + doc.error.to_string(), line_no};
      failed = true;
      return false;
    }
    if (!doc.value->is_object()) {
      out.error = {"expected a JSON object per line", line_no};
      failed = true;
      return false;
    }
    const JsonValue* t = doc.value->find("t");
    if (t == nullptr) t = doc.value->find("time");
    const JsonValue* sta = doc.value->find("sta");
    const JsonValue* snr = doc.value->find("snr_db");
    if (snr == nullptr) snr = doc.value->find("snr");
    if (t == nullptr || !t->is_number() || sta == nullptr ||
        !sta->is_number() || snr == nullptr || !snr->is_number()) {
      out.error = {"expected numeric fields t/time, sta, snr_db/snr",
                   line_no};
      failed = true;
      return false;
    }
    SnrSample sample;
    if (std::string msg = to_sample(t->as_number(), sta->as_number(),
                                    snr->as_number(), sample);
        !msg.empty()) {
      out.error = {std::move(msg), line_no};
      failed = true;
      return false;
    }
    samples.push_back(sample);
    return true;
  });
  if (failed) return out;
  if (samples.empty()) {
    out.error = {"capture log holds no samples", 0};
    return out;
  }
  out.trace = SnrTrace(std::move(samples));
  return out;
}

SnrTraceParseResult snr_trace_from_text(std::string_view text) {
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') continue;
    if (c == '#') {
      // Comment prefix — skip to the end of this line and keep sniffing.
      const std::size_t nl = text.find('\n');
      if (nl == std::string_view::npos) break;
      return snr_trace_from_text(text.substr(nl + 1));
    }
    return c == '{' ? snr_trace_from_jsonl(text) : snr_trace_from_csv(text);
  }
  SnrTraceParseResult out;
  out.error = {"capture log holds no samples", 0};
  return out;
}

}  // namespace carpool::chaos
