#include "obs/stats_writer.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>

namespace carpool::obs {
namespace {

/// RFC-4180 quoting: wrap in quotes when the cell contains a comma,
/// quote, or newline; double embedded quotes.
void append_cell(std::string& out, std::string_view s) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) {
    out += s;
    return;
  }
  out += '"';
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

void append_num(std::string& out, double v) {
  if (!std::isfinite(v)) return;  // empty cell
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

}  // namespace

std::string StatsWriter::to_csv(const MetricsSnapshot& snap) {
  std::string out =
      "metric,type,layer,unit,value,count,sum,mean,min,max,p50,p99,"
      "description\n";
  const auto meta_cells = [&out](const MetricMeta* meta,
                                 std::string_view fallback_unit) {
    append_cell(out, meta != nullptr ? meta->layer : std::string_view{});
    out += ',';
    append_cell(out, meta != nullptr ? meta->unit : fallback_unit);
    out += ',';
  };
  const auto description_cell = [&out](const MetricMeta* meta) {
    append_cell(out, meta != nullptr ? meta->description
                                     : std::string_view{});
    out += '\n';
  };
  for (const auto& c : snap.counters) {
    append_cell(out, c.name);
    out += ",counter,";
    meta_cells(c.meta, "count");
    out += std::to_string(c.value);
    out += ",,,,,,,,";  // count..p99 empty for scalars
    description_cell(c.meta);
  }
  for (const auto& g : snap.gauges) {
    append_cell(out, g.name);
    out += ",gauge,";
    meta_cells(g.meta, {});
    append_num(out, g.value);
    out += ",,,,,,,,";
    description_cell(g.meta);
  }
  for (const auto& h : snap.histograms) {
    append_cell(out, h.name);
    out += ",histogram,";
    meta_cells(h.meta, h.unit);
    out += ',';  // value empty for distributions
    out += std::to_string(h.count);
    out += ',';
    append_num(out, h.sum);
    out += ',';
    append_num(out, h.mean);
    out += ',';
    append_num(out, h.min);
    out += ',';
    append_num(out, h.max);
    out += ',';
    append_num(out, h.p50);
    out += ',';
    append_num(out, h.p99);
    out += ',';
    description_cell(h.meta);
  }
  return out;
}

bool StatsWriter::write_csv(const std::string& path,
                            const Registry& registry) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_csv(registry.snapshot());
  out.close();  // flush here: a failed final write must not count as success
  return static_cast<bool>(out);
}

}  // namespace carpool::obs
