#include "obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"

namespace carpool::obs {
namespace {

void atomic_fetch_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_fetch_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds, std::string unit)
    : bounds_(std::move(upper_bounds)),
      unit_(std::move(unit)),
      buckets_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be sorted ascending");
  }
}

void Histogram::record(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_fetch_min(min_, v);
  atomic_fetch_max(max_, v);
}

double Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  const std::uint64_t rank = nearest_rank(p, n);
  if (n == 0) return 0.0;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += bucket_count(i);
    if (seen > rank) {
      return i < bounds_.size() ? bounds_[i] : max();
    }
  }
  return max();
}

void Histogram::merge_from(const Histogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::invalid_argument(
        "Histogram::merge_from: bucket bounds differ");
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  const std::uint64_t n = other.count();
  if (n != 0) {
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
    atomic_fetch_min(min_, other.min());
    atomic_fetch_max(max_, other.max());
  }
}

void Histogram::restore_add(const std::vector<std::uint64_t>& buckets,
                            std::uint64_t count, double sum, double min,
                            double max) {
  if (buckets.size() != buckets_.size()) {
    throw std::invalid_argument(
        "Histogram::restore_add: bucket count mismatch");
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets[i] != 0) {
      buckets_[i].fetch_add(buckets[i], std::memory_order_relaxed);
    }
  }
  if (count != 0) {
    count_.fetch_add(count, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
    atomic_fetch_min(min_, min);
    atomic_fetch_max(max_, max);
  }
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

namespace {
/// Innermost ScopedCurrent override on this thread; null = use global().
thread_local Registry* t_current_registry = nullptr;
}  // namespace

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Registry& Registry::current() noexcept {
  return t_current_registry != nullptr ? *t_current_registry : global();
}

Registry::ScopedCurrent::ScopedCurrent(Registry& registry) noexcept
    : previous_(t_current_registry) {
  t_current_registry = &registry;
}

Registry::ScopedCurrent::~ScopedCurrent() {
  t_current_registry = previous_;
}

template <typename Metrics, typename Make>
auto& Registry::find_or_create(Metrics& metrics, std::string_view name,
                               Make make) {
  auto it = metrics.find(name);
  if (it == metrics.end()) {
    it = metrics.emplace(std::string(name), make()).first;
    if (meta_.find(name) == meta_.end()) {
      if (const MetricMeta* meta = find_metric_meta(name); meta != nullptr) {
        meta_.emplace(std::string(name), meta);
      }
    }
  }
  return *it->second;
}

Counter& Registry::counter(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  return find_or_create(counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

Gauge& Registry::gauge(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  return find_or_create(gauges_, name,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram& Registry::histogram(std::string_view name,
                               const std::vector<double>& bounds,
                               std::string_view unit) {
  const std::scoped_lock lock(mutex_);
  // Bounds and unit are copied only to register: the lookup every
  // OBS_SCOPED_TIMER makes copies nothing.
  return find_or_create(histograms_, name, [&] {
    return std::make_unique<Histogram>(bounds, std::string(unit));
  });
}

Histogram& Registry::latency_histogram(std::string_view name) {
  // 250 ns .. 1 s in 1-2.5-5 decades: fine enough to separate a cache miss
  // from a Viterbi decode, coarse enough that every export stays small.
  static const std::vector<double> kLatencyBoundsNs{
      250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5,
      2.5e5, 5e5,   1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 1e9};
  return histogram(name, kLatencyBoundsNs, "ns");
}

void Registry::merge_from(const Registry& other) {
  if (&other == this) return;
  const std::scoped_lock lock(mutex_, other.mutex_);
  for (const auto& [name, c] : other.counters_) {
    // Registration is carried over even at zero so a merged export has the
    // same key set as a serial run that executed the same call sites.
    Counter& mine = find_or_create(counters_, name,
                                   [] { return std::make_unique<Counter>(); });
    const std::uint64_t v = c->value();
    if (v != 0) mine.add(v);
  }
  for (const auto& [name, g] : other.gauges_) {
    find_or_create(gauges_, name, [] { return std::make_unique<Gauge>(); })
        .set(g->value());
  }
  for (const auto& [name, h] : other.histograms_) {
    find_or_create(histograms_, name, [&h = h] {
      return std::make_unique<Histogram>(h->bounds(), h->unit());
    }).merge_from(*h);
  }
}

const MetricMeta* Registry::metric_meta(std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = meta_.find(name);
  return it == meta_.end() ? nullptr : it->second;
}

bool Registry::restore(const JsonValue& exported, std::string& error) {
  // Read and check the whole document before touching any metric.
  struct HistogramState {
    std::string name;
    std::string unit;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramState> histograms;
  JsonReader in;
  std::uint64_t version = 0;
  if (read_uint(in, exported, "", "schema_version", version, true) &&
      version != 2) {
    in.fail("schema_version", "expected 2");
  }
  const auto section = [&](const char* title) {
    return read_member(in, exported, "", title, JsonValue::Kind::kObject,
                       true);
  };
  if (const JsonValue* metrics = section("counters")) {
    for (const auto& [name, v] : metrics->as_object()) {
      read_uint(in, *metrics, "counters.", name,
                counters.emplace_back(name, 0).second, true);
    }
  }
  if (const JsonValue* metrics = section("gauges")) {
    for (const auto& [name, v] : metrics->as_object()) {
      read_number(in, *metrics, "gauges.", name,
                  gauges.emplace_back(name, 0.0).second, true);
    }
  }
  if (const JsonValue* metrics = section("histograms")) {
    for (const auto& [name, h] : metrics->as_object()) {
      const std::string path = "histograms." + name + ".";
      HistogramState& st = histograms.emplace_back();
      st.name = name;
      read_string(in, h, path, "unit", st.unit);
      read_uint(in, h, path, "count", st.count, true);
      read_number(in, h, path, "sum", st.sum, true);
      if (st.count != 0) {  // an empty histogram exports null min and max
        read_number(in, h, path, "min", st.min, true);
        read_number(in, h, path, "max", st.max, true);
      }
      const JsonValue* buckets =
          read_member(in, h, path, "buckets", JsonValue::Kind::kArray, true);
      if (buckets == nullptr) continue;
      const JsonArray& rows = buckets->as_array();
      if (rows.empty()) in.fail(path + "buckets", "expected a +Inf bucket");
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::string at = path + "buckets[" + std::to_string(i) + "].";
        read_uint(in, rows[i], at, "count", st.buckets.emplace_back(), true);
        if (i + 1 == rows.size()) {
          std::string le;
          if (read_string(in, rows[i], at, "le", le, true) && le != "+Inf") {
            in.fail(at + "le", "expected \"+Inf\"");
          }
        } else if (read_number(in, rows[i], at, "le",
                               st.bounds.emplace_back(), true) &&
                   i > 0 && st.bounds[i] < st.bounds[i - 1]) {
          in.fail(at + "le", "bounds must be sorted ascending");
        }
      }
    }
  }
  if (in.failed) {
    error = in.error.to_string();
    return false;
  }

  const std::scoped_lock lock(mutex_);
  // A histogram keeps the bounds it was registered with: refuse other
  // bounds for a registered name, or for a name seen twice.
  std::map<std::string_view, const std::vector<double>*> shapes;
  for (const auto& [name, h] : histograms_) shapes.emplace(name, &h->bounds());
  for (const HistogramState& st : histograms) {
    const auto [it, fresh] = shapes.emplace(st.name, &st.bounds);
    if (!fresh && *it->second != st.bounds) {
      error = "histograms." + st.name + ": bounds differ from the " +
              "registered histogram's";
      return false;
    }
  }
  for (const auto& [name, value] : counters) {
    find_or_create(counters_, name, [] { return std::make_unique<Counter>(); })
        .add(value);
  }
  for (const auto& [name, value] : gauges) {
    find_or_create(gauges_, name, [] { return std::make_unique<Gauge>(); })
        .set(value);
  }
  for (const HistogramState& st : histograms) {
    find_or_create(histograms_, st.name, [&st] {
      return std::make_unique<Histogram>(st.bounds, st.unit);
    }).restore_add(st.buckets, st.count, st.sum, st.min, st.max);
  }
  return true;
}

std::uint64_t Registry::fingerprint() const {
  const std::scoped_lock lock(mutex_);
  std::uint64_t h = kFnv1aBasis;
  const auto mix_str = [&h](std::string_view s) {
    // terminator: "ab"+"c" must differ from "a"+"bc"
    constexpr std::uint8_t kTerminator[] = {0};
    h = fnv1a64(kTerminator, fnv1a64(s, h));
  };
  // "ops" metrics (retry/quarantine/checkpoint bookkeeping) count
  // wall-clock accidents, not simulation events: a retried shard or a
  // resumed campaign must fingerprint identically to a clean run.
  const auto is_ops = [this](const std::string& name) {
    const auto it = meta_.find(name);
    return it != meta_.end() && it->second->layer == std::string_view("ops");
  };
  for (const auto& [name, c] : counters_) {
    if (is_ops(name)) continue;
    mix_str(name);
    h = fnv1a64_u64(c->value(), h);
  }
  for (const auto& [name, g] : gauges_) {
    if (is_ops(name)) continue;
    mix_str(name);
    h = fnv1a64_u64(std::bit_cast<std::uint64_t>(g->value()), h);
  }
  return h;
}

std::string Registry::to_json(std::string_view bench) const {
  const std::scoped_lock lock(mutex_);
  std::string out = "{\n  \"schema_version\": 2";
  if (!bench.empty()) out += ",\n  \"bench\": " + json_quote(bench);
  // One metric per line; counters print as exact integers.
  const auto section = [&out](const char* title, const auto& metrics,
                              const auto& value_text) {
    out += std::string(",\n  \"") + title + "\": {";
    const char* sep = "\n    ";
    for (const auto& [name, metric] : metrics) {
      out += sep + json_quote(name) + ": " + value_text(*metric);
      sep = ",\n    ";
    }
    out += metrics.empty() ? "}" : "\n  }";
  };
  section("counters", counters_,
          [](const Counter& c) { return std::to_string(c.value()); });
  section("gauges", gauges_,
          [](const Gauge& g) { return json_number(g.value()); });
  section("histograms", histograms_, [](const Histogram& h) {
    std::string text = "{";
    if (!h.unit().empty()) text += "\"unit\": " + json_quote(h.unit()) + ", ";
    text += "\"count\": " + std::to_string(h.count()) +
            ", \"sum\": " + json_number(h.sum()) +
            ", \"min\": " + json_number(h.min()) +
            ", \"max\": " + json_number(h.max()) +
            ", \"mean\": " + json_number(h.mean()) +
            ", \"p50\": " + json_number(h.percentile(0.5)) +
            ", \"p99\": " + json_number(h.percentile(0.99)) +
            ", \"buckets\": [";
    const auto& bounds = h.bounds();
    for (std::size_t i = 0; i <= bounds.size(); ++i) {
      if (i > 0) text += ", ";
      text += "{\"le\": " +
              (i < bounds.size() ? json_number(bounds[i]) : "\"+Inf\"") +
              ", \"count\": " + std::to_string(h.bucket_count(i)) + "}";
    }
    return text + "]}";
  });
  // schema_version 2: per-metric unit / layer / description resolved from
  // the static catalog (metrics_meta.hpp). Uncataloged metrics (ad-hoc
  // test names) simply have no entry here.
  section("meta", meta_, [](const MetricMeta& m) {
    return "{\"unit\": " + json_quote(m.unit) +
           ", \"layer\": " + json_quote(m.layer) +
           ", \"description\": " + json_quote(m.description) + "}";
  });
  return out + "\n}\n";
}

std::string Registry::to_text() const {
  const std::scoped_lock lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << name << " = " << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    os << name << " = " << g->value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << name << ": count=" << h->count() << " mean=" << h->mean()
       << " p50=" << h->percentile(0.5) << " p99=" << h->percentile(0.99)
       << " max=" << (h->count() ? h->max() : 0.0);
    if (!h->unit().empty()) os << ' ' << h->unit();
    os << '\n';
  }
  return os.str();
}

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

/// A CSV number: %.9g, or an empty cell when non-finite.
std::string csv_number(double v) {
  if (!std::isfinite(v)) return {};
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << text;
  out.close();  // flush here: a failed final write must not count as success
  return static_cast<bool>(out);
}

}  // namespace

std::string Registry::to_csv() const {
  const std::scoped_lock lock(mutex_);
  std::string out =
      "metric,type,layer,unit,value,count,sum,mean,min,max,p50,p99,"
      "description\n";
  // `cells` holds the value..p99 columns.
  const auto row = [&](const std::string& name, std::string_view type,
                       std::string_view fallback_unit,
                       const std::string& cells) {
    const auto it = meta_.find(name);
    const MetricMeta* meta = it == meta_.end() ? nullptr : it->second;
    append_cell(out, name);
    out += ',';
    out += type;
    out += ',';
    append_cell(out, meta != nullptr ? meta->layer : std::string_view{});
    out += ',';
    append_cell(out, meta != nullptr ? meta->unit : fallback_unit);
    out += ',';
    out += cells;
    out += ',';
    append_cell(out, meta != nullptr ? meta->description : std::string_view{});
    out += '\n';
  };
  for (const auto& [name, c] : counters_) {
    row(name, "counter", "count", std::to_string(c->value()) + ",,,,,,,");
  }
  for (const auto& [name, g] : gauges_) {
    row(name, "gauge", {}, csv_number(g->value()) + ",,,,,,,");
  }
  for (const auto& [name, h] : histograms_) {
    const bool empty = h->count() == 0;
    std::string cells = ",";  // no value: the distribution columns follow
    cells += std::to_string(h->count());
    for (const double v : {h->sum(), h->mean(), empty ? 0.0 : h->min(),
                           empty ? 0.0 : h->max(), h->percentile(0.5),
                           h->percentile(0.99)}) {
      cells += ',';
      cells += csv_number(v);
    }
    row(name, "histogram", h->unit(), cells);
  }
  return out;
}

bool Registry::write_json(const std::string& path,
                          std::string_view bench) const {
  return write_file(path, to_json(bench));
}

bool Registry::write_csv(const std::string& path) const {
  return write_file(path, to_csv());
}

void Registry::reset_values() {
  const std::scoped_lock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace carpool::obs
