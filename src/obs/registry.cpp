#include "obs/registry.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

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
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("Histogram::percentile: p outside [0, 1]");
  }
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      p * static_cast<double>(n - 1) + 0.5);
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

void Registry::attach_meta(std::string_view name) {
  if (meta_.find(name) != meta_.end()) return;
  if (const MetricMeta* meta = find_metric_meta(name); meta != nullptr) {
    meta_.emplace(std::string(name), meta);
  }
}

Counter& Registry::counter(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
    attach_meta(name);
  }
  return *it->second;
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

Gauge& Registry::gauge(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
    attach_meta(name);
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds, std::string unit) {
  const std::scoped_lock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(
                                             std::move(bounds),
                                             std::move(unit)))
             .first;
    attach_meta(name);
  }
  return *it->second;
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
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      it = counters_.emplace(name, std::make_unique<Counter>()).first;
      attach_meta(name);
    }
    // Registration is carried over even at zero so a merged export has the
    // same key set as a serial run that executed the same call sites.
    const std::uint64_t v = c->value();
    if (v != 0) it->second->add(v);
  }
  for (const auto& [name, g] : other.gauges_) {
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
      attach_meta(name);
    }
    it->second->set(g->value());
  }
  for (const auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_
               .emplace(name, std::make_unique<Histogram>(h->bounds(),
                                                          h->unit()))
               .first;
      attach_meta(name);
    }
    it->second->merge_from(*h);
  }
}

const MetricMeta* Registry::metric_meta(std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = meta_.find(name);
  return it == meta_.end() ? nullptr : it->second;
}

MetricsSnapshot Registry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  MetricsSnapshot snap;
  const auto meta_for = [this](const std::string& name) -> const MetricMeta* {
    const auto it = meta_.find(name);
    return it == meta_.end() ? nullptr : it->second;
  };
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value(), meta_for(name)});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value(), meta_for(name)});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    const std::uint64_t n = h->count();
    MetricsSnapshot::HistogramRow& row = snap.histograms.emplace_back();
    row.name = name;
    row.unit = h->unit();
    row.count = n;
    row.sum = h->sum();
    row.mean = h->mean();
    row.min = n == 0 ? 0.0 : h->min();
    row.max = n == 0 ? 0.0 : h->max();
    row.p50 = h->percentile(0.5);
    row.p99 = h->percentile(0.99);
    row.meta = meta_for(name);
    row.bounds = h->bounds();
    row.buckets.reserve(row.bounds.size() + 1);
    for (std::size_t i = 0; i <= row.bounds.size(); ++i) {
      row.buckets.push_back(h->bucket_count(i));
    }
  }
  return snap;
}

void Registry::restore(const MetricsSnapshot& snap) {
  for (const auto& row : snap.counters) {
    // Register even zero-valued counters: key-set parity with the
    // snapshotted run keeps the fingerprint input and export schema
    // identical after a resume.
    Counter& c = counter(row.name);
    if (row.value != 0) c.add(row.value);
  }
  for (const auto& row : snap.gauges) {
    gauge(row.name).set(row.value);
  }
  for (const auto& row : snap.histograms) {
    histogram(row.name, row.bounds, row.unit)
        .restore_add(row.buckets, row.count, row.sum, row.min, row.max);
  }
}

std::uint64_t Registry::fingerprint() const {
  const std::scoped_lock lock(mutex_);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix_byte = [&h](std::uint8_t b) {
    h = (h ^ b) * 0x100000001b3ULL;  // FNV-1a prime
  };
  const auto mix_str = [&](std::string_view s) {
    for (const char c : s) mix_byte(static_cast<std::uint8_t>(c));
    mix_byte(0);  // terminator: "ab"+"c" must differ from "a"+"bc"
  };
  const auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
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
    mix_u64(c->value());
  }
  for (const auto& [name, g] : gauges_) {
    if (is_ops(name)) continue;
    mix_str(name);
    double v = g->value();
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mix_u64(bits);
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

bool Registry::write_json(const std::string& path,
                          std::string_view bench) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_json(bench);
  out.close();  // flush here: a failed final write must not count as success
  return static_cast<bool>(out);
}

void Registry::reset_values() {
  const std::scoped_lock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace carpool::obs
