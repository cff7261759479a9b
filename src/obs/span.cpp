#include "obs/span.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/hash.hpp"
#include "obs/registry.hpp"

namespace carpool::obs {
namespace {

thread_local SpanCollector* t_current_collector = nullptr;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

SpanCollector::ScopedCurrent::ScopedCurrent(SpanCollector& collector) noexcept
    : previous_(t_current_collector) {
  t_current_collector = &collector;
}

SpanCollector::ScopedCurrent::~ScopedCurrent() {
  t_current_collector = previous_;
}

SpanCollector* SpanCollector::current_impl() noexcept {
  return t_current_collector;
}

std::uint64_t SpanCollector::emit(SpanRecord record) {
  if (max_records_ != 0 && records_.size() >= max_records_) {
    ++dropped_;
    Registry::current().counter("obs.spans_dropped").add();
    return 0;
  }
  if (record.id == 0) record.id = alloc_id();
  if (record.parent == 0) record.parent = open_span();
  const std::uint64_t id = record.id;
  records_.push_back(std::move(record));
  return id;
}

void SpanCollector::pop_open(std::uint64_t id) {
  // Spans are scoped objects, so destruction order normally makes this the
  // innermost entry; erase by value anyway so a moved/reordered span cannot
  // corrupt the stack.
  const auto it = std::find(stack_.rbegin(), stack_.rend(), id);
  if (it != stack_.rend()) stack_.erase(std::next(it).base());
}

void SpanCollector::merge_from(const SpanCollector& other) {
  if (&other == this) return;
  // Remap the other collector's ids past this one's allocation watermark.
  // Ids are dense per collector (alloc_id starts at 1), so offsetting by
  // the watermark keeps ids unique and preserves every parent link; merging
  // shards in job-index order then reproduces the serial id sequence.
  const std::uint64_t offset = allocated_;
  records_.reserve(records_.size() + other.records_.size());
  for (const SpanRecord& r : other.records_) {
    if (max_records_ != 0 && records_.size() >= max_records_) {
      ++dropped_;
      Registry::current().counter("obs.spans_dropped").add();
      continue;
    }
    SpanRecord copy = r;
    copy.id += offset;
    if (copy.parent != 0) copy.parent += offset;
    records_.push_back(std::move(copy));
  }
  allocated_ += other.allocated_;
  dropped_ += other.dropped_;
}

std::uint64_t SpanCollector::fingerprint() const {
  // Strings fold a 0xFF terminator so "ab","c" != "a","bc". Doubles fold
  // their IEEE bit pattern: +0.0 and -0.0 differ, which is fine for a
  // determinism canary (a deterministic workload reproduces the sign too).
  constexpr std::uint8_t kTerminator[] = {0xFF};
  const auto str = [&](std::string_view s, std::uint64_t h) {
    return fnv1a64(kTerminator, fnv1a64(s, h));
  };
  const auto i64 = [](std::int64_t v, std::uint64_t h) {
    return fnv1a64_u64(static_cast<std::uint64_t>(v), h);
  };
  const auto f64 = [](double v, std::uint64_t h) {
    return fnv1a64_u64(std::bit_cast<std::uint64_t>(v), h);
  };
  std::uint64_t h = kFnv1aBasis;
  for (const SpanRecord& r : records_) {
    h = fnv1a64_u64(r.id, h);
    h = fnv1a64_u64(r.parent, h);
    h = str(r.name, h);
    h = i64(r.ids.txop, h);
    h = i64(r.ids.frame, h);
    h = i64(r.ids.subframe, h);
    h = i64(r.ids.sta, h);
    h = f64(r.sim_start, h);
    h = f64(r.sim_duration, h);
    // wall_start_ns / wall_ns deliberately excluded: wall clock varies run
    // to run, and the fingerprint must match at any thread count.
    h = str(r.outcome, h);
  }
  return h;
}

void SpanCollector::clear() {
  records_.clear();
  stack_.clear();
  allocated_ = 0;
  dropped_ = 0;
}

Span::Span(std::string_view name) noexcept : collector_(SpanCollector::current()) {
  if (collector_ == nullptr) return;
  record_.id = collector_->alloc_id();
  record_.parent = collector_->open_span();
  record_.name = name;
  collector_->push_open(record_.id);
  start_ns_ = now_ns();
}

Span::~Span() {
  if (collector_ == nullptr) return;
  collector_->pop_open(record_.id);
  if (has_sim_interval_) {
    // Sim-time spans stay off the wall clock entirely so fingerprinted
    // output is reproducible.
    record_.wall_start_ns = 0;
    record_.wall_ns = 0;
  } else {
    record_.wall_start_ns = start_ns_;
    record_.wall_ns = now_ns() - start_ns_;
  }
  collector_->emit(std::move(record_));
}

Span& Span::sim_interval(double start, double duration) noexcept {
  if (collector_ != nullptr) {
    record_.sim_start = start;
    record_.sim_duration = duration;
    has_sim_interval_ = true;
  }
  return *this;
}

Span& Span::ids(const SpanIds& ids) noexcept {
  if (collector_ != nullptr) record_.ids = ids;
  return *this;
}

Span& Span::outcome(std::string_view outcome) {
  if (collector_ != nullptr) record_.outcome = outcome;
  return *this;
}

}  // namespace carpool::obs
