#include "par/par.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"

namespace carpool::par {

namespace {

/// One stateless splitmix64 step over `x`: mix64(x + golden gamma).
/// Deterministic in its inputs.
std::uint64_t splitmix_step(std::uint64_t x) noexcept { return splitmix64(x); }

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t resolve_threads(long long cli_value) noexcept {
  if (cli_value == 0) return hardware_threads();
  if (cli_value > 0) return static_cast<std::size_t>(cli_value);
  const char* env = std::getenv("CARPOOL_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long long parsed = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || parsed < 0) {
    // Garbage or negative: fall back to serial, but say so — a typo'd
    // CARPOOL_THREADS silently serializing a campaign is a nasty way to
    // lose a night of throughput. Warn once per process and leave a
    // breadcrumb counter for post-hoc triage.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "carpool: ignoring invalid CARPOOL_THREADS=\"%s\" "
                   "(want a non-negative integer); running serial\n",
                   env);
    }
    try {
      obs::Registry::current().counter("par.threads_env_invalid").add();
    } catch (...) {
      // resolve_threads is noexcept; a failed allocation in the counter
      // map must not terminate — the stderr warning already landed.
    }
    return 1;
  }
  return parsed == 0 ? hardware_threads()
                     : static_cast<std::size_t>(parsed);
}

FaultKind FaultPlan::at(std::size_t shard,
                        std::size_t attempt) const noexcept {
  for (const Entry& e : entries) {
    if (e.shard == shard && e.attempt == attempt) return e.kind;
  }
  return FaultKind::kNone;
}

double RetryPolicy::backoff_ms(std::size_t shard,
                               std::size_t attempt) noexcept {
  if (attempt == 0) return 0.0;
  const double exp = kBackoffBaseMs * std::ldexp(1.0, static_cast<int>(
                         std::min<std::size_t>(attempt - 1, 30)));
  const std::uint64_t draw =
      splitmix_step(kBackoffSeed ^ splitmix_step(shard + 1) ^
                    splitmix_step(attempt * 0x9e37ULL));
  const double jitter = 0.5 + static_cast<double>(draw >> 11) * 0x1.0p-53;
  return std::min(exp * jitter, kBackoffMaxMs);
}

void ShardRun::rethrow(std::size_t index) const {
  if (exception != nullptr) std::rethrow_exception(exception);
  throw std::runtime_error("shard " + std::to_string(index) +
                           " failed after " + std::to_string(attempts) +
                           " attempts: " + error);
}

void DegradedReport::record(std::size_t index, const ShardRun& shard) {
  const std::size_t extra = shard.attempts > 1 ? shard.attempts - 1 : 0;
  retries += extra;
  if (!shard.ok) quarantined.push_back({index, shard.attempts, shard.error});

  obs::Registry& ambient = obs::Registry::current();
  if (extra > 0) ambient.counter("par.shard_retry").add(extra);
  if (!shard.ok) ambient.counter("par.shard_quarantine").add();
}

std::string DegradedReport::to_string() const {
  std::string out = "degraded: " + std::to_string(quarantined.size()) +
                    " shard(s) quarantined, " + std::to_string(retries) +
                    " retr" + (retries == 1 ? "y" : "ies");
  for (const QuarantinedShard& q : quarantined) {
    out += "\n  shard " + std::to_string(q.index) + " after " +
           std::to_string(q.attempts) + " attempt(s): " + q.error;
  }
  return out;
}

namespace detail {

void backoff_sleep(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace detail

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = num_threads == 0 ? 1 : num_threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::submit(std::function<void()> job) {
  {
    const std::scoped_lock lock(mutex_);
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    const std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock,
                    [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      job();
    } catch (...) {
      const std::scoped_lock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      const std::scoped_lock lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace carpool::par
