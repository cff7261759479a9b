// Heap-allocation guard for the MAC TXOP loop (mac::DomainSim::run).
//
// This binary replaces the global operator new/delete with counting
// versions, so it is its own executable: no other test sees the
// replacement. The loop reuses its aggregate, snapshot and scratch
// buffers across TXOPs, so a longer run may only add the allocations
// that grow with traffic (std::deque blocks as frames pass through the
// queues), well under one per judgement.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "mac/simulator.hpp"
#include "traffic/generators.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace carpool::mac {
namespace {

struct RunCount {
  std::uint64_t allocations = 0;
  std::uint64_t judgements = 0;
};

/// A `steady`-shaped domain: 8 Carpool STAs, CBR 1200 B every 4 ms each,
/// the full link policy. Counts only what run() allocates.
RunCount run_steady(double duration) {
  SimConfig cfg;
  cfg.scheme = Scheme::kCarpool;
  cfg.num_stas = 8;
  cfg.duration = duration;
  cfg.seed = 42;
  cfg.sta_snr_db = {16, 18, 20, 22, 24, 26, 28, 30};
  cfg.link_policy.rate_adaptation = true;
  cfg.link_policy.feedback = true;
  cfg.link_policy.suspension = true;
  std::uint64_t judged = 0;
  cfg.observer = [&judged](const SimStepView& view) {
    judged = view.frames_judged;
    return true;
  };
  DomainSim sim(std::move(cfg));
  for (NodeId sta = 1; sta <= 8; ++sta) {
    sim.add_flow(traffic::make_cbr_flow(sta, 1200, 0.004));
  }
  const std::uint64_t before = g_allocations.load();
  (void)sim.run();
  return {g_allocations.load() - before, judged};
}

TEST(TxopAllocations, SteadyStateLoopDoesNotAllocate) {
  const RunCount short_run = run_steady(10.0);
  const RunCount long_run = run_steady(20.0);
  ASSERT_GT(long_run.judgements, short_run.judgements + 10000);
  // The counter must see the engine's setup allocations at all, or the
  // bound below would hold vacuously.
  ASSERT_GT(short_run.allocations, 0u);
  const double extra_allocations =
      static_cast<double>(long_run.allocations) -
      static_cast<double>(short_run.allocations);
  const double extra_judgements =
      static_cast<double>(long_run.judgements - short_run.judgements);
  EXPECT_LT(extra_allocations / extra_judgements, 0.25)
      << long_run.allocations << " allocations over "
      << long_run.judgements << " judgements vs " << short_run.allocations
      << " over " << short_run.judgements;
}

}  // namespace
}  // namespace carpool::mac
