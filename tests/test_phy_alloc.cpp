// Heap-allocation guard for the probe receive path's per-symbol steps
// (Frontend::symbols and equalize_symbol).
//
// This binary replaces the global operator new/delete with counting
// versions, so it is its own executable: no other test sees the
// replacement. Each step runs once before counting, so the FFT's
// per-thread scratch and the latency histograms already exist.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "channel/fading.hpp"
#include "phy/equalizer.hpp"
#include "phy/frame.hpp"

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

namespace carpool {
namespace {

/// A legacy frame of 1 SIG and 51 data symbols through a channel with a
/// carrier offset, so both CFO passes have work to do.
CxVec capture() {
  Bytes psdu(300);
  for (std::size_t i = 0; i < psdu.size(); ++i) {
    psdu[i] = static_cast<std::uint8_t>(i * 37);
  }
  FadingConfig fc;
  fc.cfo_hz = 8e3;
  fc.seed = 5;
  FadingChannel channel(fc);
  return channel.transmit(LegacyTransmitter().build(append_fcs(psdu), mcs(2)));
}

TEST(RxAllocations, FrontendSymbolsAllocatesOnlyItsResult) {
  const CxVec wave = capture();
  Frontend fe = receive_frontend(wave);
  ASSERT_TRUE(fe.ok());
  for (const std::size_t count : {1UL, 40UL}) {
    ASSERT_GE(wave.size(), fe.data_start + count * kSymbolLen);
    (void)fe.symbols(fe.data_start, count);
    const std::uint64_t before = g_allocations.load();
    const CxVec bins = fe.symbols(fe.data_start, count);
    EXPECT_EQ(g_allocations.load() - before, 1u) << count << " symbols";
    EXPECT_EQ(bins.size(), count * kFftSize);
  }
}

TEST(RxAllocations, EqualizeSymbolDoesNotAllocate) {
  const CxVec wave = capture();
  Frontend fe = receive_frontend(wave);
  ASSERT_TRUE(fe.ok());
  const CxVec bins = fe.symbols(fe.data_start + kSymbolLen, 1);
  (void)equalize_symbol(bins, fe.h, 1);
  const std::uint64_t before = g_allocations.load();
  const SymbolEqualization eq = equalize_symbol(bins, fe.h, 1);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_GT(eq.pilot_quality, 0.9);
}

}  // namespace
}  // namespace carpool
