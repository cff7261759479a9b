#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "common/bits.hpp"
#include "common/crc.hpp"
#include "common/hash.hpp"
#include "common/mac_address.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace carpool {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntUnbiasedCoverage) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(10));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(123);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianBlockMatchesCalls) {
  // gaussians(out) must be out.size() gaussian() calls: the same values
  // bit for bit and the same state afterwards, spare included, whether or
  // not a spare is pending when it is entered.
  const std::size_t block = Rng::kGaussianBlock;
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        block - 1, block, block + 1, 5 * block + 3}) {
    for (const bool spare : {false, true}) {
      Rng by_block(77);
      Rng by_call(77);
      if (spare) {
        (void)by_block.gaussian();
        (void)by_call.gaussian();
      }
      std::vector<double> got(count);
      by_block.gaussians(got);
      for (std::size_t i = 0; i < count; ++i) {
        const double want = by_call.gaussian();
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want))
            << "count " << count << " spare " << spare << " value " << i;
      }
      // The next draws read any spare first, then the raw stream.
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(by_block.gaussian()),
                  std::bit_cast<std::uint64_t>(by_call.gaussian()))
            << "count " << count << " spare " << spare << " after " << k;
      }
      EXPECT_EQ(by_block(), by_call()) << "count " << count;
    }
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(99);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(5);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Bits, RoundTripBytesBits) {
  const Bytes bytes{0x00, 0xFF, 0xA5, 0x3C};
  const Bits bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 32u);
  EXPECT_EQ(bits_to_bytes(bits), bytes);
}

TEST(Bits, LsbFirstOrder) {
  const Bytes bytes{0x01};
  const Bits bits = bytes_to_bits(bytes);
  EXPECT_EQ(bits[0], 1);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(bits[i], 0);
}

TEST(Bits, BitsToBytesRejectsPartialByte) {
  const Bits bits(7, 0);
  EXPECT_THROW((void)bits_to_bytes(bits), std::invalid_argument);
}

TEST(Bits, HammingDistance) {
  const Bits a{0, 1, 1, 0};
  const Bits b{0, 1, 0, 0};
  EXPECT_EQ(hamming_distance(a, b), 1u);
  const Bits c{0, 1};
  EXPECT_EQ(hamming_distance(a, c), 2u);  // no mismatches + 2 length
}

TEST(BitIo, WriterReaderRoundTrip) {
  BitWriter w;
  w.put_bits(0x5A5, 12);
  w.put_bit(1);
  w.put_bits(0x3, 2);
  BitReader r(w.bits());
  EXPECT_EQ(r.get_bits(12), 0x5A5u);
  EXPECT_EQ(r.get_bit(), 1);
  EXPECT_EQ(r.get_bits(2), 0x3u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BitIo, ReaderThrowsWhenExhausted) {
  const Bits bits{1};
  BitReader r(bits);
  (void)r.get_bit();
  EXPECT_THROW((void)r.get_bit(), std::out_of_range);
}

TEST(Crc32, MatchesKnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926.
  const Bytes data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes data(64, 0xAB);
  const std::uint32_t ref = crc32(data);
  data[10] ^= 0x04;
  EXPECT_NE(crc32(data), ref);
}

TEST(BitCrc, Crc2DetectsErrorsWithExpectedRate) {
  // A 2-bit CRC detects all single-bit errors and ~75% of random garbage.
  Rng rng(11);
  const std::size_t trials = 2000;
  std::size_t undetected = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    Bits data(48);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    const std::uint16_t ref = crc2().compute(data);
    Bits corrupted = data;
    // Random multi-bit corruption.
    const std::size_t flips = 1 + rng.uniform_int(6);
    for (std::size_t f = 0; f < flips; ++f) {
      corrupted[rng.uniform_int(corrupted.size())] ^= 1u;
    }
    if (corrupted != data && crc2().compute(corrupted) == ref) ++undetected;
  }
  const double miss_rate =
      static_cast<double>(undetected) / static_cast<double>(trials);
  EXPECT_LT(miss_rate, 0.35);  // 2-bit CRC theoretical miss ~= 25%
}

TEST(BitCrc, SingleBitErrorAlwaysDetected) {
  Rng rng(13);
  for (int t = 0; t < 200; ++t) {
    Bits data(96);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    const std::uint16_t ref = crc2().compute(data);
    Bits corrupted = data;
    corrupted[rng.uniform_int(corrupted.size())] ^= 1u;
    EXPECT_NE(crc2().compute(corrupted), ref);
  }
}

TEST(BitCrc, WidthValidation) {
  EXPECT_THROW(BitCrc(0, 0x3), std::invalid_argument);
  EXPECT_THROW(BitCrc(17, 0x3), std::invalid_argument);
}

TEST(BitCrc, DifferentWidthsProduceDifferentRanges) {
  const Bits data{1, 0, 1, 1, 0, 0, 1, 0};
  EXPECT_LT(crc2().compute(data), 4u);
  EXPECT_LT(crc4().compute(data), 16u);
  EXPECT_LT(crc8().compute(data), 256u);
}

/// The bit-serial register BitCrc::compute replaced: one feedback step per
/// input byte, reading only the byte's lowest bit.
std::uint16_t bit_serial_crc(unsigned width, std::uint16_t poly,
                             std::span<const std::uint8_t> bits) {
  const std::uint16_t mask = static_cast<std::uint16_t>((1u << width) - 1u);
  const std::uint16_t top = static_cast<std::uint16_t>(1u << (width - 1));
  std::uint16_t reg = mask;
  for (const std::uint8_t bit : bits) {
    const bool feedback = ((reg & top) != 0) != ((bit & 1u) != 0);
    reg = static_cast<std::uint16_t>((reg << 1) & mask);
    if (feedback) reg ^= poly;
  }
  return static_cast<std::uint16_t>(reg & mask);
}

TEST(BitCrcReference, TableMatchesBitSerialRegister) {
  // Every width, lengths 0..400 (most not a multiple of 8), polynomials
  // with bits above the width, and input bytes other than 0 and 1.
  Rng rng(2024);
  std::size_t strings = 0;
  for (unsigned width = 1; width <= 16; ++width) {
    const std::uint16_t polys[] = {
        0x1, 0x3, 0x1021, 0xFFFF,
        static_cast<std::uint16_t>(rng.uniform_int(0x10000))};
    for (const std::uint16_t poly : polys) {
      const BitCrc crc(width, poly);
      for (std::size_t len = 0; len <= 400; len += 1 + len / 80) {
        Bits bits(len);
        const bool raw_bytes = len % 2 == 1;
        for (auto& b : bits) {
          b = static_cast<std::uint8_t>(rng.uniform_int(raw_bytes ? 256 : 2));
        }
        ASSERT_EQ(crc.compute(bits), bit_serial_crc(width, poly, bits))
            << "width " << width << " poly " << poly << " len " << len;
        ++strings;
      }
    }
  }
  EXPECT_GT(strings, 10000u);
  // The named engines too, over bytes whose high bits must be ignored.
  const Bits bytes{0xFE, 0x03, 0x80, 0x41, 0xFF, 0x00, 0x02, 0x11, 0x7F};
  EXPECT_EQ(crc2().compute(bytes), bit_serial_crc(2, 0x3, bytes));
  EXPECT_EQ(crc16().compute(bytes), bit_serial_crc(16, 0x1021, bytes));
}

TEST(Hash, KeyedHashesDifferPerKey) {
  const Bytes data{1, 2, 3, 4, 5, 6};
  EXPECT_NE(keyed_hash(data, 0), keyed_hash(data, 1));
  EXPECT_NE(keyed_hash(data, 1), keyed_hash(data, 2));
}

TEST(Hash, KeyedHashUniformBitPositions) {
  // Hash positions modulo 48 should be roughly uniform (Bloom assumption).
  std::array<int, 48> counts{};
  const int kSamples = 48 * 500;
  for (int i = 0; i < kSamples; ++i) {
    const MacAddress mac = MacAddress::for_station(static_cast<std::uint32_t>(i));
    const auto octets = mac.octets();
    counts[keyed_hash(octets, 7) % 48] += 1;
  }
  const double expected = kSamples / 48.0;
  for (const int c : counts) {
    EXPECT_GT(c, expected * 0.7);
    EXPECT_LT(c, expected * 1.3);
  }
}

TEST(MacAddress, RoundTripValue) {
  const MacAddress mac(0x0123456789ABULL);
  EXPECT_EQ(mac.value(), 0x0123456789ABULL);
  EXPECT_EQ(mac.to_string(), "01:23:45:67:89:ab");
}

TEST(MacAddress, ForStationUniqueAndOrdered) {
  const MacAddress a = MacAddress::for_station(1);
  const MacAddress b = MacAddress::for_station(2);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
}

TEST(Units, DbConversions) {
  EXPECT_NEAR(db_to_linear(10.0), 10.0, 1e-12);
  EXPECT_NEAR(db_to_linear(3.0), 1.9953, 1e-3);
  EXPECT_NEAR(linear_to_db(100.0), 20.0, 1e-12);
  EXPECT_NEAR(db_to_amplitude(6.0), 1.9953, 1e-3);
  EXPECT_NEAR(dbm_to_watts(30.0), 1.0, 1e-12);
  EXPECT_NEAR(watts_to_dbm(0.001), 0.0, 1e-12);
}

TEST(Units, Airtime) {
  // 1500 bytes at 54 Mbit/s ~= 222 us (paper Sec. 3).
  EXPECT_NEAR(airtime(bits(1500), 54e6), 222e-6, 1e-6);
  // 64KB at 54 Mbit/s ~= 9.7 ms (paper Sec. 3).
  EXPECT_NEAR(airtime(bits(64 * 1024), 54e6), 9.7e-3, 0.05e-3);
}

TEST(Stats, RunningStatsMoments) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Stats, SampleSetPercentilesAndCdf) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.9), 90.0, 1.0);
  EXPECT_DOUBLE_EQ(s.cdf(50.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf(100.0), 1.0);
}

TEST(Stats, WelfordMatchesClosedForm) {
  Rng rng(31);
  std::vector<double> xs;
  RunningStats s;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.gaussian() * 7.0 + 3.0;
    xs.push_back(x);
    s.add(x);
  }
  // Two-pass closed form: mean, then sum of squared deviations / (n - 1).
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double m2 = 0.0;
  for (const double x : xs) m2 += (x - mean) * (x - mean);
  const double variance = m2 / static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9 * std::abs(mean));
  EXPECT_NEAR(s.variance(), variance, 1e-9 * variance);
}

TEST(Stats, RunningStatsDegenerateCounts) {
  RunningStats empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.variance(), 0.0);
  RunningStats one;
  one.add(4.0);
  EXPECT_DOUBLE_EQ(one.mean(), 4.0);
  EXPECT_DOUBLE_EQ(one.variance(), 0.0);  // n-1 denominator undefined at n=1
  EXPECT_DOUBLE_EQ(one.min(), 4.0);
  EXPECT_DOUBLE_EQ(one.max(), 4.0);
}

TEST(Stats, PercentileEdgeCases) {
  SampleSet single;
  single.add(42.0);
  EXPECT_DOUBLE_EQ(single.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(single.percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(single.percentile(1.0), 42.0);

  SampleSet s;
  for (int i = 1; i <= 10; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 10.0);

  const SampleSet empty;
  EXPECT_THROW((void)empty.percentile(0.5), std::logic_error);
  EXPECT_THROW((void)s.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(1.1), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(std::nan("")), std::invalid_argument);
}

TEST(Stats, SortedCacheInvalidatedByAdd) {
  SampleSet s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);  // forces the sort
  s.add(9.0);                                 // must invalidate the cache
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 9.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_TRUE(std::is_sorted(s.sorted().begin(), s.sorted().end()));
  // Insertion order of samples() is untouched by sorting.
  EXPECT_DOUBLE_EQ(s.samples().front(), 5.0);
}

TEST(Stats, HistogramFixedRange) {
  SampleSet s;
  for (const double x : {0.5, 1.5, 1.6, 2.5, -3.0, 99.0}) s.add(x);
  const auto counts = s.histogram(3, 0.0, 3.0);  // bins [0,1) [1,2) [2,3)
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);  // 0.5 plus the clamped -3.0
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);  // 2.5 plus the clamped 99.0
  EXPECT_THROW((void)s.histogram(0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)s.histogram(3, 1.0, 1.0), std::invalid_argument);
}

TEST(Stats, HistogramAutoRange) {
  SampleSet s;
  for (int i = 0; i < 100; ++i) s.add(static_cast<double>(i % 10));
  const auto counts = s.histogram(10);
  ASSERT_EQ(counts.size(), 10u);
  std::size_t total = 0;
  for (const std::size_t c : counts) {
    EXPECT_EQ(c, 10u);  // values 0..9, uniform
    total += c;
  }
  EXPECT_EQ(total, s.size());  // max sample lands in the last bin, not lost

  SampleSet constant;
  for (int i = 0; i < 7; ++i) constant.add(3.14);
  const auto identical = constant.histogram(4);
  EXPECT_EQ(identical[0], 7u);
  EXPECT_EQ(identical[1] + identical[2] + identical[3], 0u);

  const SampleSet empty;
  const auto none = empty.histogram(5);
  ASSERT_EQ(none.size(), 5u);
  for (const std::size_t c : none) EXPECT_EQ(c, 0u);
}

TEST(Stats, RatioCounter) {
  RatioCounter r;
  r.add(true);
  r.add(false);
  r.add(false);
  r.add(true);
  EXPECT_DOUBLE_EQ(r.ratio(), 0.5);
  RatioCounter empty;
  EXPECT_DOUBLE_EQ(empty.ratio(), 0.0);
}

}  // namespace
}  // namespace carpool
