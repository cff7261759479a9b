#include "carpool/bloom.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/hash.hpp"
#include "obs/timer.hpp"

namespace carpool {

std::size_t optimal_hash_count(std::size_t num_receivers) {
  if (num_receivers == 0) {
    throw std::invalid_argument("optimal_hash_count: zero receivers");
  }
  const double h = static_cast<double>(kAhdrBits) /
                   static_cast<double>(num_receivers) * std::log(2.0);
  return static_cast<std::size_t>(std::max(1.0, std::round(h)));
}

double theoretical_fp_rate(std::size_t num_receivers,
                           std::size_t num_hashes) {
  const double hn = static_cast<double>(num_hashes) *
                    static_cast<double>(num_receivers);
  const double p_set = 1.0 - std::exp(-hn / static_cast<double>(kAhdrBits));
  return std::pow(p_set, static_cast<double>(num_hashes));
}

AggregationBloomFilter::AggregationBloomFilter(std::size_t num_hashes)
    : num_hashes_(num_hashes) {
  if (num_hashes == 0 || num_hashes > kAhdrBits) {
    throw std::invalid_argument("AggregationBloomFilter: bad hash count");
  }
}

std::size_t AggregationBloomFilter::position(const MacAddress& mac,
                                             std::size_t subframe_index,
                                             std::size_t hash_index) const {
  // Key mixes (subframe index, hash index): member j of hash set i.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(subframe_index) << 16) | hash_index;
  return keyed_hash(mac.octets(), key) % kAhdrBits;
}

void AggregationBloomFilter::insert(const MacAddress& receiver,
                                    std::size_t subframe_index) {
  if (subframe_index >= kMaxReceivers) {
    throw std::invalid_argument("insert: subframe index out of range");
  }
  OBS_TIMED_SPAN("carpool.ahdr_encode");
  for (std::size_t j = 0; j < num_hashes_; ++j) {
    filter_ |= std::uint64_t{1} << position(receiver, subframe_index, j);
  }
}

bool AggregationBloomFilter::matches(const MacAddress& mac,
                                     std::size_t subframe_index) const {
  for (std::size_t j = 0; j < num_hashes_; ++j) {
    if (!(filter_ & (std::uint64_t{1} << position(mac, subframe_index, j)))) {
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> AggregationBloomFilter::matched_subframes(
    const MacAddress& mac) const {
  OBS_SCOPED_TIMER("carpool.ahdr_test");
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < kMaxReceivers; ++i) {
    if (matches(mac, i)) out.push_back(i);
  }
  return out;
}

Bits AggregationBloomFilter::to_bits() const {
  Bits bits(kAhdrBits);
  for (std::size_t i = 0; i < kAhdrBits; ++i) {
    bits[i] = static_cast<std::uint8_t>((filter_ >> i) & 1u);
  }
  return bits;
}

AggregationBloomFilter AggregationBloomFilter::from_bits(
    std::span<const std::uint8_t> bits, std::size_t num_hashes) {
  if (bits.size() != kAhdrBits) {
    throw std::invalid_argument("from_bits: need 48 bits");
  }
  AggregationBloomFilter filter(num_hashes);
  for (std::size_t i = 0; i < kAhdrBits; ++i) {
    if (bits[i] & 1u) filter.filter_ |= std::uint64_t{1} << i;
  }
  return filter;
}

}  // namespace carpool
