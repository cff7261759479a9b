#pragma once

// Hashing primitives, each written once: FNV-1a, which every digest and
// fingerprint in the library folds its fields with, and the Mix13
// finalizer behind SplitMix64 and the coded Bloom filter (A-HDR).
//
// The paper assigns hash *sets* to subframe positions: the receiver of the
// i-th subframe is hashed with the i-th hash set (Sec. 4.1). We realise a
// hash set as a keyed family: member j of set i is `keyed_hash(data, key)`
// where the key mixes (i, j). Each hash is assumed to select bit positions
// uniformly, which the tests verify statistically.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace carpool {

/// FNV-1a 64-bit offset basis: the state a fresh hash starts from.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit over bytes, continuing from state `h`, so a digest can
/// fold its fields one call at a time.
constexpr std::uint64_t fnv1a64(std::span<const std::uint8_t> data,
                                std::uint64_t h = kFnv1aBasis) noexcept {
  for (const std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a over a string's bytes.
inline std::uint64_t fnv1a64(std::string_view text,
                             std::uint64_t h = kFnv1aBasis) noexcept {
  return fnv1a64(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size()),
      h);
}

/// FNV-1a over the 8 bytes of `v`, least significant first.
constexpr std::uint64_t fnv1a64_u64(std::uint64_t v,
                                    std::uint64_t h = kFnv1aBasis) noexcept {
  std::array<std::uint8_t, 8> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return fnv1a64(bytes, h);
}

/// Strong 64-bit finalizer (Stafford's Mix13, as used in SplitMix64).
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Keyed hash: independent-looking hashes of `data` for distinct keys.
constexpr std::uint64_t keyed_hash(std::span<const std::uint8_t> data,
                                   std::uint64_t key) noexcept {
  return mix64(fnv1a64(data) ^ mix64(key ^ 0x9e3779b97f4a7c15ULL));
}

}  // namespace carpool
