// Small non-cryptographic hashing utilities.
//
// Used for behavioural fingerprints: the bench harness's `checksum` field
// reduces a run to a 64-bit FNV-1a digest so optimization PRs can prove
// they did not change protocol behaviour.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace caa {

inline constexpr std::uint64_t kFnv1a64Offset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 1099511628211ULL;

/// FNV-1a over a byte string; pass a previous digest as `seed` to chain.
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view data, std::uint64_t seed = kFnv1a64Offset) {
  std::uint64_t h = seed;
  for (const char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnv1a64Prime;
  }
  return h;
}

/// Folds one 64-bit value into a digest (little-endian byte order).
[[nodiscard]] constexpr std::uint64_t fnv1a64_mix(std::uint64_t h,
                                                  std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFFu;
    h *= kFnv1a64Prime;
  }
  return h;
}

/// Fixed-width lowercase hex rendering of a digest, for JSON output.
[[nodiscard]] inline std::string hex_digest(std::uint64_t h) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[h & 0xFu];
    h >>= 4;
  }
  return out;
}

}  // namespace caa
