//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hashing utilities: FNV-1a for byte strings and a mixing combiner.
///
/// Used for profile-package checksums, string interning, and stable keys
/// such as the "Class::prop" keys of the property-access profile (paper
/// section V-C).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SUPPORT_HASHING_H
#define JUMPSTART_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace jumpstart {

/// The 64-bit FNV-1a offset basis: the hash of no bytes, from which a
/// running hash starts.
constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over an arbitrary byte range, continuing from \p Seed.
inline uint64_t fnv1a(const void *Data, size_t Len,
                      uint64_t Seed = kFnv1aOffset) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t Hash = Seed;
  for (size_t I = 0; I < Len; ++I) {
    Hash ^= Bytes[I];
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

/// 64-bit FNV-1a over a string.
inline uint64_t hashString(std::string_view S) {
  return fnv1a(S.data(), S.size());
}

/// Mixes a new 64-bit value into an existing hash (boost-style combiner
/// with a 64-bit golden-ratio constant).
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 12) + (Seed >> 4));
}

} // namespace jumpstart

#endif // JUMPSTART_SUPPORT_HASHING_H
