//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/CodeCache.h"

#include "support/Assert.h"

using namespace jumpstart;
using namespace jumpstart::jit;

namespace {
/// Sizes of the hot and cold areas (optimized translations) and of the
/// profile area (tier-1 translations).
constexpr uint64_t kHotBytes = 48ull << 20;
constexpr uint64_t kColdBytes = 48ull << 20;
constexpr uint64_t kProfileBytes = 32ull << 20;
} // namespace

CodeCache::CodeCache(CodeCacheConfig C) : Config(C) {}

uint64_t CodeCache::base(CodeArea Area) const {
  // A fixed, disjoint layout: | hot | cold | profile | live |, starting at
  // an address comfortably away from the simulated heap.
  constexpr uint64_t kBase = 0x10000000ull;
  switch (Area) {
  case CodeArea::Hot:
    return kBase;
  case CodeArea::Cold:
    return kBase + kHotBytes;
  case CodeArea::Profile:
    return kBase + kHotBytes + kColdBytes;
  case CodeArea::Live:
    return kBase + kHotBytes + kColdBytes + kProfileBytes;
  }
  unreachable("unhandled CodeArea");
}

uint64_t CodeCache::capacity(CodeArea Area) const {
  switch (Area) {
  case CodeArea::Hot:
    return kHotBytes;
  case CodeArea::Cold:
    return kColdBytes;
  case CodeArea::Profile:
    return kProfileBytes;
  case CodeArea::Live:
    return Config.LiveBytes;
  }
  unreachable("unhandled CodeArea");
}

uint64_t CodeCache::used(CodeArea Area) const {
  return Used[static_cast<unsigned>(Area)];
}

uint64_t CodeCache::allocate(CodeArea Area, uint64_t Bytes) {
  uint64_t &U = Used[static_cast<unsigned>(Area)];
  if (U + Bytes > capacity(Area))
    return 0;
  // 16-byte alignment, like real translation starts.
  uint64_t Addr = base(Area) + U;
  U += (Bytes + 15) & ~15ull;
  return Addr;
}
