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

CodeCache::CodeCache(CodeCacheConfig C) : Config(C) {}

uint64_t CodeCache::base(CodeArea Area) const {
  // A fixed, disjoint layout: | hot | cold | profile | live |, starting at
  // an address comfortably away from the simulated heap.
  constexpr uint64_t kBase = 0x10000000ull;
  switch (Area) {
  case CodeArea::Hot:
    return kBase;
  case CodeArea::Cold:
    return kBase + Config.HotBytes;
  case CodeArea::Profile:
    return kBase + Config.HotBytes + Config.ColdBytes;
  case CodeArea::Live:
    return kBase + Config.HotBytes + Config.ColdBytes + Config.ProfileBytes;
  }
  unreachable("unhandled CodeArea");
}

uint64_t CodeCache::capacity(CodeArea Area) const {
  switch (Area) {
  case CodeArea::Hot:
    return Config.HotBytes;
  case CodeArea::Cold:
    return Config.ColdBytes;
  case CodeArea::Profile:
    return Config.ProfileBytes;
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

void CodeCache::resetHotCold() {
  Used[static_cast<unsigned>(CodeArea::Hot)] = 0;
  Used[static_cast<unsigned>(CodeArea::Cold)] = 0;
}
