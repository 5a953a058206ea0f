//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"

#include "support/Assert.h"

#include <algorithm>
#include <bit>

using namespace jumpstart;
using namespace jumpstart::sim;

Cache::Cache(CacheConfig Config) : Config(Config) {
  alwaysAssert(Config.LineBytes > 0 && Config.Ways > 0 &&
                   Config.SizeBytes >= Config.LineBytes * Config.Ways,
               "invalid cache geometry");
  uint32_t NumSets = Config.SizeBytes / (Config.LineBytes * Config.Ways);
  alwaysAssert(std::has_single_bit(NumSets),
               "number of sets must be a power of two");
  alwaysAssert(std::has_single_bit(Config.LineBytes),
               "line size must be a power of two");
  LineShift = static_cast<uint32_t>(std::countr_zero(Config.LineBytes));
  SetMask = NumSets - 1;
  SetShift = static_cast<uint32_t>(std::countr_zero(NumSets));
  alwaysAssert(Config.Ways <= 256, "a way hint holds at most 256 ways");
  Tags.assign(static_cast<size_t>(NumSets) * Config.Ways, 0);
  Stamps.assign(Tags.size(), 0);
  Hints.assign(std::bit_ceil(4 * Tags.size()), 0);
  HintMask = Hints.size() - 1;
}

bool Cache::scanSet(uint64_t Line, size_t Base) {
  uint64_t Tag = Line >> SetShift;
  size_t Victim = Base;
  for (size_t Slot = Base; Slot < Base + Config.Ways; ++Slot) {
    if (Stamps[Slot] != 0 && Tags[Slot] == Tag) {
      Stamps[Slot] = Clock;
      Hints[Line & HintMask] = static_cast<uint8_t>(Slot - Base);
      LastLine = Line;
      LastSlot = Slot;
      return true;
    }
    if (Stamps[Slot] < Stamps[Victim])
      Victim = Slot;
  }

  ++Misses;
  Tags[Victim] = Tag;
  Stamps[Victim] = Clock;
  Hints[Line & HintMask] = static_cast<uint8_t>(Victim - Base);
  LastLine = Line;
  LastSlot = Victim;
  return false;
}

void Cache::reset() {
  std::fill(Tags.begin(), Tags.end(), 0);
  std::fill(Stamps.begin(), Stamps.end(), 0);
  Clock = 0;
  Accesses = 0;
  Misses = 0;
}

Tlb::Tlb(uint32_t Entries, uint32_t WaysCount, uint32_t PageBytes)
    : Impl(CacheConfig{Entries * PageBytes, PageBytes, WaysCount}) {}
