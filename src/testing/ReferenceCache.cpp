//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "testing/ReferenceCache.h"

#include "support/Assert.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <bit>

using namespace jumpstart;
using namespace jumpstart::testing;

ReferenceCache::ReferenceCache(sim::CacheConfig Config) : Config(Config) {
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
  Tags.assign(static_cast<size_t>(NumSets) * Config.Ways, 0);
  Stamps.assign(Tags.size(), 0);
}

bool ReferenceCache::accessRun(uint64_t Addr, uint32_t Count) {
  Accesses += Count;
  Clock += Count;
  uint64_t Line = Addr >> LineShift;
  if (Line == LastLine && Stamps[LastSlot] != 0) {
    Stamps[LastSlot] = Clock;
    return true;
  }

  size_t Base = static_cast<size_t>(Line & SetMask) * Config.Ways;
  uint64_t Tag = Line >> SetShift;
  size_t Victim = Base;
  for (size_t Slot = Base; Slot < Base + Config.Ways; ++Slot) {
    if (Stamps[Slot] != 0 && Tags[Slot] == Tag) {
      Stamps[Slot] = Clock;
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
  LastLine = Line;
  LastSlot = Victim;
  return false;
}

void ReferenceCache::reset() {
  std::fill(Tags.begin(), Tags.end(), 0);
  std::fill(Stamps.begin(), Stamps.end(), 0);
  Clock = 0;
  Accesses = 0;
  Misses = 0;
}

std::vector<CacheOp> testing::randomCacheStream(Rng &R,
                                                const sim::CacheConfig &Config,
                                                size_t Length) {
  const uint64_t LineBytes = Config.LineBytes;
  const uint64_t NumSets = Config.SizeBytes / (LineBytes * Config.Ways);
  std::vector<CacheOp> Ops;
  Ops.reserve(Length);
  auto Push = [&](uint64_t Addr, uint32_t Count) {
    if (Ops.size() < Length)
      Ops.push_back({Addr, Count});
  };
  // A byte address somewhere in the line, with Count 1 (a data access) or
  // a run of up to 8 (a fetch run).
  auto Touch = [&](uint64_t Line) {
    uint32_t Count =
        R.nextBool(0.5) ? 1 : 2 + static_cast<uint32_t>(R.nextBelow(7));
    Push(Line * LineBytes + R.nextBelow(LineBytes), Count);
  };
  // Where a burst starts, in lines: near 0, where every reset slot's zero
  // tag matches; near 2^64, where line arithmetic wraps; or anywhere.
  auto PickBase = [&]() -> uint64_t {
    const uint64_t MaxLine = ~uint64_t(0) / LineBytes;
    switch (R.nextBelow(3)) {
    case 0:
      return R.nextBelow(4 * NumSets);
    case 1:
      return MaxLine - R.nextBelow(4 * NumSets);
    default:
      return R.next() / LineBytes;
    }
  };
  while (Ops.size() < Length) {
    uint64_t Kind = R.nextBelow(16);
    if (Kind == 0) {
      // Rare: invalidate both caches mid-stream.
      if (R.nextBool(0.25))
        Push(0, 0);
    } else if (Kind < 5) {
      // A loop over consecutive lines, as a hot block sequence fetches
      // them, iterated a few times.  Its length is log-uniform up to
      // twice the cache's capacity.
      uint64_t Base = PickBase();
      uint64_t MaxLog = std::bit_width(2 * NumSets * Config.Ways);
      uint64_t Lines = 1 + R.nextBelow(uint64_t(1) << R.nextBelow(MaxLog));
      uint64_t Iterations = 1 + R.nextBelow(6);
      for (uint64_t I = 0; I < Iterations; ++I)
        for (uint64_t L = 0; L < Lines; ++L)
          Touch(Base + L);
    } else if (Kind < 10) {
      // Conflict strides: lines 2^K apart share a set, and once 2^K
      // reaches the size of a hint table indexed by line number they
      // share its entry too.  About as many lines as the set holds, one
      // or two more or one fewer, cycled in order or at random.
      uint64_t Shift = std::countr_zero(NumSets) + R.nextBelow(26);
      uint64_t Extra = R.nextBelow(4);
      uint64_t Lines = std::max<uint64_t>(2, Config.Ways + Extra - 1);
      uint64_t Base = PickBase();
      bool Shuffled = R.nextBool(0.5);
      uint64_t Steps = Lines * (1 + R.nextBelow(8));
      for (uint64_t I = 0; I < Steps; ++I) {
        uint64_t Pick = Shuffled ? R.nextBelow(Lines) : I % Lines;
        Touch(Base + (Pick << Shift));
      }
    } else {
      // Scattered accesses within a window a few times the cache's size.
      uint64_t Base = PickBase();
      uint64_t Window = 4 * NumSets * Config.Ways;
      uint64_t Steps = 1 + R.nextBelow(64);
      for (uint64_t I = 0; I < Steps; ++I)
        Touch(Base + R.nextBelow(Window));
    }
  }
  return Ops;
}

std::string testing::diffCacheStream(const sim::CacheConfig &Config,
                                     const std::vector<CacheOp> &Ops) {
  sim::Cache Fast(Config);
  ReferenceCache Ref(Config);
  for (size_t I = 0; I < Ops.size(); ++I) {
    const CacheOp &Op = Ops[I];
    if (Op.Count == 0) {
      Fast.reset();
      Ref.reset();
    } else if (Fast.accessRun(Op.Addr, Op.Count) !=
               Ref.accessRun(Op.Addr, Op.Count)) {
      return strFormat("op %zu (addr 0x%llx, count %u): hit/miss differs", I,
                       static_cast<unsigned long long>(Op.Addr), Op.Count);
    }
    if (Fast.accesses() != Ref.accesses() || Fast.misses() != Ref.misses())
      return strFormat("op %zu: counters differ", I);
  }
  return "";
}
