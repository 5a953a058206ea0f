//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace-driven set-associative cache and TLB models.
///
/// These reproduce the micro-architectural metrics of the paper's Figure 5
/// (I-cache, D-cache, LLC, I-TLB and D-TLB miss rates) by replaying the
/// simulated instruction-fetch and data address streams produced when
/// executing laid-out JIT code.
///
/// A lookup first tries two guesses that need no set scan: the slot of
/// the previous access, and a per-line way hint (way prediction, as in
/// Powell et al., MICRO 2001).  Each guess is checked against the slot's
/// stamp and tag before it is trusted, so it only saves host time: every
/// hit, miss, victim and counter is the one the full scan computes.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SIM_CACHE_H
#define JUMPSTART_SIM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

namespace jumpstart::sim {

/// Geometry of one cache level.
struct CacheConfig {
  uint32_t SizeBytes = 32 * 1024;
  uint32_t LineBytes = 64;
  uint32_t Ways = 8;
};

/// A set-associative cache with true-LRU replacement.
class Cache {
public:
  explicit Cache(CacheConfig Config);

  /// Accesses the line containing \p Addr.  \returns true on hit; on miss
  /// the line is installed.
  bool access(uint64_t Addr) { return accessRun(Addr, 1); }

  /// \p Count (>= 1) back-to-back accesses to the line containing \p Addr:
  /// exactly Count calls to access(Addr).  Only the first can miss; the
  /// clock and the access count both advance by Count.  \returns whether
  /// the first access hit.
  bool accessRun(uint64_t Addr, uint32_t Count) {
    Accesses += Count;
    Clock += Count;
    uint64_t Line = Addr >> LineShift;
    if (Line == LastLine && Stamps[LastSlot] != 0) {
      Stamps[LastSlot] = Clock;
      return true;
    }
    size_t Base = static_cast<size_t>(Line & SetMask) * Config.Ways;
    size_t Slot = Base + Hints[Line & HintMask];
    if (Stamps[Slot] != 0 && Tags[Slot] == Line >> SetShift) {
      Stamps[Slot] = Clock;
      LastLine = Line;
      LastSlot = Slot;
      return true;
    }
    return scanSet(Line, Base);
  }

  /// Invalidates all lines and zeroes statistics.
  void reset();

  uint64_t accesses() const { return Accesses; }
  uint64_t misses() const { return Misses; }
  double missRate() const {
    return Accesses ? static_cast<double>(Misses) /
                          static_cast<double>(Accesses)
                    : 0.0;
  }
  const CacheConfig &config() const { return Config; }

private:
  /// The set scan behind accessRun's two guesses: finds \p Line in the
  /// set starting at slot \p Base or installs it over the LRU slot, and
  /// records the way in the line's hint.
  bool scanSet(uint64_t Line, size_t Base);

  CacheConfig Config;
  uint32_t LineShift;
  uint32_t SetMask;
  /// log2 of the set count: a line's tag is Line >> SetShift.
  uint32_t SetShift;
  /// Per slot (NumSets * Ways, row-major by set): the tag, and the clock
  /// of the slot's last use.  A stamp of 0 marks an invalid slot; every
  /// access advances the clock first, so valid stamps are >= 1 and
  /// distinct, and the smallest stamp in a set is its LRU (or an empty)
  /// slot.
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> Stamps;
  /// Way hints, direct-mapped by line number (Line & HintMask): the way
  /// in which scanSet last found or installed a line with that index.  A
  /// hint is only a guess -- another line may share the entry, the slot
  /// may have been evicted or reset() may have invalidated it -- so a hit
  /// through it needs a nonzero stamp and a matching tag, and only
  /// scanSet installs or evicts.  With four or more entries per slot, the
  /// 4 * Ways lines of a set with consecutive tags have an entry each.
  /// reset() leaves the hints alone.
  std::vector<uint8_t> Hints;
  uint64_t HintMask;
  /// The line number of the most recent access and the slot holding it.
  /// That line is its set's MRU entry and nothing has run since, so a
  /// repeat of it hits without a set scan.  Meaningful only while the
  /// slot's stamp is nonzero: reset() zeroes every stamp, which turns the
  /// shortcut off until the next access.
  uint64_t LastLine = 0;
  size_t LastSlot = 0;
  uint64_t Clock = 0;
  uint64_t Accesses = 0;
  uint64_t Misses = 0;
};

/// A TLB: structurally a cache of page translations.
class Tlb {
public:
  Tlb(uint32_t Entries, uint32_t Ways, uint32_t PageBytes);

  bool access(uint64_t Addr) { return Impl.access(Addr); }
  /// \p Count back-to-back translations of the page containing \p Addr
  /// (see Cache::accessRun).
  bool accessRun(uint64_t Addr, uint32_t Count) {
    return Impl.accessRun(Addr, Count);
  }
  void reset() { Impl.reset(); }

  uint64_t accesses() const { return Impl.accesses(); }
  uint64_t misses() const { return Impl.misses(); }
  double missRate() const { return Impl.missRate(); }

private:
  Cache Impl;
};

} // namespace jumpstart::sim

#endif // JUMPSTART_SIM_CACHE_H
