//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference cache: sim::Cache as it was before way hints, kept only
/// so tests have an independent implementation to diff hits, misses and
/// counters against.
///
/// Every access that is not a repeat of the previous line scans its whole
/// set for the tag and, on a miss, installs the line over the set's LRU
/// slot.  It deliberately never gains an optimization.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_TESTING_REFERENCECACHE_H
#define JUMPSTART_TESTING_REFERENCECACHE_H

#include "sim/Cache.h"
#include "support/Random.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jumpstart::testing {

/// A set-associative cache with true-LRU replacement and a full set scan
/// per access; sim::Cache must agree with it on every access.
class ReferenceCache {
public:
  explicit ReferenceCache(sim::CacheConfig Config);

  /// Accesses the line containing \p Addr.  \returns true on hit; on miss
  /// the line is installed.
  bool access(uint64_t Addr) { return accessRun(Addr, 1); }

  /// \p Count (>= 1) back-to-back accesses to the line containing \p Addr:
  /// exactly Count calls to access(Addr).  Only the first can miss; the
  /// clock and the access count both advance by Count.  \returns whether
  /// the first access hit.
  bool accessRun(uint64_t Addr, uint32_t Count);

  /// Invalidates all lines and zeroes statistics.
  void reset();

  uint64_t accesses() const { return Accesses; }
  uint64_t misses() const { return Misses; }

private:
  sim::CacheConfig Config;
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

/// One access of a twin stream: \p Count back-to-back accesses to the
/// line at \p Addr, or a reset() of both caches when \p Count is 0.
struct CacheOp {
  uint64_t Addr = 0;
  uint32_t Count = 0;
};

/// A seeded stream of \p Length operations shaped to break a way-hinted
/// cache of geometry \p Config: runs of Count > 1, replayed loops over a
/// few lines, conflict strides whose lines share a set and collide in a
/// hint table of any size, addresses near 0 and near 2^64, and a rare
/// reset() mid-stream.
std::vector<CacheOp> randomCacheStream(Rng &R, const sim::CacheConfig &Config,
                                       size_t Length);

/// Replays \p Ops through a sim::Cache and a ReferenceCache of geometry
/// \p Config.  \returns "" when every access gives the same result and
/// accesses() and misses() agree after every operation, else a
/// description of the first divergence.
std::string diffCacheStream(const sim::CacheConfig &Config,
                            const std::vector<CacheOp> &Ops);

} // namespace jumpstart::testing

#endif // JUMPSTART_TESTING_REFERENCECACHE_H
