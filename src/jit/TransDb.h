//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-server translation database: every translation the JIT has
/// produced, indexed by function and kind.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_TRANSDB_H
#define JUMPSTART_JIT_TRANSDB_H

#include "jit/Translation.h"
#include "support/FlatMap.h"
#include "support/ThreadSafety.h"

#include <memory>
#include <string>
#include <vector>

namespace jumpstart::jit {

/// Owns all translations of one server's JIT.
///
/// Locking: the index structures (id vector, per-kind function maps,
/// the elided-guard counter) are guarded by an internal mutex so the
/// -Wthread-safety build checks every access.  The lock is uncontended
/// by construction today -- parallel retranslate-all workers lower into
/// private scratch slots and only the owning server's thread installs
/// results (see jit/ParallelRetranslate.cpp) -- so it costs one
/// uncontended acquire per lookup and buys a compiler-checked invariant
/// instead of a comment.  Translation *payloads* (Placed, BlockAddrs,
/// profile counters) stay single-writer by that same construction and
/// are deliberately not guarded: handing out a Translation* under a lock
/// that does not cover the pointee would be a false promise.
class TransDb {
public:
  /// Creates a translation from \p Unit; it starts unplaced.
  Translation &create(TransKind Kind, std::unique_ptr<VasmUnit> Unit)
      JUMPSTART_EXCLUDES(M);

  Translation *find(uint32_t Id) JUMPSTART_EXCLUDES(M) {
    support::MutexLock Lock(M);
    return Id < All.size() ? All[Id].get() : nullptr;
  }

  /// Current translation of \p F with kind \p K, or nullptr.
  Translation *forFunc(bc::FuncId F, TransKind K) JUMPSTART_EXCLUDES(M);
  const Translation *forFunc(bc::FuncId F, TransKind K) const
      JUMPSTART_EXCLUDES(M);

  /// The translation that would execute for \p F right now: a placed
  /// optimized translation wins, then live, then profile.
  const Translation *best(bc::FuncId F) const JUMPSTART_EXCLUDES(M);

  size_t size() const JUMPSTART_EXCLUDES(M) {
    support::MutexLock Lock(M);
    return All.size();
  }

  /// The full translation list, for serial post-run inspection (lint,
  /// digests, tests).  The returned reference escapes the lock; callers
  /// must not race it against create().
  const std::vector<std::unique_ptr<Translation>> &all() const
      JUMPSTART_EXCLUDES(M) {
    support::MutexLock Lock(M);
    return All;
  }

  /// Total analysis-proven guard elisions across installed translations
  /// (sum of VasmUnit::ElidedGuards, accumulated in create).
  uint64_t guardsElided() const JUMPSTART_EXCLUDES(M) {
    support::MutexLock Lock(M);
    return ElidedGuardCount;
  }

  /// Total Vasm bytes of translations of kind \p K (placed or not).  A
  /// running total kept by create(): a unit never changes size once
  /// created, and replaced translations stay in all().
  uint64_t bytesOfKind(TransKind K) const JUMPSTART_EXCLUDES(M) {
    support::MutexLock Lock(M);
    return KindBytes[static_cast<size_t>(K)];
  }

  /// One line per translation in id order (kind, function, placement,
  /// entry address, block count).  Part of the determinism promise: two
  /// runs of the same schedule must produce byte-identical digests
  /// regardless of host compile-pool width; the conformance oracle
  /// (src/testing) asserts exactly that.
  std::string placementDigest() const JUMPSTART_EXCLUDES(M);

private:
  /// FuncId -> translation id, one per kind.  Read-heavy after
  /// retranslate-all (every request probes best()), hence flat sorted
  /// vectors rather than hash maps; see support/FlatMap.h.
  using FuncMap = support::FlatMap<uint32_t, uint32_t>;
  FuncMap &mapFor(TransKind K) JUMPSTART_REQUIRES(M);
  const FuncMap &mapFor(TransKind K) const JUMPSTART_REQUIRES(M);

  Translation *forFuncLocked(bc::FuncId F, TransKind K) const
      JUMPSTART_REQUIRES(M);

  mutable support::Mutex M;
  std::vector<std::unique_ptr<Translation>> All JUMPSTART_GUARDED_BY(M);
  FuncMap LiveMap JUMPSTART_GUARDED_BY(M);
  FuncMap ProfileMap JUMPSTART_GUARDED_BY(M);
  FuncMap OptMap JUMPSTART_GUARDED_BY(M);
  uint64_t ElidedGuardCount JUMPSTART_GUARDED_BY(M) = 0;
  /// Vasm bytes created so far, by TransKind.
  uint64_t KindBytes[3] JUMPSTART_GUARDED_BY(M) = {};
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_TRANSDB_H
