//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Epoch-based reclamation for read-mostly published state.
///
/// The JIT publishes immutable translation snapshots while request
/// threads keep serving (paper SSVII: retranslate-all under live load).
/// Readers never take a lock on the fast path: each reader owns a Slot
/// and brackets its critical section with pin/unpin, recording the
/// global epoch it entered under.  The writer swaps the published
/// pointer, retires the old object tagged with the current epoch, and
/// frees retired objects only once every pinned reader entered at a
/// strictly later epoch -- at which point no reader can still hold a
/// reference, because the pointer swap happened before the retire.
///
/// The pin protocol closes the announce race with a re-check loop:
///
///   do { E = Global; Slot.Pinned = E; } while (Global != E);  (seq_cst)
///
/// so by the time pin() returns, the reader's announcement is visible
/// to any writer that subsequently advances the epoch.
///
/// Reclamation rule: a retired object tagged T is freeable iff
/// T < min(Pinned over all pinned slots); with no reader pinned,
/// everything retired is freeable.  tryReclaim() advances the global
/// epoch first so the rule makes progress between calls.
///
/// All slow-path state (slot registry, retired list, counters) is
/// guarded by one mutex; only Slot::Pinned and the global epoch are
/// touched on the reader fast path.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SUPPORT_EPOCH_H
#define JUMPSTART_SUPPORT_EPOCH_H

#include "support/ThreadSafety.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace jumpstart::support {

/// One domain of epoch-protected objects (e.g. the server's translation
/// snapshots).  Readers acquire a Slot once, then pin/unpin around each
/// critical section; the single writer retires objects and reclaims.
class EpochDomain {
public:
  /// Sentinel stored in Slot::Pinned while the reader is outside any
  /// critical section.
  static constexpr uint64_t kQuiescent = ~uint64_t{0};

  /// Per-reader announcement cell.  Owned by exactly one thread at a
  /// time between acquireSlot() and releaseSlot(); Pinned is written by
  /// the owner and read by the reclaiming writer.
  struct Slot {
    std::atomic<uint64_t> Pinned{kQuiescent};

    Slot() = default;
    Slot(const Slot &) = delete;
    Slot &operator=(const Slot &) = delete;
  };

  EpochDomain() = default;
  EpochDomain(const EpochDomain &) = delete;
  EpochDomain &operator=(const EpochDomain &) = delete;

  /// Destruction requires every slot released and every retired object
  /// reclaimed; run the pending deleters rather than leak them.
  ~EpochDomain();

  /// Registers a reader and returns its announcement slot.  Slots are
  /// pooled: a released slot is handed back out before a new one is
  /// allocated.  Slot addresses are stable for the domain's lifetime.
  Slot *acquireSlot() JUMPSTART_EXCLUDES(M);

  /// Returns a slot to the pool.  The slot must be unpinned.
  void releaseSlot(Slot *S) JUMPSTART_EXCLUDES(M);

  /// Enters a read-side critical section; returns the epoch entered
  /// under.  Lock-free.  The caller must own \p S and not already be
  /// pinned through it (no nesting).
  uint64_t pin(Slot &S) {
    assert(S.Pinned.load(std::memory_order_relaxed) == kQuiescent &&
           "pin() does not nest");
    uint64_t E = Global.load(std::memory_order_seq_cst);
    for (;;) {
      S.Pinned.store(E, std::memory_order_seq_cst);
      uint64_t Now = Global.load(std::memory_order_seq_cst);
      if (Now == E)
        return E;
      E = Now;
    }
  }

  /// Leaves the read-side critical section.  Lock-free.
  void unpin(Slot &S) {
    assert(S.Pinned.load(std::memory_order_relaxed) != kQuiescent &&
           "unpin() without pin()");
    S.Pinned.store(kQuiescent, std::memory_order_seq_cst);
  }

  /// Hands an object to the domain for deferred destruction.  The
  /// deleter runs from tryReclaim()/reclaimAll() (or the destructor)
  /// once no pinned reader can still observe the object.  Writer-side;
  /// takes the domain mutex.
  void retire(std::function<void()> Deleter) JUMPSTART_EXCLUDES(M);

  /// Advances the global epoch and frees every retired object no pinned
  /// reader can observe.  Returns the number of objects freed.  Safe to
  /// call concurrently with readers pinning and unpinning.
  size_t tryReclaim() JUMPSTART_EXCLUDES(M);

  /// Frees all retired objects.  Requires no reader pinned (asserted);
  /// used at end-of-serving once workers have quiesced.  Returns the
  /// number freed.
  size_t reclaimAll() JUMPSTART_EXCLUDES(M);

  /// Number of readers currently pinned (diagnostics; racy by nature).
  size_t pinnedReaders() JUMPSTART_EXCLUDES(M);

  /// Objects handed to retire() over the domain's lifetime.
  uint64_t retiredCount() JUMPSTART_EXCLUDES(M);

  /// Objects whose deleters have run.
  uint64_t freedCount() JUMPSTART_EXCLUDES(M);

  /// retiredCount() - freedCount(): objects awaiting reclamation.
  uint64_t pendingCount() JUMPSTART_EXCLUDES(M);

private:
  struct Retired {
    uint64_t Tag = 0;
    std::function<void()> Deleter;
  };

  /// Smallest epoch any pinned in-use reader announced, or kQuiescent
  /// when none is pinned.
  uint64_t minPinnedEpoch() JUMPSTART_REQUIRES(M);

  /// Frees entries with Tag < \p Bound; returns how many.
  size_t freeBefore(uint64_t Bound) JUMPSTART_REQUIRES(M);

  std::atomic<uint64_t> Global{1};

  Mutex M;
  /// deque for stable Slot addresses across growth.
  std::deque<Slot> Slots JUMPSTART_GUARDED_BY(M);
  std::vector<Slot *> FreeSlots JUMPSTART_GUARDED_BY(M);
  size_t SlotsInUse JUMPSTART_GUARDED_BY(M) = 0;
  std::vector<Retired> RetiredList JUMPSTART_GUARDED_BY(M);
  uint64_t TotalRetired JUMPSTART_GUARDED_BY(M) = 0;
  uint64_t TotalFreed JUMPSTART_GUARDED_BY(M) = 0;
};

/// RAII pin over a reader's slot for one critical section.
class EpochGuard {
public:
  EpochGuard(EpochDomain &D, EpochDomain::Slot &S) : Domain(D), Slot(S) {
    Epoch = Domain.pin(Slot);
  }
  ~EpochGuard() { Domain.unpin(Slot); }

  EpochGuard(const EpochGuard &) = delete;
  EpochGuard &operator=(const EpochGuard &) = delete;

  /// The epoch this critical section entered under.
  uint64_t epoch() const { return Epoch; }

private:
  EpochDomain &Domain;
  EpochDomain::Slot &Slot;
  uint64_t Epoch;
};

} // namespace jumpstart::support

#endif // JUMPSTART_SUPPORT_EPOCH_H
