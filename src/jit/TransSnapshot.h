//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable, epoch-published view of the translation database.
///
/// Request threads must never read TransDb (or Translation payloads)
/// while the background retranslate-all mutates them.  Instead the
/// compile thread captures a TransSnapshot -- everything a request
/// needs from the JIT, today just the per-function execution cost and
/// the phase -- and installs it through a SnapshotPublisher.  Readers
/// pin an epoch (support::EpochDomain), load the current snapshot, and
/// use it without locks; superseded snapshots are retired into the
/// domain and freed once no pinned reader can observe them.
///
/// The snapshot is deliberately value-only: plain vectors, no pointers
/// into the Jit.  Capturing costs one pass over the function table on
/// the publisher thread; request threads then index an immutable array.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_TRANSSNAPSHOT_H
#define JUMPSTART_JIT_TRANSSNAPSHOT_H

#include "bytecode/Repo.h"
#include "support/Epoch.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace jumpstart::jit {

class Jit;

/// One immutable view of the translation state.  Built by capture() on
/// the publishing thread; never written afterwards.
struct TransSnapshot {
  /// Monotone publication number (1 = first snapshot).
  uint64_t Version = 0;

  /// Placed translations visible at capture time (diagnostics).
  uint64_t Translations = 0;

  /// Execution cost (cost units per bytecode) per raw FuncId, folding
  /// Jit::execCostPerBytecode over every function.
  std::vector<double> CostPerBytecode;

  /// Captures the current translation state of \p J.  Must run on the
  /// thread that owns the Jit (the background compile thread, or the
  /// serial path); the Jit must not be mutated during the call.
  static std::unique_ptr<const TransSnapshot> capture(const Jit &J,
                                                      uint64_t Version);
};

/// Single-writer publication point for TransSnapshots.  The writer
/// installs new snapshots with publish(); readers call current() while
/// pinned in the associated EpochDomain.  Superseded snapshots are
/// retired into the domain, which frees them once every reader that
/// could hold the old pointer has unpinned.
class SnapshotPublisher {
public:
  explicit SnapshotPublisher(support::EpochDomain &D) : Domain(D) {}

  SnapshotPublisher(const SnapshotPublisher &) = delete;
  SnapshotPublisher &operator=(const SnapshotPublisher &) = delete;

  /// The destructor drops the live snapshot directly: by then the
  /// owning server has quiesced its readers (asserted via the domain's
  /// reclaimAll), so no pin can be outstanding.
  ~SnapshotPublisher() { delete Cur.exchange(nullptr, std::memory_order_acq_rel); }

  /// Atomically installs \p Next as the current snapshot, retires the
  /// previous one into the epoch domain, and opportunistically reclaims.
  /// Writer thread only.
  void publish(std::unique_ptr<const TransSnapshot> Next);

  /// The current snapshot, or nullptr before the first publish().  The
  /// caller must hold an EpochGuard on the same domain for as long as
  /// the returned pointer is used.
  const TransSnapshot *current() const {
    return Cur.load(std::memory_order_acquire);
  }

  /// Snapshots installed so far.
  uint64_t published() const { return Published.load(std::memory_order_relaxed); }

private:
  support::EpochDomain &Domain;
  std::atomic<const TransSnapshot *> Cur{nullptr};
  std::atomic<uint64_t> Published{0};
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_TRANSSNAPSHOT_H
