//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-threaded retranslate-all (paper Figure 3c: the consumer runs
/// Optimizing and Relocating "with all cores before serving").
///
/// The driver splits retranslate-all into a parallel and a serial half:
///
///  1. *Parallel lowering* -- every profiled function (plus the package's
///     live-code tail under PrecompileLiveCode) is lowered on the host
///     thread pool into per-task scratch slots, and the block layout of
///     each optimized unit is precomputed.  Lowering and layout are pure
///     given an immutable profile store and a pre-warmed block cache, so
///     the only shared mutable structure -- bc::BlockCache -- is warmed
///     serially up front.
///
///  2. *Serial pipeline* -- the scratch is installed into the Jit and the
///     EXACT existing single-threaded job pipeline runs: jobs are
///     enqueued in hotness order, drained in slices, translations are
///     created in the same TransDb order, and the relocation pass places
///     them into the CodeCache in C3/FunctionSort order.  Jobs consume
///     scratch instead of recomputing, so the pipeline is fast, but every
///     virtual cost, translation id, code byte and span is identical to
///     the serial run.  Relocation/placement order is the determinism
///     barrier and never leaves this thread.
///
/// Consequence: `--threads N` changes host wall-clock only; exports are
/// byte-identical for any worker count.  The *modeled* parallelism (how
/// much virtual wall time the precompile charges) is the separate
/// JitConfig::Parallelism knob applied by the caller's clock advance.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_PARALLELRETRANSLATE_H
#define JUMPSTART_JIT_PARALLELRETRANSLATE_H

#include "jit/Jit.h"

#include <cstddef>
#include <cstdint>
#include <functional>

namespace jumpstart::support {
class ThreadPool;
}

namespace jumpstart::jit {

/// What one parallel retranslate-all did, in virtual cost units and
/// pipeline counts.  Everything here is host-thread-count-invariant
/// except HostWorkers itself.
struct RetranslateStats {
  double CompileUnits = 0;     ///< optimize + live compile cost enqueued
  double RelocateUnits = 0;    ///< relocation cost drained
  size_t FunctionsCompiled = 0;   ///< compile jobs enqueued
  size_t TranslationsPlaced = 0;  ///< translations placed in the cache
  uint32_t HostWorkers = 0;       ///< pool size used (0 = inline)
};

/// Drives one retranslate-all over \p J using \p Pool for host-side
/// lowering.  \p Pool may be null (everything runs inline; output is
/// identical either way).
class ParallelRetranslate {
public:
  ParallelRetranslate(Jit &J, support::ThreadPool *Pool)
      : J(J), Pool(Pool) {}

  /// Runs the full pipeline to completion.  The Jit must be in the
  /// Profiling phase with work to find: either its own profile store is
  /// populated (seeder-style retranslate-all) or a package was installed
  /// with Jit::installPackageProfiles (consumer precompile; this also
  /// enqueues the live-code tail under PrecompileLiveCode).
  ///
  /// The serial drain consumes work in slices of \p SliceUnits;
  /// \p OnSlice (optional) observes each slice's consumed units so the
  /// caller can advance its virtual clock -- dividing by the *modeled*
  /// parallelism, not by the host worker count.
  RetranslateStats run(double SliceUnits,
                       const std::function<void(double)> &OnSlice = {});

  /// Pre-lowers \p J's currently queued jobs on \p Pool without running
  /// any of them: optimized/live units are lowered and block layouts
  /// precomputed into the Jit's scratch slots, which the serial pipeline
  /// then consumes instead of recomputing.  Virtual cost accounting and
  /// placement order are untouched, so output is byte-identical to a
  /// scratch-less drain -- only host wall-clock changes.  Intended for
  /// incremental drains (vm::Server::runBackgroundJitWork) where the
  /// caller owns the slice loop; idempotent, so calling it before every
  /// slice is cheap once the scratch is populated.
  static void prelowerPending(Jit &J, support::ThreadPool *Pool);

private:
  Jit &J;
  support::ThreadPool *Pool;
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_PARALLELRETRANSLATE_H
