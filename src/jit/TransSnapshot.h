//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable view of the translation database for concurrent serving.
///
/// Request threads must never read TransDb (or Translation payloads)
/// while the background retranslate-all mutates them.  Instead the
/// compile thread captures a TransSnapshot -- everything a request
/// needs from the JIT, today the per-function execution cost -- and the
/// server shares it with request threads through a
/// std::shared_ptr<const TransSnapshot> it swaps under its serving
/// lock.  A request copies that pointer when it checks out a context,
/// so a superseded snapshot lives until the last request using it
/// finishes, and whichever thread drops the last reference frees it.
///
/// The snapshot is deliberately value-only: plain vectors, no pointers
/// into the Jit.  Capturing costs one pass over the function table on
/// the publisher thread; request threads then index an immutable array.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_TRANSSNAPSHOT_H
#define JUMPSTART_JIT_TRANSSNAPSHOT_H

#include <vector>

namespace jumpstart::jit {

class Jit;

/// One immutable view of the translation state.  Built by capture() on
/// the publishing thread; never written afterwards.
struct TransSnapshot {
  /// Execution cost (cost units per bytecode) per raw FuncId, folding
  /// Jit::execCostPerBytecode over every function.
  std::vector<double> CostPerBytecode;

  /// Captures the current translation state of \p J.  Must run on the
  /// thread that owns the Jit (the background compile thread, or the
  /// serial path); the Jit must not be mutated during the call.
  static TransSnapshot capture(const Jit &J);
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_TRANSSNAPSHOT_H
