//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode interpreter: the VM's semantic core and execution tier of
/// last resort (paper section II-A).
///
/// Semantics are total: dynamic type errors produce Null results and bump a
/// fault counter rather than aborting, so the VM survives anything the
/// workload generator or fuzz tests produce.  A call to a function the
/// bytecode verifier rejects does the same: Null and one fault.  Runaway
/// execution is bounded by a step budget and a call-depth limit.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_INTERP_INTERPRETER_H
#define JUMPSTART_INTERP_INTERPRETER_H

#include "bytecode/Repo.h"
#include "interp/ExecCallbacks.h"
#include "interp/InterpCache.h"
#include "runtime/Builtins.h"
#include "runtime/ClassLayout.h"
#include "runtime/Heap.h"
#include "runtime/Value.h"

#include <string>
#include <vector>

namespace jumpstart::interp {

/// Outcome of one top-level call.
struct InterpResult {
  runtime::Value Ret;
  /// False when the step budget or call-depth limit was hit.
  bool Ok = true;
  /// Bytecode instructions executed (across all frames).
  uint64_t Steps = 0;
  /// Dynamic type errors that produced Null results.
  uint64_t Faults = 0;
};

/// Per-function instruction counts (Interpreter::setInstrCounts).
/// Touched lists, in first-touch order, the raw FuncIds whose count is
/// nonzero, so a request can be costed, and the counts cleared, in time
/// proportional to the functions it ran rather than to the repo.
struct InstrCounts {
  /// Counts[I]: instructions executed in the function with raw id I.
  std::vector<uint64_t> Counts;
  std::vector<uint32_t> Touched;

  /// Adds \p N > 0 instructions to \p F, whose entry must exist.
  void add(bc::FuncId F, uint64_t N) {
    uint64_t &C = Counts[F.raw()];
    if (C == 0)
      touch(F.raw());
    C += N;
  }

  /// Zeroes the touched entries only.
  void clear() {
    for (uint32_t F : Touched)
      Counts[F] = 0;
    Touched.clear();
  }

private:
  /// Appends \p F to Touched (its first count since the last clear).
  void touch(uint32_t F);
};

/// Call-depth limit.  A request's first frame sits at depth 0; a call
/// that would enter a frame at depth kMaxCallDepth aborts the request.
constexpr uint32_t kMaxCallDepth = 200;

/// Interpreter configuration.
struct InterpOptions {
  uint64_t StepBudget = 100'000'000;
};

/// Executes bytecode against the runtime.  One instance per simulated
/// server; requests share it but reset the heap between requests.
class Interpreter {
public:
  Interpreter(const bc::Repo &R, runtime::ClassTable &Classes,
              runtime::Heap &H, const runtime::BuiltinTable &Builtins,
              InterpOptions Opts = InterpOptions());

  /// Attaches (or detaches, with nullptr) observation callbacks.
  void setCallbacks(ExecCallbacks *CB) { Callbacks = CB; }

  /// When set, accumulates the instructions executed per function (the
  /// VM's per-tier cost model reads this).  Each call() sizes
  /// Counts->Counts to the repo first.
  void setInstrCounts(InstrCounts *C) { Counts = C; }

  /// Print-builtin output sink for the current request; may be null.
  void setOutput(std::string *Out) { Output = Out; }

  /// Calls function \p F with \p Args.  The heap is NOT reset; the caller
  /// owns request boundaries.
  InterpResult call(bc::FuncId F, const std::vector<runtime::Value> &Args);

  const bc::Repo &repo() const { return R; }
  runtime::Heap &heap() { return H; }
  runtime::ClassTable &classes() { return Classes; }

  /// Per-function execution metadata and inline-cache statistics
  /// (deterministic; the perf smoke compares them across runs).
  const InterpCaches &caches() const { return Caches; }

  /// Pre-fills the inline cache at (F, Pc) with a proven-monomorphic
  /// entry (whole-program analysis; ProvenFacts::ICSeeds).  Caches only
  /// what a successful dynamic lookup would cache: the caller supplies
  /// the receiver's ClassLayout as \p Key and the resolved slot/FuncId
  /// as \p Payload.  \returns true when an empty entry was filled; an
  /// unverified function, an out-of-range site or an already-warm entry
  /// is left untouched.
  bool seedIC(bc::FuncId F, uint32_t Pc, const void *Key, uint64_t Payload);

private:
  /// The frame loop.  Instrumented is decided once per frame by
  /// enterFrame: the plain instantiation contains no callback code at
  /// all.  Both run the quickened code and its superinstructions.  The
  /// observed one reports each body event only when \p Observe includes
  /// it, block and type events into \p Record's counters where it
  /// carries them; with FrameObservation::Instrs it fires onInstr per
  /// executed instruction, and every superinstruction runs its sequence
  /// one instruction at a time.
  template <bool Instrumented>
  runtime::Value execFrameFast(const bc::Function &F, FuncExecInfo &Info,
                               bc::FuncId FId, const runtime::Value *Args,
                               uint32_t NumArgs, runtime::Value This,
                               uint32_t Depth, FrameObservation Observe,
                               const FrameRecord &Record);
  /// Frame entry for call() and every call site: the call-depth limit,
  /// then the verifier's verdict (an unverified function faults), then
  /// onFuncEnter, the frame loop its answer selects, and onFuncExit.
  runtime::Value enterFrame(bc::FuncId FId, const runtime::Value *Args,
                            uint32_t NumArgs, runtime::Value This,
                            bc::FuncId Caller, uint32_t Depth);
  runtime::Value fault();

  const bc::Repo &R;
  runtime::ClassTable &Classes;
  runtime::Heap &H;
  const runtime::BuiltinTable &Builtins;
  InterpOptions Opts;
  InterpCaches Caches;

  ExecCallbacks *Callbacks = nullptr;
  InstrCounts *Counts = nullptr;
  std::string *Output = nullptr;

  // Per-call (reset in call()).
  uint64_t Steps = 0;
  uint64_t Faults = 0;
  bool Aborted = false;
};

} // namespace jumpstart::interp

#endif // JUMPSTART_INTERP_INTERPRETER_H
