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

#include "bytecode/BlockCache.h"
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

/// Interpreter configuration.
struct InterpOptions {
  uint64_t StepBudget = 100'000'000;
  uint32_t MaxCallDepth = 200;
  /// Test-only fault injection: added to every integer Add result.  The
  /// differential conformance oracle (src/testing) uses a nonzero skew to
  /// prove it can detect a single-opcode semantic divergence between two
  /// otherwise identical configurations.  Must be 0 in production.
  int64_t TestOnlyIntAddSkew = 0;
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

  /// When set, element I accumulates the number of instructions executed
  /// in function with raw id I (the VM's per-tier cost model reads this).
  void setInstrCounts(std::vector<uint64_t> *Counts) { InstrCounts = Counts; }

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
  /// all, and only it runs the fused peephole paths.  \p TraceInstrs
  /// (Instrumented only) fires onInstr per executed instruction.
  template <bool Instrumented>
  runtime::Value execFrameFast(const bc::Function &F, FuncExecInfo &Info,
                               bc::FuncId FId, const runtime::Value *Args,
                               uint32_t NumArgs, runtime::Value This,
                               uint32_t Depth, bool TraceInstrs);
  /// Frame entry for call() and every call site: the call-depth limit,
  /// then the verifier's verdict (an unverified function faults), then
  /// onFuncEnter and observeFrame, the frame loop the answer selects, and
  /// onFuncExit.
  runtime::Value enterFrame(bc::FuncId FId, const runtime::Value *Args,
                            uint32_t NumArgs, runtime::Value This,
                            bc::FuncId Caller, uint32_t Depth);
  runtime::Value fault();

  const bc::Repo &R;
  runtime::ClassTable &Classes;
  runtime::Heap &H;
  const runtime::BuiltinTable &Builtins;
  InterpOptions Opts;
  bc::BlockCache Blocks;
  InterpCaches Caches;

  ExecCallbacks *Callbacks = nullptr;
  std::vector<uint64_t> *InstrCounts = nullptr;
  std::string *Output = nullptr;

  // Per-call (reset in call()).
  uint64_t Steps = 0;
  uint64_t Faults = 0;
  bool Aborted = false;
};

} // namespace jumpstart::interp

#endif // JUMPSTART_INTERP_INTERPRETER_H
