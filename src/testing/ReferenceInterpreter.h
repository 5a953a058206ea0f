//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference interpreter: the original `while + switch` bytecode loop,
/// kept only so the conformance tests have an independent implementation
/// to diff the production interp::Interpreter against.
///
/// It has the production interpreter's surface -- call(), callbacks,
/// per-function instruction counts, print output, InterpOptions -- and
/// must agree with it on every observable: results, faults, step totals,
/// abort points, callback streams and simulated heap addresses.  It too
/// reports only the body events each frame's onFuncEnter answer
/// includes, block and type events into the frame's interp::FrameRecord
/// where it carries them.  It deliberately never gains an
/// optimization: per-instruction budget checks and callback tests, two
/// std::vector allocations per frame (charged to Heap::noteHostAllocs), a
/// fresh VmString per Op::Str, and no inline caches.
///
/// It runs verified bytecode only (bc::verifyFunctionIssues); unlike the
/// production interpreter it does not reject anything else.
///
/// It alone can inject a fault: a skew added to every integer Add
/// result.  The conformance oracle's negative control (skewConfig) sets
/// one to prove that it catches a single-opcode semantic divergence.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_TESTING_REFERENCEINTERPRETER_H
#define JUMPSTART_TESTING_REFERENCEINTERPRETER_H

#include "bytecode/BlockCache.h"
#include "bytecode/Repo.h"
#include "interp/ExecCallbacks.h"
#include "interp/Interpreter.h"
#include "runtime/Builtins.h"
#include "runtime/ClassLayout.h"
#include "runtime/Heap.h"
#include "runtime/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jumpstart::testing {

class ReferenceInterpreter {
public:
  ReferenceInterpreter(const bc::Repo &R, runtime::ClassTable &Classes,
                       runtime::Heap &H, const runtime::BuiltinTable &Builtins,
                       interp::InterpOptions Opts = interp::InterpOptions(),
                       int64_t IntAddSkew = 0);

  /// Attaches (or detaches, with nullptr) observation callbacks.
  void setCallbacks(interp::ExecCallbacks *CB) { Callbacks = CB; }

  /// As interp::Interpreter::setInstrCounts.
  void setInstrCounts(interp::InstrCounts *C) { Counts = C; }

  /// Print-builtin output sink for the current request; may be null.
  void setOutput(std::string *Out) { Output = Out; }

  /// Calls function \p F with \p Args.  The heap is NOT reset; the caller
  /// owns request boundaries.
  interp::InterpResult call(bc::FuncId F,
                            const std::vector<runtime::Value> &Args);

private:
  runtime::Value execFrame(bc::FuncId FId, const runtime::Value *Args,
                           uint32_t NumArgs, runtime::Value This,
                           bc::FuncId Caller, uint32_t Depth);
  runtime::Value fault();

  const bc::Repo &R;
  runtime::ClassTable &Classes;
  runtime::Heap &H;
  const runtime::BuiltinTable &Builtins;
  interp::InterpOptions Opts;
  /// Added to every integer Add result; 0 is the faithful interpreter.
  int64_t IntAddSkew;
  bc::BlockCache Blocks;

  interp::ExecCallbacks *Callbacks = nullptr;
  interp::InstrCounts *Counts = nullptr;
  std::string *Output = nullptr;

  // Per-call (reset in call()).
  uint64_t Steps = 0;
  uint64_t Faults = 0;
  bool Aborted = false;
};

} // namespace jumpstart::testing

#endif // JUMPSTART_TESTING_REFERENCEINTERPRETER_H
