//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution observation interface.
///
/// The interpreter is the single semantic core for every execution tier;
/// tiers differ in *what is observed* while code runs.  The tier-1
/// profiling translator attaches a callback that bumps bytecode-block
/// counters and call-target profiles; the seeder's instrumented optimized
/// code attaches one that additionally counts Vasm blocks, function entries
/// and property accesses; steady-state measurement attaches the Vasm
/// tracer that feeds the micro-architecture simulator.
///
/// Observation is decided per frame: right after onFuncEnter the
/// interpreter asks observeFrame, and a frame answered EntryExit runs the
/// same plain body, over quickened code, as a frame with no callbacks
/// attached.
/// A tier pays only for what it records.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_INTERP_EXECCALLBACKS_H
#define JUMPSTART_INTERP_EXECCALLBACKS_H

#include "bytecode/Ids.h"
#include "runtime/Value.h"

#include <cstdint>

namespace jumpstart::interp {

/// What the interpreter reports for one frame (ExecCallbacks::observeFrame).
enum class FrameObservation : uint8_t {
  /// onFuncEnter and onFuncExit only; the body runs unobserved.
  EntryExit,
  /// Every body event except onInstr.
  Body,
  /// Every body event, onInstr for each executed instruction included.
  BodyAndInstrs,
};

/// Observation hooks; all default to no-ops.  Body events fire only in
/// frames whose observeFrame answer asks for them; every other frame, and
/// every frame when no callback object is attached, runs the plain
/// interpreter body.
class ExecCallbacks {
public:
  virtual ~ExecCallbacks() = default;

  /// A frame for \p Callee was entered from \p Caller (invalid FuncId for
  /// the request's entry point) with \p NumArgs arguments in \p Args.
  virtual void onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                           const runtime::Value *Args, uint32_t NumArgs) {
    (void)Callee;
    (void)Caller;
    (void)Args;
    (void)NumArgs;
  }

  /// The frame for \p F returned.
  virtual void onFuncExit(bc::FuncId F) { (void)F; }

  /// Execution entered bytecode basic block \p Block of \p F.
  virtual void onBlockEnter(bc::FuncId F, uint32_t Block) {
    (void)F;
    (void)Block;
  }

  /// What to report for the frame of \p F just entered.  Queried once per
  /// frame, right after onFuncEnter for \p F; onFuncExit fires whatever
  /// the answer.  Calls made from the frame ask again for their own
  /// frames.
  virtual FrameObservation observeFrame(bc::FuncId F) {
    (void)F;
    return FrameObservation::Body;
  }

  /// Instruction \p InstrIndex of \p F is about to execute at call depth
  /// \p Depth (only in BodyAndInstrs frames).
  virtual void onInstr(bc::FuncId F, uint32_t InstrIndex, uint32_t Depth) {
    (void)F;
    (void)InstrIndex;
    (void)Depth;
  }

  /// A virtual (FCallObj) dispatch at \p InstrIndex of \p Caller resolved
  /// to \p Callee.  Drives the JIT's call-target profiles.
  virtual void onVirtualCall(bc::FuncId Caller, uint32_t InstrIndex,
                             bc::FuncId Callee) {
    (void)Caller;
    (void)InstrIndex;
    (void)Callee;
  }

  /// A dynamically-typed operation at instruction \p InstrIndex of \p F
  /// observed runtime type \p T (the primary operand or result type).
  /// Drives the tier-1 type profile used for specialization.
  virtual void onTypeObserve(bc::FuncId F, uint32_t InstrIndex,
                             runtime::Type T) {
    (void)F;
    (void)InstrIndex;
    (void)T;
  }

  /// Property \p Prop of class \p Cls was accessed at simulated address
  /// \p Addr.  Drives the property-access profile (paper section V-C) and
  /// the D-cache simulation.
  virtual void onPropAccess(bc::ClassId Cls, bc::StringId Prop, bool IsWrite,
                            uint64_t Addr) {
    (void)Cls;
    (void)Prop;
    (void)IsWrite;
    (void)Addr;
  }

  /// A container element at simulated address \p Addr was accessed.
  virtual void onDataAccess(uint64_t Addr, bool IsWrite) {
    (void)Addr;
    (void)IsWrite;
  }
};

} // namespace jumpstart::interp

#endif // JUMPSTART_INTERP_EXECCALLBACKS_H
