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
/// Observation is decided per frame, in the frame's one entry call:
/// onFuncEnter answers the set of body events the frame it opens reports,
/// and may hand back a FrameRecord, counters the loop bumps in place for
/// the frame's block and type events instead of calling back.  The
/// observed loop tests that set before each event, and a frame answered
/// the empty set (EntryExit) runs the same plain body as a frame with no
/// callbacks attached.  A tier pays only for what it records: an
/// instrumented optimized frame of a seeder asks for its blocks alone.
/// Observed and plain frames run the same quickened code,
/// superinstructions included; each event still fires at the instruction
/// it names, exactly as if every instruction had been dispatched on its
/// own.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_INTERP_EXECCALLBACKS_H
#define JUMPSTART_INTERP_EXECCALLBACKS_H

#include "bytecode/Ids.h"
#include "profile/TypeObservation.h"
#include "runtime/Value.h"

#include <cstdint>

namespace jumpstart::interp {

/// The body events the interpreter reports for one frame (the answer of
/// ExecCallbacks::onFuncEnter), one bit per callback; onFuncEnter and
/// onFuncExit fire whatever the set.
enum class FrameObservation : uint8_t {
  /// No body event: the body runs unobserved.
  EntryExit = 0,
  Blocks = 1 << 0,       ///< onBlockEnter, or the record's block counters
  Types = 1 << 1,        ///< onTypeObserve, or the record's type counters
  Props = 1 << 2,        ///< onPropAccess
  Data = 1 << 3,         ///< onDataAccess
  VirtualCalls = 1 << 4, ///< onVirtualCall
  Instrs = 1 << 5,       ///< onInstr
  /// Every body event except onInstr.
  Body = Blocks | Types | Props | Data | VirtualCalls,
  /// Every body event, onInstr for each executed instruction included.
  BodyAndInstrs = Body | Instrs,
};

constexpr FrameObservation operator|(FrameObservation A, FrameObservation B) {
  return static_cast<FrameObservation>(static_cast<uint8_t>(A) |
                                       static_cast<uint8_t>(B));
}

/// Whether \p Set includes any event of \p Events.
constexpr bool observes(FrameObservation Set, FrameObservation Events) {
  return (static_cast<uint8_t>(Set) & static_cast<uint8_t>(Events)) != 0;
}

/// Where one frame counts its block and type events in place: the
/// counters a recorder resolved when the frame was entered.  A frame that
/// observes Blocks and whose record carries blocks bumps its block
/// counters on every block entry and never calls onBlockEnter; one that
/// observes Types and whose record carries types bumps a type counter at
/// every type event and never calls onTypeObserve.  Every other event
/// goes to its callback.  The counters must outlive the frame.
struct FrameRecord {
  /// Bytecode block B counts in BlockCounts[B]; null for none.
  uint64_t *BlockCounts = nullptr;
  /// A second block counter row (a seeder's Vasm counters): block B
  /// counts in VasmCounts[B] for B < NumVasmBlocks.
  uint64_t *VasmCounts = nullptr;
  uint32_t NumVasmBlocks = 0;
  /// A type event at instruction Pc observes into Types[TypeSiteOfPc[Pc]];
  /// both null for none.  TypeSiteOfPc maps every instruction
  /// bc::opObservesTypes accepts.
  const uint32_t *TypeSiteOfPc = nullptr;
  profile::TypeObservation *Types = nullptr;

  bool carriesBlocks() const { return BlockCounts || NumVasmBlocks; }
  bool carriesTypes() const { return Types != nullptr; }
};

/// Observation hooks; all default to no-ops.  A body event fires only in
/// frames whose onFuncEnter answer includes it; a frame answered
/// EntryExit, and every frame when no callback object is attached, runs
/// the plain interpreter body.
class ExecCallbacks {
public:
  virtual ~ExecCallbacks() = default;

  /// A frame for \p Callee was entered from \p Caller (invalid FuncId for
  /// the request's entry point) with \p NumArgs arguments in \p Args.
  /// \returns the body events to report for this frame; onFuncExit fires
  /// whatever the answer.  \p Record arrives empty; filling it in makes
  /// the frame count the events it carries in place.  Calls made from the
  /// frame answer for their own frames.
  virtual FrameObservation onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                                       const runtime::Value *Args,
                                       uint32_t NumArgs, FrameRecord &Record) {
    (void)Callee;
    (void)Caller;
    (void)Args;
    (void)NumArgs;
    (void)Record;
    return FrameObservation::Body;
  }

  /// The frame for \p F returned.
  virtual void onFuncExit(bc::FuncId F) { (void)F; }

  /// Execution entered bytecode basic block \p Block of \p F (in frames
  /// whose record carries no blocks).
  virtual void onBlockEnter(bc::FuncId F, uint32_t Block) {
    (void)F;
    (void)Block;
  }

  /// Instruction \p InstrIndex of \p F is about to execute at call depth
  /// \p Depth (only in frames that observe Instrs).
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
  /// observed runtime type \p T (the primary operand or result type), in
  /// frames whose record carries no types.  Tier-1 type profiles, which
  /// drive specialization, count these.
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
