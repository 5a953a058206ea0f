//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution-callback implementations that model the JIT's
/// instrumentation:
///
///  - JitProfilingHooks: what instrumented translations record.  For
///    functions running tier-1 (profile) translations it collects block
///    counters, call-target profiles, type observations and
///    property-access counts into the profile store's slabs.  When seeder
///    instrumentation is enabled it additionally collects, for functions
///    running instrumented optimized translations, the Vasm block
///    counters and tier-2 call arcs of paper sections V-A and V-B into
///    the JIT's OptCounters.  Each frame resolves where it records once,
///    at entry, and hands the interpreter those counters as the frame's
///    interp::FrameRecord: the observed loop bumps blocks and types in
///    place, as a baseline tier's generated code bumps its counters.
///    Only property accesses and virtual calls come back as callbacks.
///    A frame asks the interpreter only for the events it records: an
///    instrumented optimized frame asks for its blocks alone.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_RECORDERS_H
#define JUMPSTART_JIT_RECORDERS_H

#include "interp/ExecCallbacks.h"
#include "jit/Jit.h"

#include <cassert>
#include <vector>

namespace jumpstart::jit {

/// The VM server attaches one of these while serving requests; it routes
/// each event to the right profile sink based on the executing function's
/// current tier.
class JitProfilingHooks : public interp::ExecCallbacks {
public:
  explicit JitProfilingHooks(Jit &J) : J(J) {}

  /// Answers the events that land in a profile: blocks, types,
  /// properties and virtual calls in tier-1 (profile) frames, whose
  /// record carries their slab's block counters, type sites and type
  /// counters; under seeder instrumentation, blocks in instrumented
  /// optimized frames, whose record carries their unit's counter row from
  /// their function's base; and the union in a frame that is both (an
  /// inlined callee still running its profile translation).  Every other
  /// frame is EntryExit.
  interp::FrameObservation onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                                       const runtime::Value *Args,
                                       uint32_t NumArgs,
                                       interp::FrameRecord &Record) override;
  void onFuncExit(bc::FuncId F) override;
  void onVirtualCall(bc::FuncId Caller, uint32_t InstrIndex,
                     bc::FuncId Callee) override;
  void onPropAccess(bc::ClassId Cls, bc::StringId Prop, bool IsWrite,
                    uint64_t Addr) override;

protected:
  /// onFuncEnter with \p Callee's current translation already resolved
  /// (\p Best == J.currentTranslation(Callee), as Jit::onFuncEntered
  /// returns it), for subclasses that feed the tiering policy too.
  /// \returns onFuncEnter's answer.
  interp::FrameObservation enterFrame(bc::FuncId Callee, bc::FuncId Caller,
                                      const runtime::Value *Args,
                                      uint32_t NumArgs, const Translation *Best,
                                      interp::FrameRecord &Record);

private:
  struct Frame {
    /// Under seeder instrumentation, the optimized unit whose Vasm
    /// counters this frame bumps (the caller's unit when this function is
    /// inlined there); null in every other frame.
    const VasmUnit *ActiveUnit = nullptr;
    /// ActiveUnit's whole counter row.
    uint64_t *VasmRow = nullptr;
    /// Where the frame records when the function runs its profile
    /// translation; null in every other tier.
    profile::ProfileSlab *Slab = nullptr;
  };

  /// What a profile-tier frame records into its slab.
  static constexpr interp::FrameObservation kProfileEvents =
      interp::FrameObservation::Blocks | interp::FrameObservation::Types |
      interp::FrameObservation::Props | interp::FrameObservation::VirtualCalls;

  /// enterFrame's seeder instrumentation (sections V-A / V-B): resolves
  /// \p F's unit and \p Record's Vasm row, and counts the tier-2 arc.
  void enterInstrumented(bc::FuncId Callee, bc::FuncId Caller,
                         const Translation *T, Frame &F,
                         interp::FrameRecord &Record);

  Jit &J;
  /// The innermost frame, kept out of the stack so every event reads it
  /// directly.  Outside any frame it is a default Frame, which records
  /// nothing.
  Frame Top;
  /// The frames Top interrupted, innermost last.
  std::vector<Frame> Callers;
  /// Previous property access (class raw id and declared slot) for
  /// affinity pairs.
  uint32_t LastPropCls = ~0u;
  uint32_t LastPropSlot = ~0u;
};

// The frame setup is inline: every profiled frame's entry runs it, so a
// subclass's entry (vm's ServerHooks) compiles to one step.

inline void JitProfilingHooks::enterInstrumented(bc::FuncId Callee,
                                                 bc::FuncId Caller,
                                                 const Translation *T,
                                                 Frame &F,
                                                 interp::FrameRecord &Record) {
  const VasmUnit *ParentUnit = Top.ActiveUnit;
  const BlockRange *Inlined =
      ParentUnit ? ParentUnit->inlinedRange(Callee) : nullptr;
  if (Inlined) {
    // Inlined: keep counting in the caller's unit; no entry counter
    // fires, so no tier-2 call arc (the property section V-B needs).
    F.ActiveUnit = ParentUnit;
    F.VasmRow = Top.VasmRow;
    Record.VasmCounts = F.VasmRow + Inlined->Base;
    Record.NumVasmBlocks = Inlined->NumBlocks;
    return;
  }
  if (!T || T->Kind != TransKind::Optimized)
    return;
  const VasmUnit &Unit = *T->Unit;
  assert(!Unit.Ranges.empty() && "a lowered unit has its own range");
  profile::OptCounters &Counters = J.optCounters();
  F.ActiveUnit = &Unit;
  F.VasmRow =
      Counters.row(Unit.Func.raw(), static_cast<uint32_t>(Unit.Blocks.size()));
  Record.VasmCounts = F.VasmRow + Unit.Ranges.front().Base;
  Record.NumVasmBlocks = Unit.Ranges.front().NumBlocks;
  // Entry counter: the tier-2 call graph arc.  The caller is the
  // *physical* one -- the unit whose code issued the call -- which
  // differs from the semantic caller when that function was inlined
  // somewhere.  (HHVM's entry instrumentation sees return addresses,
  // i.e. physical callers; this is exactly why the tier-2 graph places
  // code better than the tier-1 graph, section V-B.)
  bc::FuncId PhysicalCaller = ParentUnit ? ParentUnit->Func : Caller;
  if (PhysicalCaller.valid())
    Counters.countArc(PhysicalCaller.raw(), Callee.raw());
}

inline interp::FrameObservation
JitProfilingHooks::enterFrame(bc::FuncId Callee, bc::FuncId Caller,
                              const runtime::Value *Args, uint32_t NumArgs,
                              const Translation *T,
                              interp::FrameRecord &Record) {
  using interp::FrameObservation;
  Frame F;
  if (T && T->Kind == TransKind::Profile) {
    profile::ProfileSlab &Slab = J.recordingSlab(Callee);
    Slab.countEntry(Args, NumArgs);
    F.Slab = &Slab;
    Record.BlockCounts = Slab.BlockCounts.data();
    Record.TypeSiteOfPc = Slab.SiteOfPc.data();
    Record.Types = Slab.Types.data();
  }
  if (J.config().SeederInstrumentation)
    enterInstrumented(Callee, Caller, T, F, Record);

  Callers.push_back(Top);
  Top = F;
  FrameObservation Events = FrameObservation::EntryExit;
  if (F.Slab)
    Events = Events | kProfileEvents;
  if (F.ActiveUnit)
    Events = Events | FrameObservation::Blocks;
  return Events;
}

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_RECORDERS_H
