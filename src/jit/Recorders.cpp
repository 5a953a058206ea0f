//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/Recorders.h"

#include <cassert>

using namespace jumpstart;
using namespace jumpstart::jit;

JitProfilingHooks::JitProfilingHooks(Jit &J) : J(J) {}

void JitProfilingHooks::onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                                    const runtime::Value *Args,
                                    uint32_t NumArgs) {
  enterFrame(Callee, Caller, Args, NumArgs, J.currentTranslation(Callee));
}

void JitProfilingHooks::enterFrame(bc::FuncId Callee, bc::FuncId Caller,
                                   const runtime::Value *Args,
                                   uint32_t NumArgs, const Translation *T) {
  Frame F;
  F.Func = Callee.raw();

  if (T && T->Kind == TransKind::Profile) {
    F.Slab = &J.recordingSlab(Callee);
    F.Slab->countEntry(Args, NumArgs);
  }

  // Seeder-side instrumentation of optimized code (sections V-A / V-B).
  if (J.config().SeederInstrumentation) {
    const VasmUnit *ParentUnit = Top.ActiveUnit;
    const BlockRange *Inlined =
        ParentUnit ? ParentUnit->inlinedRange(Callee) : nullptr;
    if (Inlined) {
      // Inlined: keep counting in the caller's unit; no entry counter
      // fires, so no tier-2 call arc (the property section V-B needs).
      F.ActiveUnit = ParentUnit;
      F.VasmRow = Top.VasmRow;
      F.VasmBase = Inlined->Base;
      F.VasmBlocks = Inlined->NumBlocks;
    } else if (T && T->Kind == TransKind::Optimized) {
      const VasmUnit &Unit = *T->Unit;
      assert(!Unit.Ranges.empty() && "a lowered unit has its own range");
      profile::OptCounters &Counters = J.optCounters();
      F.ActiveUnit = &Unit;
      F.VasmRow = Counters.row(Unit.Func.raw(),
                               static_cast<uint32_t>(Unit.Blocks.size()));
      F.VasmBase = Unit.Ranges.front().Base;
      F.VasmBlocks = Unit.Ranges.front().NumBlocks;
      // Entry counter: the tier-2 call graph arc.  The caller is the
      // *physical* one -- the unit whose code issued the call -- which
      // differs from the semantic caller when that function was inlined
      // somewhere.  (HHVM's entry instrumentation sees return addresses,
      // i.e. physical callers; this is exactly why the tier-2 graph
      // places code better than the tier-1 graph, section V-B.)
      bc::FuncId PhysicalCaller =
          ParentUnit ? ParentUnit->Func : Caller;
      if (PhysicalCaller.valid())
        Counters.countArc(PhysicalCaller.raw(), Callee.raw());
    }
  }

  Callers.push_back(Top);
  Top = F;
}

void JitProfilingHooks::onFuncExit(bc::FuncId F) {
  (void)F;
  if (Callers.empty())
    return;
  Top = Callers.back();
  Callers.pop_back();
}

namespace {

using interp::FrameObservation;

/// What a profile-tier frame records into its slab.
constexpr FrameObservation kProfileEvents =
    FrameObservation::Blocks | FrameObservation::Types |
    FrameObservation::Props | FrameObservation::VirtualCalls;

} // namespace

FrameObservation JitProfilingHooks::observeFrame(bc::FuncId F) {
  // The interpreter asks right after onFuncEnter(F), so F's frame is on
  // top.  The body hooks below record only in these two cases.
  assert(!Callers.empty() && Top.Func == F.raw() &&
         "observeFrame outside onFuncEnter");
  (void)F;
  FrameObservation Events = FrameObservation::EntryExit;
  if (Top.Slab)
    Events = Events | kProfileEvents;
  if (Top.ActiveUnit)
    Events = Events | FrameObservation::Blocks;
  return Events;
}

void JitProfilingHooks::onBlockEnter(bc::FuncId F, uint32_t Block) {
  (void)F;
  if (Top.Slab)
    Top.Slab->countBlock(Block);
  if (Block < Top.VasmBlocks)
    ++Top.VasmRow[Top.VasmBase + Block];
}

void JitProfilingHooks::onVirtualCall(bc::FuncId Caller, uint32_t InstrIndex,
                                      bc::FuncId Callee) {
  (void)Caller;
  if (Top.Slab)
    Top.Slab->countCallTarget(InstrIndex, Callee.raw());
}

void JitProfilingHooks::onTypeObserve(bc::FuncId F, uint32_t InstrIndex,
                                      runtime::Type T) {
  (void)F;
  if (Top.Slab)
    Top.Slab->observeType(InstrIndex, T);
}

void JitProfilingHooks::onPropAccess(bc::ClassId Cls, bc::StringId Prop,
                                     bool IsWrite, uint64_t Addr) {
  (void)IsWrite;
  (void)Addr;
  if (!Top.Slab)
    return;
  // The paper's seeder-side table keyed "Class::prop" (section V-C),
  // counted by ids; Jit::buildPackage renders the string keys.
  profile::PropCounters &Props = J.propCounters();
  Props.count(Cls, Prop);

  // Affinity: consecutive accesses to two distinct properties of the
  // same class (the section V-C future-work signal), in either order.
  if (LastPropCls == Cls.raw() && LastPropName != Prop.raw())
    Props.countPair(Cls, bc::StringId(LastPropName), Prop);
  LastPropCls = Cls.raw();
  LastPropName = Prop.raw();
}
