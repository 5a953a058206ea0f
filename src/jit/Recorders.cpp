//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/Recorders.h"

using namespace jumpstart;
using namespace jumpstart::jit;

interp::FrameObservation
JitProfilingHooks::onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                               const runtime::Value *Args, uint32_t NumArgs,
                               interp::FrameRecord &Record) {
  return enterFrame(Callee, Caller, Args, NumArgs,
                    J.currentTranslation(Callee), Record);
}

void JitProfilingHooks::onFuncExit(bc::FuncId F) {
  (void)F;
  if (Callers.empty())
    return;
  Top = Callers.back();
  Callers.pop_back();
}

void JitProfilingHooks::onVirtualCall(bc::FuncId Caller, uint32_t InstrIndex,
                                      bc::FuncId Callee) {
  (void)Caller;
  if (Top.Slab)
    Top.Slab->countCallTarget(InstrIndex, Callee.raw());
}

void JitProfilingHooks::onPropAccess(bc::ClassId Cls, bc::StringId Prop,
                                     bool IsWrite, uint64_t Addr) {
  (void)IsWrite;
  (void)Addr;
  if (!Top.Slab)
    return;
  // The paper's seeder-side table keyed "Class::prop" (section V-C),
  // counted by declared slot; Jit::buildPackage renders the string keys.
  profile::PropCounters &Props = J.propCounters();
  uint32_t Slot = Props.count(Cls, Prop);

  // Affinity: consecutive accesses to two distinct properties of the
  // same class (the section V-C future-work signal), in either order.
  if (LastPropCls == Cls.raw() && LastPropSlot != Slot)
    Props.countPair(Cls, LastPropSlot, Slot);
  LastPropCls = Cls.raw();
  LastPropSlot = Slot;
}
