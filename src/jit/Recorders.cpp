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
    F.IsProfileTier = true;
    F.Prof = &J.profileStore().getOrCreate(Callee.raw());
    F.Prof->EntryCount += 1;
    if (F.Prof->ParamTypes.size() < NumArgs)
      F.Prof->ParamTypes.resize(NumArgs);
    for (uint32_t I = 0; I < NumArgs; ++I)
      F.Prof->ParamTypes[I].observe(Args[I].T);
  }

  // Seeder-side instrumentation of optimized code (sections V-A / V-B).
  if (J.config().SeederInstrumentation) {
    Frame *Parent = top();
    const VasmUnit *ParentUnit = Parent ? Parent->ActiveUnit : nullptr;
    if (ParentUnit && ParentUnit->isInlined(Callee)) {
      // Inlined: keep counting in the caller's unit; no entry counter
      // fires, so no tier-2 call arc (the property section V-B needs).
      F.ActiveUnit = ParentUnit;
      F.IsInstrumentedOpt = Parent->IsInstrumentedOpt;
    } else if (T && T->Kind == TransKind::Optimized) {
      F.ActiveUnit = T->Unit.get();
      F.IsInstrumentedOpt = true;
      // Entry counter: the tier-2 call graph arc.  The caller is the
      // *physical* one -- the unit whose code issued the call -- which
      // differs from the semantic caller when that function was inlined
      // somewhere.  (HHVM's entry instrumentation sees return addresses,
      // i.e. physical callers; this is exactly why the tier-2 graph
      // places code better than the tier-1 graph, section V-B.)
      bc::FuncId PhysicalCaller =
          ParentUnit ? ParentUnit->Func : Caller;
      if (PhysicalCaller.valid())
        J.optProfile().CallArcs[{PhysicalCaller.raw(), Callee.raw()}] += 1;
    }
  }

  Frames.push_back(F);
}

void JitProfilingHooks::onFuncExit(bc::FuncId F) {
  (void)F;
  if (!Frames.empty())
    Frames.pop_back();
}

interp::FrameObservation JitProfilingHooks::observeFrame(bc::FuncId F) {
  // The interpreter asks right after onFuncEnter(F), so F's frame is on
  // top.  The body hooks below record only in these two cases.
  assert(!Frames.empty() && Frames.back().Func == F.raw() &&
         "observeFrame outside onFuncEnter");
  (void)F;
  const Frame &Top = Frames.back();
  if ((Top.IsProfileTier && Top.Prof) ||
      (Top.IsInstrumentedOpt && Top.ActiveUnit))
    return interp::FrameObservation::Body;
  return interp::FrameObservation::EntryExit;
}

void JitProfilingHooks::onBlockEnter(bc::FuncId F, uint32_t Block) {
  Frame *Top = top();
  if (!Top)
    return;
  if (Top->IsProfileTier && Top->Prof) {
    size_t NumBlocks = J.blockCache().blocks(F).numBlocks();
    if (Top->Prof->BlockCounts.size() < NumBlocks)
      Top->Prof->BlockCounts.resize(NumBlocks, 0);
    Top->Prof->BlockCounts[Block] += 1;
  }
  if (Top->IsInstrumentedOpt && Top->ActiveUnit) {
    uint32_t VB = Top->ActiveUnit->findBlock(F, Block);
    if (VB != VasmUnit::kNoBlock) {
      auto &Counts =
          J.optProfile().VasmBlockCounts[Top->ActiveUnit->Func.raw()];
      if (Counts.size() < Top->ActiveUnit->Blocks.size())
        Counts.resize(Top->ActiveUnit->Blocks.size(), 0);
      Counts[VB] += 1;
    }
  }
}

void JitProfilingHooks::onVirtualCall(bc::FuncId Caller, uint32_t InstrIndex,
                                      bc::FuncId Callee) {
  Frame *Top = top();
  if (!Top || !Top->IsProfileTier || !Top->Prof)
    return;
  (void)Caller;
  Top->Prof->CallTargets[InstrIndex][Callee.raw()] += 1;
}

void JitProfilingHooks::onTypeObserve(bc::FuncId F, uint32_t InstrIndex,
                                      runtime::Type T) {
  (void)F;
  Frame *Top = top();
  if (!Top || !Top->IsProfileTier || !Top->Prof)
    return;
  Top->Prof->LoadTypes[InstrIndex].observe(T);
}

void JitProfilingHooks::onPropAccess(bc::ClassId Cls, bc::StringId Prop,
                                     bool IsWrite, uint64_t Addr) {
  (void)IsWrite;
  (void)Addr;
  Frame *Top = top();
  if (!Top || !Top->IsProfileTier)
    return;
  // The paper's seeder-side hash table keyed "Class::prop" (section V-C).
  // Building the key allocates and hashes a string on every property
  // access in a tier-1 frame, a measurable share of a profiling server's
  // host time; keying by (ClassId, StringId) would avoid it.
  const bc::Repo &R = J.repo();
  std::string Key = R.cls(Cls).Name + "::" + R.str(Prop);
  J.propCounts()[Key] += 1;

  // Affinity: consecutive accesses to two distinct properties of the
  // same class (the section V-C future-work signal).  Keys use
  // lexicographic property order so "a then b" and "b then a" merge.
  if (LastPropCls == Cls.raw() && LastPropName != Prop.raw()) {
    const std::string &A = R.str(bc::StringId(LastPropName));
    const std::string &B = R.str(Prop);
    std::string PairKey = R.cls(Cls).Name + "::" +
                          (A < B ? A + "::" + B : B + "::" + A);
    J.propAffinity()[PairKey] += 1;
  }
  LastPropCls = Cls.raw();
  LastPropName = Prop.raw();
}
