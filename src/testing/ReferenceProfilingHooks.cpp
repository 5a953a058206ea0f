//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "testing/ReferenceProfilingHooks.h"

#include <cassert>

using namespace jumpstart;
using namespace jumpstart::testing;
using jit::TransKind;

ReferenceProfilingHooks::ReferenceProfilingHooks(jit::Jit &J) : J(J) {}

void ReferenceProfilingHooks::onFuncEnter(bc::FuncId Callee,
                                          bc::FuncId Caller,
                                          const runtime::Value *Args,
                                          uint32_t NumArgs) {
  enterFrame(Callee, Caller, Args, NumArgs, J.currentTranslation(Callee));
}

void ReferenceProfilingHooks::enterFrame(bc::FuncId Callee,
                                         bc::FuncId Caller,
                                         const runtime::Value *Args,
                                         uint32_t NumArgs,
                                         const jit::Translation *T) {
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

  if (J.config().SeederInstrumentation) {
    Frame *Parent = top();
    const jit::VasmUnit *ParentUnit = Parent ? Parent->ActiveUnit : nullptr;
    if (ParentUnit && ParentUnit->isInlined(Callee)) {
      F.ActiveUnit = ParentUnit;
      F.IsInstrumentedOpt = Parent->IsInstrumentedOpt;
    } else if (T && T->Kind == TransKind::Optimized) {
      F.ActiveUnit = T->Unit.get();
      F.IsInstrumentedOpt = true;
      bc::FuncId PhysicalCaller = ParentUnit ? ParentUnit->Func : Caller;
      if (PhysicalCaller.valid())
        J.optProfile().CallArcs[{PhysicalCaller.raw(), Callee.raw()}] += 1;
    }
  }

  Frames.push_back(F);
}

void ReferenceProfilingHooks::onFuncExit(bc::FuncId F) {
  (void)F;
  if (!Frames.empty())
    Frames.pop_back();
}

interp::FrameObservation ReferenceProfilingHooks::observeFrame(bc::FuncId F) {
  assert(!Frames.empty() && Frames.back().Func == F.raw() &&
         "observeFrame outside onFuncEnter");
  (void)F;
  const Frame &Top = Frames.back();
  if ((Top.IsProfileTier && Top.Prof) ||
      (Top.IsInstrumentedOpt && Top.ActiveUnit))
    return interp::FrameObservation::Body;
  return interp::FrameObservation::EntryExit;
}

void ReferenceProfilingHooks::onBlockEnter(bc::FuncId F, uint32_t Block) {
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
    if (VB != jit::VasmUnit::kNoBlock) {
      auto &Counts =
          J.optProfile().VasmBlockCounts[Top->ActiveUnit->Func.raw()];
      if (Counts.size() < Top->ActiveUnit->Blocks.size())
        Counts.resize(Top->ActiveUnit->Blocks.size(), 0);
      Counts[VB] += 1;
    }
  }
}

void ReferenceProfilingHooks::onVirtualCall(bc::FuncId Caller,
                                            uint32_t InstrIndex,
                                            bc::FuncId Callee) {
  (void)Caller;
  Frame *Top = top();
  if (!Top || !Top->IsProfileTier || !Top->Prof)
    return;
  Top->Prof->CallTargets[InstrIndex][Callee.raw()] += 1;
}

void ReferenceProfilingHooks::onTypeObserve(bc::FuncId F, uint32_t InstrIndex,
                                            runtime::Type T) {
  (void)F;
  Frame *Top = top();
  if (!Top || !Top->IsProfileTier || !Top->Prof)
    return;
  Top->Prof->LoadTypes[InstrIndex].observe(T);
}

void ReferenceProfilingHooks::onPropAccess(bc::ClassId Cls, bc::StringId Prop,
                                           bool IsWrite, uint64_t Addr) {
  (void)IsWrite;
  (void)Addr;
  Frame *Top = top();
  if (!Top || !Top->IsProfileTier)
    return;
  const bc::Repo &R = J.repo();
  PropCounts[R.cls(Cls).Name + "::" + R.str(Prop)] += 1;
  if (LastPropCls == Cls.raw() && LastPropName != Prop.raw()) {
    const std::string &A = R.str(bc::StringId(LastPropName));
    const std::string &B = R.str(Prop);
    PropAffinity[R.cls(Cls).Name + "::" +
                 (A < B ? A + "::" + B : B + "::" + A)] += 1;
  }
  LastPropCls = Cls.raw();
  LastPropName = Prop.raw();
}
