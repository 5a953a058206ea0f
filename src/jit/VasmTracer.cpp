//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/VasmTracer.h"

#include <bit>
#include <cassert>

using namespace jumpstart;
using namespace jumpstart::jit;

/// Simulated address range of the interpreter's dispatch loop.  The
/// interpreter itself is compact, hot native code; interpreted bytecode
/// execution fetches from this small region (poor per-bytecode efficiency
/// comes from executing many dispatch instructions, not from fetch
/// misses).
static constexpr uint64_t kInterpBase = 0x08000000ull;
static constexpr uint64_t kInterpSize = 16 * 1024;

VasmTracer::VasmTracer(Jit &J, sim::MachineSim &Machine)
    : J(J), Machine(Machine) {}

std::unique_ptr<VasmTracer::TransPlan>
VasmTracer::buildPlan(const Translation &T) const {
  const VasmUnit &Unit = *T.Unit;
  const uint32_t LineShift =
      static_cast<uint32_t>(std::countr_zero(Machine.config().L1I.LineBytes));
  constexpr uint32_t PageShift =
      static_cast<uint32_t>(std::countr_zero(sim::kPageBytes));
  auto P = std::make_unique<TransPlan>();
  P->Blocks.resize(Unit.Blocks.size());
  // One more access to the line or page at Addr, in the runs that start
  // at index First: back-to-back accesses share a run.
  auto Add = [&](size_t First, uint64_t Addr) {
    if (P->Runs.size() > First && P->Runs.back().Addr == Addr)
      ++P->Runs.back().Count;
    else
      P->Runs.push_back({Addr, 1});
  };
  for (uint32_t VB = 0; VB < Unit.Blocks.size(); ++VB) {
    const std::vector<VInstr> &Instrs = Unit.Blocks[VB].Instrs;
    BlockPlan &B = P->Blocks[VB];
    B.Addr = T.BlockAddrs[VB];
    B.EndAddr = B.Addr + Unit.Blocks[VB].sizeBytes();
    B.TermAddr = Instrs.empty() ? B.Addr : B.EndAddr - Instrs.back().SizeBytes;
    B.EndsInCondBranch =
        !Instrs.empty() && Instrs.back().Kind == VKind::CondBranch;

    // A jump elided at placement does not exist in the code stream.
    size_t Count = Instrs.size();
    if (Count && VB < T.JumpElided.size() && T.JumpElided[VB])
      --Count;
    // Each instruction reads every line its bytes touch, and translates
    // its own address once.
    B.FirstRun = static_cast<uint32_t>(P->Runs.size());
    uint64_t Addr = B.Addr;
    for (size_t I = 0; I < Count; ++I) {
      uint32_t Size = Instrs[I].SizeBytes;
      uint64_t Last = (Addr + (Size ? Size - 1 : 0)) >> LineShift;
      for (uint64_t Line = Addr >> LineShift; Line <= Last; ++Line)
        Add(B.FirstRun, Line << LineShift);
      Addr += Size;
    }
    const size_t FirstPage = P->Runs.size();
    Addr = B.Addr;
    for (size_t I = 0; I < Count; ++I) {
      Add(FirstPage, Addr >> PageShift << PageShift);
      Addr += Instrs[I].SizeBytes;
    }
    B.NumLines = static_cast<uint32_t>(FirstPage - B.FirstRun);
    B.NumPages = static_cast<uint32_t>(P->Runs.size() - FirstPage);
  }
  P->Own = Unit.Ranges.front();
  // The smallest mask under which the inlined functions' ids differ:
  // distinct ids differ below their highest bit, so the doubling ends.
  std::span<const BlockRange> Inlined = Unit.inlined();
  auto Index = [&](uint32_t Mask) {
    P->Inlined.assign(Mask + 1, BlockRange());
    P->InlineMask = Mask;
    for (const BlockRange &R : Inlined) {
      BlockRange &B = P->Inlined[R.Func.raw() & Mask];
      if (B.Func.valid())
        return false;
      B = R;
    }
    return true;
  };
  uint32_t Mask = std::bit_ceil(static_cast<uint32_t>(Inlined.size())) - 1;
  while (!Index(Mask))
    Mask = 2 * Mask + 1;
  return P;
}

const VasmTracer::TransPlan &VasmTracer::planFor(const Translation &T) {
  // Safe to cache: a translation is placed once, and its block addresses
  // and jump elisions never change after that.
  if (T.Id >= Plans.size())
    Plans.resize(T.Id + 1);
  if (!Plans[T.Id])
    Plans[T.Id] = buildPlan(T);
  return *Plans[T.Id];
}

void VasmTracer::onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                             const runtime::Value *Args, uint32_t NumArgs) {
  (void)Caller;
  (void)Args;
  (void)NumArgs;
  Frame F;
  F.Func = Callee.raw();
  // The callee's own translation decides whether the interpreter runs it
  // (observeFrame), even when its body is inlined into the caller's.
  // best() returns placed translations only.
  const Translation *T = J.transDb().best(Callee);
  F.Interpreted = T == nullptr;
  const Frame *Parent = top();
  const BlockRange *Inlined =
      Parent && Parent->Plan ? Parent->Plan->inlinedRange(Callee) : nullptr;
  if (Inlined) {
    // Inlined body: tracing continues within the caller's unit.
    F.trace(*Parent->Plan, *Inlined);
  } else if (T) {
    const TransPlan &P = planFor(*T);
    F.trace(P, P.Own);
  }
  Frames.push_back(F);
}

void VasmTracer::onFuncExit(bc::FuncId F) {
  (void)F;
  if (!Frames.empty())
    Frames.pop_back();
}

void VasmTracer::onBlockEnter(bc::FuncId FuncId, uint32_t Block) {
  Frame *F = top();
  if (!F || !F->Plan)
    return;
  // Every entered function pushes its own frame, inlined bodies included,
  // and onFuncExit runs on abort paths too: a block event always belongs
  // to the top frame's function.
  assert(F->Func == FuncId.raw() && "block event outside the top frame");
  (void)FuncId;
  if (Block >= F->NumBlocks)
    return;
  const uint32_t VB = F->Base + Block;
  const BlockPlan &Next = F->Blocks[VB];

  // Resolve the previous block's conditional branch now that we know
  // where control actually went.  "Taken" is a *layout* property: the
  // branch falls through when the next executed block is placed
  // physically adjacent; any other placement makes this a taken branch.
  // This is exactly the lever Ext-TSP block layout pulls (paper section
  // V-A): laying the hot successor next to the block converts its taken
  // branches into fallthroughs.
  if (F->LastVasmBlock != VasmUnit::kNoBlock) {
    const BlockPlan &Last = F->Blocks[F->LastVasmBlock];
    if (Last.EndsInCondBranch)
      Machine.condBranch(Last.TermAddr, Next.Addr != Last.EndAddr,
                         Next.Addr);
  }

  const sim::FetchRun *Lines = F->Runs + Next.FirstRun;
  Machine.fetchBlock({Lines, Next.NumLines},
                     {Lines + Next.NumLines, Next.NumPages});
  F->LastVasmBlock = VB;
}

interp::FrameObservation VasmTracer::observeFrame(bc::FuncId F) {
  // Per-instruction events are only needed for interpreted functions, to
  // model the dispatch loop's footprint.  The interpreter asks right after
  // onFuncEnter(F), so F's frame is on top.
  assert(!Frames.empty() && Frames.back().Func == F.raw() &&
         "observeFrame outside onFuncEnter");
  (void)F;
  using interp::FrameObservation;
  return Frames.back().Interpreted
             ? FrameObservation::BodyAndInstrs
             : FrameObservation::Blocks | FrameObservation::Props |
                   FrameObservation::Data | FrameObservation::VirtualCalls;
}

void VasmTracer::onInstr(bc::FuncId F, uint32_t InstrIndex, uint32_t Depth) {
  (void)F;
  (void)InstrIndex;
  (void)Depth;
  // One interpreted bytecode: several dispatch-loop instructions.  Model
  // as three fetches walking a small hot region.
  for (int I = 0; I < 3; ++I) {
    Machine.fetch(kInterpBase + (InterpCursor % kInterpSize), 12);
    InterpCursor += 64;
  }
}

void VasmTracer::onVirtualCall(bc::FuncId Caller, uint32_t InstrIndex,
                               bc::FuncId Callee) {
  (void)Caller;
  (void)InstrIndex;
  Frame *F = top();
  if (!F || !F->Plan)
    return;
  // Devirtualized or inlined sites compile to guarded direct calls; only
  // genuinely indirect sites stress the target predictor.
  if (F->Plan->inlinedRange(Callee))
    return;
  uint64_t Target = 0;
  if (const Translation *T = J.transDb().best(Callee))
    Target = T->entryAddr();
  uint64_t Pc = F->LastVasmBlock != VasmUnit::kNoBlock
                    ? F->Blocks[F->LastVasmBlock].TermAddr
                    : 0;
  Machine.indirectBranch(Pc, Target);
}

void VasmTracer::onPropAccess(bc::ClassId Cls, bc::StringId Prop,
                              bool IsWrite, uint64_t Addr) {
  (void)Cls;
  (void)Prop;
  Machine.dataAccess(Addr, IsWrite);
}

void VasmTracer::onDataAccess(uint64_t Addr, bool IsWrite) {
  Machine.dataAccess(Addr, IsWrite);
}
