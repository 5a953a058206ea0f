//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/TransLayout.h"

#include "layout/ExtTsp.h"
#include "layout/HotCold.h"
#include "support/Assert.h"

#include <algorithm>
#include <numeric>

using namespace jumpstart;
using namespace jumpstart::jit;

namespace {
/// Blocks below this fraction of the entry weight are cold.
constexpr double kColdRatio = 0.01;
} // namespace

layout::Cfg jumpstart::jit::layoutCfg(const VasmUnit &Unit) {
  layout::Cfg G;
  for (const VBlock &B : Unit.Blocks)
    G.addBlock(B.sizeBytes(), B.Weight);
  auto EdgeWeight = [&](uint32_t Src, uint32_t Dst) {
    uint64_t WS = Unit.Blocks[Src].Weight;
    uint64_t WD = Unit.Blocks[Dst].Weight;
    uint64_t W = std::min(WS, WD);
    return W ? W : 1; // keep the graph connected for the solver
  };
  for (uint32_t B = 0; B < Unit.Blocks.size(); ++B) {
    const VBlock &VB = Unit.Blocks[B];
    if (VB.Taken != VBlock::kNoSucc)
      G.addEdge(B, VB.Taken, EdgeWeight(B, VB.Taken));
    if (VB.Fallthru != VBlock::kNoSucc)
      G.addEdge(B, VB.Fallthru, EdgeWeight(B, VB.Fallthru));
  }
  for (const VasmUnit::CallEdge &E : Unit.CallEdges)
    G.addEdge(E.Src, E.Dst, EdgeWeight(E.Src, E.Dst));
  return G;
}

UnitLayout jumpstart::jit::layoutUnit(const VasmUnit &Unit,
                                      const LayoutOptions &Opts) {
  UnitLayout Result;
  if (Unit.Blocks.empty())
    return Result;

  layout::Cfg G = layoutCfg(Unit);
  std::vector<uint32_t> Order;
  if (Opts.UseExtTsp) {
    Order = layout::extTspOrder(G);
  } else {
    Order.resize(Unit.Blocks.size());
    std::iota(Order.begin(), Order.end(), 0u);
  }

  if (!Opts.SplitCold) {
    Result.HotOrder = std::move(Order);
    return Result;
  }
  layout::HotColdSplit Split = layout::splitHotCold(G, Order, kColdRatio);
  Result.HotOrder = std::move(Split.Hot);
  Result.ColdOrder = std::move(Split.Cold);
  return Result;
}

void jumpstart::jit::injectVasmCounts(VasmUnit &Unit,
                                      const std::vector<uint64_t> &Counts) {
  size_t N = std::min(Unit.Blocks.size(), Counts.size());
  for (size_t I = 0; I < N; ++I)
    Unit.Blocks[I].Weight = Counts[I];
}

bool jumpstart::jit::placeTranslation(Translation &T, CodeCache &Cache,
                                      CodeArea HotArea,
                                      const UnitLayout &Layout) {
  const VasmUnit &Unit = *T.Unit;

  // Jump elision: a block ending in an unconditional jump whose target is
  // placed immediately after it drops the jump entirely.
  T.JumpElided.assign(Unit.Blocks.size(), false);
  auto MarkElisions = [&](const std::vector<uint32_t> &Order) {
    for (size_t I = 0; I + 1 < Order.size(); ++I) {
      const VBlock &B = Unit.Blocks[Order[I]];
      if (!B.Instrs.empty() && B.Instrs.back().Kind == VKind::Jump &&
          B.Taken == Order[I + 1])
        T.JumpElided[Order[I]] = true;
    }
  };
  MarkElisions(Layout.HotOrder);
  MarkElisions(Layout.ColdOrder);

  auto EffectiveSize = [&](uint32_t B) -> uint64_t {
    uint64_t Size = Unit.Blocks[B].sizeBytes();
    if (T.JumpElided[B])
      Size -= Unit.Blocks[B].Instrs.back().SizeBytes;
    return Size;
  };

  uint64_t HotBytes = 0;
  for (uint32_t B : Layout.HotOrder)
    HotBytes += EffectiveSize(B);
  uint64_t ColdBytes = 0;
  for (uint32_t B : Layout.ColdOrder)
    ColdBytes += EffectiveSize(B);

  uint64_t HotBase = Cache.allocate(HotArea, HotBytes);
  if (HotBase == 0)
    return false;
  uint64_t ColdBase = 0;
  if (ColdBytes) {
    ColdBase = Cache.allocate(CodeArea::Cold, ColdBytes);
    if (ColdBase == 0)
      return false;
  }

  T.BlockAddrs.assign(Unit.Blocks.size(), 0);
  uint64_t Cursor = HotBase;
  for (uint32_t B : Layout.HotOrder) {
    T.BlockAddrs[B] = Cursor;
    Cursor += EffectiveSize(B);
  }
  Cursor = ColdBase;
  for (uint32_t B : Layout.ColdOrder) {
    T.BlockAddrs[B] = Cursor;
    Cursor += EffectiveSize(B);
  }
  // Layout must have covered every block exactly once.
  alwaysAssert(Layout.HotOrder.size() + Layout.ColdOrder.size() ==
                   Unit.Blocks.size(),
               "layout does not cover all blocks");
  T.Placed = true;
  return true;
}

layout::CallGraph
jumpstart::jit::buildTier1CallGraph(const bc::Repo &R, bc::BlockCache &Blocks,
                                    const profile::ProfileStore &Store) {
  layout::CallGraph G;
  for (const auto &[FuncRaw, Prof] : Store.all()) {
    const bc::Function &F = R.func(bc::FuncId(FuncRaw));
    // Node size approximates the optimized translation: ~3 bytes per
    // bytecode (the actual size is unknown until tier-2 runs).
    G.setNode(FuncRaw, static_cast<uint32_t>(F.Code.size() * 3 + 16),
              Prof.totalSamples());
    const bc::BlockList &BL = Blocks.blocks(bc::FuncId(FuncRaw));
    bool HaveCounts = Prof.BlockCounts.size() == BL.numBlocks();
    // Direct call sites, weighted by the enclosing block's count.
    for (uint32_t Pc = 0; Pc < F.Code.size(); ++Pc) {
      const bc::Instr &In = F.Code[Pc];
      if (In.Opcode == bc::Op::FCall) {
        uint64_t W =
            HaveCounts ? Prof.BlockCounts[BL.blockOf(Pc)] : 1;
        if (W)
          G.addArc(FuncRaw, In.funcImm().raw(), W);
      }
    }
    // Virtual sites from the call-target profiles.
    for (const auto &[Pc, Targets] : Prof.CallTargets) {
      (void)Pc;
      for (const auto &[Callee, Count] : Targets)
        if (Count)
          G.addArc(FuncRaw, Callee, Count);
    }
  }
  return G;
}

layout::CallGraph
jumpstart::jit::buildTier2CallGraph(const bc::Repo &R,
                                    const profile::OptProfile &Opt,
                                    const profile::ProfileStore &Store) {
  layout::CallGraph G;
  for (const auto &[Arc, Count] : Opt.CallArcs) {
    if (Count)
      G.addArc(Arc.first, Arc.second, Count);
  }
  // Node attributes still come from tier-1 hotness and sizes.
  for (const auto &[FuncRaw, Prof] : Store.all()) {
    const bc::Function &F = R.func(bc::FuncId(FuncRaw));
    G.setNode(FuncRaw, static_cast<uint32_t>(F.Code.size() * 3 + 16),
              Prof.totalSamples());
  }
  return G;
}
