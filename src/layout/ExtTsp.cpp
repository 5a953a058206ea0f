//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "layout/ExtTsp.h"

#include "support/Assert.h"

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::layout;

void Cfg::addEdge(uint32_t Src, uint32_t Dst, uint64_t Weight) {
  assert(Src < Blocks.size() && Dst < Blocks.size() && "edge out of range");
  for (uint32_t I = FirstOut[Src]; I != kNoEdge; I = NextOut[I]) {
    if (Edges[I].Dst == Dst) {
      Edges[I].Weight += Weight;
      return;
    }
  }
  NextOut.push_back(FirstOut[Src]);
  FirstOut[Src] = static_cast<uint32_t>(Edges.size());
  Edges.push_back(CfgEdge{Src, Dst, Weight});
}

namespace {

/// Scores one edge given source end offset and destination start offset.
inline double scoreEdge(uint64_t Weight, uint64_t SrcEnd, uint64_t DstStart,
                        const ExtTspParams &P) {
  double W = static_cast<double>(Weight);
  if (DstStart == SrcEnd)
    return P.FallthroughWeight * W;
  if (DstStart > SrcEnd) {
    uint64_t Dist = DstStart - SrcEnd;
    if (Dist <= P.ForwardDistance)
      return P.ForwardWeight * W *
             (1.0 - static_cast<double>(Dist) /
                        static_cast<double>(P.ForwardDistance));
    return 0.0;
  }
  uint64_t Dist = SrcEnd - DstStart;
  if (Dist <= P.BackwardDistance)
    return P.BackwardWeight * W *
           (1.0 - static_cast<double>(Dist) /
                      static_cast<double>(P.BackwardDistance));
  return 0.0;
}

/// The greedy chain-merging optimizer.  Chain ids are block ids: chain C
/// starts as block C alone, and a merge moves the absorbed chain's blocks
/// into the absorbing one.
///
/// The solver is incremental.  It caches each chain's score and the best
/// merge of each ordered chain pair (A, B) that an edge from A into B
/// connects.  A pair's best merge depends only on the block lists of its
/// two chains and on which of them holds block 0, so a merge invalidates
/// only the pairs that touch the two merged chains.  Every other rule is
/// that of re-evaluating every pair on every iteration: pairs are scanned
/// in the order of their first (source block, out-edge) position, a gain
/// must beat the best so far strictly, and scores sum in chain order.
class ExtTspSolver {
public:
  ExtTspSolver(const Cfg &G, const ExtTspParams &P);

  std::vector<uint32_t> solve();

private:
  static constexpr uint32_t kNone = ~0u;

  /// Splitting is only attempted on chains at most this many blocks long
  /// (bounds the cubic factor, as LLVM's Ext-TSP bounds chain splitting).
  static constexpr size_t kSplitLimit = 32;

  struct OutEdge {
    uint32_t Dst = 0;
    uint64_t Weight = 0;
  };

  /// Where a block sits in its chain.
  struct Place {
    uint32_t Chain = 0;
    uint32_t Next = kNone; ///< the next block in the chain
    uint32_t Pos = 0;      ///< position in the chain
    uint64_t Offset = 0;   ///< byte offset in the chain
  };

  struct Chain {
    uint32_t Head = 0; ///< first block
    uint32_t Size = 1; ///< blocks; 0 once absorbed
    uint64_t Bytes = 0;
    double Score = 0.0;
    /// The last merge that met a pair (this chain, X) or (X, this chain),
    /// for spotting the pairs that a merge makes one.
    uint32_t OutSeen = 0;
    uint32_t InSeen = 0;
  };

  /// Ordered chain pair (A, B) and its cached best merge: A's blocks
  /// before position Split, then all of B, then the rest of A.  Split ==
  /// |A| is the concatenation A+B and Split == 0 is B+A.
  struct ChainPair {
    uint32_t A = 0;
    uint32_t B = 0;
    uint32_t Split = 0;
    bool Live = true;      ///< false once A and B merged, or a duplicate
    bool Valid = false;    ///< the cached merge is for A's and B's blocks
    bool HasMerge = false; ///< some shape keeps block 0 first
    double Score = 0.0;    ///< score of the best merged chain
    double Gain = 0.0;     ///< Score minus the scores of A and B
  };

  /// An edge from a block of the pair being evaluated to another block of
  /// it, with each end placed within its own chain.
  struct PairEdge {
    uint64_t SrcEnd = 0;   ///< source block's end offset in its chain
    uint64_t DstStart = 0; ///< destination's start offset in its chain
    uint64_t Weight = 0;
    uint32_t DstPos = 0; ///< destination's position in A; kNone if in B
  };

  /// Fills in \p Pr's best merge; considers A+B, B+A, and (for short A)
  /// splitting A around B, keeping the first best.
  void evaluate(ChainPair &Pr);

  /// Ext-TSP score of the evaluated pair's A with B (\p BBytes long)
  /// inserted before A's block at position \p Split, counting only edges
  /// internal to the merged chain.  Sums in chain order, each block's
  /// out-edges in CFG order, as a score of the materialized chain would.
  double mergedScore(size_t Split, uint64_t BBytes) const;

  /// The term of the evaluated pair's edge \p I in that merged chain.
  double shapeTerm(size_t I, size_t Split, uint64_t BBytes) const;

  /// Applies pair \p Index's merge: A absorbs B.
  void merge(uint32_t Index);

  const Cfg &G;
  const ExtTspParams &P;
  std::vector<uint32_t> EdgeBegin; ///< block -> first of its OutEdges
  std::vector<OutEdge> OutEdges;   ///< by source block; no self-loops
  std::vector<Place> Places;       ///< by block
  std::vector<Chain> Chains;
  /// Indexed by first scan position, so the scan order is index order.
  std::vector<ChainPair> Pairs;
  std::vector<uint32_t> LivePairs; ///< indices, ascending; may hold dead
  uint32_t Merges = 0;
  /// Whether evaluate() may skip shapes by bound: every term is >= 0.
  bool Bounded = false;
  /// Relative rounding error that covers any float sum of terms here.
  double Slack = 0.0;

  /// The evaluated pair's edges: from A's blocks, then from B's.
  std::vector<PairEdge> Edges;
  size_t NumEdgesA = 0;
  /// Per position I of A (and one past A's end): where its block starts
  /// and the first of Edges from position I onwards.
  struct SplitPoint {
    uint64_t Offset = 0;
    uint32_t FirstEdge = 0;
  };
  std::vector<SplitPoint> Splits;
  /// Index into Edges of each edge between A and B, either way.
  std::vector<uint32_t> CrossEdges;
  /// Differences of the stretch term between consecutive splits.
  std::vector<double> StretchSteps;
};

ExtTspSolver::ExtTspSolver(const Cfg &G, const ExtTspParams &P)
    : G(G), P(P) {
  uint32_t N = static_cast<uint32_t>(G.numBlocks());
  EdgeBegin.assign(N + 1, 0);
  for (const CfgEdge &E : G.edges())
    if (E.Src != E.Dst) // self-loops score nothing under any layout
      ++EdgeBegin[E.Src + 1];
  for (uint32_t B = 0; B < N; ++B)
    EdgeBegin[B + 1] += EdgeBegin[B];
  uint32_t NumEdges = EdgeBegin[N];
  OutEdges.resize(NumEdges);
  std::vector<uint32_t> Fill(EdgeBegin.begin(), EdgeBegin.end() - 1);
  for (const CfgEdge &E : G.edges())
    if (E.Src != E.Dst)
      OutEdges[Fill[E.Src]++] = OutEdge{E.Dst, E.Weight};

  Places.resize(N);
  Chains.resize(N);
  for (uint32_t B = 0; B < N; ++B) {
    Places[B].Chain = B;
    Chains[B].Head = B;
    Chains[B].Bytes = G.block(B).SizeBytes;
  }
  // Every chain is one block, so each edge is its own pair (the CFG holds
  // one edge per block pair), created in scan order.
  Pairs.resize(NumEdges);
  LivePairs.resize(NumEdges);
  for (uint32_t Src = 0; Src < N; ++Src) {
    for (uint32_t I = EdgeBegin[Src]; I < EdgeBegin[Src + 1]; ++I) {
      Pairs[I].A = Src;
      Pairs[I].B = OutEdges[I].Dst;
      LivePairs[I] = I;
    }
  }

  Bounded = P.FallthroughWeight >= 0 && P.ForwardWeight >= 0 &&
            P.BackwardWeight >= 0;
  // A float sum of n terms is off by at most about n * 2^-53 of the sum
  // of their magnitudes; this is 32 times that, for any sum evaluate()
  // forms.
  Slack = static_cast<double>(NumEdges + 2) * 0x1p-48;
  Edges.reserve(NumEdges);
  Splits.reserve(N + 1);
}

double ExtTspSolver::shapeTerm(size_t I, size_t Split,
                               uint64_t BBytes) const {
  const PairEdge &E = Edges[I];
  uint64_t BStart = Splits[Split].Offset;
  uint64_t SrcEnd = I >= NumEdgesA                  ? BStart + E.SrcEnd
                    : I < Splits[Split].FirstEdge ? E.SrcEnd
                                                  : E.SrcEnd + BBytes;
  uint64_t DstStart = E.DstPos == kNone  ? BStart + E.DstStart
                      : E.DstPos < Split ? E.DstStart
                                         : E.DstStart + BBytes;
  return scoreEdge(E.Weight, SrcEnd, DstStart, P);
}

double ExtTspSolver::mergedScore(size_t Split, uint64_t BBytes) const {
  // A's edges before the split, then B's, then the rest of A's.
  double Score = 0.0;
  size_t Mid = Splits[Split].FirstEdge;
  for (size_t I = 0; I < Mid; ++I)
    Score += shapeTerm(I, Split, BBytes);
  for (size_t I = NumEdgesA; I < Edges.size(); ++I)
    Score += shapeTerm(I, Split, BBytes);
  for (size_t I = Mid; I < NumEdgesA; ++I)
    Score += shapeTerm(I, Split, BBytes);
  return Score;
}

void ExtTspSolver::evaluate(ChainPair &Pr) {
  const Chain &CA = Chains[Pr.A];
  const Chain &CB = Chains[Pr.B];
  // The shapes in order: A+B (split at |A|), B+A (split at 0), then A
  // split before each of its blocks, if A is short enough.  The entry
  // block must remain first in whatever chain holds it, so B+A is out if
  // A holds it, and A+B and every split if B does.
  bool HoldsEntry = Places[0].Chain == Pr.A || Places[0].Chain == Pr.B;
  size_t SizeA = CA.Size;
  bool TrySplits = SizeA >= 2 && SizeA <= kSplitLimit &&
                   (!HoldsEntry || CA.Head == 0);
  size_t NumShapes = TrySplits ? SizeA + 1 : 2;

  // Where splits are tried, each shape is first bounded, and skipped if
  // the bound cannot beat the best shape so far.  In real arithmetic a
  // shape's score regroups into the scores of A and B; plus, for each
  // edge inside A whose ends the split puts on both sides of B, its
  // stretched term minus its term in A; plus the terms of the edges
  // between A and B.  An edge's stretched term is the same for every
  // split it spans, so one pass over A's edges gives the stretch of every
  // split, and only the edges between A and B are scored per shape.  The
  // float sums differ from the real ones by less than Slack times the
  // sum of the magnitudes (Mag), which is added to the bound, so a
  // skipped shape's exact score could not have beaten the best.
  bool Bound = TrySplits && Bounded;
  double Mag = CA.Score + CB.Score;
  CrossEdges.clear();
  if (Bound)
    StretchSteps.assign(SizeA + 1, 0.0);
  Edges.clear();
  Splits.clear();
  for (uint32_t C : {Pr.A, Pr.B}) {
    uint32_t Pos = 0;
    for (uint32_t Src = Chains[C].Head; Src != kNone;
         Src = Places[Src].Next, ++Pos) {
      uint64_t SrcStart = Places[Src].Offset;
      if (C == Pr.A)
        Splits.push_back({SrcStart, static_cast<uint32_t>(Edges.size())});
      uint64_t SrcEnd = SrcStart + G.block(Src).SizeBytes;
      for (uint32_t I = EdgeBegin[Src]; I < EdgeBegin[Src + 1]; ++I) {
        const OutEdge &E = OutEdges[I];
        const Place &Dst = Places[E.Dst];
        if (Dst.Chain != Pr.A && Dst.Chain != Pr.B)
          continue;
        uint32_t DstPos = Dst.Chain == Pr.A ? Dst.Pos : kNone;
        if (Bound && Dst.Chain != C) {
          CrossEdges.push_back(static_cast<uint32_t>(Edges.size()));
        } else if (Bound && C == Pr.A) {
          double InA = scoreEdge(E.Weight, SrcEnd, Dst.Offset, P);
          double Stretched =
              Pos < DstPos
                  ? scoreEdge(E.Weight, SrcEnd, Dst.Offset + CB.Bytes, P)
                  : scoreEdge(E.Weight, SrcEnd + CB.Bytes, Dst.Offset, P);
          // The edge spans the splits after the first of its ends up to
          // and including the second.
          StretchSteps[std::min(Pos, DstPos) + 1] += Stretched - InA;
          StretchSteps[std::max(Pos, DstPos) + 1] -= Stretched - InA;
          Mag += InA + Stretched;
        }
        Edges.push_back(PairEdge{SrcEnd, Dst.Offset, E.Weight, DstPos});
      }
    }
    if (C == Pr.A) {
      NumEdgesA = Edges.size();
      Splits.push_back({CA.Bytes, static_cast<uint32_t>(NumEdgesA)});
    }
  }

  double Stretch = 0.0;
  double Best = -1.0;
  Pr.HasMerge = false;
  for (size_t Shape = 0; Shape < NumShapes; ++Shape) {
    size_t Split = Shape == 0 ? SizeA : Shape - 1;
    if (Bound && Shape > 0)
      Stretch += StretchSteps[Split];
    uint32_t Front = Split == 0 ? CB.Head : CA.Head;
    if (HoldsEntry && Front != 0)
      continue;
    if (Bound && Shape > 0) { // nothing to beat before the first shape
      double Cross = 0.0;
      for (uint32_t I : CrossEdges)
        Cross += shapeTerm(I, Split, CB.Bytes);
      double Limit = CA.Score + CB.Score + Stretch + Cross;
      if (Limit + (Mag + Cross) * Slack <= Best)
        continue;
    }
    double Score = mergedScore(Split, CB.Bytes);
    if (Score > Best) {
      Best = Score;
      Pr.Split = static_cast<uint32_t>(Split);
      Pr.HasMerge = true;
    }
  }
  Pr.Score = Best;
  Pr.Gain = Best - CA.Score - CB.Score;
  Pr.Valid = true;
}

void ExtTspSolver::merge(uint32_t Index) {
  const ChainPair &Won = Pairs[Index];
  uint32_t A = Won.A;
  uint32_t B = Won.B;
  Chain &CA = Chains[A];
  Chain &CB = Chains[B];
  // Splice B's blocks in before A's block at position Split.
  uint32_t BTail = CB.Head;
  while (Places[BTail].Next != kNone)
    BTail = Places[BTail].Next;
  if (Won.Split == 0) {
    Places[BTail].Next = CA.Head;
    CA.Head = CB.Head;
  } else {
    uint32_t Before = CA.Head;
    for (uint32_t I = 1; I < Won.Split; ++I)
      Before = Places[Before].Next;
    Places[BTail].Next = Places[Before].Next;
    Places[Before].Next = CB.Head;
  }
  CA.Size += CB.Size;
  CB.Size = 0;
  CA.Bytes += CB.Bytes;
  CA.Score = Won.Score;
  uint32_t Pos = 0;
  uint64_t Offset = 0;
  for (uint32_t Block = CA.Head; Block != kNone; Block = Places[Block].Next) {
    Places[Block].Chain = A;
    Places[Block].Pos = Pos++;
    Places[Block].Offset = Offset;
    Offset += G.block(Block).SizeBytes;
  }

  // Re-point B's pairs at A and invalidate every pair that touches A.
  // Where (A, X) and (B, X) become the same pair, the one earlier in the
  // scan survives: that is where the scan first meets the merged pair.
  ++Merges;
  for (uint32_t I : LivePairs) {
    ChainPair &Pr = Pairs[I];
    if (!Pr.Live || (Pr.A != A && Pr.A != B && Pr.B != A && Pr.B != B))
      continue;
    if (Pr.A == B)
      Pr.A = A;
    if (Pr.B == B)
      Pr.B = A;
    if (Pr.A == Pr.B) {
      Pr.Live = false;
      continue;
    }
    Pr.Valid = false;
    uint32_t &Seen = Pr.A == A ? Chains[Pr.B].InSeen : Chains[Pr.A].OutSeen;
    if (Seen == Merges)
      Pr.Live = false;
    Seen = Merges;
  }
}

std::vector<uint32_t> ExtTspSolver::solve() {
  // Greedily merge the pair of chains whose best merged form yields the
  // largest score gain, until no merge helps.
  for (;;) {
    double BestGain = 1e-9;
    uint32_t Best = kNone;
    size_t Kept = 0;
    for (uint32_t I : LivePairs) {
      ChainPair &Pr = Pairs[I];
      if (!Pr.Live)
        continue;
      LivePairs[Kept++] = I;
      if (!Pr.Valid)
        evaluate(Pr);
      if (Pr.HasMerge && Pr.Gain > BestGain) {
        BestGain = Pr.Gain;
        Best = I;
      }
    }
    LivePairs.resize(Kept);
    if (Best == kNone)
      break;
    merge(Best);
  }

  // Order chains: the entry chain first, the rest by density (hotness per
  // byte), ties broken by original index for determinism.
  uint32_t EntryChain = Places[0].Chain;
  std::vector<std::pair<double, uint32_t>> ByDensity;
  for (uint32_t C = 0; C < Chains.size(); ++C) {
    if (Chains[C].Size == 0 || C == EntryChain)
      continue;
    uint64_t Weight = 0;
    for (uint32_t Block = Chains[C].Head; Block != kNone;
         Block = Places[Block].Next)
      Weight += G.block(Block).Weight;
    double Density =
        static_cast<double>(Weight) /
        static_cast<double>(std::max<uint64_t>(1, Chains[C].Bytes));
    ByDensity.emplace_back(Density, C);
  }
  std::sort(ByDensity.begin(), ByDensity.end(),
            [](const auto &L, const auto &R) {
              return L.first > R.first ||
                     (L.first == R.first && L.second < R.second);
            });

  std::vector<uint32_t> Order;
  Order.reserve(G.numBlocks());
  auto Append = [&](uint32_t C) {
    for (uint32_t Block = Chains[C].Head; Block != kNone;
         Block = Places[Block].Next)
      Order.push_back(Block);
  };
  Append(EntryChain);
  for (const auto &[Density, C] : ByDensity)
    Append(C);
  return Order;
}

} // namespace

double jumpstart::layout::extTspScore(const Cfg &G,
                                      const std::vector<uint32_t> &Order,
                                      const ExtTspParams &Params) {
  assert(Order.size() == G.numBlocks() && "order must cover all blocks");
  std::vector<uint64_t> Start(G.numBlocks(), 0);
  uint64_t Offset = 0;
  for (uint32_t Block : Order) {
    Start[Block] = Offset;
    Offset += G.block(Block).SizeBytes;
  }
  double Score = 0.0;
  for (const CfgEdge &E : G.edges()) {
    if (E.Src == E.Dst)
      continue;
    uint64_t SrcEnd = Start[E.Src] + G.block(E.Src).SizeBytes;
    Score += scoreEdge(E.Weight, SrcEnd, Start[E.Dst], Params);
  }
  return Score;
}

std::vector<uint32_t>
jumpstart::layout::extTspOrder(const Cfg &G, const ExtTspParams &Params) {
  if (G.numBlocks() == 0)
    return {};
  if (G.numBlocks() == 1)
    return {0};
  ExtTspSolver Solver(G, Params);
  return Solver.solve();
}
