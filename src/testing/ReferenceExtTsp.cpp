//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "testing/ReferenceExtTsp.h"

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::layout;

namespace {

/// Scores one edge given source end offset and destination start offset.
double scoreEdge(uint64_t Weight, uint64_t SrcEnd, uint64_t DstStart,
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

/// The greedy chain-merging optimizer.
class ExtTspSolver {
public:
  ExtTspSolver(const Cfg &G, const ExtTspParams &P) : G(G), P(P) {
    size_t N = G.numBlocks();
    OutEdges.resize(N);
    for (const CfgEdge &E : G.edges()) {
      if (E.Src != E.Dst) // self-loops score nothing under any layout
        OutEdges[E.Src].push_back(E);
    }
    ChainOf.resize(N);
    for (uint32_t B = 0; B < N; ++B) {
      Chains.push_back({B});
      ChainOf[B] = B;
    }
  }

  std::vector<uint32_t> solve();

private:
  /// Ext-TSP score of the blocks in \p Chain laid out consecutively,
  /// counting only edges internal to the chain.
  double chainScore(const std::vector<uint32_t> &Chain) const;

  /// Best merged form of chains A and B and its score; considers A+B,
  /// B+A, and (for short A) splitting A around B.
  double bestMerge(uint32_t A, uint32_t B,
                   std::vector<uint32_t> &MergedOut) const;

  uint64_t chainBytes(const std::vector<uint32_t> &Chain) const {
    uint64_t Total = 0;
    for (uint32_t Block : Chain)
      Total += G.block(Block).SizeBytes;
    return Total;
  }

  uint64_t chainWeight(const std::vector<uint32_t> &Chain) const {
    uint64_t Total = 0;
    for (uint32_t Block : Chain)
      Total += G.block(Block).Weight;
    return Total;
  }

  const Cfg &G;
  const ExtTspParams &P;
  std::vector<std::vector<CfgEdge>> OutEdges;
  std::vector<std::vector<uint32_t>> Chains; ///< empty = absorbed
  std::vector<uint32_t> ChainOf;             ///< block -> chain index

  /// Splitting is only attempted on chains at most this many blocks long
  /// (bounds the cubic factor; matches the spirit of the reference
  /// implementation's chain-split threshold).
  static constexpr size_t kSplitLimit = 32;
};

double ExtTspSolver::chainScore(const std::vector<uint32_t> &Chain) const {
  if (Chain.size() < 2)
    return 0.0;
  // Block start offsets within the chain.
  // (Position map is small; linear scan keeps this allocation-free for
  // typical chains.)
  double Score = 0.0;
  for (size_t I = 0; I < Chain.size(); ++I) {
    uint64_t SrcStart = 0;
    for (size_t J = 0; J < I; ++J)
      SrcStart += G.block(Chain[J]).SizeBytes;
    uint64_t SrcEnd = SrcStart + G.block(Chain[I]).SizeBytes;
    for (const CfgEdge &E : OutEdges[Chain[I]]) {
      // Find Dst within this chain.
      uint64_t DstStart = 0;
      bool Found = false;
      for (uint32_t Block : Chain) {
        if (Block == E.Dst) {
          Found = true;
          break;
        }
        DstStart += G.block(Block).SizeBytes;
      }
      if (Found)
        Score += scoreEdge(E.Weight, SrcEnd, DstStart, P);
    }
  }
  return Score;
}

double ExtTspSolver::bestMerge(uint32_t A, uint32_t B,
                               std::vector<uint32_t> &MergedOut) const {
  const std::vector<uint32_t> &CA = Chains[A];
  const std::vector<uint32_t> &CB = Chains[B];
  double Best = -1.0;

  auto Consider = [&](std::vector<uint32_t> Candidate) {
    // The entry block must remain first in whatever chain holds it.
    if (ChainOf[0] == A || ChainOf[0] == B) {
      if (Candidate.front() != 0 &&
          std::find(Candidate.begin(), Candidate.end(), 0u) !=
              Candidate.end())
        return;
    }
    double Score = chainScore(Candidate);
    if (Score > Best) {
      Best = Score;
      MergedOut = std::move(Candidate);
    }
  };

  // Concatenations.
  {
    std::vector<uint32_t> AB = CA;
    AB.insert(AB.end(), CB.begin(), CB.end());
    Consider(std::move(AB));
  }
  {
    std::vector<uint32_t> BA = CB;
    BA.insert(BA.end(), CA.begin(), CA.end());
    Consider(std::move(BA));
  }
  // Splits of A around B: A1 + B + A2.
  if (CA.size() >= 2 && CA.size() <= kSplitLimit) {
    for (size_t Split = 1; Split < CA.size(); ++Split) {
      std::vector<uint32_t> Candidate(CA.begin(), CA.begin() + Split);
      Candidate.insert(Candidate.end(), CB.begin(), CB.end());
      Candidate.insert(Candidate.end(), CA.begin() + Split, CA.end());
      Consider(std::move(Candidate));
    }
  }
  return Best;
}

std::vector<uint32_t> ExtTspSolver::solve() {
  // Greedily merge the pair of chains whose best merged form yields the
  // largest score gain, until no merge helps.
  for (;;) {
    double BestGain = 1e-9;
    uint32_t BestA = 0;
    uint32_t BestB = 0;
    std::vector<uint32_t> BestMerged;

    // Candidate pairs are chains connected by at least one edge.
    for (uint32_t Src = 0; Src < G.numBlocks(); ++Src) {
      for (const CfgEdge &E : OutEdges[Src]) {
        uint32_t A = ChainOf[E.Src];
        uint32_t B = ChainOf[E.Dst];
        if (A == B)
          continue;
        std::vector<uint32_t> Merged;
        double MergedScore = bestMerge(A, B, Merged);
        if (Merged.empty())
          continue;
        double Gain =
            MergedScore - chainScore(Chains[A]) - chainScore(Chains[B]);
        if (Gain > BestGain) {
          BestGain = Gain;
          BestA = A;
          BestB = B;
          BestMerged = std::move(Merged);
        }
      }
    }
    if (BestMerged.empty())
      break;
    // Apply: A absorbs the merged chain, B empties.
    Chains[BestA] = std::move(BestMerged);
    Chains[BestB].clear();
    for (uint32_t Block : Chains[BestA])
      ChainOf[Block] = BestA;
  }

  // Order chains: the entry chain first, the rest by density (hotness per
  // byte), ties broken by original index for determinism.
  std::vector<uint32_t> ChainIds;
  for (uint32_t C = 0; C < Chains.size(); ++C)
    if (!Chains[C].empty())
      ChainIds.push_back(C);

  uint32_t EntryChain = ChainOf[0];
  std::stable_sort(ChainIds.begin(), ChainIds.end(),
                   [&](uint32_t A, uint32_t B) {
                     if (A == EntryChain)
                       return true;
                     if (B == EntryChain)
                       return false;
                     uint64_t BytesA = std::max<uint64_t>(1, chainBytes(Chains[A]));
                     uint64_t BytesB = std::max<uint64_t>(1, chainBytes(Chains[B]));
                     double DensA = static_cast<double>(chainWeight(Chains[A])) /
                                    static_cast<double>(BytesA);
                     double DensB = static_cast<double>(chainWeight(Chains[B])) /
                                    static_cast<double>(BytesB);
                     return DensA > DensB;
                   });

  std::vector<uint32_t> Order;
  Order.reserve(G.numBlocks());
  for (uint32_t C : ChainIds)
    for (uint32_t Block : Chains[C])
      Order.push_back(Block);
  return Order;
}

} // namespace

std::vector<uint32_t>
jumpstart::testing::referenceExtTspOrder(const Cfg &G,
                                         const ExtTspParams &Params) {
  if (G.numBlocks() == 0)
    return {};
  if (G.numBlocks() == 1)
    return {0};
  ExtTspSolver Solver(G, Params);
  return Solver.solve();
}

layout::Cfg jumpstart::testing::randomExtTspCfg(Rng &R, uint32_t NumBlocks) {
  bool Uniform = R.nextBool(0.25);
  bool Backbone = R.nextBool(0.75);
  double ZeroOdds = R.nextBool(0.25) ? 0.3 : 0.0;
  double IsolatedOdds = R.nextBool(0.2) ? 0.2 : 0.0;
  Cfg G;
  std::vector<bool> Isolated(NumBlocks);
  for (uint32_t B = 0; B < NumBlocks; ++B) {
    uint32_t Size = 16;
    uint64_t Weight = 100;
    if (!Uniform) {
      Size = static_cast<uint32_t>(R.nextBelow(64));
      Weight = R.nextBool(ZeroOdds) ? 0 : R.nextBelow(1000);
    }
    G.addBlock(Size, Weight);
    Isolated[B] = B != 0 && R.nextBool(IsolatedOdds);
  }
  auto AddEdge = [&](uint32_t Src, uint32_t Dst, uint64_t Weight) {
    if (!Isolated[Src] && !Isolated[Dst])
      G.addEdge(Src, Dst, Uniform ? 10 : Weight);
  };
  auto RandomWeight = [&]() -> uint64_t {
    return R.nextBool(ZeroOdds) ? 0 : 1 + R.nextBelow(500);
  };
  auto RandomBlock = [&] {
    return static_cast<uint32_t>(R.nextBelow(NumBlocks));
  };
  // A heavy backbone merges into fallthrough chains longer than the
  // split limit once the graph has more than 32 blocks.
  if (Backbone)
    for (uint32_t B = 0; B + 1 < NumBlocks; ++B)
      AddEdge(B, B + 1, 500 + R.nextBelow(500));
  // Random edges, self-loops and repeats (which accumulate) included.
  // Each draw is its own statement, so every compiler draws in one order.
  uint64_t Extra = R.nextBelow(2 * uint64_t(NumBlocks) + 1);
  for (uint64_t I = 0; I < Extra; ++I) {
    uint32_t Src = RandomBlock();
    uint32_t Dst = RandomBlock();
    AddEdge(Src, Dst, RandomWeight());
  }
  for (uint64_t I = R.nextBelow(4); I > 0; --I) {
    uint32_t B = RandomBlock();
    AddEdge(B, B, RandomWeight());
  }
  // Edges into the entry, whose candidates the entry rule rejects.
  for (uint64_t I = R.nextBelow(4); I > 0; --I) {
    uint32_t Src = RandomBlock();
    AddEdge(Src, 0, RandomWeight());
  }
  return G;
}
