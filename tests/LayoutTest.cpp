//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for the code-layout optimizations: Ext-TSP
/// basic-block ordering (diffed against the reference solver), hot/cold
/// splitting, and C3 / Pettis-Hansen function sorting.
///
//===----------------------------------------------------------------------===//

#include "layout/ExtTsp.h"
#include "layout/FunctionSort.h"
#include "layout/HotCold.h"
#include "support/Random.h"
#include "testing/ReferenceExtTsp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>

using namespace jumpstart;
using namespace jumpstart::layout;
using jumpstart::testing::randomExtTspCfg;
using jumpstart::testing::referenceExtTspOrder;

namespace {

/// Checks that \p Order is a permutation of 0..N-1.
void expectPermutation(const std::vector<uint32_t> &Order, size_t N) {
  ASSERT_EQ(Order.size(), N);
  std::set<uint32_t> Seen(Order.begin(), Order.end());
  EXPECT_EQ(Seen.size(), N) << "order contains duplicates";
  if (!Order.empty()) {
    EXPECT_LT(*std::max_element(Order.begin(), Order.end()), N);
  }
}

/// A diamond CFG: 0 -> {1 hot, 2 cold} -> 3.
Cfg makeDiamond() {
  Cfg G;
  G.addBlock(16, 100); // 0 entry
  G.addBlock(32, 90);  // 1 hot arm
  G.addBlock(32, 10);  // 2 cold arm
  G.addBlock(16, 100); // 3 join
  G.addEdge(0, 1, 90);
  G.addEdge(0, 2, 10);
  G.addEdge(1, 3, 90);
  G.addEdge(2, 3, 10);
  return G;
}

Cfg makeRandomCfg(Rng &R, size_t NumBlocks) {
  Cfg G;
  for (size_t I = 0; I < NumBlocks; ++I)
    G.addBlock(8 + static_cast<uint32_t>(R.nextBelow(64)),
               R.nextBelow(1000));
  // A chain backbone guarantees connectivity, plus random extra edges.
  for (size_t I = 0; I + 1 < NumBlocks; ++I)
    G.addEdge(static_cast<uint32_t>(I), static_cast<uint32_t>(I + 1),
              1 + R.nextBelow(100));
  for (size_t I = 0; I < NumBlocks; ++I) {
    uint32_t Src = static_cast<uint32_t>(R.nextBelow(NumBlocks));
    uint32_t Dst = static_cast<uint32_t>(R.nextBelow(NumBlocks));
    if (Src != Dst)
      G.addEdge(Src, Dst, 1 + R.nextBelow(500));
  }
  return G;
}

} // namespace

TEST(Cfg, RepeatedEdgesAccumulateInFirstInsertionOrder) {
  // Repeats of a pair add onto its first occurrence, wherever other edges
  // from the same source, into the same destination or in reverse came
  // in between; self-loops and zero weights too.
  Cfg G;
  for (uint32_t B = 0; B < 4; ++B)
    G.addBlock(8);
  G.addEdge(0, 1, 5);
  G.addEdge(0, 2, 1);
  G.addEdge(2, 1, 7);
  G.addEdge(1, 0, 3);
  G.addEdge(0, 1, 10);
  G.addEdge(3, 3, 0);
  G.addEdge(0, 2, 4);
  G.addEdge(2, 1, 0);
  G.addEdge(3, 3, 6);
  G.addEdge(0, 3, 2);
  G.addEdge(0, 1, 100);
  using Edge = std::tuple<uint32_t, uint32_t, uint64_t>;
  std::vector<Edge> Edges;
  for (const CfgEdge &E : G.edges())
    Edges.emplace_back(E.Src, E.Dst, E.Weight);
  EXPECT_EQ(Edges, (std::vector<Edge>{{0, 1, 115},
                                      {0, 2, 5},
                                      {2, 1, 7},
                                      {1, 0, 3},
                                      {3, 3, 6},
                                      {0, 3, 2}}));
}

TEST(ExtTsp, SingleBlock) {
  Cfg G;
  G.addBlock(16, 1);
  auto Order = extTspOrder(G);
  ASSERT_EQ(Order.size(), 1u);
  EXPECT_EQ(Order[0], 0u);
}

TEST(ExtTsp, EmptyCfg) {
  Cfg G;
  EXPECT_TRUE(extTspOrder(G).empty());
}

TEST(ExtTsp, PrefersHotFallthrough) {
  Cfg G = makeDiamond();
  auto Order = extTspOrder(G);
  expectPermutation(Order, 4);
  EXPECT_EQ(Order[0], 0u) << "entry must stay first";
  // The hot arm (1) should be laid out directly after the entry.
  EXPECT_EQ(Order[1], 1u);
}

TEST(ExtTsp, ScoreOfFallthroughChainIsFullWeight) {
  Cfg G;
  G.addBlock(16, 10);
  G.addBlock(16, 10);
  G.addBlock(16, 10);
  G.addEdge(0, 1, 10);
  G.addEdge(1, 2, 10);
  std::vector<uint32_t> Chain{0, 1, 2};
  EXPECT_DOUBLE_EQ(extTspScore(G, Chain), 20.0);
}

TEST(ExtTsp, ForwardJumpScoresPartial) {
  Cfg G;
  G.addBlock(16, 10);
  G.addBlock(100, 0); // filler
  G.addBlock(16, 10);
  G.addEdge(0, 2, 10);
  std::vector<uint32_t> Order{0, 1, 2};
  double S = extTspScore(G, Order);
  EXPECT_GT(S, 0.0);
  EXPECT_LT(S, 10.0 * 0.1 + 1e-12)
      << "a 100-byte forward jump scores below the zero-distance cap";
}

TEST(ExtTsp, FarJumpScoresZero) {
  Cfg G;
  G.addBlock(16, 10);
  G.addBlock(5000, 0);
  G.addBlock(16, 10);
  G.addEdge(0, 2, 10);
  std::vector<uint32_t> Order{0, 1, 2};
  EXPECT_DOUBLE_EQ(extTspScore(G, Order), 0.0);
}

TEST(ExtTsp, BeatsOrBlocksOriginalOrderOnRandomCfgs) {
  Rng R(2021);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Cfg G = makeRandomCfg(R, 5 + R.nextBelow(40));
    std::vector<uint32_t> Original(G.numBlocks());
    std::iota(Original.begin(), Original.end(), 0u);
    auto Optimized = extTspOrder(G);
    expectPermutation(Optimized, G.numBlocks());
    EXPECT_GE(extTspScore(G, Optimized) + 1e-9, extTspScore(G, Original))
        << "Ext-TSP must never be worse than the original order on trial "
        << Trial;
  }
}

TEST(ExtTsp, EntryAlwaysFirstOnRandomCfgs) {
  Rng R(77);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Cfg G = makeRandomCfg(R, 3 + R.nextBelow(30));
    auto Order = extTspOrder(G);
    ASSERT_FALSE(Order.empty());
    EXPECT_EQ(Order[0], 0u);
  }
}

TEST(ExtTsp, DeterministicAcrossRuns) {
  Rng R(5);
  Cfg G = makeRandomCfg(R, 25);
  EXPECT_EQ(extTspOrder(G), extTspOrder(G));
}

TEST(ExtTsp, SelfLoopIgnoredSafely) {
  Cfg G;
  G.addBlock(16, 10);
  G.addBlock(16, 10);
  G.addEdge(0, 0, 1000);
  G.addEdge(0, 1, 5);
  auto Order = extTspOrder(G);
  expectPermutation(Order, 2);
}

//===----------------------------------------------------------------------===//
// The incremental solver against the reference solver: identical orders.
//===----------------------------------------------------------------------===//

TEST(ExtTspTwin, RandomCfgsMatchReference) {
  // Most graphs are small, as most units are; one in five has up to 96
  // blocks.
  Rng R(2104);
  for (int Trial = 0; Trial < 600; ++Trial) {
    uint64_t Span = R.nextBool(0.2) ? 95 : 31;
    uint32_t N = 2 + static_cast<uint32_t>(R.nextBelow(Span));
    Cfg G = randomExtTspCfg(R, N);
    ASSERT_EQ(extTspOrder(G), referenceExtTspOrder(G))
        << "trial " << Trial << ", " << N << " blocks";
  }
}

TEST(ExtTspTwin, LargeRandomCfgsMatchReference) {
  Rng R(256);
  for (uint32_t N : {128u, 150u, 256u}) {
    Cfg G = randomExtTspCfg(R, N);
    ASSERT_EQ(extTspOrder(G), referenceExtTspOrder(G)) << N << " blocks";
  }
}

TEST(ExtTspTwin, OtherParamsMatchReference) {
  // Heavier, shorter jumps; and a negative backward weight, under which
  // the solver bounds no shape and some pairs have no acceptable shape.
  ExtTspParams Short;
  Short.ForwardWeight = 0.5;
  Short.BackwardWeight = 0.3;
  Short.ForwardDistance = 64;
  Short.BackwardDistance = 48;
  ExtTspParams Negative;
  Negative.BackwardWeight = -2.0;
  Rng R(99);
  for (const ExtTspParams &Params : {Short, Negative}) {
    for (int Trial = 0; Trial < 80; ++Trial) {
      uint32_t N = 2 + static_cast<uint32_t>(R.nextBelow(40));
      Cfg G = randomExtTspCfg(R, N);
      ASSERT_EQ(extTspOrder(G, Params), referenceExtTspOrder(G, Params))
          << "trial " << Trial << ", " << N << " blocks";
    }
  }
}

TEST(ExtTspTwin, UniformBlocksTieEverywhere) {
  // Every block and edge alike: merge gains tie, so the scan order and
  // the strict-greater rule alone pick each merge.
  Rng R(7);
  for (int Trial = 0; Trial < 40; ++Trial) {
    uint32_t N = 4 + static_cast<uint32_t>(R.nextBelow(67));
    Cfg G;
    for (uint32_t B = 0; B < N; ++B)
      G.addBlock(16, 100);
    for (uint32_t E = 0; E < 2 * N; ++E) {
      uint32_t Src = static_cast<uint32_t>(R.nextBelow(N));
      G.addEdge(Src, static_cast<uint32_t>(R.nextBelow(N)), 10);
    }
    ASSERT_EQ(extTspOrder(G), referenceExtTspOrder(G))
        << "trial " << Trial << ", " << N << " blocks";
  }
}

TEST(ExtTspTwin, MergedPairKeepsItsFirstScanPosition) {
  // Chains [2,3] and [5,1] each reach block 6 through two edges, and the
  // two merges into 6 tie.  The scan meets [5,1] -> 6 first, at edge
  // 1 -> 6, so that merge must win although 5 -> 6 comes after 2 -> 6.
  Cfg G;
  for (uint32_t B = 0; B < 7; ++B)
    G.addBlock(16, 100);
  G.addEdge(1, 6, 100);
  G.addEdge(2, 3, 1000);
  G.addEdge(2, 6, 100);
  G.addEdge(3, 6, 100);
  G.addEdge(5, 1, 1000);
  G.addEdge(5, 6, 100);
  std::vector<uint32_t> Order = extTspOrder(G);
  ASSERT_EQ(Order, referenceExtTspOrder(G));
  auto Pos = [&](uint32_t B) {
    return std::find(Order.begin(), Order.end(), B) - Order.begin();
  };
  EXPECT_EQ(Pos(6), Pos(1) + 1);
}

TEST(ExtTspTwin, DegenerateEdges) {
  // Self-loops, an edge added twice, isolated blocks, zero weights and a
  // zero-size block.
  Cfg G;
  for (uint32_t B = 0; B < 10; ++B)
    G.addBlock(B == 4 ? 0 : 8 + 4 * B, B % 3 == 0 ? 0 : 50 * B);
  G.addEdge(0, 0, 900);
  G.addEdge(0, 1, 40);
  G.addEdge(1, 2, 30);
  G.addEdge(1, 2, 30);
  G.addEdge(2, 2, 500);
  G.addEdge(2, 4, 0);
  G.addEdge(4, 5, 70);
  G.addEdge(5, 1, 0);
  G.addEdge(3, 6, 25); // blocks 7-9 have no edges at all
  ASSERT_EQ(extTspOrder(G), referenceExtTspOrder(G));
}

TEST(ExtTspTwin, EdgesIntoEntry) {
  // Hot edges into block 0 (loops back to the entry, a hub that every
  // block returns to): the entry rule rejects every shape that would
  // move block 0 from the front.
  for (uint32_t N : {3u, 12u, 40u}) {
    Cfg G;
    for (uint32_t B = 0; B < N; ++B)
      G.addBlock(12 + B % 5, 100 + B);
    for (uint32_t B = 1; B < N; ++B) {
      G.addEdge(B, 0, 1000 - B);
      G.addEdge(B - 1, B, 10 + B);
    }
    ASSERT_EQ(extTspOrder(G), referenceExtTspOrder(G)) << N << " blocks";
  }
}

TEST(ExtTspTwin, ChainsPastSplitLimit) {
  // A heavy 70-block fallthrough backbone merges first; the side blocks
  // then join chains too long to split.
  Rng R(32);
  for (int Trial = 0; Trial < 4; ++Trial) {
    Cfg G;
    for (uint32_t B = 0; B < 90; ++B) {
      uint32_t Size = 8 + static_cast<uint32_t>(R.nextBelow(24));
      G.addBlock(Size, R.nextBelow(800));
    }
    for (uint32_t B = 0; B + 1 < 70; ++B)
      G.addEdge(B, B + 1, 5000);
    for (uint32_t B = 70; B < 90; ++B) {
      uint32_t From = static_cast<uint32_t>(R.nextBelow(70));
      uint32_t To = static_cast<uint32_t>(R.nextBelow(90));
      G.addEdge(From, B, 1 + R.nextBelow(400));
      G.addEdge(B, To, 1 + R.nextBelow(400));
    }
    ASSERT_EQ(extTspOrder(G), referenceExtTspOrder(G)) << "trial " << Trial;
  }
}

TEST(HotCold, ColdBlocksSplitOut) {
  Cfg G = makeDiamond();
  std::vector<uint32_t> Order{0, 1, 3, 2};
  HotColdSplit Split = splitHotCold(G, Order, /*ColdRatio=*/0.5);
  // Block 2 has weight 10 < 0.5 * 100.
  ASSERT_EQ(Split.Cold.size(), 1u);
  EXPECT_EQ(Split.Cold[0], 2u);
  EXPECT_EQ(Split.Hot.size(), 3u);
  EXPECT_EQ(Split.Hot[0], 0u);
}

TEST(HotCold, EntryNeverCold) {
  Cfg G;
  G.addBlock(16, 0); // entry with zero weight
  G.addBlock(16, 100);
  G.addEdge(0, 1, 100);
  std::vector<uint32_t> Order{0, 1};
  HotColdSplit Split = splitHotCold(G, Order, 0.5);
  EXPECT_TRUE(Split.Cold.empty()) << "zero entry weight disables splitting";
  EXPECT_EQ(Split.Hot.size(), 2u);
}

TEST(HotCold, SplitPreservesAllBlocks) {
  Rng R(9);
  Cfg G = makeRandomCfg(R, 30);
  auto Order = extTspOrder(G);
  HotColdSplit Split = splitHotCold(G, Order, 0.1);
  std::vector<uint32_t> All = Split.Hot;
  All.insert(All.end(), Split.Cold.begin(), Split.Cold.end());
  expectPermutation(All, G.numBlocks());
}

//===----------------------------------------------------------------------===//
// Function sorting.
//===----------------------------------------------------------------------===//

namespace {

/// Builds the call graph from the C3 paper's running-example shape:
/// main calls a hot helper pair and a cold utility.
CallGraph makeSimpleCallGraph() {
  CallGraph G;
  G.setNode(0, 100, 1000); // main
  G.setNode(1, 50, 900);   // hot helper
  G.setNode(2, 50, 850);   // helper's hot callee
  G.setNode(3, 200, 5);    // cold utility
  G.addArc(0, 1, 900);
  G.addArc(1, 2, 850);
  G.addArc(0, 3, 5);
  return G;
}

} // namespace

TEST(C3, ChainsHotCallPath) {
  CallGraph G = makeSimpleCallGraph();
  auto Order = c3Order(G);
  expectPermutation(Order, 4);
  // The hot chain main -> helper -> callee should be contiguous.
  auto Pos = [&](uint32_t N) {
    return std::find(Order.begin(), Order.end(), N) - Order.begin();
  };
  EXPECT_EQ(Pos(1), Pos(0) + 1);
  EXPECT_EQ(Pos(2), Pos(1) + 1);
  // The cold utility lands last.
  EXPECT_EQ(Order.back(), 3u);
}

TEST(C3, RespectsClusterSizeCap) {
  CallGraph G;
  G.setNode(0, 600, 100);
  G.setNode(1, 600, 90);
  G.addArc(0, 1, 90);
  C3Params P;
  P.MaxClusterBytes = 1000; // too small to merge 600+600
  auto Order = c3Order(G, P);
  expectPermutation(Order, 2);
  // No merge happened: both are singleton clusters sorted by density.
  // (Both outcomes 0,1 / 1,0 are permutations; density of node0 > node1.)
  EXPECT_EQ(Order[0], 0u);
}

TEST(C3, ColdFunctionsStaySeparate) {
  CallGraph G;
  G.setNode(0, 10, 100);
  G.setNode(1, 10, 0); // never sampled
  G.addArc(1, 0, 0);
  auto Order = c3Order(G);
  expectPermutation(Order, 2);
  EXPECT_EQ(Order[0], 0u) << "hot functions lead the layout";
}

TEST(C3, ReducesWeightedCallDistanceVsOriginal) {
  Rng R(123);
  for (int Trial = 0; Trial < 10; ++Trial) {
    CallGraph G;
    size_t N = 30 + R.nextBelow(50);
    for (uint32_t I = 0; I < N; ++I)
      G.setNode(I, 32 + static_cast<uint32_t>(R.nextBelow(256)),
                R.nextBelow(1000));
    for (size_t E = 0; E < 3 * N; ++E) {
      uint32_t A = static_cast<uint32_t>(R.nextBelow(N));
      uint32_t B = static_cast<uint32_t>(R.nextBelow(N));
      if (A != B)
        G.addArc(A, B, 1 + R.nextBelow(800));
    }
    auto C3 = c3Order(G);
    expectPermutation(C3, N);
    double DistC3 = weightedCallDistance(G, C3);
    double DistOrig = weightedCallDistance(G, originalOrder(G));
    EXPECT_LT(DistC3, DistOrig * 1.05)
        << "C3 should not be much worse than original order, trial "
        << Trial;
  }
}

TEST(PettisHansen, MergesHeaviestFirst) {
  CallGraph G = makeSimpleCallGraph();
  auto Order = pettisHansenOrder(G);
  expectPermutation(Order, 4);
  auto Pos = [&](uint32_t N) {
    return std::find(Order.begin(), Order.end(), N) - Order.begin();
  };
  // 0,1,2 end up in one cluster; they must be adjacent to each other.
  EXPECT_LE(std::max({Pos(0), Pos(1), Pos(2)}) -
                std::min({Pos(0), Pos(1), Pos(2)}),
            2);
}

TEST(PettisHansen, HandlesDisconnectedGraph) {
  CallGraph G;
  G.setNode(0, 10, 5);
  G.setNode(1, 10, 50);
  G.setNode(2, 10, 1);
  auto Order = pettisHansenOrder(G);
  expectPermutation(Order, 3);
  EXPECT_EQ(Order[0], 1u) << "hottest cluster first";
}

TEST(CallGraph, ArcAccumulation) {
  CallGraph G;
  G.addArc(0, 1, 10);
  G.addArc(0, 1, 5);
  ASSERT_EQ(G.arcs().size(), 1u);
  EXPECT_EQ(G.arcs()[0].Weight, 15u);
}

TEST(CallGraph, HottestCaller) {
  CallGraph G;
  G.addArc(0, 2, 10);
  G.addArc(1, 2, 90);
  EXPECT_EQ(G.hottestCaller(2), 1u);
  EXPECT_EQ(G.hottestCaller(0), ~0u);
}

TEST(CallGraph, SelfArcNotOwnHottestCaller) {
  CallGraph G;
  G.addArc(2, 2, 1000);
  G.addArc(1, 2, 5);
  EXPECT_EQ(G.hottestCaller(2), 1u);
}
