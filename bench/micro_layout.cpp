//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks (google-benchmark) for the layout algorithms: Ext-TSP
/// solve time and score quality vs original order (and the test-only
/// reference solver on the same graphs, so one run reports the speedup),
/// and C3 vs Pettis-Hansen vs original on synthetic call graphs -- the
/// ablation benches for DESIGN.md's layout design choices.
///
//===----------------------------------------------------------------------===//

#include "layout/ExtTsp.h"
#include "layout/FunctionSort.h"
#include "support/Random.h"
#include "testing/ReferenceExtTsp.h"

#include <benchmark/benchmark.h>

#include <numeric>

using namespace jumpstart;
using namespace jumpstart::layout;

namespace {

Cfg makeCfg(size_t Blocks, uint64_t Seed) {
  Rng R(Seed);
  Cfg G;
  for (size_t I = 0; I < Blocks; ++I)
    G.addBlock(8 + static_cast<uint32_t>(R.nextBelow(56)),
               R.nextBelow(1000));
  for (size_t I = 0; I + 1 < Blocks; ++I)
    G.addEdge(static_cast<uint32_t>(I), static_cast<uint32_t>(I + 1),
              1 + R.nextBelow(500));
  for (size_t I = 0; I < Blocks; ++I) {
    uint32_t A = static_cast<uint32_t>(R.nextBelow(Blocks));
    uint32_t B = static_cast<uint32_t>(R.nextBelow(Blocks));
    if (A != B)
      G.addEdge(A, B, 1 + R.nextBelow(300));
  }
  return G;
}

CallGraph makeCallGraph(size_t Funcs, uint64_t Seed) {
  Rng R(Seed);
  CallGraph G;
  for (uint32_t I = 0; I < Funcs; ++I)
    G.setNode(I, 64 + static_cast<uint32_t>(R.nextBelow(512)),
              R.nextBelow(10000));
  for (size_t E = 0; E < Funcs * 4; ++E) {
    uint32_t A = static_cast<uint32_t>(R.nextBelow(Funcs));
    uint32_t B = static_cast<uint32_t>(R.nextBelow(Funcs));
    if (A != B)
      G.addArc(A, B, 1 + R.nextBelow(2000));
  }
  return G;
}

void BM_ExtTspSolve(benchmark::State &State) {
  Cfg G = makeCfg(static_cast<size_t>(State.range(0)), 42);
  for (auto _ : State) {
    auto Order = extTspOrder(G);
    benchmark::DoNotOptimize(Order.data());
  }
  // Report the quality improvement alongside the timing.
  std::vector<uint32_t> Original(G.numBlocks());
  std::iota(Original.begin(), Original.end(), 0u);
  double Base = extTspScore(G, Original);
  double Opt = extTspScore(G, extTspOrder(G));
  State.counters["score_gain_pct"] =
      Base > 0 ? 100.0 * (Opt - Base) / Base : 0;
}
BENCHMARK(BM_ExtTspSolve)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_ExtTspReference(benchmark::State &State) {
  Cfg G = makeCfg(static_cast<size_t>(State.range(0)), 42);
  for (auto _ : State) {
    auto Order = jumpstart::testing::referenceExtTspOrder(G);
    benchmark::DoNotOptimize(Order.data());
  }
}
BENCHMARK(BM_ExtTspReference)->Arg(16)->Arg(64)->Arg(128);

void BM_C3Solve(benchmark::State &State) {
  CallGraph G = makeCallGraph(static_cast<size_t>(State.range(0)), 7);
  for (auto _ : State) {
    auto Order = c3Order(G);
    benchmark::DoNotOptimize(Order.data());
  }
  double DistC3 = weightedCallDistance(G, c3Order(G));
  double DistOrig = weightedCallDistance(G, originalOrder(G));
  State.counters["dist_vs_orig_pct"] =
      DistOrig > 0 ? 100.0 * DistC3 / DistOrig : 0;
}
BENCHMARK(BM_C3Solve)->Arg(100)->Arg(500)->Arg(2000);

void BM_PettisHansenSolve(benchmark::State &State) {
  CallGraph G = makeCallGraph(static_cast<size_t>(State.range(0)), 7);
  for (auto _ : State) {
    auto Order = pettisHansenOrder(G);
    benchmark::DoNotOptimize(Order.data());
  }
  double DistPh = weightedCallDistance(G, pettisHansenOrder(G));
  double DistOrig = weightedCallDistance(G, originalOrder(G));
  State.counters["dist_vs_orig_pct"] =
      DistOrig > 0 ? 100.0 * DistPh / DistOrig : 0;
}
BENCHMARK(BM_PettisHansenSolve)->Arg(100)->Arg(500);

} // namespace

BENCHMARK_MAIN();
