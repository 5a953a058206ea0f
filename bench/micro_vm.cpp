//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks (google-benchmark) for the VM substrate itself:
/// interpreter dispatch throughput, the request-local value heap,
/// frontend compilation speed, and the tier-2 pipeline (region selection
/// + lowering + layout) per function, a cold server's profiling window,
/// plain-interpreter requests on the perfbench-sized site, and the
/// machine simulator's cache lookups against the scan-only reference --
/// the costs a downstream user of the library actually pays.
///
//===----------------------------------------------------------------------===//

#include "fleet/Traffic.h"
#include "fleet/WorkloadGen.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "jit/Jit.h"
#include "jit/Recorders.h"
#include "jit/Lower.h"
#include "jit/TransLayout.h"
#include "sim/Cache.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "testing/ReferenceCache.h"
#include "vm/Server.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

using namespace jumpstart;

namespace {

const char *kHotLoop = "function main($n) {"
                       "  $acc = 0; $i = 0;"
                       "  while ($i < $n) {"
                       "    $acc = ($acc * 3 + $i) % 65537;"
                       "    $i = $i + 1;"
                       "  }"
                       "  return $acc;"
                       "}";

void BM_InterpreterDispatch(benchmark::State &State) {
  bc::Repo Repo;
  auto Errors = frontend::compileUnit(
      Repo, runtime::BuiltinTable::standard(), "b.hack", kHotLoop);
  if (!Errors.empty())
    State.SkipWithError("compile failed");
  runtime::ClassTable Classes(Repo);
  runtime::Heap Heap;
  interp::Interpreter Interp(Repo, Classes, Heap,
                             runtime::BuiltinTable::standard());
  bc::FuncId Main = Repo.findFunction("main");
  uint64_t Steps = 0;
  for (auto _ : State) {
    interp::InterpResult R = Interp.call(
        Main, {runtime::Value::integer(State.range(0))});
    Steps += R.Steps;
    Heap.reset();
    benchmark::DoNotOptimize(R.Ret);
  }
  State.counters["bytecodes_per_s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterDispatch)->Arg(1000)->Arg(10000);

const char *kHeapRequest = "class Row {"
                           "  prop $id; prop $name; prop $tags; prop $score;"
                           "  method init($id, $name) {"
                           "    $this->id = $id; $this->name = $name;"
                           "    $this->tags = vec[]; $this->score = 0;"
                           "    return $this;"
                           "  }"
                           "}"
                           "function main($n) {"
                           "  $d = dict[]; $v = vec[]; $i = 0;"
                           "  while ($i < $n) {"
                           "    $k = \"key\" . $i;"
                           "    $d[$k] = to_str($i * 7919) . \":\" . $i;"
                           "    $v[$i] = $k;"
                           "    $i = $i + 1;"
                           "  }"
                           "  $o = new Row()->init($n, \"row\" . to_str($n));"
                           "  return strlen($d[\"key1\"]) + $o->id;"
                           "}";

void BM_RequestHeap(benchmark::State &State) {
  // One request per iteration that lives on the value heap: strings
  // built from ints with `.` and to_str, a string-keyed dict and a vec
  // filled with them, one initialised object, then the request's reset.
  bc::Repo Repo;
  auto Errors = frontend::compileUnit(
      Repo, runtime::BuiltinTable::standard(), "b.hack", kHeapRequest);
  if (!Errors.empty())
    State.SkipWithError("compile failed");
  runtime::ClassTable Classes(Repo);
  runtime::Heap Heap;
  interp::Interpreter Interp(Repo, Classes, Heap,
                             runtime::BuiltinTable::standard());
  bc::FuncId Main = Repo.findFunction("main");
  uint64_t AllocsBefore = Heap.hostAllocs();
  for (auto _ : State) {
    interp::InterpResult R = Interp.call(
        Main, {runtime::Value::integer(State.range(0))});
    if (!R.Ok || R.Faults != 0)
      State.SkipWithError("request faulted");
    Heap.reset();
    benchmark::DoNotOptimize(R.Ret);
  }
  State.counters["allocs_per_request"] =
      static_cast<double>(Heap.hostAllocs() - AllocsBefore) /
      static_cast<double>(std::max<int64_t>(1, State.iterations()));
}
BENCHMARK(BM_RequestHeap)->Arg(64);

void BM_InterpreterWithProfilingHooks(benchmark::State &State) {
  bc::Repo Repo;
  auto Errors = frontend::compileUnit(
      Repo, runtime::BuiltinTable::standard(), "b.hack", kHotLoop);
  if (!Errors.empty())
    State.SkipWithError("compile failed");
  runtime::ClassTable Classes(Repo);
  runtime::Heap Heap;
  interp::Interpreter Interp(Repo, Classes, Heap,
                             runtime::BuiltinTable::standard());
  bc::FuncId Main = Repo.findFunction("main");
  // Give main a tier-1 profiling translation: the hooks observe only
  // profile-tier (and instrumented optimized) frames, so this times the
  // body a profiling server runs, block and type profiles included.
  jit::Jit J(Repo, jit::JitConfig());
  J.onFuncEntered(Main);
  while (J.hasPendingWork())
    J.runJitWork(1e9);
  const jit::Translation *T = J.currentTranslation(Main);
  if (!T || T->Kind != jit::TransKind::Profile)
    State.SkipWithError("no profiling translation for main");
  jit::JitProfilingHooks Hooks(J);
  Interp.setCallbacks(&Hooks);
  for (auto _ : State) {
    interp::InterpResult R = Interp.call(
        Main, {runtime::Value::integer(State.range(0))});
    Heap.reset();
    benchmark::DoNotOptimize(R.Ret);
  }
}
BENCHMARK(BM_InterpreterWithProfilingHooks)->Arg(1000);

void BM_FrontendCompile(benchmark::State &State) {
  // Compile the synthetic site's sources from scratch each iteration.
  fleet::WorkloadParams P;
  P.NumHelpers = static_cast<uint32_t>(State.range(0));
  P.NumClasses = P.NumHelpers / 8;
  P.NumEndpoints = 16;
  P.NumUnits = 12;
  auto W = fleet::generateWorkload(P);
  std::vector<frontend::SourceFile> Files;
  for (const auto &[Name, Source] : W->Sources)
    Files.push_back({Name, Source});
  size_t Bytecodes = 0;
  for (auto _ : State) {
    bc::Repo Repo;
    auto Errors = frontend::compileProgram(
        Repo, runtime::BuiltinTable::standard(), Files);
    if (!Errors.empty())
      State.SkipWithError("compile failed");
    Bytecodes = Repo.totalBytecode();
    benchmark::DoNotOptimize(Repo.numFuncs());
  }
  State.counters["bytecodes"] = static_cast<double>(Bytecodes);
}
BENCHMARK(BM_FrontendCompile)->Arg(200)->Arg(800);

void BM_Tier2Pipeline(benchmark::State &State) {
  // Region selection + lowering + Ext-TSP layout for one mid-size
  // function with a synthetic profile.
  bc::Repo Repo;
  std::string Src = "function callee($x) { return $x * 2 + 1; }"
                    "function main($n) { $a = 0; $i = 0;"
                    "  while ($i < 10) {"
                    "    if ($i % 2 == 0) { $a = $a + callee($i); }"
                    "    else { $a = $a - callee($i); }"
                    "    $i = $i + 1; }"
                    "  return $a; }";
  auto Errors = frontend::compileUnit(
      Repo, runtime::BuiltinTable::standard(), "b.hack", Src);
  if (!Errors.empty())
    State.SkipWithError("compile failed");
  bc::FuncId Main = Repo.findFunction("main");
  bc::BlockCache Blocks(Repo);
  profile::ProfileStore Store;
  for (bc::FuncId F : {Main, Repo.findFunction("callee")}) {
    profile::FuncProfile &P = Store.getOrCreate(F.raw());
    P.EntryCount = 1000;
    P.BlockCounts.assign(Blocks.blocks(F).numBlocks(), 1000);
  }
  for (auto _ : State) {
    jit::RegionDescriptor Region =
        jit::selectRegion(Repo, Blocks, Store, Main);
    jit::LowerOptions Opts;
    Opts.Kind = jit::TransKind::Optimized;
    auto Unit =
        lowerFunction(Repo, Blocks, Main, &Store, &Region, Opts);
    jit::UnitLayout Layout = layoutUnit(*Unit, jit::LayoutOptions());
    benchmark::DoNotOptimize(Layout.HotOrder.data());
  }
}
BENCHMARK(BM_Tier2Pipeline);

void BM_RetranslateAll(benchmark::State &State) {
  // Full retranslate-all over a profiled site, drained through
  // runJitWork with Arg(0) host workers.  The output is byte-identical
  // for every arg (the pool only moves the pure lowering and layout
  // work); wall-clock is what this measures.
  fleet::WorkloadParams P;
  P.NumHelpers = 400;
  P.NumClasses = 48;
  P.NumEndpoints = 24;
  P.NumUnits = 16;
  auto W = fleet::generateWorkload(P);
  uint32_t Workers = static_cast<uint32_t>(State.range(0));
  std::unique_ptr<support::ThreadPool> Pool;
  if (Workers > 1)
    Pool = std::make_unique<support::ThreadPool>(Workers);
  size_t Placed = 0;
  for (auto _ : State) {
    State.PauseTiming();
    jit::Jit J(W->Repo, jit::JitConfig(), Pool.get());
    for (uint32_t F = 0; F < W->Repo.numFuncs(); ++F) {
      if (W->Repo.func(bc::FuncId(F)).Code.empty())
        continue;
      profile::FuncProfile &FP = J.profileStore().getOrCreate(F);
      FP.EntryCount = 1000;
      FP.BlockCounts.assign(
          J.blockCache().blocks(bc::FuncId(F)).numBlocks(), 1000);
    }
    State.ResumeTiming();
    J.beginRetranslateAll();
    while (J.hasPendingWork())
      J.runJitWork(1e12);
    Placed = 0;
    for (const auto &T : J.transDb().all())
      Placed += T->Placed ? 1 : 0;
    benchmark::DoNotOptimize(Placed);
  }
  State.counters["translations"] = static_cast<double>(Placed);
}
BENCHMARK(BM_RetranslateAll)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The perfbench-sized site.
std::unique_ptr<fleet::Workload> perfbenchSite() {
  fleet::WorkloadParams P;
  P.NumHelpers = 700;
  P.NumClasses = 72;
  P.NumEndpoints = 40;
  P.NumUnits = 48;
  return fleet::generateWorkload(P);
}

using SiteRequests =
    std::vector<std::pair<bc::FuncId, std::vector<runtime::Value>>>;

/// \p N requests sampled from bucket 0's traffic mix on \p W.
SiteRequests sampleRequests(const fleet::Workload &W, uint32_t N) {
  fleet::TrafficModel Traffic(W, fleet::TrafficParams(), 3);
  Rng R(3);
  SiteRequests Requests;
  for (uint32_t I = 0; I < N; ++I)
    Requests.push_back({W.Endpoints[Traffic.sampleEndpoint(0, 0, R)],
                        fleet::TrafficModel::makeArgs(R)});
  return Requests;
}

void BM_ProfilingServer(benchmark::State &State) {
  // A cold server's tier-1 profiling window on the perfbench-sized site:
  // 240 requests from bucket 0's traffic mix, a JIT grant every 2
  // requests (as perfbench's warmup workload and the fleet simulator
  // drive it), ending where retranslate-all begins: the interpreter,
  // the profile recording and the tier-1 compiles a cold server pays.
  // Ungated, with no snapshot.
  auto W = perfbenchSite();
  constexpr uint32_t kWindow = 240;
  SiteRequests Requests = sampleRequests(*W, kWindow);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = kWindow;
  for (auto _ : State) {
    vm::Server S(W->Repo, Config, 1);
    S.startup();
    for (uint32_t I = 0; I < kWindow; ++I) {
      benchmark::DoNotOptimize(
          S.executeRequest(Requests[I].first, Requests[I].second).Seconds);
      if ((I + 1) % 2 == 0)
        S.grantJitTime(1.0);
    }
    if (S.theJit().phase() == jit::JitPhase::Profiling)
      State.SkipWithError("the profiling window did not close");
  }
  State.counters["requests_per_s"] = benchmark::Counter(
      static_cast<double>(kWindow) * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProfilingServer)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_PlainSiteRequests(benchmark::State &State) {
  // A pool of 512 requests on the perfbench-sized site, served serially
  // by one server that is never granted JIT time: no translation exists,
  // so every frame runs the plain interpreter loop over quickened code.
  // Ungated, with no snapshot.
  auto W = perfbenchSite();
  SiteRequests Requests = sampleRequests(*W, 512);
  vm::Server S(W->Repo, vm::ServerConfig(), 1);
  S.startup();
  for (auto _ : State)
    for (const auto &[F, Args] : Requests)
      benchmark::DoNotOptimize(S.executeRequest(F, Args).Seconds);
  State.counters["requests_per_s"] = benchmark::Counter(
      static_cast<double>(Requests.size()) *
          static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PlainSiteRequests)->Unit(benchmark::kMillisecond);

/// One seeded, steady-shaped stream for a cache of 32 sets of \p Ways:
/// requests walk a path of code blocks, each a run of line accesses (one
/// per instruction on the line), loops repeat a block, and every few
/// blocks a data access strides through lines that share a set.  The hot
/// code is 1.5 times the cache, so hits dominate and LRU still churns.
std::vector<jumpstart::testing::CacheOp> steadyCacheStream(uint32_t Ways) {
  constexpr uint64_t kSets = 32;
  Rng R(Ways);
  struct Block {
    uint64_t FirstLine;
    uint32_t Lines;
  };
  std::vector<Block> Blocks;
  for (uint64_t Line = 0x40000; Line < 0x40000 + kSets * Ways * 3 / 2;) {
    uint32_t Lines = 1 + static_cast<uint32_t>(R.nextBelow(4));
    Blocks.push_back({Line, Lines});
    Line += Lines;
  }
  std::vector<jumpstart::testing::CacheOp> Ops;
  while (Ops.size() < 200000) {
    const Block &B = Blocks[R.nextBelow(Blocks.size())];
    uint64_t Repeats = R.nextBool(0.2) ? 2 + R.nextBelow(8) : 1;
    for (uint64_t I = 0; I < Repeats; ++I)
      for (uint32_t L = 0; L < B.Lines; ++L)
        Ops.push_back({(B.FirstLine + L) * 64,
                       1 + static_cast<uint32_t>(R.nextBelow(12))});
    if (R.nextBool(0.3))
      Ops.push_back({(0x90000 + R.nextBelow(2 * Ways) * kSets) * 64, 1});
  }
  return Ops;
}

template <typename CacheT> void replayCache(benchmark::State &State) {
  uint32_t Ways = static_cast<uint32_t>(State.range(0));
  sim::CacheConfig Config{32 * 64 * Ways, 64, Ways};
  std::vector<jumpstart::testing::CacheOp> Ops = steadyCacheStream(Ways);
  CacheT Cache(Config);
  // One untimed pass warms the cache and gives the stream's miss rate.
  for (const jumpstart::testing::CacheOp &Op : Ops)
    Cache.accessRun(Op.Addr, Op.Count);
  State.counters["miss_rate"] = static_cast<double>(Cache.misses()) /
                                static_cast<double>(Cache.accesses());
  for (auto _ : State)
    for (const jumpstart::testing::CacheOp &Op : Ops)
      benchmark::DoNotOptimize(Cache.accessRun(Op.Addr, Op.Count));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Ops.size()));
}

void BM_CacheReplay(benchmark::State &State) {
  // The way-hinted sim::Cache on the steady-shaped stream.  Ungated.
  replayCache<sim::Cache>(State);
}
BENCHMARK(BM_CacheReplay)->Arg(4)->Arg(8)->Arg(16);

void BM_ReferenceCacheReplay(benchmark::State &State) {
  // The same stream through the scan-only reference cache.  Ungated.
  replayCache<jumpstart::testing::ReferenceCache>(State);
}
BENCHMARK(BM_ReferenceCacheReplay)->Arg(4)->Arg(8)->Arg(16);

} // namespace

BENCHMARK_MAIN();
