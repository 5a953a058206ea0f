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
/// + lowering + layout) per function -- the costs a downstream user of
/// the library actually pays.
///
//===----------------------------------------------------------------------===//

#include "fleet/WorkloadGen.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "jit/Jit.h"
#include "jit/Recorders.h"
#include "jit/Lower.h"
#include "jit/ParallelRetranslate.h"
#include "jit/TransLayout.h"
#include "support/ThreadPool.h"

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
  // Full retranslate-all over a profiled site, lowered on Arg(0) host
  // workers.  The output is byte-identical for every arg (the pool only
  // moves the pure lowering work); wall-clock is what this measures.
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
    jit::Jit J(W->Repo, jit::JitConfig());
    for (uint32_t F = 0; F < W->Repo.numFuncs(); ++F) {
      if (W->Repo.func(bc::FuncId(F)).Code.empty())
        continue;
      profile::FuncProfile &FP = J.profileStore().getOrCreate(F);
      FP.EntryCount = 1000;
      FP.BlockCounts.assign(
          J.blockCache().blocks(bc::FuncId(F)).numBlocks(), 1000);
    }
    State.ResumeTiming();
    jit::ParallelRetranslate Driver(J, Pool.get());
    jit::RetranslateStats Stats = Driver.run(1e12);
    Placed = Stats.TranslationsPlaced;
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

} // namespace

BENCHMARK_MAIN();
