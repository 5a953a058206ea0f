//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the JIT: code cache, lowering, region selection,
/// translation layout/placement, and the tiering state machine.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "fleet/ServerSim.h"
#include "fleet/Traffic.h"
#include "fleet/WorkloadGen.h"
#include "jit/Jit.h"
#include "jit/Lower.h"
#include "jit/Recorders.h"
#include "jit/Region.h"
#include "jit/TransLayout.h"
#include "runtime/ValueOps.h"
#include "support/ThreadPool.h"
#include "testing/ReferenceExtTsp.h"
#include "testing/ReferenceProfilingHooks.h"
#include "vm/Server.h"

#include <array>
#include <bit>

#include <gtest/gtest.h>

using namespace jumpstart;
using namespace jumpstart::jit;
using jumpstart::testing::TestVm;

//===----------------------------------------------------------------------===//
// Code cache.
//===----------------------------------------------------------------------===//

TEST(CodeCacheTest, BumpAllocationAndAlignment) {
  CodeCache C;
  uint64_t A = C.allocate(CodeArea::Hot, 100);
  uint64_t B = C.allocate(CodeArea::Hot, 10);
  EXPECT_EQ(A, C.base(CodeArea::Hot));
  EXPECT_EQ(B, A + 112) << "allocations are 16-byte aligned";
  EXPECT_EQ(C.used(CodeArea::Hot), 128u);
}

TEST(CodeCacheTest, AreasAreDisjoint) {
  CodeCache C;
  uint64_t Hot = C.allocate(CodeArea::Hot, 64);
  uint64_t Cold = C.allocate(CodeArea::Cold, 64);
  uint64_t Prof = C.allocate(CodeArea::Profile, 64);
  uint64_t Live = C.allocate(CodeArea::Live, 64);
  EXPECT_LT(Hot, Cold);
  EXPECT_LT(Cold, Prof);
  EXPECT_LT(Prof, Live);
}

TEST(CodeCacheTest, ExhaustionReturnsZero) {
  CodeCacheConfig Config;
  Config.LiveBytes = 256;
  CodeCache C(Config);
  EXPECT_NE(C.allocate(CodeArea::Live, 200), 0u);
  EXPECT_EQ(C.allocate(CodeArea::Live, 200), 0u)
      << "a full area must reject further allocation";
  EXPECT_TRUE(C.isFull(CodeArea::Live) ||
              C.used(CodeArea::Live) + 200 > C.capacity(CodeArea::Live));
}

//===----------------------------------------------------------------------===//
// Lowering.
//===----------------------------------------------------------------------===//

namespace {

/// Compiles a snippet and lowers function \p Name.
std::unique_ptr<VasmUnit> lowerSnippet(TestVm &Vm, const std::string &Name,
                                       TransKind Kind,
                                       bool Instrument = false) {
  bc::BlockCache Blocks(Vm.Repo);
  LowerOptions Opts;
  Opts.Kind = Kind;
  Opts.SeederInstrumentation = Instrument;
  return lowerFunction(Vm.Repo, Blocks, Vm.Repo.findFunction(Name),
                       nullptr, nullptr, Opts);
}

} // namespace

TEST(Lowering, BlocksMirrorBytecodeBlocks) {
  TestVm Vm("function f($x) {"
            "  if ($x > 0) { return $x; }"
            "  return 0 - $x;"
            "}");
  auto Unit = lowerSnippet(Vm, "f", TransKind::Live);
  bc::BlockCache Blocks(Vm.Repo);
  const bc::BlockList &BL = Blocks.blocks(Vm.Repo.findFunction("f"));
  // Live lowering: one Vasm block per bytecode block (no exit stub).
  EXPECT_EQ(Unit->Blocks.size(), BL.numBlocks());
  for (uint32_t B = 0; B < BL.numBlocks(); ++B)
    EXPECT_NE(Unit->findBlock(Vm.Repo.findFunction("f"), B),
              VasmUnit::kNoBlock);
}

TEST(Lowering, ProfileKindAddsCounters) {
  TestVm Vm("function f($x) { return $x + 1; }");
  auto Live = lowerSnippet(Vm, "f", TransKind::Live);
  auto Prof = lowerSnippet(Vm, "f", TransKind::Profile);
  EXPECT_GT(Prof->sizeBytes(), Live->sizeBytes())
      << "instrumentation must cost bytes";
  bool SawCounter = false;
  for (const VBlock &B : Prof->Blocks)
    for (const VInstr &I : B.Instrs)
      if (I.Kind == VKind::Counter)
        SawCounter = true;
  EXPECT_TRUE(SawCounter);
}

TEST(Lowering, SeederInstrumentationOnOptimized) {
  TestVm Vm("function f($x) { return $x + 1; }");
  bc::BlockCache Blocks(Vm.Repo);
  profile::ProfileStore Store;
  RegionDescriptor Region;
  Region.Func = Vm.Repo.findFunction("f");
  LowerOptions Plain;
  Plain.Kind = TransKind::Optimized;
  LowerOptions Seeder = Plain;
  Seeder.SeederInstrumentation = true;
  auto A = lowerFunction(Vm.Repo, Blocks, Region.Func, &Store, &Region,
                         Plain);
  auto B = lowerFunction(Vm.Repo, Blocks, Region.Func, &Store, &Region,
                         Seeder);
  EXPECT_GT(B->numInstrs(), A->numInstrs());
}

TEST(Lowering, TypeSpecializationShrinksCode) {
  TestVm Vm("function f($x) { return $x * 2 + 1; }");
  bc::FuncId F = Vm.Repo.findFunction("f");
  bc::BlockCache Blocks(Vm.Repo);

  profile::ProfileStore Mono;
  {
    profile::FuncProfile &P = Mono.getOrCreate(F.raw());
    const bc::Function &Func = Vm.Repo.func(F);
    for (uint32_t Pc = 0; Pc < Func.Code.size(); ++Pc)
      for (int I = 0; I < 100; ++I)
        P.LoadTypes[Pc].observe(runtime::Type::Int);
  }
  profile::ProfileStore Empty;

  RegionDescriptor Region;
  Region.Func = F;
  LowerOptions Opts;
  Opts.Kind = TransKind::Optimized;
  auto Specialized =
      lowerFunction(Vm.Repo, Blocks, F, &Mono, &Region, Opts);
  auto Generic = lowerFunction(Vm.Repo, Blocks, F, &Empty, &Region, Opts);
  EXPECT_LT(Specialized->sizeBytes(), Generic->sizeBytes())
      << "monomorphic sites must lower to guard+op, not helper calls";
}

//===----------------------------------------------------------------------===//
// Region selection / inlining.
//===----------------------------------------------------------------------===//

namespace {

/// Seeds a store with block counts and entry counts so inlining fires.
void primeProfile(TestVm &Vm, profile::ProfileStore &Store,
                  const std::string &Name, uint64_t Entries) {
  bc::FuncId F = Vm.Repo.findFunction(Name);
  ASSERT_TRUE(F.valid());
  bc::BlockCache Blocks(Vm.Repo);
  profile::FuncProfile &P = Store.getOrCreate(F.raw());
  P.EntryCount = Entries;
  P.BlockCounts.assign(Blocks.blocks(F).numBlocks(), Entries);
}

} // namespace

TEST(Region, InlinesHotSmallCallee) {
  TestVm Vm("function callee($x) { return $x + 1; }"
            "function caller($x) { return callee($x) * 2; }");
  profile::ProfileStore Store;
  primeProfile(Vm, Store, "callee", 1000);
  primeProfile(Vm, Store, "caller", 1000);
  bc::BlockCache Blocks(Vm.Repo);
  RegionDescriptor R = selectRegion(Vm.Repo, Blocks, Store,
                                    Vm.Repo.findFunction("caller"));
  EXPECT_EQ(R.InlinedFuncs.size(), 1u);
  EXPECT_EQ(R.InlinedFuncs[0], Vm.Repo.findFunction("callee"));
}

TEST(Region, DoesNotInlineUnprofiledCallee) {
  TestVm Vm("function callee($x) { return $x + 1; }"
            "function caller($x) { return callee($x) * 2; }");
  profile::ProfileStore Store;
  primeProfile(Vm, Store, "caller", 1000); // callee unprofiled
  bc::BlockCache Blocks(Vm.Repo);
  RegionDescriptor R = selectRegion(Vm.Repo, Blocks, Store,
                                    Vm.Repo.findFunction("caller"));
  EXPECT_TRUE(R.InlinedFuncs.empty());
}

TEST(Region, RespectsSizeLimit) {
  // A callee with a big body (many statements) must not inline.
  std::string Big = "function callee($x) { $a = $x;";
  for (int I = 0; I < 60; ++I)
    Big += " $a = $a + " + std::to_string(I) + ";";
  Big += " return $a; }"
         "function caller($x) { return callee($x); }";
  TestVm Vm(Big);
  profile::ProfileStore Store;
  primeProfile(Vm, Store, "callee", 1000);
  primeProfile(Vm, Store, "caller", 1000);
  bc::BlockCache Blocks(Vm.Repo);
  RegionParams Params;
  Params.MaxInlineBytecodes = 48;
  RegionDescriptor R = selectRegion(Vm.Repo, Blocks, Store,
                                    Vm.Repo.findFunction("caller"), Params);
  EXPECT_TRUE(R.InlinedFuncs.empty());
}

TEST(Region, DevirtualizesMonomorphicSite) {
  TestVm Vm("class C { prop $p; method m($x) { return $x + 1; } }"
            "function caller($o, $x) { return $o->m($x); }");
  bc::FuncId Caller = Vm.Repo.findFunction("caller");
  bc::FuncId Target = Vm.Repo.findFunction("C::m");
  ASSERT_TRUE(Target.valid());
  profile::ProfileStore Store;
  primeProfile(Vm, Store, "caller", 100);
  // Find the FCallObj site.
  const bc::Function &F = Vm.Repo.func(Caller);
  uint32_t Site = ~0u;
  for (uint32_t Pc = 0; Pc < F.Code.size(); ++Pc)
    if (F.Code[Pc].Opcode == bc::Op::FCallObj)
      Site = Pc;
  ASSERT_NE(Site, ~0u);
  Store.getOrCreate(Caller.raw()).CallTargets[Site][Target.raw()] = 100;
  // Also profile the target so it is inline-eligible.
  primeProfile(Vm, Store, "C::m", 100);

  bc::BlockCache Blocks(Vm.Repo);
  RegionDescriptor R =
      selectRegion(Vm.Repo, Blocks, Store, Caller);
  // Monomorphic + small: devirtualize-and-inline.
  EXPECT_TRUE(R.inlinedCallee(Caller, Site).valid() ||
              R.devirtTarget(Caller, Site).valid());
}

TEST(Region, PolymorphicSiteStaysIndirect) {
  TestVm Vm("class A { prop $p; method m($x) { return $x; } }"
            "class B { prop $q; method m($x) { return $x * 2; } }"
            "function caller($o, $x) { return $o->m($x); }");
  bc::FuncId Caller = Vm.Repo.findFunction("caller");
  profile::ProfileStore Store;
  primeProfile(Vm, Store, "caller", 100);
  const bc::Function &F = Vm.Repo.func(Caller);
  uint32_t Site = ~0u;
  for (uint32_t Pc = 0; Pc < F.Code.size(); ++Pc)
    if (F.Code[Pc].Opcode == bc::Op::FCallObj)
      Site = Pc;
  ASSERT_NE(Site, ~0u);
  auto &Targets = Store.getOrCreate(Caller.raw()).CallTargets[Site];
  Targets[Vm.Repo.findFunction("A::m").raw()] = 50;
  Targets[Vm.Repo.findFunction("B::m").raw()] = 50;
  bc::BlockCache Blocks(Vm.Repo);
  RegionDescriptor R = selectRegion(Vm.Repo, Blocks, Store, Caller);
  EXPECT_FALSE(R.inlinedCallee(Caller, Site).valid());
  EXPECT_FALSE(R.devirtTarget(Caller, Site).valid());
}

//===----------------------------------------------------------------------===//
// Layout + placement.
//===----------------------------------------------------------------------===//

TEST(TransLayoutTest, PlacementAssignsDisjointAddresses) {
  TestVm Vm("function f($x) {"
            "  if ($x > 0) { $x = $x * 2; } else { $x = 0 - $x; }"
            "  return $x;"
            "}");
  bc::BlockCache Blocks(Vm.Repo);
  LowerOptions Opts;
  Opts.Kind = TransKind::Optimized;
  profile::ProfileStore Store;
  RegionDescriptor Region;
  Region.Func = Vm.Repo.findFunction("f");
  TransDb Db;
  Translation &T = Db.create(
      TransKind::Optimized,
      lowerFunction(Vm.Repo, Blocks, Region.Func, &Store, &Region, Opts));
  CodeCache Cache;
  UnitLayout L = layoutUnit(*T.Unit, LayoutOptions());
  ASSERT_TRUE(placeTranslation(T, Cache, CodeArea::Hot, L));
  EXPECT_TRUE(T.Placed);
  // Every block has a unique address and blocks do not overlap
  // (accounting for trailing jumps elided when the target is adjacent).
  std::vector<std::pair<uint64_t, uint64_t>> Ranges;
  for (uint32_t B = 0; B < T.Unit->Blocks.size(); ++B) {
    uint64_t Start = T.BlockAddrs[B];
    ASSERT_NE(Start, 0u);
    uint64_t Size = T.Unit->Blocks[B].sizeBytes();
    if (T.JumpElided[B])
      Size -= T.Unit->Blocks[B].Instrs.back().SizeBytes;
    Ranges.push_back({Start, Start + Size});
  }
  std::sort(Ranges.begin(), Ranges.end());
  for (size_t I = 1; I < Ranges.size(); ++I)
    EXPECT_LE(Ranges[I - 1].second, Ranges[I].first)
        << "blocks must not overlap";
}

TEST(TransLayoutTest, InjectedCountsOverrideWeights) {
  TestVm Vm("function f($x) { if ($x > 0) { return 1; } return 2; }");
  bc::BlockCache Blocks(Vm.Repo);
  profile::ProfileStore Store;
  RegionDescriptor Region;
  Region.Func = Vm.Repo.findFunction("f");
  LowerOptions Opts;
  Opts.Kind = TransKind::Optimized;
  auto Unit =
      lowerFunction(Vm.Repo, Blocks, Region.Func, &Store, &Region, Opts);
  std::vector<uint64_t> Counts(Unit->Blocks.size());
  for (size_t I = 0; I < Counts.size(); ++I)
    Counts[I] = 1000 + I;
  injectVasmCounts(*Unit, Counts);
  for (size_t I = 0; I < Unit->Blocks.size(); ++I)
    EXPECT_EQ(Unit->Blocks[I].Weight, 1000 + I);
}

TEST(TransLayoutTest, PlacedUnitsMatchReferenceSolver) {
  // The perfbench site.  A seeder's retranslate-all lays out every
  // optimized unit under seeder instrumentation; its package boots a
  // consumer whose precompile lays them out again with the package's Vasm
  // counters injected.  Both Ext-TSP solvers must order every unit alike.
  fleet::WorkloadParams P;
  P.NumHelpers = 700;
  P.NumClasses = 72;
  P.NumEndpoints = 40;
  P.NumUnits = 48;
  std::unique_ptr<fleet::Workload> W = fleet::generateWorkload(P);
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 21);
  vm::ServerConfig Config;
  Config.Jit.SeederInstrumentation = true;
  std::unique_ptr<vm::Server> Seeder =
      fleet::runSeeder(*W, Traffic, Config, 0, 0, /*Requests=*/1200, 21);
  profile::ProfilePackage Pkg = Seeder->buildSeederPackage(0, 0, 1);
  ASSERT_FALSE(Pkg.Opt.VasmBlockCounts.empty());
  vm::Server Consumer(W->Repo, vm::ServerConfig(), 22);
  ASSERT_TRUE(Consumer.installPackage(Pkg).ok());
  Consumer.startup();

  for (const vm::Server *S : {Seeder.get(), &Consumer}) {
    SCOPED_TRACE(S == &Consumer ? "consumer precompile" : "seeder");
    size_t Units = 0;
    size_t MaxBlocks = 0;
    for (const auto &T : S->theJit().transDb().all()) {
      if (T->Kind != TransKind::Optimized || !T->Placed)
        continue;
      layout::Cfg G = layoutCfg(*T->Unit);
      ASSERT_EQ(layout::extTspOrder(G),
                jumpstart::testing::referenceExtTspOrder(G))
          << "unit of function " << T->Unit->Func.raw();
      ++Units;
      MaxBlocks = std::max(MaxBlocks, G.numBlocks());
    }
    EXPECT_GT(Units, 100u);
    EXPECT_GT(MaxBlocks, 32u) << "no unit is past the split limit";
  }
}

//===----------------------------------------------------------------------===//
// Tiering state machine (driven through real execution).
//===----------------------------------------------------------------------===//

namespace {

/// Drives a Jit through its lifecycle by executing a function repeatedly.
struct TieringFixture {
  TestVm Vm;
  JitConfig Config;
  std::unique_ptr<Jit> J;
  std::unique_ptr<JitProfilingHooks> Hooks;

  TieringFixture()
      : Vm("function helper($x) { return $x * 3 + 1; }"
           "function main($x) {"
           "  $s = 0; $i = 0;"
           "  while ($i < 8) { $s = $s + helper($x + $i); $i = $i + 1; }"
           "  return $s;"
           "}") {
    Config.ProfileRequestTarget = 5;
    J = std::make_unique<Jit>(Vm.Repo, Config);
    Hooks = std::make_unique<JitProfilingHooks>(*J);
    Vm.Interp->setCallbacks(Hooks.get());
  }

  void runRequest() {
    bc::FuncId Main = Vm.Repo.findFunction("main");
    J->onFuncEntered(Main);
    J->onFuncEntered(Vm.Repo.findFunction("helper"));
    Vm.Interp->call(Main, {runtime::Value::integer(3)});
    J->onRequestFinished();
  }

  /// Runs JIT work \p Budget units at a time until none is left; after
  /// every tick the running code-size totals must equal a rescan of the
  /// translation list.
  void drainJit(double Budget = 1e9) {
    while (J->hasPendingWork()) {
      J->runJitWork(Budget);
      expectCodeBytesMatchRescan();
    }
  }

  void expectCodeBytesMatchRescan() const {
    uint64_t Total = 0;
    for (TransKind K :
         {TransKind::Live, TransKind::Profile, TransKind::Optimized}) {
      uint64_t Rescan = 0;
      for (const auto &T : J->transDb().all())
        if (T->Kind == K)
          Rescan += T->Unit->sizeBytes();
      EXPECT_EQ(J->transDb().bytesOfKind(K), Rescan) << transKindName(K);
      Total += Rescan;
    }
    EXPECT_EQ(J->totalCodeBytes(), Total);
  }

  /// Serves \p N requests, draining JIT work between them (as background
  /// workers would), so profile translations exist to collect data.
  void serve(int N) {
    for (int I = 0; I < N; ++I) {
      runRequest();
      drainJit();
    }
  }
};

} // namespace

TEST(Tiering, FullLifecycle) {
  TieringFixture Fix;
  EXPECT_EQ(Fix.J->phase(), JitPhase::Profiling);

  // Requests trigger profile compilation.
  Fix.runRequest();
  EXPECT_TRUE(Fix.J->hasPendingWork());
  Fix.drainJit();
  bc::FuncId Main = Fix.Vm.Repo.findFunction("main");
  const Translation *ProfTrans = Fix.J->transDb().best(Main);
  ASSERT_NE(ProfTrans, nullptr);
  EXPECT_EQ(ProfTrans->Kind, TransKind::Profile);

  // More requests: profiling window closes, retranslate-all fires.
  for (int I = 0; I < 6; ++I)
    Fix.runRequest();
  EXPECT_NE(Fix.J->phase(), JitPhase::Profiling);
  // Small ticks: the code-size totals are checked between partial jobs.
  Fix.drainJit(/*Budget=*/500);
  EXPECT_EQ(Fix.J->phase(), JitPhase::Mature);

  const Translation *Opt = Fix.J->transDb().best(Main);
  ASSERT_NE(Opt, nullptr);
  EXPECT_EQ(Opt->Kind, TransKind::Optimized);
  EXPECT_TRUE(Opt->Placed);
  EXPECT_LT(Opt->CostPerBytecode, kInterpCostPerBytecode);
  // The replaced profile translation still counts towards code size.
  EXPECT_NE(Fix.J->transDb().forFunc(Main, TransKind::Profile), nullptr);
  EXPECT_GT(Fix.J->transDb().bytesOfKind(TransKind::Profile), 0u);
  EXPECT_GT(Fix.J->transDb().bytesOfKind(TransKind::Optimized), 0u);
}

TEST(Tiering, ProfilingCollectsData) {
  TieringFixture Fix;
  Fix.runRequest();
  Fix.drainJit();
  // Now main runs its profile translation: this request records counts.
  Fix.runRequest();
  bc::FuncId Main = Fix.Vm.Repo.findFunction("main");
  const profile::FuncProfile *P = Fix.J->profileStore().find(Main.raw());
  ASSERT_NE(P, nullptr);
  EXPECT_GT(P->EntryCount, 0u);
  EXPECT_FALSE(P->BlockCounts.empty());
  uint64_t Total = 0;
  for (uint64_t C : P->BlockCounts)
    Total += C;
  EXPECT_GT(Total, 0u);
}

TEST(Tiering, LiveTranslationsAfterMaturity) {
  TieringFixture Fix;
  for (int I = 0; I < 6; ++I)
    Fix.runRequest();
  Fix.drainJit();
  ASSERT_EQ(Fix.J->phase(), JitPhase::Mature);
  // A function never seen during profiling gets a live translation.
  TestVm &Vm = Fix.Vm;
  bc::FuncId Helper = Vm.Repo.findFunction("helper");
  (void)Helper;
  // Re-enter main (already optimized: no new work)...
  Fix.J->onFuncEntered(Vm.Repo.findFunction("main"));
  size_t JobsBefore = Fix.J->pendingJobs();
  EXPECT_EQ(JobsBefore, 0u);
}

TEST(Tiering, ConsumerPrecompileSkipsProfiling) {
  // Build a package from one VM's profiling, then feed it to a fresh Jit.
  TieringFixture Seeder;
  Seeder.serve(6);
  profile::ProfilePackage Pkg = Seeder.J->buildPackage(0, 0, 1, 0);
  EXPECT_GT(Pkg.numProfiledFuncs(), 0u);

  TieringFixture Consumer;
  // Fresh consumer Jit (unused requests).
  Jit Fresh(Consumer.Vm.Repo, Consumer.Config);
  Fresh.startConsumerPrecompile(Pkg);
  EXPECT_NE(Fresh.phase(), JitPhase::Profiling);
  while (Fresh.hasPendingWork())
    Fresh.runJitWork(1e9);
  EXPECT_EQ(Fresh.phase(), JitPhase::Mature);
  const Translation *T =
      Fresh.transDb().best(Consumer.Vm.Repo.findFunction("main"));
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Kind, TransKind::Optimized);
  EXPECT_TRUE(T->Placed);
}

TEST(Tiering, PackageCarriesPreloadListsAndOrder) {
  TieringFixture Fix;
  Fix.serve(6);
  profile::ProfilePackage Pkg = Fix.J->buildPackage(3, 4, 7, 0x99);
  EXPECT_EQ(Pkg.Region, 3u);
  EXPECT_EQ(Pkg.Bucket, 4u);
  EXPECT_EQ(Pkg.RepoFingerprint, 0x99u);
  EXPECT_FALSE(Pkg.Preload.Units.empty());
  EXPECT_FALSE(Pkg.Intermediate.FuncOrder.empty());
}

TEST(Tiering, JitWorkRespectsBudget) {
  TieringFixture Fix;
  Fix.runRequest();
  ASSERT_TRUE(Fix.J->hasPendingWork());
  double Consumed = Fix.J->runJitWork(10.0);
  EXPECT_LE(Consumed, 10.0 + 1e-9);
  EXPECT_TRUE(Fix.J->hasPendingWork())
      << "a tiny budget cannot finish a compile job";
}

//===----------------------------------------------------------------------===//
// Observation masks.
//===----------------------------------------------------------------------===//

namespace {

/// A recorder plus the tiering feed the VM server adds: one translation
/// lookup per frame entry serves both.  With \p AlwaysBody it observes
/// the body of every frame, not just the events the recorder picks.
/// Counts its answers by event bit either way, and the frames that record
/// into both tiers: under seeder instrumentation, an inlined callee whose
/// own translation is still its profile translation.
template <typename Recorder> class TieringHooks : public Recorder {
public:
  TieringHooks(Jit &J, bool AlwaysBody)
      : Recorder(J), J(J), AlwaysBody(AlwaysBody) {}

  interp::FrameObservation onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                                       const runtime::Value *Args,
                                       uint32_t NumArgs) override {
    const Translation *Best = J.onFuncEntered(Callee);
    // The unit an instrumented frame counts in, by the recorders' rule.
    const VasmUnit *Parent = Units.empty() ? nullptr : Units.back();
    const VasmUnit *Unit = nullptr;
    if (J.config().SeederInstrumentation) {
      if (Parent && Parent->isInlined(Callee))
        Unit = Parent;
      else if (Best && Best->Kind == TransKind::Optimized)
        Unit = Best->Unit.get();
    }
    if (Unit && Unit == Parent && Best && Best->Kind == TransKind::Profile)
      ++ProfiledInlined;
    Units.push_back(Unit);
    interp::FrameObservation O =
        this->enterFrame(Callee, Caller, Args, NumArgs, Best);
    if (AlwaysBody)
      O = interp::FrameObservation::Body;
    uint8_t Bits = static_cast<uint8_t>(O);
    if (!Bits)
      ++EmptyAnswers;
    for (uint32_t Bit = 0; Bit < 8; ++Bit)
      BitAnswers[Bit] += Bits >> Bit & 1;
    return O;
  }

  void onFuncExit(bc::FuncId F) override {
    if (!Units.empty())
      Units.pop_back();
    Recorder::onFuncExit(F);
  }

  /// The answers that include the single event \p E, or for EntryExit
  /// the answers that include none.
  uint64_t answers(interp::FrameObservation E) const {
    uint8_t Bit = static_cast<uint8_t>(E);
    return Bit ? BitAnswers[std::countr_zero(Bit)] : EmptyAnswers;
  }

  /// Frames of an inlined callee running its profile translation inside
  /// an instrumented unit.
  uint64_t profiledInlined() const { return ProfiledInlined; }

private:
  Jit &J;
  bool AlwaysBody;
  uint64_t EmptyAnswers = 0;
  uint64_t BitAnswers[8] = {};
  std::vector<const VasmUnit *> Units;
  uint64_t ProfiledInlined = 0;
};

/// One interpreter and one JIT serving a workload through TieringHooks.
template <typename Recorder = JitProfilingHooks> struct HooksTwin {
  HooksTwin(const fleet::Workload &W, const JitConfig &Config,
            bool AlwaysBody = false, support::ThreadPool *Pool = nullptr)
      : W(W), Classes(W.Repo),
        Interp(W.Repo, Classes, Heap, runtime::BuiltinTable::standard()),
        J(W.Repo, Config, Pool), Hooks(J, AlwaysBody) {
    Interp.setCallbacks(&Hooks);
  }

  /// Serves request \p Rq, then grants the JIT \p Budget units.
  /// \returns the request's observables.
  std::string serve(uint32_t Rq, double Budget) {
    bc::FuncId F = W.Endpoints[Rq % W.Endpoints.size()];
    interp::InterpResult R =
        Interp.call(F, {runtime::Value::integer(Rq % 97)});
    std::string Line = strFormat(
        "%s steps=%llu faults=%llu ok=%d", runtime::toString(R.Ret).c_str(),
        static_cast<unsigned long long>(R.Steps),
        static_cast<unsigned long long>(R.Faults), R.Ok ? 1 : 0);
    Heap.reset();
    J.onRequestFinished();
    J.runJitWork(Budget);
    return Line;
  }

  const fleet::Workload &W;
  runtime::ClassTable Classes;
  runtime::Heap Heap;
  interp::Interpreter Interp;
  Jit J;
  TieringHooks<Recorder> Hooks;
};

/// The generated site the twin tests serve.
std::unique_ptr<fleet::Workload> twinSite() {
  fleet::WorkloadParams P;
  P.NumHelpers = 60;
  P.NumClasses = 12;
  P.NumEndpoints = 8;
  P.NumUnits = 6;
  return fleet::generateWorkload(P);
}

/// Serves \p A and \p B the same requests through profiling,
/// retranslate-all while profile translations still run, relocation over
/// many requests, so that placed optimized code calls callees still
/// running their profile translations, and 200 requests of mature code;
/// every request must come out identical.
template <typename RecA, typename RecB>
void serveTwins(HooksTwin<RecA> &A, HooksTwin<RecB> &B) {
  uint32_t Rq = 0;
  bool ProfiledWhileOptimizing = false;
  for (uint32_t Mature = 0; Mature < 200; ++Rq) {
    ASSERT_LT(Rq, 5000u) << "the JIT never matured";
    JitPhase Phase = A.J.phase();
    const double Budget = Phase == JitPhase::Relocating ? 200 : 40'000;
    uint64_t BlocksBefore =
        A.Hooks.answers(interp::FrameObservation::Blocks);
    ASSERT_EQ(A.serve(Rq, Budget), B.serve(Rq, Budget)) << "request " << Rq;
    ASSERT_EQ(A.J.phase(), B.J.phase()) << "request " << Rq;
    if (Phase == JitPhase::Optimizing &&
        A.Hooks.answers(interp::FrameObservation::Blocks) > BlocksBefore)
      ProfiledWhileOptimizing = true;
    if (Phase == JitPhase::Mature)
      ++Mature;
  }
  EXPECT_TRUE(ProfiledWhileOptimizing);
}

} // namespace

TEST(ObservationMask, ProfilingHooksRecordOnlyWhatTheyObserve) {
  // Frames JitProfilingHooks answers EntryExit run the plain interpreter
  // body.  Its twin observes every frame's body instead; every profile,
  // every placement and every request must come out identical.
  std::unique_ptr<fleet::Workload> W = twinSite();
  for (bool Instrument : {false, true}) {
    SCOPED_TRACE(Instrument ? "seeder instrumentation" : "no instrumentation");
    JitConfig Config;
    Config.ProfileRequestTarget = 40;
    Config.SeederInstrumentation = Instrument;
    HooksTwin<> Masked(*W, Config, /*AlwaysBody=*/false);
    HooksTwin<> Full(*W, Config, /*AlwaysBody=*/true);
    ASSERT_NO_FATAL_FAILURE(serveTwins(Masked, Full));
    using interp::FrameObservation;
    EXPECT_GT(Masked.Hooks.answers(FrameObservation::EntryExit), 0u);
    EXPECT_GT(Masked.Hooks.answers(FrameObservation::Types), 0u);
    EXPECT_EQ(Masked.Hooks.answers(FrameObservation::Data), 0u);
    EXPECT_EQ(Masked.Hooks.answers(FrameObservation::Instrs), 0u);
    // Profile frames ask for types and blocks; instrumented optimized
    // frames for blocks alone.
    if (Instrument) {
      EXPECT_GT(Masked.Hooks.answers(FrameObservation::Blocks),
                Masked.Hooks.answers(FrameObservation::Types));
    } else {
      EXPECT_EQ(Masked.Hooks.answers(FrameObservation::Blocks),
                Masked.Hooks.answers(FrameObservation::Types));
    }

    profile::ProfilePackage Pkg = Masked.J.buildPackage(0, 0, 1, 0);
    EXPECT_EQ(Pkg.serialize(), Full.J.buildPackage(0, 0, 1, 0).serialize());
    EXPECT_EQ(Masked.J.transDb().placementDigest(),
              Full.J.transDb().placementDigest());
    if (Instrument) {
      // Instrumented optimized frames recorded, inlined ones included.
      EXPECT_FALSE(Pkg.Opt.VasmBlockCounts.empty());
      EXPECT_FALSE(Pkg.Opt.CallArcs.empty());
      bool Inlines = false;
      for (const auto &T : Masked.J.transDb().all())
        Inlines |= T->Kind == TransKind::Optimized && T->Placed &&
                   !T->Unit->inlined().empty();
      EXPECT_TRUE(Inlines);
    }
  }
}

//===----------------------------------------------------------------------===//
// Profile slabs and dense translation lookups.
//===----------------------------------------------------------------------===//

TEST(ProfileSlabs, SlabRecorderMatchesReferenceRecorder) {
  // The slab recorder and the pre-slab map-and-string recorder serve the
  // same site.  Every request, the package bytes (the reference's
  // string-keyed property counters spliced in) and every placement must
  // come out identical.  Each package then boots a consumer that orders
  // properties by affinity, which must serve identically too.
  std::unique_ptr<fleet::Workload> W = twinSite();
  for (bool Instrument : {false, true}) {
    SCOPED_TRACE(Instrument ? "seeder instrumentation" : "no instrumentation");
    JitConfig Config;
    Config.ProfileRequestTarget = 40;
    Config.SeederInstrumentation = Instrument;
    HooksTwin<> Slab(*W, Config);
    HooksTwin<jumpstart::testing::ReferenceProfilingHooks> Ref(*W, Config);
    ASSERT_NO_FATAL_FAILURE(serveTwins(Slab, Ref));
    // With instrumentation, some frame records into both tiers: its slab
    // and the instrumented unit it is inlined into.
    if (Instrument) {
      EXPECT_GT(Slab.Hooks.profiledInlined(), 0u);
    }

    profile::ProfilePackage Pkg = Slab.J.buildPackage(0, 0, 1, 0);
    profile::ProfilePackage RefPkg = Ref.J.buildPackage(0, 0, 1, 0);
    EXPECT_TRUE(RefPkg.Opt.PropAccessCounts.empty());
    RefPkg.Opt.PropAccessCounts = Ref.Hooks.propCounts();
    RefPkg.Opt.PropAffinity = Ref.Hooks.propAffinity();
    EXPECT_FALSE(Pkg.Opt.PropAccessCounts.empty());
    EXPECT_FALSE(Pkg.Opt.PropAffinity.empty());
    EXPECT_GT(Pkg.numProfiledFuncs(), 0u);
    EXPECT_EQ(Pkg.serialize(), RefPkg.serialize());
    EXPECT_EQ(Slab.J.transDb().placementDigest(),
              Ref.J.transDb().placementDigest());

    vm::ServerConfig SC;
    SC.UseAffinityPropOrder = true;
    vm::Server A(W->Repo, SC, 1);
    vm::Server B(W->Repo, SC, 1);
    ASSERT_TRUE(A.installPackage(Pkg).ok());
    ASSERT_TRUE(B.installPackage(RefPkg).ok());
    A.startup();
    B.startup();
    for (uint32_t Rq = 0; Rq < 50; ++Rq) {
      bc::FuncId E = W->Endpoints[Rq % W->Endpoints.size()];
      std::vector<runtime::Value> Args{runtime::Value::integer(Rq % 97)};
      vm::RequestResult RA = A.executeRequest(E, Args);
      vm::RequestResult RB = B.executeRequest(E, Args);
      ASSERT_EQ(RA.Obs.Ret, RB.Obs.Ret) << "request " << Rq;
      ASSERT_EQ(RA.Obs.Output, RB.Obs.Output) << "request " << Rq;
      ASSERT_EQ(RA.Obs.Faults, RB.Obs.Faults) << "request " << Rq;
      ASSERT_EQ(RA.Seconds, RB.Seconds) << "request " << Rq;
    }
    EXPECT_EQ(A.theJit().transDb().placementDigest(),
              B.theJit().transDb().placementDigest());
  }
}

TEST(ProfileSlabs, PooledDrainRendersBeforeFanOut) {
  // Two twins record the same profiling prefix into slabs, then drain
  // retranslate-all through runJitWork: one inline, the other preparing
  // on a three-worker pool, which it also used for the profiling grants.
  // The workers read only the view rendered before the fan-out.
  std::unique_ptr<fleet::Workload> W = twinSite();
  JitConfig Config;
  Config.ProfileRequestTarget = 1000;
  support::ThreadPool Pool(3);
  HooksTwin<> Inline(*W, Config);
  HooksTwin<> Pooled(*W, Config, /*AlwaysBody=*/false, &Pool);
  for (uint32_t Rq = 0; Rq < 30; ++Rq)
    ASSERT_EQ(Inline.serve(Rq, 40'000), Pooled.serve(Rq, 40'000));
  ASSERT_EQ(Inline.J.phase(), JitPhase::Profiling);
  auto DrainAndCountPlaced = [](Jit &J) {
    J.beginRetranslateAll();
    while (J.hasPendingWork())
      J.runJitWork(1e6);
    size_t Placed = 0;
    for (const auto &T : J.transDb().all())
      Placed += T->Placed ? 1 : 0;
    return Placed;
  };
  size_t A = DrainAndCountPlaced(Inline.J);
  size_t B = DrainAndCountPlaced(Pooled.J);
  EXPECT_GT(A, 0u);
  EXPECT_EQ(A, B);
  EXPECT_EQ(Inline.J.phase(), JitPhase::Mature);
  EXPECT_EQ(Inline.J.transDb().placementDigest(),
            Pooled.J.transDb().placementDigest());
  EXPECT_EQ(Inline.J.buildPackage(0, 0, 1, 0).serialize(),
            Pooled.J.buildPackage(0, 0, 1, 0).serialize());
}

TEST(ProfileSlabs, RenderAddsToProfilesWrittenDirectly) {
  // Counts written through getOrCreate and counts a slab records add up,
  // and a site the slab never observed stays out of the ordered maps.
  TestVm Vm("function f($x) { return $x + 1; }");
  bc::FuncId F = Vm.Repo.findFunction("f");
  bc::BlockCache Blocks(Vm.Repo);
  profile::ProfileStore Store;
  Store.getOrCreate(F.raw()).EntryCount = 5;
  profile::ProfileSlab &S = Store.createSlab(
      F.raw(), Vm.Repo.func(F), Blocks.blocks(F).numBlocks());
  Store.touch(S);
  runtime::Value Arg = runtime::Value::integer(1);
  S.countEntry(&Arg, 1);
  S.countBlock(0);
  Store.render();
  const profile::FuncProfile *P = Store.find(F.raw());
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->EntryCount, 6u);
  ASSERT_EQ(P->BlockCounts.size(), Blocks.blocks(F).numBlocks());
  EXPECT_EQ(P->BlockCounts[0], 1u);
  ASSERT_EQ(P->ParamTypes.size(), 1u);
  EXPECT_EQ(P->ParamTypes[0].total(), 1u);
  EXPECT_TRUE(P->LoadTypes.empty()) << "the Add site was never observed";
  // A render zeroes the slab: rendering again adds nothing.
  Store.touch(S);
  Store.render();
  EXPECT_EQ(Store.find(F.raw())->EntryCount, 6u);
}

TEST(TransDbTest, LookupsMatchAScanOfAllTranslations) {
  // best() and forFunc() read per-function rows.  After every JIT job of
  // a retranslate-all plus a live tail they must equal a brute-force
  // scan of all(): the latest translation per kind, and the first placed
  // one in optimized, live, profile order.
  std::unique_ptr<fleet::Workload> W = twinSite();
  JitConfig Config;
  Config.ProfileRequestTarget = 10;
  // Cheap jobs keep the one-unit steps below few.
  Config.ProfileCompileCostPerBytecode = 4;
  Config.LiveCompileCostPerBytecode = 4;
  Config.OptCompileCostPerBytecode = 8;
  HooksTwin<> Twin(*W, Config);
  const TransDb &Db = Twin.J.transDb();
  const size_t NumFuncs = W->Repo.numFuncs();

  auto ExpectMatchesScan = [&] {
    std::vector<std::array<const Translation *, 3>> Latest(NumFuncs);
    for (const auto &T : Db.all())
      Latest[T->func().raw()][static_cast<size_t>(T->Kind)] = T.get();
    for (uint32_t Raw = 0; Raw < NumFuncs; ++Raw) {
      bc::FuncId F(Raw);
      const Translation *Best = nullptr;
      for (TransKind K :
           {TransKind::Optimized, TransKind::Live, TransKind::Profile}) {
        const Translation *T = Latest[Raw][static_cast<size_t>(K)];
        ASSERT_EQ(Db.forFunc(F, K), T) << "f" << Raw << " "
                                       << transKindName(K);
        if (!Best && T && T->Placed)
          Best = T;
      }
      ASSERT_EQ(Db.best(F), Best) << "f" << Raw;
    }
  };

  size_t Steps = 0;
  for (uint32_t Rq = 0, Mature = 0; Mature < 40; ++Rq) {
    ASSERT_LT(Rq, 2000u) << "the JIT never matured";
    if (Twin.J.phase() == JitPhase::Mature)
      ++Mature;
    Twin.serve(Rq, /*Budget=*/0);
    // One-unit steps finish at most one job each: every job costs more.
    for (int I = 0; I < 2000 && Twin.J.hasPendingWork(); ++I) {
      size_t Created = Db.size();
      Twin.J.runJitWork(1.0);
      ASSERT_LE(Db.size(), Created + 1);
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesScan());
      ++Steps;
    }
  }
  size_t Kinds[3] = {};
  for (const auto &T : Db.all())
    ++Kinds[static_cast<size_t>(T->Kind)];
  EXPECT_GT(Kinds[static_cast<size_t>(TransKind::Profile)], 0u);
  EXPECT_GT(Kinds[static_cast<size_t>(TransKind::Optimized)], 0u);
  EXPECT_GT(Kinds[static_cast<size_t>(TransKind::Live)], 0u)
      << "no live tail";
  EXPECT_GT(Steps, Db.size());
}
