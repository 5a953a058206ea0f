//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the extension features beyond the paper's core system:
/// ShareJIT-style machine-code sharing (the section III comparison),
/// affinity-based property ordering (section V-C future work), and jump
/// elision at placement.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "fleet/ServerSim.h"
#include "fleet/WorkloadGen.h"
#include "jit/Jit.h"
#include "jit/TransLayout.h"

#include <gtest/gtest.h>

using namespace jumpstart;
using jumpstart::testing::TestVm;

//===----------------------------------------------------------------------===//
// ShareJIT mode.
//===----------------------------------------------------------------------===//

namespace {

/// Builds a package for a small workload and returns (workload, package).
struct ShareJitFixture {
  std::unique_ptr<fleet::Workload> W;
  std::unique_ptr<fleet::TrafficModel> Traffic;
  profile::ProfilePackage Pkg;

  ShareJitFixture() {
    fleet::WorkloadParams P;
    P.NumHelpers = 100;
    P.NumClasses = 18;
    P.NumEndpoints = 10;
    P.NumUnits = 10;
    W = fleet::generateWorkload(P);
    Traffic = std::make_unique<fleet::TrafficModel>(
        *W, fleet::TrafficParams(), 5);
    vm::ServerConfig Config;
    Config.Jit.ProfileRequestTarget = 30;
    Config.Jit.SeederInstrumentation = true;
    auto Seeder = fleet::runSeeder(*W, *Traffic, Config, 0, 0, 100, 3);
    Pkg = Seeder->buildSeederPackage(0, 0, 1);
  }
};

} // namespace

TEST(ShareJit, NoInliningUnderSharingConstraints) {
  ShareJitFixture Fix;
  jit::JitConfig Config;
  Config.ShareJitMode = true;
  jit::Jit J(Fix.W->Repo, Config);
  J.startConsumerPrecompile(Fix.Pkg);
  while (J.hasPendingWork())
    J.runJitWork(1e9);
  for (const auto &T : J.transDb().all()) {
    if (T->Kind == jit::TransKind::Optimized) {
      EXPECT_TRUE(T->Unit->inlined().empty())
          << "shared code must not inline user-defined functions";
    }
  }
}

TEST(ShareJit, SharedCodeIsSlowerPerBytecode) {
  ShareJitFixture Fix;
  jit::Jit Full(Fix.W->Repo, jit::JitConfig());
  Full.startConsumerPrecompile(Fix.Pkg);
  while (Full.hasPendingWork())
    Full.runJitWork(1e9);

  jit::JitConfig SharedConfig;
  SharedConfig.ShareJitMode = true;
  jit::Jit Shared(Fix.W->Repo, SharedConfig);
  Shared.startConsumerPrecompile(Fix.Pkg);
  while (Shared.hasPendingWork())
    Shared.runJitWork(1e9);

  // Aggregate cost per bytecode across all optimized translations.
  auto MeanCost = [](const jit::Jit &J) {
    double Sum = 0;
    int N = 0;
    for (const auto &T : J.transDb().all())
      if (T->Kind == jit::TransKind::Optimized) {
        Sum += T->CostPerBytecode;
        ++N;
      }
    return N ? Sum / N : 0;
  };
  EXPECT_GT(MeanCost(Shared), MeanCost(Full))
      << "sharing constraints must cost steady-state performance";
}

TEST(ShareJit, PrecompileIsMuchCheaper) {
  ShareJitFixture Fix;
  jit::Jit Full(Fix.W->Repo, jit::JitConfig());
  Full.startConsumerPrecompile(Fix.Pkg);
  double FullWork = 0;
  while (Full.hasPendingWork())
    FullWork += Full.runJitWork(1e9);

  jit::JitConfig SharedConfig;
  SharedConfig.ShareJitMode = true;
  jit::Jit Shared(Fix.W->Repo, SharedConfig);
  Shared.startConsumerPrecompile(Fix.Pkg);
  double SharedWork = 0;
  while (Shared.hasPendingWork())
    SharedWork += Shared.runJitWork(1e9);

  EXPECT_LT(SharedWork, FullWork / 5)
      << "adopting shared code must be far cheaper than recompiling";
  EXPECT_EQ(Shared.phase(), jit::JitPhase::Mature);
}

//===----------------------------------------------------------------------===//
// Affinity-based property ordering.
//===----------------------------------------------------------------------===//

namespace {

/// class W { $a $b $c $d } with affinity a<->c and b<->d.
struct AffinityFixture {
  bc::Repo R;
  bc::ClassId K;
  std::unordered_map<std::string, uint64_t> Counts{
      {"W::a", 100}, {"W::b", 99}, {"W::c", 98}, {"W::d", 97}};
  std::unordered_map<std::string, uint64_t> Affinity{
      {"W::a::c", 500}, {"W::b::d", 500}};

  AffinityFixture() {
    bc::Unit &U = R.createUnit("u");
    bc::Class &C = R.createClass(U, "W");
    for (const char *P : {"a", "b", "c", "d"})
      C.DeclProps.push_back(R.internString(P));
    K = C.Id;
  }

  std::string orderString(runtime::ClassTable &T) {
    const runtime::ClassLayout &L = T.layout(K);
    std::string S;
    for (uint32_t I = 0; I < L.numSlots(); ++I)
      S += R.str(L.propAtSlot(I));
    return S;
  }
};

} // namespace

TEST(AffinityOrder, ChainsCoAccessedProperties) {
  AffinityFixture Fix;
  runtime::ClassTable T(Fix.R);
  T.enableAffinityReordering(&Fix.Counts, &Fix.Affinity);
  EXPECT_EQ(T.orderMode(), runtime::PropOrderMode::Affinity);
  // Seed = hottest (a); chain a->c (affinity), then restart at hottest
  // unplaced (b), chain b->d.
  EXPECT_EQ(Fix.orderString(T), "acbd");
}

TEST(AffinityOrder, HotnessModeInterleaves) {
  AffinityFixture Fix;
  runtime::ClassTable T(Fix.R);
  T.enablePropReordering(&Fix.Counts);
  EXPECT_EQ(T.orderMode(), runtime::PropOrderMode::Hotness);
  EXPECT_EQ(Fix.orderString(T), "abcd"); // counts already descending
}

TEST(AffinityOrder, FallsBackToHotnessWithoutAffinityData) {
  AffinityFixture Fix;
  std::unordered_map<std::string, uint64_t> Empty;
  runtime::ClassTable T(Fix.R);
  T.enableAffinityReordering(&Fix.Counts, &Empty);
  // No affinity signal: chain restarts at the hottest each time, which
  // degenerates to hotness order.
  EXPECT_EQ(Fix.orderString(T), "abcd");
}

TEST(AffinityOrder, StillAPermutationWithPartialData) {
  AffinityFixture Fix;
  std::unordered_map<std::string, uint64_t> Partial{{"W::a::d", 7}};
  runtime::ClassTable T(Fix.R);
  T.enableAffinityReordering(&Fix.Counts, &Partial);
  std::string S = Fix.orderString(T);
  ASSERT_EQ(S.size(), 4u);
  for (char C : {'a', 'b', 'c', 'd'})
    EXPECT_NE(S.find(C), std::string::npos);
  EXPECT_EQ(S.substr(0, 2), "ad") << "the only affinity pair chains";
}

TEST(AffinityOrder, PackageCarriesAffinityCounters) {
  profile::ProfilePackage Pkg;
  Pkg.Opt.PropAffinity["K::x::y"] = 42;
  std::vector<uint8_t> Blob = Pkg.serialize();
  profile::ProfilePackage Out;
  ASSERT_TRUE(profile::ProfilePackage::deserialize(Blob, Out));
  EXPECT_EQ(Out.Opt.PropAffinity.at("K::x::y"), 42u);
}

//===----------------------------------------------------------------------===//
// Jump elision at placement.
//===----------------------------------------------------------------------===//

TEST(JumpElision, AdjacentTargetDropsJump) {
  TestVm Vm("function f($x) {"
            "  if ($x > 0) { $x = $x + 1; } else { $x = $x - 1; }"
            "  return $x;"
            "}");
  bc::BlockCache Blocks(Vm.Repo);
  profile::ProfileStore Store;
  jit::RegionDescriptor Region;
  Region.Func = Vm.Repo.findFunction("f");
  jit::LowerOptions Opts;
  Opts.Kind = jit::TransKind::Optimized;
  jit::TransDb Db;
  jit::Translation &T = Db.create(
      jit::TransKind::Optimized,
      lowerFunction(Vm.Repo, Blocks, Region.Func, &Store, &Region, Opts));
  jit::CodeCache Cache;
  // Keep the lowering order (then-block ends with a Jump to the join
  // block, which is placed right after the else-block -- at least one
  // jump in this diamond becomes elidable under some order).
  jit::LayoutOptions L;
  L.UseExtTsp = true;
  L.SplitCold = false;
  jit::UnitLayout Layout = layoutUnit(*T.Unit, L);
  ASSERT_TRUE(placeTranslation(T, Cache, jit::CodeArea::Hot, Layout));

  // Verify the invariant rather than a specific block: a block is marked
  // elided iff it ends with a Jump and its target starts exactly at its
  // (shrunk) end.
  for (uint32_t B = 0; B < T.Unit->Blocks.size(); ++B) {
    const jit::VBlock &VB = T.Unit->Blocks[B];
    if (!T.JumpElided[B])
      continue;
    ASSERT_FALSE(VB.Instrs.empty());
    EXPECT_EQ(VB.Instrs.back().Kind, jit::VKind::Jump);
    uint64_t EffEnd = T.BlockAddrs[B] + VB.sizeBytes() -
                      VB.Instrs.back().SizeBytes;
    EXPECT_EQ(T.BlockAddrs[VB.Taken], EffEnd)
        << "an elided jump's target must be physically adjacent";
  }
}

TEST(JumpElision, ShrinksPlacedFootprint) {
  // A chain of blocks each jumping to the next: placed contiguously,
  // every jump but the last one elides.
  TestVm Vm("function f($x) {"
            "  $a = 0;"
            "  while ($x > 0) { $a = $a + $x; $x = $x - 1; }"
            "  return $a;"
            "}");
  bc::BlockCache Blocks(Vm.Repo);
  profile::ProfileStore Store;
  jit::RegionDescriptor Region;
  Region.Func = Vm.Repo.findFunction("f");
  jit::LowerOptions Opts;
  Opts.Kind = jit::TransKind::Optimized;
  jit::TransDb Db;
  jit::Translation &T = Db.create(
      jit::TransKind::Optimized,
      lowerFunction(Vm.Repo, Blocks, Region.Func, &Store, &Region, Opts));
  jit::CodeCache Cache;
  jit::UnitLayout Layout = layoutUnit(*T.Unit, jit::LayoutOptions());
  ASSERT_TRUE(placeTranslation(T, Cache, jit::CodeArea::Hot, Layout));
  uint64_t Placed = Cache.used(jit::CodeArea::Hot) +
                    Cache.used(jit::CodeArea::Cold);
  uint64_t Nominal = T.Unit->sizeBytes();
  EXPECT_LE(Placed, Nominal + 15 /*alignment slack*/);
}

//===----------------------------------------------------------------------===//
// Live-code pre-compilation (the section IV-A alternative).
//===----------------------------------------------------------------------===//

TEST(LivePrecompile, PackageCarriesLiveListAndConsumerUsesIt) {
  // A seeder that serves past its profiling window accumulates live
  // translations; the package lists them.
  fleet::WorkloadParams P;
  P.NumHelpers = 100;
  P.NumClasses = 18;
  P.NumEndpoints = 10;
  P.NumUnits = 10;
  auto W = fleet::generateWorkload(P);
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 5);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 10; // profiling ends almost at once
  Config.Jit.SeederInstrumentation = true;
  auto Seeder = fleet::runSeeder(*W, Traffic, Config, 0, 0, 150, 3);
  profile::ProfilePackage Pkg = Seeder->buildSeederPackage(0, 0, 1);
  ASSERT_FALSE(Pkg.Intermediate.LiveFuncs.empty())
      << "a post-profiling seeder must have a live-code tail";

  // Round trip preserves the list.
  profile::ProfilePackage Out;
  ASSERT_TRUE(profile::ProfilePackage::deserialize(Pkg.serialize(), Out));
  EXPECT_EQ(Out.Intermediate.LiveFuncs, Pkg.Intermediate.LiveFuncs);

  // A consumer with PrecompileLiveCode boots with live translations
  // already placed; the default consumer has none.
  auto CountLive = [](const jit::Jit &J) {
    size_t N = 0;
    for (const auto &T : J.transDb().all())
      if (T->Kind == jit::TransKind::Live && T->Placed)
        ++N;
    return N;
  };
  jit::JitConfig Plain;
  jit::Jit Default(W->Repo, Plain);
  Default.startConsumerPrecompile(Pkg);
  while (Default.hasPendingWork())
    Default.runJitWork(1e9);
  EXPECT_EQ(CountLive(Default), 0u);

  jit::JitConfig WithLive;
  WithLive.PrecompileLiveCode = true;
  jit::Jit Eager(W->Repo, WithLive);
  Eager.startConsumerPrecompile(Pkg);
  while (Eager.hasPendingWork())
    Eager.runJitWork(1e9);
  EXPECT_EQ(Eager.phase(), jit::JitPhase::Mature);
  EXPECT_GT(CountLive(Eager), 0u);
}
