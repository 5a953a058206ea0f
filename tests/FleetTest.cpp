//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the fleet simulators: workload generation, traffic model,
/// warmup runs, reliability model, steady-state measurement.
///
//===----------------------------------------------------------------------===//

#include "core/Seeder.h"
#include "fleet/Reliability.h"
#include "fleet/ServerSim.h"
#include "fleet/SteadyState.h"
#include "fleet/Traffic.h"
#include "fleet/WarmupStats.h"
#include "fleet/WorkloadGen.h"
#include "support/Hashing.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace jumpstart;
using namespace jumpstart::fleet;

namespace {

WorkloadParams smallParams() {
  WorkloadParams P;
  P.NumHelpers = 120;
  P.NumClasses = 24;
  P.NumEndpoints = 12;
  P.NumUnits = 12;
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Workload generation.
//===----------------------------------------------------------------------===//

TEST(WorkloadGenTest, GeneratesCompilableSite) {
  auto W = generateWorkload(smallParams());
  EXPECT_EQ(W->Endpoints.size(), 12u);
  EXPECT_GT(W->Repo.numFuncs(), 120u); // helpers + endpoints + methods
  EXPECT_EQ(W->Repo.numClasses(), 24u);
  EXPECT_GT(W->Repo.totalBytecode(), 1000u);
  EXPECT_FALSE(W->Sources.empty());
}

TEST(WorkloadGenTest, DeterministicForSameSeed) {
  auto A = generateWorkload(smallParams());
  auto B = generateWorkload(smallParams());
  ASSERT_EQ(A->Sources.size(), B->Sources.size());
  for (size_t I = 0; I < A->Sources.size(); ++I)
    EXPECT_EQ(A->Sources[I].second, B->Sources[I].second);
}

TEST(WorkloadGenTest, DifferentSeedsDiffer) {
  WorkloadParams P = smallParams();
  auto A = generateWorkload(P);
  P.Seed = 777;
  auto B = generateWorkload(P);
  bool AnyDifferent = false;
  for (size_t I = 0; I < A->Sources.size(); ++I)
    if (A->Sources[I].second != B->Sources[I].second)
      AnyDifferent = true;
  EXPECT_TRUE(AnyDifferent);
}

TEST(WorkloadGenTest, EndpointsExecuteWithoutAborting) {
  auto W = generateWorkload(smallParams());
  runtime::ClassTable Classes(W->Repo);
  runtime::Heap Heap;
  interp::Interpreter Interp(W->Repo, Classes, Heap,
                             runtime::BuiltinTable::standard());
  for (bc::FuncId E : W->Endpoints) {
    for (int64_t Req : {0, 7, 123}) {
      interp::InterpResult R =
          Interp.call(E, {runtime::Value::integer(Req)});
      EXPECT_TRUE(R.Ok) << "endpoint aborted";
      EXPECT_EQ(R.Faults, 0u)
          << "generated code must not fault on integer requests";
      Heap.reset();
    }
  }
}

TEST(WorkloadGenTest, ProfileIsFlat) {
  // Execute a traffic mix and check no single function dominates.
  auto W = generateWorkload(smallParams());
  TrafficModel Traffic(*W, TrafficParams(), 5);
  runtime::ClassTable Classes(W->Repo);
  runtime::Heap Heap;
  interp::Interpreter Interp(W->Repo, Classes, Heap,
                             runtime::BuiltinTable::standard());
  interp::InstrCounts IC;
  Interp.setInstrCounts(&IC);
  const std::vector<uint64_t> &Counts = IC.Counts;
  Rng R(3);
  for (int I = 0; I < 100; ++I) {
    uint32_t E = Traffic.sampleEndpoint(0, R.nextBelow(10), R);
    Interp.call(W->Endpoints[E], TrafficModel::makeArgs(R));
    Heap.reset();
  }
  uint64_t Total = std::accumulate(Counts.begin(), Counts.end(), 0ull);
  uint64_t Max = *std::max_element(Counts.begin(), Counts.end());
  ASSERT_GT(Total, 0u);
  // The miniature test site (120 helpers) is less flat than a full-size
  // one; 20% is the dominance bound at this scale.
  EXPECT_LT(static_cast<double>(Max) / Total, 0.20)
      << "no function should dominate the flat profile";
  size_t Executed = 0;
  for (uint64_t C : Counts)
    if (C > 0)
      ++Executed;
  EXPECT_GT(Executed, W->Repo.numFuncs() / 4)
      << "a long tail of functions should execute";
}

//===----------------------------------------------------------------------===//
// Traffic model.
//===----------------------------------------------------------------------===//

TEST(TrafficTest, BucketAffinity) {
  auto W = generateWorkload(smallParams());
  TrafficParams TP;
  TP.BucketAffinity = 0.9;
  TrafficModel Traffic(*W, TP, 9);
  Rng R(4);
  int InBucket = 0;
  const int N = 2000;
  for (int I = 0; I < N; ++I) {
    uint32_t E = Traffic.sampleEndpoint(0, 3, R);
    if (W->EndpointPartition[E] == 3)
      ++InBucket;
  }
  // ~90% affinity plus ~1/10 of the spillover landing back home.
  EXPECT_GT(InBucket, N * 0.8);
  EXPECT_LT(InBucket, N * 0.98);
}

TEST(TrafficTest, RegionsHaveDifferentMixes) {
  auto W = generateWorkload(smallParams());
  TrafficModel Traffic(*W, TrafficParams(), 9);
  Rng R(4);
  std::vector<int> CountsA(W->Endpoints.size(), 0);
  std::vector<int> CountsB(W->Endpoints.size(), 0);
  for (int I = 0; I < 3000; ++I) {
    ++CountsA[Traffic.sampleEndpoint(0, 2, R)];
    ++CountsB[Traffic.sampleEndpoint(1, 2, R)];
  }
  // The hottest endpoint should differ between regions (shuffled heads).
  size_t HotA = std::max_element(CountsA.begin(), CountsA.end()) -
                CountsA.begin();
  size_t HotB = std::max_element(CountsB.begin(), CountsB.end()) -
                CountsB.begin();
  EXPECT_TRUE(HotA != HotB || CountsA[HotA] != CountsB[HotB]);
}

//===----------------------------------------------------------------------===//
// Warmup simulation.
//===----------------------------------------------------------------------===//

TEST(WarmupSim, JumpStartBeatsColdStart) {
  auto W = generateWorkload(smallParams());
  TrafficModel Traffic(*W, TrafficParams(), 21);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 200;

  // Seed a package.
  vm::ServerConfig SeederConfig = Config;
  SeederConfig.Jit.SeederInstrumentation = true;
  auto Seeder = runSeeder(*W, Traffic, SeederConfig, 0, 0, 150, 3);
  profile::ProfilePackage Pkg = Seeder->buildSeederPackage(0, 0, 1);

  ServerSimParams P;
  P.DurationSeconds = 120;
  P.OfferedRps = 1200;
  WarmupResult Cold = runWarmup(*W, Traffic, Config, P);
  WarmupResult Js = runWarmup(*W, Traffic, Config, P, &Pkg);

  EXPECT_GT(Cold.CapacityLossFraction, Js.CapacityLossFraction)
      << "Jump-Start must reduce capacity loss";
  EXPECT_GT(Cold.CapacityLossFraction, 0.05);
  // The Jump-Start server must end the window serving more of the load.
  EXPECT_GT(Js.normalizedRps().points().back().Value,
            Cold.normalizedRps().points().back().Value * 0.99);
}

TEST(WarmupSim, JumpStartImprovesWarmupClass) {
  // The statistical reading of Figure 4: the cold boot's normalized-RPS
  // curve classifies `warmup`, and Jump-Start either removes the warmup
  // phase entirely (`flat`) or reaches steady state strictly earlier.
  auto W = generateWorkload(smallParams());
  TrafficModel Traffic(*W, TrafficParams(), 21);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 200;

  vm::ServerConfig SeederConfig = Config;
  SeederConfig.Jit.SeederInstrumentation = true;
  auto Seeder = runSeeder(*W, Traffic, SeederConfig, 0, 0, 150, 3);
  profile::ProfilePackage Pkg = Seeder->buildSeederPackage(0, 0, 1);

  ServerSimParams P;
  P.DurationSeconds = 120;
  P.OfferedRps = 450;
  P.RunLabel = "class-cold";
  WarmupResult ColdRun = runWarmup(*W, Traffic, Config, P);
  P.RunLabel = "class-js";
  WarmupResult JsRun = runWarmup(*W, Traffic, Config, P, &Pkg);

  stats::Classification Cold = classifyWarmupThroughput(ColdRun);
  stats::Classification Js = classifyWarmupThroughput(JsRun);
  EXPECT_EQ(Cold.Class, stats::WarmupClass::Warmup);
  EXPECT_TRUE(Js.Class == stats::WarmupClass::Flat ||
              Js.SteadyStart < Cold.SteadyStart)
      << "jump-start class " << stats::warmupClassName(Js.Class)
      << " steady-start " << Js.SteadyStart << " vs cold "
      << Cold.SteadyStart;
}

TEST(WarmupSim, ClassificationIdenticalAcrossWorkerCounts) {
  // The transition-table rendering must be byte-identical whether the
  // sweep runs serially or sharded across a host thread pool: each run
  // records into its own registry and classification is RNG-free.
  auto W = generateWorkload(smallParams());
  TrafficModel Traffic(*W, TrafficParams(), 21);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 200;

  vm::ServerConfig SeederConfig = Config;
  SeederConfig.Jit.SeederInstrumentation = true;
  auto Seeder = runSeeder(*W, Traffic, SeederConfig, 0, 0, 150, 3);
  profile::ProfilePackage Pkg = Seeder->buildSeederPackage(0, 0, 1);

  std::vector<WarmupSweepRun> Runs;
  for (uint64_t Seed : {5, 6}) {
    for (bool WithJs : {false, true}) {
      WarmupSweepRun Run;
      Run.Params.DurationSeconds = 120;
      Run.Params.OfferedRps = 450;
      Run.Params.Seed = Seed;
      Run.Params.RunLabel = strFormat("sweep-s%llu-%s",
                                      static_cast<unsigned long long>(Seed),
                                      WithJs ? "js" : "nojs");
      Run.Package = WithJs ? &Pkg : nullptr;
      Runs.push_back(std::move(Run));
    }
  }

  auto RenderWith = [&](support::ThreadPool *Pool) {
    std::vector<WarmupResult> Sweep =
        runWarmupSweep(*W, Traffic, Config, Runs, Pool);
    std::vector<ClassTransition> Rows;
    for (size_t I = 0; I + 1 < Sweep.size(); I += 2) {
      ClassTransition T;
      T.Label = strFormat("server-%zu", I / 2);
      T.Seed = Runs[I].Params.Seed;
      T.Cold = classifyWarmupThroughput(Sweep[I]);
      T.Warm = classifyWarmupThroughput(Sweep[I + 1]);
      Rows.push_back(std::move(T));
    }
    return renderTransitionTableText(Rows) + renderTransitionTableJson(Rows);
  };

  std::string Serial = RenderWith(nullptr);
  support::ThreadPool Pool(4);
  std::string Sharded = RenderWith(&Pool);
  EXPECT_EQ(Serial, Sharded);
}

TEST(WarmupSim, PhaseTimesAreOrdered) {
  auto W = generateWorkload(smallParams());
  TrafficModel Traffic(*W, TrafficParams(), 22);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 300;
  ServerSimParams P;
  P.DurationSeconds = 150;
  P.OfferedRps = 2000;
  WarmupResult Res = runWarmup(*W, Traffic, Config, P);
  ASSERT_GE(Res.Phases.ProfilingEnd, 0) << "profiling must end in-window";
  EXPECT_LE(Res.Phases.ServeStart, Res.Phases.ProfilingEnd);
  ASSERT_GE(Res.Phases.RelocationEnd, 0);
  EXPECT_LE(Res.Phases.ProfilingEnd, Res.Phases.RelocationEnd);
  // Code keeps growing (live tail) at or past relocation end.
  EXPECT_GE(Res.Phases.JitingStopped, Res.Phases.RelocationEnd);
  // Code size curve is nondecreasing.
  const auto &Pts = Res.codeBytes().points();
  for (size_t I = 1; I < Pts.size(); ++I)
    EXPECT_GE(Pts[I].Value, Pts[I - 1].Value);
}

//===----------------------------------------------------------------------===//
// Steady-state measurement.
//===----------------------------------------------------------------------===//

TEST(SteadyStateTest, ProducesCountersAndThroughput) {
  auto W = generateWorkload(smallParams());
  TrafficModel Traffic(*W, TrafficParams(), 23);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 60;
  auto Server = runSeeder(*W, Traffic, Config, 0, 0, 120, 5);
  ASSERT_EQ(Server->theJit().phase(), jit::JitPhase::Mature);

  SteadyStateParams P;
  P.Requests = 40;
  P.WarmupRequests = 10;
  SteadyStateResult R = measureSteadyState(*W, Traffic, *Server, P);
  EXPECT_GT(R.Counters.Instructions, 1000u);
  EXPECT_GT(R.Counters.Branches, 0u);
  EXPECT_GT(R.Counters.L1DAccesses, 0u);
  EXPECT_GT(R.Throughput, 0.0);
  EXPECT_GT(R.CyclesPerRequest, 0.0);
  EXPECT_LE(R.L1IMissRate, 1.0);
}

//===----------------------------------------------------------------------===//
// Seeder packages at the benchmark site's size.
//===----------------------------------------------------------------------===//

TEST(SeederPackage, SiteSizedPackageBytesArePinned) {
  // A seeder with instrumentation on the perfbench site's shape, run as
  // perfbench's warmup set-up runs it: 1200 requests, retranslate-all
  // after 240.  Every recorder on its path -- profile slabs, seeder Vasm
  // rows and arcs, property and affinity counters -- lands in the
  // package, whose size and FNV-1a are pinned.
  WorkloadParams P;
  P.NumHelpers = 700;
  P.NumClasses = 72;
  P.NumEndpoints = 40;
  P.NumUnits = 48;
  auto W = generateWorkload(P);
  TrafficModel Traffic(*W, TrafficParams(), 31);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 240;
  Config.Jit.SeederInstrumentation = true;
  auto Server = runSeeder(*W, Traffic, Config, 0, 0, /*Requests=*/1200, 41);
  ASSERT_EQ(Server->theJit().phase(), jit::JitPhase::Mature);
  profile::ProfilePackage Pkg = Server->buildSeederPackage(0, 0, 1);
  EXPECT_FALSE(Pkg.Opt.VasmBlockCounts.empty());
  EXPECT_FALSE(Pkg.Opt.CallArcs.empty());
  EXPECT_FALSE(Pkg.Opt.PropAffinity.empty());
  std::vector<uint8_t> Bytes = Pkg.serialize();
  EXPECT_EQ(Bytes.size(), 76401u);
  EXPECT_EQ(strFormat("%016llx", static_cast<unsigned long long>(
                                     fnv1a(Bytes.data(), Bytes.size()))),
            "f19e4361de987fba");
}

//===----------------------------------------------------------------------===//
// Reliability model (paper section VI).
//===----------------------------------------------------------------------===//

TEST(ReliabilityTest, NoPoisonNoCrashes) {
  ReliabilityParams P;
  P.NumPoisoned = 0;
  ReliabilityResult R = simulateCrashLoop(P);
  EXPECT_EQ(R.PeakCrashed, 0u);
  EXPECT_EQ(R.HealthyAtEnd, P.NumConsumers);
  EXPECT_EQ(R.FallbackCount, 0u);
}

TEST(ReliabilityTest, RandomizedSelectionDecaysExponentially) {
  ReliabilityParams P;
  P.NumConsumers = 8000;
  P.NumPackages = 8;
  P.NumPoisoned = 1;
  P.RandomizedSelection = true;
  ReliabilityResult R = simulateCrashLoop(P);
  ASSERT_GE(R.CrashedPerRound.size(), 3u);
  // Round 0 hits ~1/8 of consumers; each later round shrinks ~8x.
  EXPECT_NEAR(R.CrashedPerRound[0], 1000, 200);
  EXPECT_LT(R.CrashedPerRound[1], R.CrashedPerRound[0] / 4);
  EXPECT_LT(R.CrashedPerRound[2], R.CrashedPerRound[1]);
  EXPECT_EQ(R.HealthyAtEnd + R.FallbackCount, P.NumConsumers)
      << "every consumer recovers (good pick or fallback)";
}

TEST(ReliabilityTest, SinglePackageModeIsCatastrophic) {
  ReliabilityParams P;
  P.NumConsumers = 1000;
  P.NumPackages = 4;
  P.NumPoisoned = 1;
  P.RandomizedSelection = false; // everyone uses package 0 (the bad one)
  ReliabilityResult R = simulateCrashLoop(P);
  EXPECT_EQ(R.CrashedPerRound[0], P.NumConsumers)
      << "without randomization, one bad package takes down everything";
  EXPECT_EQ(R.FallbackCount, P.NumConsumers)
      << "only the fallback saves the fleet";
}

TEST(ReliabilityTest, ValidationPreventsPublication) {
  ReliabilityParams P;
  P.NumPoisoned = 1;
  P.ValidationCatchProbability = 1.0;
  ReliabilityResult R = simulateCrashLoop(P);
  EXPECT_EQ(R.PoisonedPublished, 0u);
  EXPECT_EQ(R.PeakCrashed, 0u);
}

TEST(ReliabilityTest, FallbackBoundsCrashCount) {
  ReliabilityParams P;
  P.NumConsumers = 500;
  P.NumPackages = 1;
  P.NumPoisoned = 1; // the only package is bad
  P.MaxJumpStartAttempts = 2;
  ReliabilityResult R = simulateCrashLoop(P);
  uint64_t TotalCrashes = 0;
  for (uint32_t C : R.CrashedPerRound)
    TotalCrashes += C;
  EXPECT_EQ(TotalCrashes, 500u * 2)
      << "each consumer crashes at most MaxJumpStartAttempts times";
  EXPECT_EQ(R.FallbackCount, 500u);
  EXPECT_EQ(R.HealthyAtEnd, 0u)
      << "nobody is healthy WITH Jump-Start when the only package is bad";
}

TEST(ReliabilityTest, PartitionInvariantHoldsForAnySeed) {
  // HealthyAtEnd counts Jump-Start successes, FallbackCount the rest;
  // with randomized selection and enough rounds for every consumer to
  // exhaust its attempts, the two always partition the fleet -- across
  // seeds and parameter shapes.  CrashedPerRound is monotone
  // non-increasing by construction (only round r's crashers can still be
  // unresolved in round r+1), and identically zero from round
  // MaxJumpStartAttempts on (everyone has found a good package or
  // exhausted their attempts by then).
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    ReliabilityParams P;
    P.Seed = Seed;
    P.NumConsumers = 100 + static_cast<uint32_t>(Seed) * 37;
    P.NumPackages = 1 + static_cast<uint32_t>(Seed % 9);
    P.NumPoisoned = static_cast<uint32_t>(Seed % (P.NumPackages + 1));
    P.MaxJumpStartAttempts = 1 + static_cast<uint32_t>(Seed % 4);
    P.Rounds = P.MaxJumpStartAttempts + 2 +
               static_cast<uint32_t>(Seed % 5);
    P.ValidationCatchProbability = (Seed % 3) * 0.4;
    P.RandomizedSelection = true;
    ReliabilityResult R = simulateCrashLoop(P);
    EXPECT_EQ(R.HealthyAtEnd + R.FallbackCount, P.NumConsumers)
        << "seed " << Seed;
    ASSERT_EQ(R.CrashedPerRound.size(), P.Rounds) << "seed " << Seed;
    for (size_t Round = 1; Round < R.CrashedPerRound.size(); ++Round)
      EXPECT_LE(R.CrashedPerRound[Round], R.CrashedPerRound[Round - 1])
          << "seed " << Seed << " round " << Round;
    for (size_t Round = P.MaxJumpStartAttempts;
         Round < R.CrashedPerRound.size(); ++Round)
      EXPECT_EQ(R.CrashedPerRound[Round], 0u)
          << "seed " << Seed << " round " << Round;
  }
}

TEST(ReliabilityTest, RandomizationStrictlyImprovesPeak) {
  // The paper's section VI argument as a property: with at least one
  // poisoned package published and no validation, single-package mode
  // crashes the entire fleet at once while randomized selection never
  // does.
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    ReliabilityParams P;
    P.Seed = Seed;
    P.NumConsumers = 2000;
    P.NumPackages = 8;
    P.NumPoisoned = 1;
    P.ValidationCatchProbability = 0.0;

    P.RandomizedSelection = false;
    ReliabilityResult Single = simulateCrashLoop(P);
    P.RandomizedSelection = true;
    ReliabilityResult Rand = simulateCrashLoop(P);

    EXPECT_EQ(Single.PeakCrashed, P.NumConsumers) << "seed " << Seed;
    EXPECT_LT(Rand.PeakCrashed, Single.PeakCrashed) << "seed " << Seed;
  }
}
