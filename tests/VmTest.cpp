//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the VM server: lifecycle, cost accounting, Jump-Start
/// consumer/seeder paths.
///
//===----------------------------------------------------------------------===//

#include "core/Consumer.h"
#include "fleet/WorkloadGen.h"
#include "vm/Server.h"

#include <gtest/gtest.h>

using namespace jumpstart;

namespace {

/// A tiny workload shared by the fixtures in this file.
class VmTestFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    fleet::WorkloadParams P;
    P.NumHelpers = 120;
    P.NumClasses = 24;
    P.NumEndpoints = 12;
    P.NumUnits = 12;
    W = fleet::generateWorkload(P).release();
  }
  static void TearDownTestSuite() {
    delete W;
    W = nullptr;
  }

  static vm::ServerConfig fastConfig() {
    vm::ServerConfig C;
    C.Jit.ProfileRequestTarget = 20;
    return C;
  }

  /// Serves \p N requests round-robin over endpoints, with JIT time.
  static void serve(vm::Server &S, int N, uint64_t Seed = 1) {
    Rng R(Seed);
    for (int I = 0; I < N; ++I) {
      bc::FuncId E = W->Endpoints[R.nextBelow(W->Endpoints.size())];
      S.executeRequest(E, {runtime::Value::integer(
                              static_cast<int64_t>(R.nextBelow(1000)))});
      S.grantJitTime(0.5);
    }
    while (S.theJit().hasPendingWork())
      S.grantJitTime(1.0);
  }

  static fleet::Workload *W;
};

fleet::Workload *VmTestFixture::W = nullptr;

} // namespace

TEST_F(VmTestFixture, RequestsGetCheaperAsJitWarms) {
  vm::Server S(W->Repo, fastConfig(), 7);
  S.startup();
  bc::FuncId E = W->Endpoints[0];
  std::vector<runtime::Value> Args{runtime::Value::integer(5)};
  double FirstCost = S.executeRequest(E, Args).Seconds;
  serve(S, 60);
  ASSERT_EQ(S.theJit().phase(), jit::JitPhase::Mature);
  double WarmCost = S.executeRequest(E, Args).Seconds;
  EXPECT_LT(WarmCost, FirstCost / 3)
      << "optimized execution must be several times cheaper than "
         "interpret+load";
}

TEST_F(VmTestFixture, FingerprintDetectsDifferentProgram) {
  uint64_t A = vm::Server::repoFingerprint(W->Repo);
  fleet::WorkloadParams P;
  P.NumHelpers = 121; // one extra helper: different program
  P.NumClasses = 24;
  P.NumEndpoints = 12;
  P.NumUnits = 12;
  auto W2 = fleet::generateWorkload(P);
  EXPECT_NE(A, vm::Server::repoFingerprint(W2->Repo));
  EXPECT_EQ(A, vm::Server::repoFingerprint(W->Repo))
      << "fingerprint must be stable";
}

TEST_F(VmTestFixture, InstallPackageRejectsWrongFingerprint) {
  vm::Server S(W->Repo, fastConfig(), 3);
  profile::ProfilePackage Pkg;
  Pkg.RepoFingerprint = 0x1111; // not this repo
  EXPECT_FALSE(S.installPackage(Pkg).ok());
  profile::ProfilePackage Ok;
  Ok.RepoFingerprint = vm::Server::repoFingerprint(W->Repo);
  vm::Server S2(W->Repo, fastConfig(), 3);
  EXPECT_TRUE(S2.installPackage(Ok).ok());
}

TEST_F(VmTestFixture, SeederPackageIsSubstantive) {
  vm::ServerConfig Config = fastConfig();
  Config.Jit.SeederInstrumentation = true;
  vm::Server S(W->Repo, Config, 11);
  S.startup();
  serve(S, 80);
  profile::ProfilePackage Pkg = S.buildSeederPackage(1, 2, 77);
  EXPECT_GT(Pkg.numProfiledFuncs(), 10u);
  EXPECT_GT(Pkg.totalSamples(), 100u);
  EXPECT_FALSE(Pkg.Preload.Units.empty());
  EXPECT_FALSE(Pkg.Intermediate.FuncOrder.empty());
  EXPECT_FALSE(Pkg.Opt.VasmBlockCounts.empty())
      << "seeder instrumentation must collect Vasm counters";
  EXPECT_FALSE(Pkg.Opt.CallArcs.empty())
      << "seeder instrumentation must collect tier-2 call arcs";
  EXPECT_FALSE(Pkg.Opt.PropAccessCounts.empty())
      << "tier-1 instrumentation must collect property accesses";
  EXPECT_EQ(Pkg.RepoFingerprint, vm::Server::repoFingerprint(W->Repo));
}

TEST_F(VmTestFixture, ConsumerBootsMatureAndFast) {
  // Seed.
  vm::ServerConfig SeederConfig = fastConfig();
  SeederConfig.Jit.SeederInstrumentation = true;
  vm::Server Seeder(W->Repo, SeederConfig, 13);
  Seeder.startup();
  serve(Seeder, 80);
  profile::ProfilePackage Pkg = Seeder.buildSeederPackage(0, 0, 1);

  // Consume.
  vm::ServerConfig ConsumerConfig = fastConfig();
  ConsumerConfig.WarmupEndpoints = {W->Endpoints[0].raw()};
  vm::Server Consumer(W->Repo, ConsumerConfig, 17);
  ASSERT_TRUE(Consumer.installPackage(Pkg).ok());
  vm::InitStats Init = Consumer.startup();
  EXPECT_TRUE(Init.UsedJumpStart);
  EXPECT_GT(Init.PrecompileSeconds, 0.0);
  EXPECT_EQ(Consumer.theJit().phase(), jit::JitPhase::Mature);

  // First request is already fast (no interpretation of hot code).
  double Cost = Consumer
                    .executeRequest(W->Endpoints[0],
                                    {runtime::Value::integer(5)})
                    .Seconds;
  vm::Server Cold(W->Repo, fastConfig(), 17);
  Cold.startup();
  double ColdCost = Cold.executeRequest(W->Endpoints[0],
                                        {runtime::Value::integer(5)})
                        .Seconds;
  EXPECT_LT(Cost, ColdCost / 3);
}

TEST_F(VmTestFixture, ConsumerWarmupRequestsRunParallel) {
  vm::ServerConfig SeederConfig = fastConfig();
  SeederConfig.Jit.SeederInstrumentation = true;
  vm::Server Seeder(W->Repo, SeederConfig, 19);
  Seeder.startup();
  serve(Seeder, 60);
  profile::ProfilePackage Pkg = Seeder.buildSeederPackage(0, 0, 2);

  vm::ServerConfig WithWarmup = fastConfig();
  for (int I = 0; I < 6; ++I)
    WithWarmup.WarmupEndpoints.push_back(W->Endpoints[I].raw());

  vm::Server Js(W->Repo, WithWarmup, 23);
  ASSERT_TRUE(Js.installPackage(Pkg).ok());
  vm::InitStats JsInit = Js.startup();

  vm::Server NoJs(W->Repo, WithWarmup, 23);
  vm::InitStats NoJsInit = NoJs.startup();

  // Paper section VII-A: sequential warmup requests without Jump-Start,
  // parallel with it -- and on top of that each request is much cheaper.
  EXPECT_LT(JsInit.WarmupRequestSeconds,
            NoJsInit.WarmupRequestSeconds / 4);
}

TEST_F(VmTestFixture, PropertyReorderingRequiresPackageCounts) {
  vm::Server Plain(W->Repo, fastConfig(), 29);
  EXPECT_FALSE(Plain.classes().reorderingEnabled());

  vm::ServerConfig SeederConfig = fastConfig();
  SeederConfig.Jit.SeederInstrumentation = true;
  vm::Server Seeder(W->Repo, SeederConfig, 31);
  Seeder.startup();
  serve(Seeder, 60);
  profile::ProfilePackage Pkg = Seeder.buildSeederPackage(0, 0, 3);
  ASSERT_FALSE(Pkg.Opt.PropAccessCounts.empty());

  vm::Server Consumer(W->Repo, fastConfig(), 37);
  ASSERT_TRUE(Consumer.installPackage(Pkg).ok());
  EXPECT_TRUE(Consumer.classes().reorderingEnabled());
  EXPECT_EQ(Consumer.classes().orderMode(), runtime::PropOrderMode::Hotness);

  vm::ServerConfig NoReorder = fastConfig();
  NoReorder.ReorderProperties = false;
  vm::Server Disabled(W->Repo, NoReorder, 37);
  ASSERT_TRUE(Disabled.installPackage(Pkg).ok());
  EXPECT_FALSE(Disabled.classes().reorderingEnabled());

  // Affinity ordering needs the package's co-access counters and rides
  // on the hotness reordering switch.
  vm::ServerConfig AffinityConfig = fastConfig();
  AffinityConfig.UseAffinityPropOrder = true;
  ASSERT_FALSE(Pkg.Opt.PropAffinity.empty());
  vm::Server Affinity(W->Repo, AffinityConfig, 37);
  ASSERT_TRUE(Affinity.installPackage(Pkg).ok());
  EXPECT_EQ(Affinity.classes().orderMode(), runtime::PropOrderMode::Affinity);

  profile::ProfilePackage NoAffinityPkg = Pkg;
  NoAffinityPkg.Opt.PropAffinity.clear();
  vm::Server HotnessFallback(W->Repo, AffinityConfig, 37);
  ASSERT_TRUE(HotnessFallback.installPackage(NoAffinityPkg).ok());
  EXPECT_EQ(HotnessFallback.classes().orderMode(),
            runtime::PropOrderMode::Hotness);

  vm::ServerConfig AffinityNoReorder = AffinityConfig;
  AffinityNoReorder.ReorderProperties = false;
  vm::Server AffinityDisabled(W->Repo, AffinityNoReorder, 37);
  ASSERT_TRUE(AffinityDisabled.installPackage(Pkg).ok());
  EXPECT_FALSE(AffinityDisabled.classes().reorderingEnabled());
}

TEST_F(VmTestFixture, FaultsAreCountedNotFatal) {
  vm::Server S(W->Repo, fastConfig(), 41);
  S.startup();
  // Endpoint with a nonsense argument type: dynamic errors become faults.
  runtime::Heap Scratch;
  std::vector<runtime::Value> Args{runtime::Value::null()};
  S.executeRequest(W->Endpoints[0], Args);
  // The server is still alive and serving.
  double Cost = S.executeRequest(W->Endpoints[1],
                                 {runtime::Value::integer(1)})
                    .Seconds;
  EXPECT_GT(Cost, 0.0);
}

//===----------------------------------------------------------------------===//
// Hostile packages.
//===----------------------------------------------------------------------===//

namespace {

/// A package that names ids outside the repo it targets.
struct HostilePackage {
  const char *Name;
  profile::ProfilePackage Pkg;
};

/// Variants of \p Good (a seeder package for \p R) with fingerprint 0,
/// so strict consumer lint never sees them.  The first three aborted or
/// threw during startup() before installPackage checked ids.
std::vector<HostilePackage> hostileVariants(const bc::Repo &R,
                                            profile::ProfilePackage Good) {
  Good.RepoFingerprint = 0;
  const uint32_t NumFuncs = static_cast<uint32_t>(R.numFuncs());
  std::vector<HostilePackage> Out;
  auto Add = [&](const char *Name, auto Mutate) {
    HostilePackage H{Name, Good};
    Mutate(H.Pkg);
    Out.push_back(std::move(H));
  };
  Add("profile past the last function", [&](profile::ProfilePackage &P) {
    profile::FuncProfile F = P.Funcs.front();
    F.Func = NumFuncs;
    P.Funcs.push_back(F);
  });
  Add("duplicate profile", [](profile::ProfilePackage &P) {
    P.Funcs.push_back(P.Funcs.front());
  });
  Add("call arc to a huge id", [](profile::ProfilePackage &P) {
    P.Opt.CallArcs[{0, 0xFFFFFFF0u}] = 1;
    P.Intermediate.FuncOrder.clear();
  });
  Add("vasm counters past the last function",
      [&](profile::ProfilePackage &P) {
        P.Opt.VasmBlockCounts[NumFuncs] = {1};
      });
  Add("function order past the last function",
      [&](profile::ProfilePackage &P) {
        P.Intermediate.FuncOrder.push_back(NumFuncs);
      });
  Add("live code past the last function", [&](profile::ProfilePackage &P) {
    P.Intermediate.LiveFuncs.push_back(NumFuncs);
  });
  Add("preload unit past the last unit", [&](profile::ProfilePackage &P) {
    P.Preload.Units.push_back(static_cast<uint32_t>(R.numUnits()));
  });
  return Out;
}

} // namespace

TEST_F(VmTestFixture, InstallPackageRejectsIdsOutsideTheRepo) {
  vm::Server Seeder(W->Repo, fastConfig(), 1);
  Seeder.startup();
  serve(Seeder, 60);
  profile::ProfilePackage Good = Seeder.buildSeederPackage(0, 0, 1);
  ASSERT_FALSE(Good.Funcs.empty());
  for (HostilePackage &H : hostileVariants(W->Repo, Good)) {
    SCOPED_TRACE(H.Name);
    vm::Server S(W->Repo, fastConfig(), 2);
    support::Status St = S.installPackage(H.Pkg);
    EXPECT_EQ(St.code(), support::StatusCode::CorruptData) << St.message();
    // Rejected: the server boots and serves without the package.
    EXPECT_FALSE(S.startup().UsedJumpStart);
    EXPECT_TRUE(S.executeRequest(W->Endpoints[0],
                                 {runtime::Value::integer(3)})
                    .Obs.Ok);
  }
  Good.RepoFingerprint = 0;
  vm::Server S(W->Repo, fastConfig(), 2);
  ASSERT_TRUE(S.installPackage(Good).ok());
  EXPECT_TRUE(S.startup().UsedJumpStart);
}

TEST_F(VmTestFixture, ConsumerFallsBackFromHostilePackages) {
  vm::Server Seeder(W->Repo, fastConfig(), 1);
  Seeder.startup();
  serve(Seeder, 60);
  profile::ProfilePackage Good = Seeder.buildSeederPackage(0, 0, 1);
  std::vector<HostilePackage> Variants = hostileVariants(W->Repo, Good);
  Variants.resize(3); // the three that aborted a consumer
  for (HostilePackage &H : Variants) {
    SCOPED_TRACE(H.Name);
    core::PackageManager Manager;
    ASSERT_TRUE(Manager.publish(0, 0, H.Pkg.serialize()).ok());
    core::ConsumerOutcome Out =
        core::startConsumer(*W, fastConfig(), core::JumpStartOptions(),
                            Manager, core::ConsumerParams());
    EXPECT_FALSE(Out.UsedJumpStart);
    ASSERT_NE(Out.Server, nullptr);
    ASSERT_FALSE(Out.Rejections.empty());
    for (const support::Status &St : Out.Rejections)
      EXPECT_EQ(St.code(), support::StatusCode::CorruptData)
          << St.message();
    EXPECT_TRUE(Out.Server
                    ->executeRequest(W->Endpoints[0],
                                     {runtime::Value::integer(3)})
                    .Obs.Ok);
  }
}
