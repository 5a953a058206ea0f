//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the Jump-Start core: package manager, seeder workflow with
/// validation, consumer fallback behaviour, and the phased-deployment
/// simulation.
///
//===----------------------------------------------------------------------===//

#include "core/Consumer.h"
#include "core/Deployment.h"
#include "core/Seeder.h"

#include <gtest/gtest.h>

using namespace jumpstart;
using namespace jumpstart::core;

namespace {

class CoreFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    fleet::WorkloadParams P;
    P.NumHelpers = 120;
    P.NumClasses = 24;
    P.NumEndpoints = 12;
    P.NumUnits = 12;
    W = fleet::generateWorkload(P).release();
    Traffic = new fleet::TrafficModel(*W, fleet::TrafficParams(), 42);
  }
  static void TearDownTestSuite() {
    delete Traffic;
    delete W;
  }

  static vm::ServerConfig baseConfig() {
    vm::ServerConfig C;
    C.Jit.ProfileRequestTarget = 20;
    return C;
  }

  static JumpStartOptions lenientOpts() {
    JumpStartOptions O;
    O.Coverage.MinProfiledFuncs = 3;
    O.Coverage.MinTotalSamples = 50;
    O.Coverage.MinPackageBytes = 64;
    O.ValidationRequests = 10;
    return O;
  }

  static SeederOutcome seedInto(PackageManager &Manager, uint64_t Seed = 5,
                                const ChaosHooks *Chaos = nullptr) {
    SeederParams SP;
    SP.Requests = 120;
    SP.Seed = Seed;
    return runSeederWorkflow(*W, *Traffic, baseConfig(), lenientOpts(),
                             Manager, SP, Chaos);
  }

  static fleet::Workload *W;
  static fleet::TrafficModel *Traffic;
};

fleet::Workload *CoreFixture::W = nullptr;
fleet::TrafficModel *CoreFixture::Traffic = nullptr;

} // namespace

//===----------------------------------------------------------------------===//
// PackageManager.
//===----------------------------------------------------------------------===//

TEST(PackageManagerTest, PublishAndPick) {
  PackageManager M;
  Rng R(1);
  PackageHandle Pick;
  support::Status Empty = M.pickRandom(0, 0, R, Pick);
  EXPECT_FALSE(Empty.ok());
  EXPECT_EQ(Empty.code(), support::StatusCode::Unavailable);
  ASSERT_TRUE(M.publish(0, 0, {1, 2, 3}).ok());
  ASSERT_TRUE(M.publish(0, 0, {4, 5, 6}).ok());
  EXPECT_EQ(M.available(0, 0), 2u);
  ASSERT_TRUE(M.pickRandom(0, 0, R, Pick).ok());
  EXPECT_LT(Pick.Manifest.Id.Index, 2u);
  EXPECT_FALSE(M.pickRandom(0, 1, R, Pick).ok())
      << "shelves are per (region, bucket)";
}

TEST(PackageManagerTest, RandomPickCoversAllPackages) {
  PackageManager M;
  for (uint8_t I = 0; I < 4; ++I)
    ASSERT_TRUE(M.publish(1, 1, {I}).ok());
  Rng R(9);
  std::set<uint32_t> Seen;
  for (int I = 0; I < 200; ++I) {
    PackageHandle Pick;
    ASSERT_TRUE(M.pickRandom(1, 1, R, Pick).ok());
    Seen.insert(Pick.Manifest.Id.Index);
  }
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(PackageManagerTest, QuarantineRemovesFromRotation) {
  PackageManager M;
  ASSERT_TRUE(M.publish(0, 0, {1}).ok());
  ASSERT_TRUE(M.publish(0, 0, {2}).ok());
  ASSERT_TRUE(M.quarantine(0, 0, 0).ok());
  EXPECT_EQ(M.available(0, 0), 1u);
  EXPECT_EQ(M.quarantinedCount(), 1u);
  Rng R(3);
  for (int I = 0; I < 50; ++I) {
    PackageHandle Pick;
    ASSERT_TRUE(M.pickRandom(0, 0, R, Pick).ok());
    EXPECT_EQ(Pick.Manifest.Id.Index, 1u);
  }
  // Idempotent.
  ASSERT_TRUE(M.quarantine(0, 0, 0).ok());
  EXPECT_EQ(M.quarantinedCount(), 1u);
}

TEST(PackageManagerTest, QuarantineAndCorruptReportNotFound) {
  PackageManager M;
  Rng R(8);
  EXPECT_EQ(M.quarantine(3, 1, 0).code(), support::StatusCode::NotFound)
      << "unknown shelf";
  EXPECT_EQ(M.corrupt(3, 1, 0, R).code(), support::StatusCode::NotFound);
  ASSERT_TRUE(M.publish(0, 0, {1}).ok());
  EXPECT_EQ(M.quarantine(0, 0, 9).code(), support::StatusCode::NotFound)
      << "unknown package index";
  EXPECT_EQ(M.corrupt(0, 0, 9, R).code(), support::StatusCode::NotFound);
}

TEST(PackageManagerTest, CorruptFlipsBytes) {
  PackageManager M;
  std::vector<uint8_t> Blob(100, 0xAA);
  ASSERT_TRUE(M.publish(0, 0, Blob).ok());
  Rng R(4);
  ASSERT_TRUE(M.corrupt(0, 0, 0, R).ok());
  PackageHandle Pick;
  ASSERT_TRUE(M.pickRandom(0, 0, R, Pick).ok());
  EXPECT_NE(*Pick.Blob, Blob);
}

TEST(PackageManagerTest, ManifestRecordsProvenance) {
  PackageManager M;
  M.beginRelease();
  PackageManifest Out;
  ASSERT_TRUE(M.publish(2, 3, {9, 9, 9}, &Out).ok());
  EXPECT_EQ(Out.Id.Region, 2u);
  EXPECT_EQ(Out.Id.Bucket, 3u);
  EXPECT_EQ(Out.Id.Release, 1u);
  EXPECT_EQ(Out.Id.Index, 0u);
  EXPECT_EQ(Out.Bytes, 3u);
  EXPECT_FALSE(Out.isDelta());
  EXPECT_EQ(Out.RepoFingerprint, 0u) << "opaque blobs carry no fingerprint";

  PackageHandle H;
  ASSERT_TRUE(M.fetch(Out.Id, H).ok());
  EXPECT_EQ(H.Manifest.Checksum, Out.Checksum);
  ASSERT_NE(H.Blob, nullptr);
  EXPECT_EQ(H.Blob->size(), 3u);

  PackageId Missing = Out.Id;
  Missing.Release = 7;
  EXPECT_EQ(M.fetch(Missing, H).code(), support::StatusCode::NotFound)
      << "all four id coordinates must match";
}

//===----------------------------------------------------------------------===//
// Seeder workflow.
//===----------------------------------------------------------------------===//

TEST_F(CoreFixture, SeederPublishesValidPackage) {
  PackageManager Manager;
  SeederOutcome Out = seedInto(Manager);
  ASSERT_TRUE(Out.Published)
      << (Out.Problems.empty() ? "?" : Out.Problems[0]);
  EXPECT_EQ(Manager.available(0, 0), 1u);
  EXPECT_GT(Out.PackageBytes, 500u);
  EXPECT_EQ(Out.Manifest.Seeders.size(), 1u);
  EXPECT_NE(Out.Manifest.RepoFingerprint, 0u);
  // The published blob deserializes back to an equivalent package.
  Rng R(1);
  PackageHandle Pick;
  ASSERT_TRUE(Manager.pickRandom(0, 0, R, Pick).ok());
  profile::ProfilePackage Pkg;
  ASSERT_TRUE(profile::ProfilePackage::deserialize(*Pick.Blob, Pkg));
  EXPECT_EQ(Pkg.numProfiledFuncs(), Out.Package.numProfiledFuncs());
}

TEST_F(CoreFixture, SeederRejectsUnderProfiledRun) {
  PackageManager Manager;
  JumpStartOptions Strict = lenientOpts();
  Strict.Coverage.MinProfiledFuncs = 100000; // impossible
  SeederParams SP;
  SP.Requests = 60;
  SeederOutcome Out = runSeederWorkflow(*W, *Traffic, baseConfig(), Strict,
                                        Manager, SP);
  EXPECT_FALSE(Out.Published);
  ASSERT_FALSE(Out.Problems.empty());
  EXPECT_EQ(Manager.available(0, 0), 0u);
}

TEST_F(CoreFixture, SeederValidationCatchesCrashingPackage) {
  PackageManager Manager;
  ChaosHooks Chaos;
  Chaos.CrashesInValidation = [](const profile::ProfilePackage &) {
    return true;
  };
  SeederOutcome Out = seedInto(Manager, 5, &Chaos);
  EXPECT_FALSE(Out.Published);
  ASSERT_FALSE(Out.Problems.empty());
  EXPECT_NE(Out.Problems[0].find("crash"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Consumer workflow + fallback.
//===----------------------------------------------------------------------===//

TEST_F(CoreFixture, ConsumerUsesPublishedPackage) {
  PackageManager Manager;
  ASSERT_TRUE(seedInto(Manager).Published);
  ConsumerOutcome Out = startConsumer(*W, baseConfig(), lenientOpts(),
                                      Manager, ConsumerParams());
  EXPECT_TRUE(Out.UsedJumpStart);
  EXPECT_EQ(Out.Attempts, 1u);
  ASSERT_NE(Out.Server, nullptr);
  EXPECT_EQ(Out.Server->theJit().phase(), jit::JitPhase::Mature);
}

TEST_F(CoreFixture, ConsumerFallsBackWhenStoreEmpty) {
  PackageManager Manager;
  ConsumerOutcome Out = startConsumer(*W, baseConfig(), lenientOpts(),
                                      Manager, ConsumerParams());
  EXPECT_FALSE(Out.UsedJumpStart);
  ASSERT_NE(Out.Server, nullptr);
  EXPECT_EQ(Out.Server->theJit().phase(), jit::JitPhase::Profiling);
}

TEST_F(CoreFixture, ConsumerSkipsCorruptPackage) {
  PackageManager Manager;
  ASSERT_TRUE(seedInto(Manager, 5).Published);
  ASSERT_TRUE(seedInto(Manager, 6).Published);
  Rng R(2);
  ASSERT_TRUE(Manager.corrupt(0, 0, 0, R).ok());

  // With two packages and one corrupt, consumers eventually succeed; with
  // enough attempts allowed, every boot should end up on the good one.
  JumpStartOptions Opts = lenientOpts();
  Opts.MaxConsumerAttempts = 8;
  int UsedJs = 0;
  for (uint64_t Seed = 0; Seed < 5; ++Seed) {
    ConsumerParams CP;
    CP.Seed = Seed;
    ConsumerOutcome Out = startConsumer(*W, baseConfig(), Opts, Manager, CP);
    if (Out.UsedJumpStart)
      ++UsedJs;
  }
  EXPECT_EQ(UsedJs, 5);
}

TEST_F(CoreFixture, ConsumerDisabledByMasterSwitch) {
  PackageManager Manager;
  ASSERT_TRUE(seedInto(Manager).Published);
  JumpStartOptions Opts = lenientOpts();
  Opts.Enabled = false;
  ConsumerOutcome Out = startConsumer(*W, baseConfig(), Opts, Manager,
                                      ConsumerParams());
  EXPECT_FALSE(Out.UsedJumpStart);
  EXPECT_EQ(Out.Attempts, 0u);
}

TEST_F(CoreFixture, ConsumerCrashLoopEndsInFallback) {
  PackageManager Manager;
  ASSERT_TRUE(seedInto(Manager).Published);
  ChaosHooks Chaos;
  Chaos.CrashesInProduction = [](const profile::ProfilePackage &) {
    return true; // every package crashes in production
  };
  JumpStartOptions Opts = lenientOpts();
  Opts.MaxConsumerAttempts = 3;
  ConsumerOutcome Out = startConsumer(*W, baseConfig(), Opts, Manager,
                                      ConsumerParams(), &Chaos);
  EXPECT_FALSE(Out.UsedJumpStart);
  EXPECT_EQ(Out.CrashCount, 3u);
  ASSERT_NE(Out.Server, nullptr) << "fallback must still boot the server";
}

//===----------------------------------------------------------------------===//
// Phased deployment.
//===----------------------------------------------------------------------===//

TEST_F(CoreFixture, DeploymentRunsAllPhases) {
  PackageManager Manager;
  DeploymentParams P;
  P.Regions = 1;
  P.Buckets = 2;
  P.SeedersPerPair = 1;
  P.SeederRequests = 120;
  P.ConsumerSamplesPerPair = 1;
  DeploymentReport Report = simulateDeployment(
      *W, *Traffic, baseConfig(), lenientOpts(), Manager, P);
  EXPECT_TRUE(Report.CanaryHealthy);
  EXPECT_EQ(Report.SeedersRun, 2u);
  EXPECT_EQ(Report.PackagesPublished, 2u)
      << (Report.Log.empty() ? "" : Report.Log.back());
  EXPECT_EQ(Report.ConsumersBooted, 2u);
  EXPECT_EQ(Report.ConsumersUsedJumpStart, 2u);
  EXPECT_GT(Report.MeanConsumerInitSeconds, 0.0);
}

TEST_F(CoreFixture, NewCodeVersionInvalidatesOldPackages) {
  // Continuous deployment: packages are tied to the code version that
  // produced them.  After a push changes the site, consumers on the new
  // version must reject the stale packages and fall back.
  PackageManager Manager;
  ASSERT_TRUE(seedInto(Manager).Published);

  fleet::WorkloadParams P;
  P.NumHelpers = 121; // "new release": one helper added
  P.NumClasses = 24;
  P.NumEndpoints = 12;
  P.NumUnits = 12;
  auto NewSite = fleet::generateWorkload(P);

  ConsumerOutcome Out = startConsumer(*NewSite, baseConfig(),
                                      lenientOpts(), Manager,
                                      ConsumerParams());
  EXPECT_FALSE(Out.UsedJumpStart)
      << "a stale package must never jump-start a new code version";
  ASSERT_NE(Out.Server, nullptr);
  // The log records the fingerprint rejections.
  bool SawRejection = false;
  for (const std::string &Line : Out.Log)
    if (Line.find("fingerprint") != std::string::npos)
      SawRejection = true;
  EXPECT_TRUE(SawRejection);
}
