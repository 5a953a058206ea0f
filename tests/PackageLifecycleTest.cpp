//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile-package lifecycle end to end: multi-seeder merge
/// determinism across arrival orders, delta-release round trips,
/// manifest provenance under release epochs, staleness under drift
/// (core::runDriftSweep), worker-count invariance of deployment-published
/// merges, and the reliability partition invariant when stale packages
/// join the rotation.
///
//===----------------------------------------------------------------------===//

#include "core/Deployment.h"
#include "core/DriftSweep.h"
#include "core/Seeder.h"
#include "fleet/Reliability.h"
#include "fleet/Traffic.h"
#include "profile/PackageDelta.h"
#include "profile/PackageMerge.h"
#include "support/Blob.h"
#include "support/Hashing.h"
#include "support/Random.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace jumpstart;
using namespace jumpstart::core;

namespace {

/// Shared fixture: one small site and four genuine seeder packages grown
/// on it (distinct SeederIds, distinct request streams, one fingerprint).
class LifecycleFixture : public ::testing::Test {
protected:
  static constexpr uint32_t kSeeders = 4;

  static void SetUpTestSuite() {
    fleet::WorkloadParams P;
    P.NumHelpers = 120;
    P.NumClasses = 24;
    P.NumEndpoints = 12;
    P.NumUnits = 12;
    W = fleet::generateWorkload(P).release();
    Traffic = new fleet::TrafficModel(*W, fleet::TrafficParams(), 42);
    Seeded = new std::vector<profile::ProfilePackage>();

    PackageManager Manager;
    for (uint32_t I = 0; I < kSeeders; ++I) {
      SeederParams SP;
      SP.SeederId = I + 1;
      SP.Requests = 120;
      SP.Seed = 5 + I;
      SeederOutcome Out = runSeederWorkflow(*W, *Traffic, baseConfig(),
                                           lenientOpts(), Manager, SP);
      ASSERT_TRUE(Out.Published) << Out.Result.message();
      Seeded->push_back(std::move(Out.Package));
    }
  }
  static void TearDownTestSuite() {
    delete Seeded;
    delete Traffic;
    delete W;
    Seeded = nullptr;
    Traffic = nullptr;
    W = nullptr;
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

  /// The per-seeder merge weight, keyed by SeederId so it follows the
  /// package through any arrival-order shuffle.
  static uint64_t weightFor(uint64_t SeederId) {
    return 1 + (SeederId * 7) % 5;
  }

  static fleet::Workload *W;
  static fleet::TrafficModel *Traffic;
  static std::vector<profile::ProfilePackage> *Seeded;
};

fleet::Workload *LifecycleFixture::W = nullptr;
fleet::TrafficModel *LifecycleFixture::Traffic = nullptr;
std::vector<profile::ProfilePackage> *LifecycleFixture::Seeded = nullptr;

} // namespace

//===----------------------------------------------------------------------===//
// Multi-seeder merge: deterministic under any arrival order.
//===----------------------------------------------------------------------===//

TEST_F(LifecycleFixture, MergeIsByteIdenticalForAnySeederOrder) {
  // Reference: canonical (SeederId) order.
  std::vector<profile::MergeInput> Ref;
  for (const profile::ProfilePackage &P : *Seeded)
    Ref.push_back({&P, weightFor(P.SeederId)});
  profile::ProfilePackage RefMerged;
  ASSERT_TRUE(profile::mergePackages(Ref, RefMerged).ok());
  const std::vector<uint8_t> RefBytes = RefMerged.serialize();
  ASSERT_FALSE(RefBytes.empty());

  // 40 random arrival orders must all produce those exact bytes.
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    std::vector<profile::MergeInput> Shuffled = Ref;
    Rng R(Seed);
    for (size_t I = Shuffled.size(); I > 1; --I)
      std::swap(Shuffled[I - 1], Shuffled[R.nextBelow(I)]);
    profile::ProfilePackage Merged;
    ASSERT_TRUE(profile::mergePackages(Shuffled, Merged).ok());
    EXPECT_EQ(Merged.serialize(), RefBytes)
        << "merge order changed the released bytes (shuffle seed " << Seed
        << ")";
  }
}

TEST_F(LifecycleFixture, ManagerMergeIgnoresPublicationOrder) {
  // Two managers receive the same seeder set in opposite orders; the
  // shelf-level merge must release identical bytes either way.
  std::map<uint64_t, uint64_t> Weights;
  for (const profile::ProfilePackage &P : *Seeded)
    Weights[P.SeederId] = weightFor(P.SeederId);

  PackageManager Forward, Backward;
  for (size_t I = 0; I < Seeded->size(); ++I) {
    ASSERT_TRUE(Forward.publish(0, 0, (*Seeded)[I].serialize()).ok());
    ASSERT_TRUE(
        Backward.publish(0, 0, (*Seeded)[Seeded->size() - 1 - I].serialize())
            .ok());
  }
  PackageManifest MF, MB;
  ASSERT_TRUE(Forward.merge(0, 0, &MF, &Weights).ok());
  ASSERT_TRUE(Backward.merge(0, 0, &MB, &Weights).ok());
  EXPECT_EQ(MF.Checksum, MB.Checksum);
  EXPECT_EQ(MF.Seeders, MB.Seeders);
  EXPECT_EQ(MF.Seeders.size(), Seeded->size());

  PackageHandle HF, HB;
  ASSERT_TRUE(Forward.fetch(MF.Id, HF).ok());
  ASSERT_TRUE(Backward.fetch(MB.Id, HB).ok());
  EXPECT_EQ(*HF.Blob, *HB.Blob);
}

TEST_F(LifecycleFixture, MergeRejectsBadInputSets) {
  profile::ProfilePackage Out;
  // Duplicate SeederIds.
  std::vector<profile::MergeInput> Dup = {{&(*Seeded)[0], 1},
                                          {&(*Seeded)[0], 1}};
  EXPECT_FALSE(profile::mergePackages(Dup, Out).ok());
  // Zero weight is a contract violation, not a no-op.
  std::vector<profile::MergeInput> Voiceless = {{&(*Seeded)[0], 0}};
  EXPECT_FALSE(profile::mergePackages(Voiceless, Out).ok());
  // Empty input set.
  EXPECT_FALSE(profile::mergePackages({}, Out).ok());
}

//===----------------------------------------------------------------------===//
// Delta releases: exact round trips, tamper detection.
//===----------------------------------------------------------------------===//

TEST(PackageDeltaTest, RoundTripsAreExactAcrossSeeds) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Rng R(Seed);
    // Parent: random blob; target: parent with random edits, so the
    // encoder sees realistic mostly-shared releases.
    std::vector<uint8_t> Parent(64 + R.nextBelow(4096));
    for (uint8_t &B : Parent)
      B = static_cast<uint8_t>(R.nextBelow(256));
    std::vector<uint8_t> Target = Parent;
    for (uint32_t Edit = 0; Edit < 1 + R.nextBelow(8); ++Edit) {
      switch (R.nextBelow(3)) {
      case 0: // overwrite a span
        for (uint32_t I = 0; I < 16 && !Target.empty(); ++I)
          Target[R.nextBelow(Target.size())] =
              static_cast<uint8_t>(R.nextBelow(256));
        break;
      case 1: // insert new bytes
        Target.insert(Target.begin() + R.nextBelow(Target.size() + 1),
                      1 + R.nextBelow(64),
                      static_cast<uint8_t>(R.nextBelow(256)));
        break;
      default: // delete a span
        if (Target.size() > 32) {
          size_t At = R.nextBelow(Target.size() - 16);
          Target.erase(Target.begin() + At, Target.begin() + At + 16);
        }
        break;
      }
    }

    std::vector<uint8_t> Delta = profile::encodeDelta(Parent, Target);
    std::vector<uint8_t> Rebuilt;
    ASSERT_TRUE(profile::applyDelta(Parent, Delta, Rebuilt).ok())
        << "seed " << Seed;
    EXPECT_EQ(Rebuilt, Target) << "seed " << Seed;

    // The wrong parent must be refused before any op runs.
    std::vector<uint8_t> NotParent = Parent;
    NotParent.push_back(0x5a);
    std::vector<uint8_t> Out;
    support::Status Wrong = profile::applyDelta(NotParent, Delta, Out);
    EXPECT_FALSE(Wrong.ok());
    EXPECT_TRUE(Out.empty());
  }
}

TEST(PackageDeltaTest, IdenticalAndDisjointBlobsDegradeGracefully) {
  std::vector<uint8_t> A(2048, 0x41);
  // Identical releases: the delta is essentially header-only.
  std::vector<uint8_t> Same = profile::encodeDelta(A, A);
  EXPECT_LT(Same.size(), 64u);
  std::vector<uint8_t> Out;
  ASSERT_TRUE(profile::applyDelta(A, Same, Out).ok());
  EXPECT_EQ(Out, A);
  // Nothing shared: the delta degenerates to (compressed) literals/runs
  // and still reconstructs exactly.
  std::vector<uint8_t> B;
  Rng R(7);
  for (int I = 0; I < 2048; ++I)
    B.push_back(static_cast<uint8_t>(R.nextBelow(256)));
  std::vector<uint8_t> Disjoint = profile::encodeDelta(A, B);
  ASSERT_TRUE(profile::applyDelta(A, Disjoint, Out).ok());
  EXPECT_EQ(Out, B);
}

TEST(PackageDeltaTest, TamperedDeltasAreRejected) {
  Rng R(3);
  std::vector<uint8_t> Parent(1024), Target(1024);
  for (int I = 0; I < 1024; ++I) {
    Parent[I] = static_cast<uint8_t>(R.nextBelow(256));
    Target[I] = static_cast<uint8_t>(I & 0xff);
  }
  std::vector<uint8_t> Delta = profile::encodeDelta(Parent, Target);
  for (int Flip = 0; Flip < 32; ++Flip) {
    std::vector<uint8_t> Bad = Delta;
    Bad[R.nextBelow(Bad.size())] ^= 1u << R.nextBelow(8);
    std::vector<uint8_t> Out;
    support::Status S = profile::applyDelta(Parent, Bad, Out);
    // Either the corruption is detected (usual) or the flip restored an
    // equivalent encoding; it must never "succeed" with wrong bytes.
    if (S.ok())
      EXPECT_EQ(Out, Target);
    else
      EXPECT_TRUE(Out.empty());
  }
}

TEST(PackageDeltaTest, OversizedTargetsAreRejectedBeforeAllocating) {
  std::vector<uint8_t> Parent(256, 0x11);
  // A delta header whose parent fields match, with the given target
  // length and ops.
  auto MakeDelta = [&](uint64_t TargetLen, uint64_t NumOps) {
    BlobEncoder E;
    E.writeFixed64(profile::kDeltaMagic);
    E.writeVarint(profile::kDeltaFormatVersion);
    E.writeFixed64(fnv1a(Parent.data(), Parent.size()));
    E.writeVarint(Parent.size());
    E.writeFixed64(0);
    E.writeVarint(TargetLen);
    E.writeVarint(NumOps);
    return E;
  };
  auto ExpectRejected = [&](const std::vector<uint8_t> &Delta) {
    std::vector<uint8_t> Out;
    support::Status S;
    EXPECT_NO_THROW(S = profile::applyDelta(Parent, Delta, Out));
    EXPECT_FALSE(S.ok());
    EXPECT_TRUE(Out.empty());
  };

  // Header only, target length 2^62: refused before any reservation.
  ExpectRejected(MakeDelta(1ull << 62, 0).takeBytes());
  ExpectRejected(
      MakeDelta(profile::kMaxRebuiltPackageBytes + 1, 0).takeBytes());

  // A run longer than what is left of the target: a 4-byte literal, then
  // a run the size of the whole target.
  BlobEncoder E = MakeDelta(64, 2);
  E.writeByte(1); // Literal
  E.writeVarint(4);
  for (int I = 0; I < 4; ++I)
    E.writeByte(0x22);
  E.writeByte(2); // Run
  E.writeVarint(64);
  E.writeByte(0x33);
  ExpectRejected(E.takeBytes());
}

TEST_F(LifecycleFixture, DeltaPublishRecordsProvenanceAndReconstructs) {
  PackageManager M;
  std::vector<uint8_t> Base = (*Seeded)[0].serialize();
  std::vector<uint8_t> Next = (*Seeded)[1].serialize();

  PackageManifest BaseManifest;
  ASSERT_TRUE(M.publish(3, 1, Base, &BaseManifest).ok());
  EXPECT_FALSE(BaseManifest.isDelta());

  M.beginRelease();
  PackageManifest DeltaManifest;
  ASSERT_TRUE(M.publishDelta(3, 1, Next, BaseManifest.Id, &DeltaManifest)
                  .ok());
  EXPECT_TRUE(DeltaManifest.isDelta());
  EXPECT_EQ(DeltaManifest.Parent, BaseManifest.Id);
  EXPECT_EQ(DeltaManifest.Id.Release, 1u);
  EXPECT_EQ(DeltaManifest.Bytes, Next.size());
  EXPECT_GT(DeltaManifest.DeltaBytes, 0u);

  // The shelf serves the full bytes; the wire record reconstructs them.
  PackageHandle H;
  ASSERT_TRUE(M.fetch(DeltaManifest.Id, H).ok());
  EXPECT_EQ(*H.Blob, Next);
  std::vector<uint8_t> Rebuilt;
  ASSERT_TRUE(M.reconstruct(DeltaManifest.Id, Rebuilt).ok());
  EXPECT_EQ(Rebuilt, Next);

  // A delta against an unknown parent is refused.
  PackageId Bogus;
  Bogus.Region = 3;
  Bogus.Bucket = 1;
  Bogus.Index = 99;
  EXPECT_FALSE(M.publishDelta(3, 1, Next, Bogus).ok());
}

//===----------------------------------------------------------------------===//
// Staleness under drift: the sweep itself, quick mode.
//===----------------------------------------------------------------------===//

TEST(DriftSweepTest, QuickSweepCompletesAndKeepsBenefitAtAgeZero) {
  DriftSweepParams P;
  P.Site.NumHelpers = 120;
  P.Site.NumClasses = 24;
  P.Site.NumEndpoints = 12;
  P.Site.NumUnits = 12;
  P.MaxAge = 2;
  P.SeederRequests = 400;
  P.WarmupSeconds = 120;
  P.OfferedRps = 200;
  P.Config.Jit.ProfileRequestTarget = 20;

  DriftSweepResult R = runDriftSweep(P);
  ASSERT_TRUE(R.Result.ok()) << R.Result.message();
  ASSERT_EQ(R.Points.size(), P.MaxAge + 1);

  // Age 0 is the identity rebase: nothing may be dropped, the consumer
  // must accept, and Jump-Start must beat cold boot.
  const DriftAgePoint &Fresh = R.Points[0];
  EXPECT_EQ(Fresh.Rebase.FuncsDropped, 0u);
  EXPECT_TRUE(Fresh.ConsumerUsedJumpStart);
  EXPECT_GT(Fresh.BenefitFraction, 0.0);

  for (const DriftAgePoint &Point : R.Points) {
    EXPECT_GT(Point.ProfiledFuncs, 0u) << "age " << Point.Age;
    EXPECT_GT(Point.WireBytes, 0u) << "age " << Point.Age;
    EXPECT_TRUE(Point.ConsumerUsedJumpStart) << "age " << Point.Age;
  }
  // Drift must actually bite: later ages lose profile anchors.
  EXPECT_GT(R.Points.back().Rebase.FuncsDropped, 0u);
}

//===----------------------------------------------------------------------===//
// Deployment: merged releases are worker-count invariant.
//===----------------------------------------------------------------------===//

TEST_F(LifecycleFixture, DeployedMergePackagesAreWorkerCountInvariant) {
  DeploymentParams DP;
  DP.Regions = 1;
  DP.Buckets = 2;
  DP.SeedersPerPair = 2;
  DP.SeederRequests = 120;
  DP.PublishMergedPackage = true;

  PackageManager Serial;
  DeploymentReport SerialReport = simulateDeployment(
      *W, *Traffic, baseConfig(), lenientOpts(), Serial, DP);

  support::ThreadPool Pool(3);
  vm::ServerConfig PooledConfig = baseConfig();
  PooledConfig.CompilePool = &Pool;
  PackageManager Pooled;
  DeploymentReport PooledReport = simulateDeployment(
      *W, *Traffic, PooledConfig, lenientOpts(), Pooled, DP);

  EXPECT_EQ(SerialReport.MergedPackages, DP.Buckets);
  EXPECT_EQ(PooledReport.MergedPackages, SerialReport.MergedPackages);
  EXPECT_EQ(PooledReport.PackagesPublished, SerialReport.PackagesPublished);

  for (uint32_t B = 0; B < DP.Buckets; ++B) {
    std::vector<PackageManifest> A = Serial.manifests(0, B);
    std::vector<PackageManifest> P2 = Pooled.manifests(0, B);
    ASSERT_EQ(A.size(), P2.size()) << "bucket " << B;
    for (size_t I = 0; I < A.size(); ++I) {
      EXPECT_EQ(A[I].Checksum, P2[I].Checksum)
          << "bucket " << B << " package " << I;
      EXPECT_EQ(A[I].Seeders, P2[I].Seeders)
          << "bucket " << B << " package " << I;
    }
    // Exactly one package on each shelf is the multi-seeder merge.
    size_t Merges = 0;
    for (const PackageManifest &Manifest : A)
      Merges += Manifest.Seeders.size() > 1 ? 1 : 0;
    EXPECT_EQ(Merges, 1u) << "bucket " << B;
  }
}

//===----------------------------------------------------------------------===//
// Reliability: the partition invariant holds with stale packages in
// rotation, and staleness is visible as rejections, not crashes.
//===----------------------------------------------------------------------===//

TEST(ReliabilityDriftTest, PartitionInvariantHoldsUnderStaleness) {
  uint64_t TotalStaleRejections = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    fleet::ReliabilityParams P;
    P.NumConsumers = 300;
    P.NumPackages = 6;
    P.NumPoisoned = 1;
    P.NumStale = 2;
    P.StaleRejectProbability = 0.6;
    P.Rounds = 8;
    P.Seed = Seed;
    fleet::ReliabilityResult R = fleet::simulateCrashLoop(P);
    EXPECT_EQ(R.HealthyAtEnd + R.FallbackCount, P.NumConsumers)
        << "seed " << Seed;
    TotalStaleRejections += R.StaleRejections;
  }
  EXPECT_GT(TotalStaleRejections, 0u);
}
