//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "core/DriftSweep.h"

#include "core/Consumer.h"
#include "fleet/Traffic.h"
#include "profile/ProfilePackage.h"
#include "support/StringUtil.h"

using namespace jumpstart;
using namespace jumpstart::core;

DriftSweepResult jumpstart::core::runDriftSweep(const DriftSweepParams &P) {
  DriftSweepResult R;

  // Release 0: the site the seeder profiles.
  fleet::DriftParams Base;
  Base.Release = 0;
  auto W0 = fleet::generateDriftedWorkload(P.Site, Base);
  fleet::TrafficModel Traffic0(*W0, fleet::TrafficParams(), 42);

  // Grow the one seeder package everything downstream rebases from.
  vm::ServerConfig SeederConfig = P.Config;
  SeederConfig.Jit.SeederInstrumentation = true;
  std::unique_ptr<vm::Server> Seeder =
      fleet::runSeeder(*W0, Traffic0, SeederConfig, /*Region=*/0,
                       /*Bucket=*/0, P.SeederRequests, P.Seed);
  profile::ProfilePackage Pkg0 =
      Seeder->buildSeederPackage(/*Region=*/0, /*Bucket=*/0, /*SeederId=*/1);
  Seeder.reset();
  R.Log.push_back(strFormat("seeder: %zu bytes, %zu funcs profiled",
                            Pkg0.serialize().size(),
                            Pkg0.numProfiledFuncs()));

  // One shelf per age: bucket A holds the (possibly delta) rebased
  // package targeting release A.
  PackageManager Manager;
  PackageId PrevId;
  bool HavePrev = false;
  JumpStartOptions Opts;

  for (uint32_t Age = 0; Age <= P.MaxAge; ++Age) {
    DriftAgePoint Point;
    Point.Age = Age;

    fleet::DriftParams DA;
    DA.Release = Age;
    std::unique_ptr<fleet::Workload> Owned;
    if (Age > 0)
      Owned = fleet::generateDriftedWorkload(P.Site, DA);
    const fleet::Workload &WA = Age == 0 ? *W0 : *Owned;
    fleet::TrafficModel TrafficA(WA, fleet::TrafficParams(), 42);

    // Rebase the release-0 profile onto release A's symbols.  Age 0
    // still goes through the rebase (it must be the identity mapping).
    profile::ProfilePackage Rebased;
    support::Status RebaseStatus = profile::rebasePackage(
        Pkg0, W0->Repo, WA.Repo, vm::Server::repoFingerprint(WA.Repo),
        Rebased, &Point.Rebase);
    if (!RebaseStatus.ok()) {
      R.Result = RebaseStatus;
      R.Log.push_back(strFormat("age %u: rebase failed: %s", Age,
                                RebaseStatus.message().c_str()));
      break;
    }
    Point.ProfiledFuncs = Rebased.numProfiledFuncs();

    // Publish: the base age in full, later ages as deltas against the
    // previous age's package -- the wire cost a weekly push would pay.
    std::vector<uint8_t> Bytes = Rebased.serialize();
    Point.PackageBytes = Bytes.size();
    Manager.beginRelease();
    PackageManifest Manifest;
    support::Status PublishStatus =
        HavePrev ? Manager.publishDelta(0, Age, Bytes, PrevId, &Manifest)
                 : Manager.publish(0, Age, Bytes, &Manifest);
    if (!PublishStatus.ok()) {
      R.Result = PublishStatus;
      R.Log.push_back(strFormat("age %u: publish failed: %s", Age,
                                PublishStatus.message().c_str()));
      break;
    }
    Point.WireBytes =
        Manifest.isDelta() ? Manifest.DeltaBytes : Manifest.Bytes;

    // Round-trip the distribution path: reconstructed bytes must be the
    // exact serialized package.
    std::vector<uint8_t> Rebuilt;
    support::Status Reconstructed =
        Manager.reconstruct(Manifest.Id, Rebuilt);
    if (!Reconstructed.ok() || Rebuilt != Bytes) {
      R.Result = Reconstructed.ok()
                     ? support::errorStatus(
                           support::StatusCode::CorruptData,
                           "age %u: reconstructed bytes differ", Age)
                     : Reconstructed;
      R.Log.push_back(strFormat("age %u: reconstruct failed", Age));
      break;
    }
    PrevId = Manifest.Id;
    HavePrev = true;

    // The consumer's install gate: lint + fingerprint against release A.
    ConsumerParams CP;
    CP.Region = 0;
    CP.Bucket = Age;
    CP.Seed = P.Seed + Age;
    CP.Name = strFormat("drift-consumer-a%u", Age);
    ConsumerOutcome Outcome = startConsumer(WA, P.Config, Opts, Manager,
                                            CP, /*Chaos=*/nullptr, P.Obs);
    Point.ConsumerUsedJumpStart = Outcome.UsedJumpStart;
    Point.ConsumerAttempts = Outcome.Attempts;
    Outcome.Server.reset();

    // Warmup benefit on release A with the aged profile vs cold.
    fleet::ServerSimParams Sim;
    Sim.DurationSeconds = P.WarmupSeconds;
    Sim.OfferedRps = P.OfferedRps;
    Sim.Seed = P.Seed + 100 + Age;
    Sim.RunLabel = strFormat("drift-a%u-nojs", Age);
    Sim.Obs = P.Obs;
    fleet::WarmupResult Cold = fleet::runWarmup(WA, TrafficA, P.Config, Sim);
    Sim.RunLabel = strFormat("drift-a%u-js", Age);
    fleet::WarmupResult Warm =
        fleet::runWarmup(WA, TrafficA, P.Config, Sim, &Rebased);
    Point.CapacityLossWithout = Cold.CapacityLossFraction;
    Point.CapacityLossWith = Warm.CapacityLossFraction;
    Point.BenefitFraction =
        Cold.CapacityLossFraction > 0
            ? 1.0 - Warm.CapacityLossFraction / Cold.CapacityLossFraction
            : 0.0;
    Point.ColdClass = fleet::classifyWarmupThroughput(Cold);
    Point.WarmClass = fleet::classifyWarmupThroughput(Warm);

    R.Log.push_back(strFormat(
        "age %u: funcs %zu (dropped %zu), wire %zu bytes%s, "
        "jump-start=%s, loss %.3f vs %.3f (benefit %.1f%%), "
        "class %s -> %s",
        Age, Point.ProfiledFuncs, Point.Rebase.FuncsDropped,
        Point.WireBytes, Manifest.isDelta() ? " (delta)" : "",
        Point.ConsumerUsedJumpStart ? "yes" : "no",
        Point.CapacityLossWith, Point.CapacityLossWithout,
        100 * Point.BenefitFraction,
        stats::warmupClassName(Point.ColdClass.Class),
        stats::warmupClassName(Point.WarmClass.Class)));
    R.Points.push_back(Point);
  }
  return R;
}
