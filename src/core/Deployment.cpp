//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "core/Deployment.h"

#include "support/StringUtil.h"

using namespace jumpstart;
using namespace jumpstart::core;

DeploymentReport jumpstart::core::simulateDeployment(
    const fleet::Workload &W, const fleet::TrafficModel &Traffic,
    const vm::ServerConfig &BaseConfig, const JumpStartOptions &Opts,
    PackageManager &Manager, const DeploymentParams &P,
    const ChaosHooks *Chaos, obs::Observability *Obs) {
  DeploymentReport Report;
  Rng R(P.Seed);

  obs::Tracer *Trace = Obs ? &Obs->Trace : nullptr;
  uint32_t Track = 0;
  if (Obs)
    Track = Obs->Trace.allocTrack("deployment");

  // --- C1: restart the employee-facing canary servers (no Jump-Start
  // data exists yet for the new code version) and verify basic health.
  {
    obs::ScopedSpan Phase(Trace, "push-C1-canary", "phase", Track);
    vm::ServerConfig Config = BaseConfig;
    Config.Obs = Obs;
    Config.Name = "canary";
    vm::Server Canary(W.Repo, Config, R.next());
    Canary.startup();
    uint64_t Faults = 0;
    const uint32_t CanaryRequests = 25;
    for (uint32_t I = 0; I < CanaryRequests; ++I) {
      uint32_t E = Traffic.sampleEndpoint(0, 0, R);
      Canary.executeRequest(W.Endpoints[E],
                            fleet::TrafficModel::makeArgs(R));
    }
    Faults = Canary.totalFaults();
    Report.CanaryHealthy = Faults < CanaryRequests; // < 1 fault/request
    Report.Log.push_back(strFormat(
        "C1: canary served %u requests, %llu faults -> %s", CanaryRequests,
        static_cast<unsigned long long>(Faults),
        Report.CanaryHealthy ? "healthy" : "UNHEALTHY"));
    if (!Report.CanaryHealthy)
      return Report; // push halts before C2
  }

  // --- C2: restart 2% of the fleet as seeders; each collects, validates
  // and publishes its own package.
  {
    obs::ScopedSpan Phase(Trace, "push-C2-seeders", "phase", Track);
    for (uint32_t Region = 0; Region < P.Regions; ++Region) {
      for (uint32_t Bucket = 0; Bucket < P.Buckets; ++Bucket) {
        for (uint32_t S = 0; S < P.SeedersPerPair; ++S) {
          SeederParams SP;
          SP.Region = Region;
          SP.Bucket = Bucket;
          SP.SeederId = (static_cast<uint64_t>(Region) << 32) |
                        (Bucket << 8) | S;
          SP.Requests = P.SeederRequests;
          SP.Seed = R.next();
          SeederOutcome Outcome = runSeederWorkflow(
              W, Traffic, BaseConfig, Opts, Manager, SP, Chaos, Obs);
          ++Report.SeedersRun;
          if (Outcome.Published) {
            ++Report.PackagesPublished;
            Report.Log.push_back(strFormat(
                "C2: seeder (r%u,b%u,#%u) published %zu bytes", Region,
                Bucket, S, Outcome.PackageBytes));
          } else {
            ++Report.SeederFailures;
            std::string Why = Outcome.Problems.empty()
                                  ? "unknown"
                                  : Outcome.Problems.front();
            Report.Log.push_back(strFormat(
                "C2: seeder (r%u,b%u,#%u) FAILED: %s", Region, Bucket, S,
                Why.c_str()));
          }
        }
      }
    }

    // Optional multi-seeder fold: one merged release per shelf, published
    // alongside the individual packages.
    if (P.PublishMergedPackage) {
      for (uint32_t Region = 0; Region < P.Regions; ++Region) {
        for (uint32_t Bucket = 0; Bucket < P.Buckets; ++Bucket) {
          PackageManifest Merged;
          support::Status MergeStatus =
              Manager.merge(Region, Bucket, &Merged);
          if (MergeStatus.ok()) {
            ++Report.MergedPackages;
            Report.Log.push_back(strFormat(
                "C2: merged shelf (r%u,b%u) from %zu seeders (%zu bytes)",
                Region, Bucket, Merged.Seeders.size(), Merged.Bytes));
          } else {
            Report.Log.push_back(strFormat(
                "C2: merge of shelf (r%u,b%u) skipped: %s", Region, Bucket,
                MergeStatus.message().c_str()));
          }
        }
      }
    }
  }

  // --- C3: restart the rest of the fleet as consumers (a sample of real
  // boots per (region, bucket)).
  double InitTotal = 0;
  {
    obs::ScopedSpan Phase(Trace, "push-C3-consumers", "phase", Track);
    for (uint32_t Region = 0; Region < P.Regions; ++Region) {
      for (uint32_t Bucket = 0; Bucket < P.Buckets; ++Bucket) {
        for (uint32_t C = 0; C < P.ConsumerSamplesPerPair; ++C) {
          ConsumerParams CP;
          CP.Region = Region;
          CP.Bucket = Bucket;
          CP.Seed = R.next();
          CP.Name = strFormat("consumer-r%u-b%u-%u", Region, Bucket, C);
          ConsumerOutcome Outcome =
              startConsumer(W, BaseConfig, Opts, Manager, CP, Chaos, Obs);
          ++Report.ConsumersBooted;
          if (Outcome.UsedJumpStart)
            ++Report.ConsumersUsedJumpStart;
          InitTotal += Outcome.Init.TotalSeconds;
          Report.Log.push_back(strFormat(
              "C3: consumer (r%u,b%u,#%u) init %.2fs, jump-start=%s",
              Region, Bucket, C, Outcome.Init.TotalSeconds,
              Outcome.UsedJumpStart ? "yes" : "no"));
        }
      }
    }
  }
  if (Report.ConsumersBooted)
    Report.MeanConsumerInitSeconds = InitTotal / Report.ConsumersBooted;
  return Report;
}
