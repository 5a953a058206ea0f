//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Full-site push simulation: the C1/C2/C3 phased deployment of paper
/// section II-C, with Jump-Start woven in as deployed at Facebook --
/// profile data collected by seeders in the C2 phase powers the consumers
/// restarted in C3.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_CORE_DEPLOYMENT_H
#define JUMPSTART_CORE_DEPLOYMENT_H

#include "core/Consumer.h"
#include "core/Seeder.h"

namespace jumpstart::core {

/// Push-simulation parameters.  A real fleet has thousands of servers per
/// (region, bucket); the simulation boots a configurable sample of real
/// VMs and treats the rest statistically.
struct DeploymentParams {
  uint32_t Regions = 1;
  /// Buckets simulated per region (the paper's fleet uses all 10;
  /// simulating fewer keeps harness runtimes short).
  uint32_t Buckets = 2;
  /// Seeders per (region, bucket) -- "use of multiple, randomized
  /// profiles" (section VI-A technique 2).
  uint32_t SeedersPerPair = 2;
  uint32_t SeederRequests = 350;
  /// Consumers actually booted per (region, bucket).
  uint32_t ConsumerSamplesPerPair = 1;
  uint64_t Seed = 5;
  /// After C2, additionally fold every shelf's published packages into
  /// one multi-seeder package (PackageManager::merge) -- "use of
  /// multiple, randomized profiles" collapsed into one release blob.
  /// The merged package is published onto the same shelf, so C3
  /// consumers can pick it like any other.
  bool PublishMergedPackage = false;
};

/// Summary of one site push.
struct DeploymentReport {
  // C1: canary.
  bool CanaryHealthy = false;
  // C2: seeders.
  uint32_t SeedersRun = 0;
  uint32_t PackagesPublished = 0;
  uint32_t SeederFailures = 0;
  /// Multi-seeder merges published (PublishMergedPackage only).
  uint32_t MergedPackages = 0;
  // C3: consumers.
  uint32_t ConsumersBooted = 0;
  uint32_t ConsumersUsedJumpStart = 0;
  double MeanConsumerInitSeconds = 0;
  std::vector<std::string> Log;
};

/// Simulates one complete push.  Packages land in \p Manager (so a later
/// push can reuse it or a test can inspect it).  \p Obs (optional)
/// receives push-phase spans (C1 canary / C2 seeders / C3 consumers) on a
/// "deployment" track plus everything the seeder and consumer workflows
/// record.  Seeders, then consumers, run one after another in
/// (region, bucket) order; the host threads a push may use are those of
/// \p BaseConfig's CompilePool, which leave every result and every
/// recorded byte unchanged.
DeploymentReport simulateDeployment(const fleet::Workload &W,
                                    const fleet::TrafficModel &Traffic,
                                    const vm::ServerConfig &BaseConfig,
                                    const JumpStartOptions &Opts,
                                    PackageManager &Manager,
                                    const DeploymentParams &P,
                                    const ChaosHooks *Chaos = nullptr,
                                    obs::Observability *Obs = nullptr);

} // namespace jumpstart::core

#endif // JUMPSTART_CORE_DEPLOYMENT_H
