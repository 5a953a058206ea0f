//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A complete site push (paper section II-C): the C1/C2/C3 phased
/// deployment with Jump-Start woven in -- C1 restarts the employee-facing
/// canary, C2 restarts seeders that collect/validate/publish profile
/// packages, C3 restarts consumers that boot from them.
///
/// Also demonstrates the failure path: a second push in which a latent
/// JIT bug makes one bucket's packages crash consumers in production;
/// randomized selection plus fallback keep the fleet serving.
///
//===----------------------------------------------------------------------===//

#include "core/Deployment.h"
#include "obs/Export.h"
#include "support/ParseNumber.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>
#include <memory>

using namespace jumpstart;

int main(int argc, char **argv) {
  const char *ExportPrefix = nullptr;
  uint32_t Threads = 1;
  auto Usage = [&](const char *Bad) {
    std::fprintf(stderr,
                 "bad flag \"%s\"\n"
                 "usage: %s [--export PREFIX] [--threads N]\n",
                 Bad, argv[0]);
    return 2;
  };
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--export") == 0 && I + 1 < argc) {
      ExportPrefix = argv[++I];
    } else if (std::strcmp(argv[I], "--threads") == 0 && I + 1 < argc) {
      if (!support::parseNumber<uint32_t>(argv[++I], 1,
                                          support::kMaxPoolWorkers, Threads)
               .ok())
        return Usage(argv[I]);
    } else {
      return Usage(argv[I]);
    }
  }

  fleet::WorkloadParams WP;
  WP.NumHelpers = 300;
  WP.NumClasses = 36;
  WP.NumEndpoints = 20;
  WP.NumUnits = 24;
  auto W = fleet::generateWorkload(WP);
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 42);
  std::printf("site: %zu funcs / %zu bytecodes across %zu units\n\n",
              W->Repo.numFuncs(), W->Repo.totalBytecode(),
              W->Repo.numUnits());

  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 60;
  // Host compile pool, as in every figure harness: every seeder's and
  // consumer's JIT drains lower and lay out their batches on it, and the
  // report and the exported dumps are byte-identical for any --threads
  // value.
  std::unique_ptr<support::ThreadPool> Pool;
  if (Threads > 1)
    Pool = std::make_unique<support::ThreadPool>(Threads);
  Config.CompilePool = Pool.get();
  core::JumpStartOptions Opts;
  Opts.Coverage.MinProfiledFuncs = 5;
  Opts.Coverage.MinTotalSamples = 100;
  Opts.ValidationRequests = 15;

  // --- Push 1: the happy path.  Observability captures the C1/C2/C3
  // phase spans, every seeder/consumer workflow, and the package
  // accept/reject counters; --export PREFIX dumps them.
  obs::Observability Obs;
  std::printf("=== push 1: new website version rolls out ===\n");
  core::PackageManager Manager;
  core::DeploymentParams DP;
  DP.Regions = 1;
  DP.Buckets = 3;
  DP.SeedersPerPair = 2;
  DP.SeederRequests = 150;
  DP.ConsumerSamplesPerPair = 1;
  // Fold each shelf's seeders into one merged multi-seeder package too.
  DP.PublishMergedPackage = true;
  core::DeploymentReport Report = core::simulateDeployment(
      *W, Traffic, Config, Opts, Manager, DP, /*Chaos=*/nullptr, &Obs);
  for (const std::string &Line : Report.Log)
    std::printf("  %s\n", Line.c_str());
  std::printf("summary: %u/%u seeders published; %u/%u consumers used "
              "jump-start; mean consumer init %.2fs\n\n",
              Report.PackagesPublished, Report.SeedersRun,
              Report.ConsumersUsedJumpStart, Report.ConsumersBooted,
              Report.MeanConsumerInitSeconds);

  // --- Push 2: a rare JIT bug ships.  Packages from bucket 1 trip it in
  // production but not in the seeder's validation environment (the case
  // paper section VI-A's randomization + fallback exist for).
  std::printf("=== push 2: a latent JIT bug affects bucket 1 packages "
              "===\n");
  core::ChaosHooks Chaos;
  Chaos.CrashesInProduction = [](const profile::ProfilePackage &Pkg) {
    return Pkg.Bucket == 1;
  };
  core::PackageManager Manager2;
  core::DeploymentParams DP2 = DP;
  DP2.Seed = 77;
  core::DeploymentReport Report2 = core::simulateDeployment(
      *W, Traffic, Config, Opts, Manager2, DP2, &Chaos);
  for (const std::string &Line : Report2.Log)
    std::printf("  %s\n", Line.c_str());
  std::printf("summary: %u/%u consumers used jump-start (bucket 1 "
              "consumers fell back to self-profiling and kept serving)\n",
              Report2.ConsumersUsedJumpStart, Report2.ConsumersBooted);

  if (ExportPrefix) {
    support::Status S = obs::exportAll(Obs, ExportPrefix);
    if (!S.ok()) {
      std::fprintf(stderr, "export failed: %s\n", S.str().c_str());
      return 1;
    }
    std::printf("exported push-1 observability to %s.*\n", ExportPrefix);
  }
  return 0;
}
