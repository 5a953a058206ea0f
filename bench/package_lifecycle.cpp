//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profile-package lifecycle harness.  Two jobs:
///
///   * by default, the staleness-under-drift sweep
///     (core::runDriftSweep) -- one seeder package rebased onto 0..N
///     drifted releases of the synthetic site, published full-then-delta
///     through core::PackageManager, consumer-accepted and warmup-
///     measured per age.  Everything runs on the virtual clock, so the
///     `--json` rendering is byte-deterministic; the committed
///     BENCH_package.json is this harness's `--stats --json` output, and
///     the tier-1 test `package_lifecycle --stats --check-against
///     BENCH_package.json` fails unless a fresh run renders the whole
///     file byte for byte.  `--quick` shrinks the site and age range.
///
///   * `--check N SEED`: the lifecycle property sweep over N generated
///     programs (testing::ProgramGen): per program, two seeders grow
///     packages on the same repo, and the harness asserts (a) the merged
///     package bytes are identical for either seeder arrival order,
///     (b) the delta against the sibling package reconstructs its exact
///     bytes, and (c) the merged package is lint-clean.  Exits non-zero
///     on the first violated property.
///
//===----------------------------------------------------------------------===//

#include "StatsRunner.h"
#include "analysis/Linter.h"
#include "core/DriftSweep.h"
#include "profile/PackageDelta.h"
#include "profile/PackageMerge.h"
#include "runtime/Builtins.h"
#include "support/StringUtil.h"
#include "testing/DiffRunner.h"
#include "testing/ProgramGen.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace jumpstart;

namespace {

core::DriftSweepParams sweepParams(bool Quick) {
  core::DriftSweepParams P;
  if (Quick) {
    P.Site.NumHelpers = 120;
    P.Site.NumClasses = 24;
    P.Site.NumEndpoints = 12;
    P.Site.NumUnits = 12;
    P.MaxAge = 2;
    P.SeederRequests = 400;
    P.WarmupSeconds = 120;
    P.OfferedRps = 200;
    P.Config.Jit.ProfileRequestTarget = 100;
  } else {
    P.Site.NumHelpers = 300;
    P.Site.NumClasses = 48;
    P.Site.NumEndpoints = 24;
    P.Site.NumUnits = 24;
    P.MaxAge = 4;
    // Long enough that every endpoint is profiled: endpoint renames must
    // show up as dropped anchors, not vanish under a helper-only profile.
    P.Config.Jit.ProfileRequestTarget = 400;
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Statistical mode (--stats seeds=N,iters=M): multi-seed warmup curves.
//===----------------------------------------------------------------------===//

/// The stats spec the committed snapshot uses, and so what a bare
/// `--stats` means here.
bench::StatsCliOptions defaultStatsOptions() {
  bench::StatsCliOptions O;
  O.Seeds = 3;
  O.Iters = 60;
  return O;
}

/// Runs N Jump-Start consumer warmup simulations with distinct seeds on
/// a fixed small site (independent of --quick, so every invocation
/// reproduces the committed snapshot's stats block) and classifies each
/// virtual-time normalized-RPS curve.  Iterations map to simulated
/// seconds: one sample per tick.
stats::StatsSummary runStatsSweep(const bench::StatsCliOptions &O) {
  fleet::WorkloadParams SiteP;
  SiteP.NumHelpers = 120;
  SiteP.NumClasses = 24;
  SiteP.NumEndpoints = 12;
  SiteP.NumUnits = 12;
  std::unique_ptr<fleet::Workload> W = fleet::generateWorkload(SiteP);
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 21);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 200;

  vm::ServerConfig SeederConfig = Config;
  SeederConfig.Jit.SeederInstrumentation = true;
  auto Seeder = fleet::runSeeder(*W, Traffic, SeederConfig, 0, 0, 150, 3);
  profile::ProfilePackage Pkg = Seeder->buildSeederPackage(0, 0, 1);
  Seeder.reset();

  std::vector<std::pair<uint64_t, std::vector<double>>> SeedSeries;
  for (uint32_t Seed = 0; Seed < O.Seeds; ++Seed) {
    fleet::ServerSimParams P;
    P.DurationSeconds = O.Iters;
    P.OfferedRps = 450;
    P.Seed = 7 + Seed;
    P.RunLabel = strFormat("stats-s%u", Seed);
    fleet::WarmupResult R = fleet::runWarmup(*W, Traffic, Config, P, &Pkg);
    SeedSeries.emplace_back(Seed, R.normalizedRps().values());
  }
  return stats::analyzeRuns(SeedSeries,
                            fleet::warmupThroughputClassifyParams());
}

/// Everything here runs on the virtual clock, so the whole file is
/// deterministic and the snapshot check compares all of it.
std::string renderJson(const core::DriftSweepParams &P,
                       const core::DriftSweepResult &R,
                       const bench::StatsCliOptions &StatsOpts,
                       const stats::StatsSummary *Stats) {
  std::string Out = "{\n";
  Out += strFormat("  \"site\": {\"helpers\": %u, \"endpoints\": %u, "
                   "\"max_age\": %u, \"seeder_requests\": %u},\n",
                   P.Site.NumHelpers, P.Site.NumEndpoints, P.MaxAge,
                   P.SeederRequests);
  Out += "  \"drift\": [\n";
  for (size_t I = 0; I < R.Points.size(); ++I) {
    const core::DriftAgePoint &Pt = R.Points[I];
    Out += strFormat(
        "    {\"age\": %u, \"jump_start\": %s, \"profiled_funcs\": %zu, "
        "\"funcs_dropped\": %zu, \"package_bytes\": %zu, "
        "\"wire_bytes\": %zu, \"loss_with\": %.6f, \"loss_without\": %.6f, "
        "\"benefit_fraction\": %.6f, \"class_without\": \"%s\", "
        "\"class_with\": \"%s\", \"steady_start_without\": %zu, "
        "\"steady_start_with\": %zu}%s\n",
        Pt.Age, Pt.ConsumerUsedJumpStart ? "true" : "false",
        Pt.ProfiledFuncs, Pt.Rebase.FuncsDropped, Pt.PackageBytes,
        Pt.WireBytes, Pt.CapacityLossWith, Pt.CapacityLossWithout,
        Pt.BenefitFraction, stats::warmupClassName(Pt.ColdClass.Class),
        stats::warmupClassName(Pt.WarmClass.Class), Pt.ColdClass.SteadyStart,
        Pt.WarmClass.SteadyStart, I + 1 < R.Points.size() ? "," : "");
  }
  Out += strFormat("  ]%s\n", Stats ? "," : "");
  if (Stats)
    Out += bench::statsBlockJson("jumpstart_normalized_rps", StatsOpts,
                                 *Stats) +
           "\n";
  return Out + "}\n";
}

int runSweep(bool Quick, const std::string &JsonPath,
             const std::string &SnapshotPath,
             const bench::StatsCliOptions &StatsOpts) {
  core::DriftSweepParams P = sweepParams(Quick);
  core::DriftSweepResult R = core::runDriftSweep(P);
  for (const std::string &Line : R.Log)
    std::printf("package_lifecycle: %s\n", Line.c_str());
  if (!R.Result.ok()) {
    std::fprintf(stderr, "package_lifecycle: sweep failed: %s\n",
                 R.Result.message().c_str());
    return 1;
  }
  std::printf("package_lifecycle: %zu ages swept; benefit %.1f%% fresh "
              "-> %.1f%% at age %u\n",
              R.Points.size(), 100 * R.Points.front().BenefitFraction,
              100 * R.Points.back().BenefitFraction, R.Points.back().Age);
  stats::StatsSummary Stats;
  if (StatsOpts.Enabled) {
    Stats = runStatsSweep(StatsOpts);
    std::printf("package_lifecycle: stats js normalized-rps over %u seeds "
                "x %u iters: worst=%s ci=[%.6f, %.6f] steady from %.1f\n",
                StatsOpts.Seeds, StatsOpts.Iters,
                stats::warmupClassName(Stats.WorstClass), Stats.SteadyCI.Lo,
                Stats.SteadyCI.Hi, Stats.SteadyStartMean);
  }
  std::string Json =
      renderJson(P, R, StatsOpts, StatsOpts.Enabled ? &Stats : nullptr);
  if (!JsonPath.empty())
    bench::writeFile(JsonPath, Json);
  if (SnapshotPath.empty())
    return 0;
  return bench::checkSnapshot(SnapshotPath,
                              {{"whole file", Json, /*WholeFile=*/true}},
                              "bench/run_bench.sh --package");
}

/// Grows one package on \p W: a seeder-instrumented server executes
/// \p Requests requests of a SeederId-dependent schedule, draining the
/// JIT pipeline as it goes.
profile::ProfilePackage growPackage(const fleet::Workload &W,
                                    uint64_t SeederId, uint32_t Requests) {
  vm::ServerConfig SC;
  SC.Name = strFormat("check-seeder-%llu",
                      static_cast<unsigned long long>(SeederId));
  SC.Jit.SeederInstrumentation = true;
  SC.Jit.ProfileRequestTarget = std::max<uint32_t>(2, Requests / 3);
  vm::Server S(W.Repo, SC, /*Seed=*/7 + SeederId);
  S.startup();
  for (uint32_t Rq = 0; Rq < Requests; ++Rq) {
    uint64_t Mix = Rq + SeederId * 5;
    S.executeRequest(
        W.Endpoints[Mix % W.Endpoints.size()],
        {runtime::Value::integer(
            static_cast<int64_t>((Mix * 2654435761ull) & 0xFFFFFull))});
    S.grantJitTime(16.0);
  }
  while (S.theJit().hasPendingWork())
    S.grantJitTime(16.0);
  return S.buildSeederPackage(0, 0, SeederId);
}

int runCheck(uint32_t Programs, uint64_t Seed) {
  const uint32_t NumBuiltins = static_cast<uint32_t>(
      runtime::BuiltinTable::standard().size());
  uint64_t MergedBytes = 0, DeltaBytes = 0;
  for (uint32_t I = 0; I < Programs; ++I) {
    uint64_t ProgSeed = Seed + I;
    testing::GenParams GP;
    GP.Seed = ProgSeed;
    fleet::Workload W;
    support::Status Compiled = testing::DiffRunner::compileProgram(
        testing::generateProgram(GP).render(), W);
    if (!Compiled.ok()) {
      std::fprintf(stderr,
                   "package_lifecycle: program %llu failed to compile: %s\n",
                   static_cast<unsigned long long>(ProgSeed),
                   Compiled.message().c_str());
      return 1;
    }

    profile::ProfilePackage A = growPackage(W, /*SeederId=*/1, 24);
    profile::ProfilePackage B = growPackage(W, /*SeederId=*/2, 24);

    // (a) Merge-order independence: byte-identical released blob.
    profile::ProfilePackage AB, BA;
    support::Status MergedAB =
        profile::mergePackages({{&A, 2}, {&B, 3}}, AB);
    support::Status MergedBA =
        profile::mergePackages({{&B, 3}, {&A, 2}}, BA);
    if (!MergedAB.ok() || !MergedBA.ok()) {
      std::fprintf(stderr, "package_lifecycle: program %llu merge failed: %s\n",
                   static_cast<unsigned long long>(ProgSeed),
                   (MergedAB.ok() ? MergedBA : MergedAB).message().c_str());
      return 1;
    }
    std::vector<uint8_t> Released = AB.serialize();
    if (Released != BA.serialize()) {
      std::fprintf(stderr,
                   "package_lifecycle: program %llu merged bytes depend on "
                   "seeder arrival order\n",
                   static_cast<unsigned long long>(ProgSeed));
      return 1;
    }
    MergedBytes += Released.size();

    // (b) Delta releases reconstruct exactly.
    std::vector<uint8_t> Parent = A.serialize();
    std::vector<uint8_t> Delta = profile::encodeDelta(Parent, Released);
    std::vector<uint8_t> Rebuilt;
    support::Status Applied = profile::applyDelta(Parent, Delta, Rebuilt);
    if (!Applied.ok() || Rebuilt != Released) {
      std::fprintf(stderr,
                   "package_lifecycle: program %llu delta round trip "
                   "broke: %s\n",
                   static_cast<unsigned long long>(ProgSeed),
                   Applied.ok() ? "bytes differ"
                                : Applied.message().c_str());
      return 1;
    }
    DeltaBytes += Delta.size();

    // (c) The merged package passes the consumer's strict lint.
    analysis::Linter L(W.Repo, NumBuiltins);
    for (const analysis::Diagnostic &D : L.lintPackage(AB)) {
      if (D.Sev != analysis::Severity::Error)
        continue;
      std::fprintf(stderr,
                   "package_lifecycle: program %llu merged package fails "
                   "lint: %s\n",
                   static_cast<unsigned long long>(ProgSeed),
                   D.str(&W.Repo).c_str());
      return 1;
    }
  }
  std::printf("package_lifecycle: %u programs checked: merge order "
              "invariant, deltas exact, merges lint-clean "
              "(%llu merged bytes, %llu delta bytes)\n",
              Programs, static_cast<unsigned long long>(MergedBytes),
              static_cast<unsigned long long>(DeltaBytes));
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  std::string JsonPath;
  std::string SnapshotPath;
  int CheckPrograms = -1;
  uint64_t CheckSeed = 1;
  bench::StatsCliOptions StatsOpts = defaultStatsOptions();
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0) {
      Quick = true;
    } else if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc) {
      JsonPath = argv[++I];
    } else if (std::strcmp(argv[I], "--check-against") == 0 && I + 1 < argc) {
      SnapshotPath = argv[++I];
    } else if (std::strcmp(argv[I], "--check") == 0 && I + 2 < argc) {
      CheckPrograms = std::atoi(argv[++I]);
      CheckSeed = static_cast<uint64_t>(std::atoll(argv[++I]));
    } else if (std::strcmp(argv[I], "--stats") == 0) {
      std::string_view Spec =
          I + 1 < argc && argv[I + 1][0] != '-' ? argv[++I] : "";
      if (!bench::parseStatsSpec(Spec, StatsOpts)) {
        std::fprintf(stderr, "bad --stats spec: %s\n",
                     std::string(Spec).c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json PATH] "
                   "[--check PROGRAMS SEED] [--stats [seeds=N,iters=M]] "
                   "[--check-against SNAPSHOT]\n",
                   argv[0]);
      return 2;
    }
  }
  if (CheckPrograms >= 0)
    return runCheck(static_cast<uint32_t>(CheckPrograms), CheckSeed);
  return runSweep(Quick, JsonPath, SnapshotPath, StatsOpts);
}
