//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared setup for the figure-reproduction harnesses.
///
/// Calibration note (see EXPERIMENTS.md): the synthetic site is ~10^4x
/// smaller than the Facebook website, so JIT compile costs are scaled
/// *up* per bytecode to keep the ratio of (compile work) / (serving
/// capacity) in the regime the paper measures.  Virtual seconds therefore
/// correspond to paper minutes only in *shape*, not absolutely; every
/// harness prints the same curves/series the paper's figures plot.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_BENCH_FIGURECOMMON_H
#define JUMPSTART_BENCH_FIGURECOMMON_H

#include "core/Consumer.h"
#include "core/Seeder.h"
#include "fleet/ServerSim.h"
#include "fleet/SteadyState.h"
#include "obs/Export.h"
#include "support/ParseNumber.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace jumpstart::bench {

/// The standard evaluation site: big enough for warmup phenomenology,
/// small enough that each harness finishes in seconds.
inline fleet::WorkloadParams standardSite() {
  fleet::WorkloadParams P;
  P.NumHelpers = 700;
  P.NumClasses = 72;
  P.NumEndpoints = 40;
  P.NumUnits = 48;
  return P;
}

/// The standard server: 16 cores (the paper's Xeon D-1581), with compile
/// costs stretched so the JIT lifecycle spans the observation window.
inline vm::ServerConfig figureServerConfig() {
  vm::ServerConfig C;
  C.Cores = 16;
  C.JitWorkerCores = 3;
  // The profiling window (point A of Figure 1).
  C.Jit.ProfileRequestTarget = 40000;
  // Stretched compile costs (see file header).
  C.Jit.ProfileCompileCostPerBytecode = 800;
  C.Jit.LiveCompileCostPerBytecode = 12000;
  C.Jit.OptCompileCostPerBytecode = 25000;
  C.Jit.RelocateCostPerByte = 700;
  C.UnitLoadCost = 120000;
  return C;
}

/// Machine geometry for the steady-state figures, scaled down with the
/// synthetic site: the site's JITed code is ~1000x smaller than the
/// paper's ~500 MB, so cache/TLB reach shrinks proportionally to keep
/// the same pressure regime as the evaluation hardware.
inline sim::MachineConfig scaledMachine() {
  sim::MachineConfig M;
  M.L1I = sim::CacheConfig{16 * 1024, 64, 8};
  M.L1D = sim::CacheConfig{16 * 1024, 64, 8};
  M.Llc = sim::CacheConfig{256 * 1024, 64, 16};
  M.ITlbEntries = 8;
  M.ITlbWays = 4;
  M.DTlbEntries = 8;
  M.DTlbWays = 4;
  M.BtbSize = 512;
  M.BranchTableSize = 2048;
  return M;
}

/// Grows a seeder package for (region, bucket) on the standard site.
inline profile::ProfilePackage
growPackage(const fleet::Workload &W, const fleet::TrafficModel &Traffic,
            const vm::ServerConfig &Base, uint32_t Region = 0,
            uint32_t Bucket = 0, uint32_t Requests = 1200,
            uint64_t Seed = 12) {
  vm::ServerConfig SeederConfig = Base;
  SeederConfig.Jit.SeederInstrumentation = true;
  std::unique_ptr<vm::Server> Seeder = fleet::runSeeder(
      W, Traffic, SeederConfig, Region, Bucket, Requests, Seed);
  return Seeder->buildSeederPackage(Region, Bucket, /*SeederId=*/1);
}

/// Prints a time series as aligned rows, resampled to \p Points.
inline void printSeries(const char *Header, const TimeSeries &S,
                        size_t Points = 30, double Scale = 1.0,
                        const char *Fmt = "%10.1f  %12.3f\n") {
  std::printf("%s\n", Header);
  for (const TimePoint &Pt : S.resample(Points))
    std::printf(Fmt, Pt.TimeSec, Pt.Value * Scale);
}

/// Prints two aligned series (e.g. with/without Jump-Start).
inline void printSeriesPair(const char *Header, const TimeSeries &A,
                            const TimeSeries &B, size_t Points = 30,
                            double Scale = 1.0) {
  std::printf("%s\n", Header);
  auto PA = A.resample(Points);
  auto PB = B.resample(Points);
  for (size_t I = 0; I < PA.size() && I < PB.size(); ++I)
    std::printf("%10.1f  %12.3f  %12.3f\n", PA[I].TimeSec,
                PA[I].Value * Scale, PB[I].Value * Scale);
}

/// The command line every figure harness shares.
struct FigureFlags {
  /// `--export PREFIX`: dump observability next to the printed tables.
  const char *ExportPrefix = nullptr;
  /// `--threads N`: host compile-pool workers, 1 to
  /// support::kMaxPoolWorkers.  Wall-clock only -- the virtual cost model
  /// and every exported number are byte-identical for any value
  /// (ci/check.sh diffs the exports to enforce it).
  uint32_t Threads = 1;
};

/// Parses the shared flags.  Unknown or incomplete flags are a hard
/// error: a typo like `--exprot` must not silently run the harness
/// without its export.
inline FigureFlags parseFigureFlags(int argc, char **argv) {
  auto Usage = [&](const char *Bad) {
    std::fprintf(stderr,
                 "%s: bad flag \"%s\"\n"
                 "usage: %s [--export PREFIX] [--threads N]\n",
                 argv[0], Bad, argv[0]);
    std::exit(2);
  };
  FigureFlags F;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--export") == 0) {
      if (I + 1 >= argc)
        Usage(argv[I]);
      F.ExportPrefix = argv[++I];
    } else if (std::strcmp(argv[I], "--threads") == 0) {
      if (I + 1 >= argc)
        Usage(argv[I]);
      if (!support::parseNumber<uint32_t>(argv[I + 1], 1,
                                          support::kMaxPoolWorkers, F.Threads)
               .ok())
        Usage(argv[I + 1]);
      ++I;
    } else {
      Usage(argv[I]);
    }
  }
  return F;
}

/// The host compile pool for `--threads` (null for N <= 1: the serial
/// path needs no pool).
inline std::unique_ptr<support::ThreadPool>
makeCompilePool(uint32_t Threads) {
  if (Threads <= 1)
    return nullptr;
  return std::make_unique<support::ThreadPool>(Threads);
}

/// Writes PREFIX.metrics.jsonl / .trace.jsonl / .chrome.json when a
/// prefix was given.  \returns the harness exit code contribution (0 ok).
inline int exportIfRequested(const obs::Observability &Obs,
                             const char *Prefix) {
  if (!Prefix)
    return 0;
  support::Status S = obs::exportAll(Obs, Prefix);
  if (!S.ok()) {
    std::fprintf(stderr, "export failed: %s\n", S.str().c_str());
    return 1;
  }
  std::printf("\nexported %s.metrics.jsonl / .trace.jsonl / .chrome.json "
              "(%zu metrics, %zu spans)\n",
              Prefix, Obs.Metrics.numMetrics(), Obs.Trace.numSpans());
  return 0;
}

} // namespace jumpstart::bench

#endif // JUMPSTART_BENCH_FIGURECOMMON_H
