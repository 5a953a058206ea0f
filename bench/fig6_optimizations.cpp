//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces **Figure 6**: ablation of the Jump-Start-based steady-state
/// optimizations.  The baseline is Jump-Start with all section V
/// optimizations disabled; each bar enables exactly one:
///
///   paper: no Jump-Start       -0.2%
///          BB layout (V-A)     +3.8%   <- largest
///          function sort (V-B) +0.75%
///          prop reorder (V-C)  +0.8%
///
//===----------------------------------------------------------------------===//

#include "FigureCommon.h"
#include "support/Assert.h"

using namespace jumpstart;
using namespace jumpstart::bench;

namespace {

/// Boots a Jump-Start consumer with the given optimization switches and
/// measures its steady state.
fleet::SteadyStateResult
measureVariant(const fleet::Workload &W, const fleet::TrafficModel &Traffic,
               const vm::ServerConfig &Base,
               const profile::ProfilePackage &Pkg, bool VasmCounters,
               bool FuncOrder, bool PropReorder) {
  vm::ServerConfig Config = Base;
  Config.Jit.UseVasmCounters = VasmCounters;
  Config.Jit.UsePackageFuncOrder = FuncOrder;
  Config.ReorderProperties = PropReorder;
  vm::Server Server(W.Repo, Config, 55);
  support::Status Installed = Server.installPackage(Pkg);
  alwaysAssert(Installed.ok(), "package rejected");
  Server.startup();
  fleet::SteadyStateParams P;
  P.Requests = 400;
  P.WarmupRequests = 120;
  P.Machine = scaledMachine();
  return fleet::measureSteadyState(W, Traffic, Server, P);
}

} // namespace

int main(int argc, char **argv) {
  FigureFlags Flags = parseFigureFlags(argc, argv);
  std::unique_ptr<support::ThreadPool> Pool = makeCompilePool(Flags.Threads);
  std::printf("=== Figure 6: speedup of each Jump-Start-based "
              "optimization over Jump-Start-without-optimizations ===\n");
  auto W = fleet::generateWorkload(standardSite());
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 42);
  vm::ServerConfig Config = figureServerConfig();
  Config.Jit.ProfileRequestTarget = 400;
  Config.CompilePool = Pool.get();

  profile::ProfilePackage Pkg = growPackage(*W, Traffic, Config);

  // Baseline: Jump-Start, no section V optimizations.
  fleet::SteadyStateResult Base =
      measureVariant(*W, Traffic, Config, Pkg, false, false, false);

  // Bar 1: Jump-Start disabled entirely (server warms itself).
  std::unique_ptr<vm::Server> NoJs =
      fleet::runSeeder(*W, Traffic, Config, 0, 0, 1200, 31);
  fleet::SteadyStateParams P;
  P.Requests = 400;
  P.WarmupRequests = 120;
  P.Machine = scaledMachine();
  fleet::SteadyStateResult RNoJs =
      fleet::measureSteadyState(*W, Traffic, *NoJs, P);

  // Bars 2-4: one optimization at a time.
  fleet::SteadyStateResult RBb =
      measureVariant(*W, Traffic, Config, Pkg, true, false, false);
  fleet::SteadyStateResult RFn =
      measureVariant(*W, Traffic, Config, Pkg, false, true, false);
  fleet::SteadyStateResult RProp =
      measureVariant(*W, Traffic, Config, Pkg, false, false, true);

  auto Speedup = [&](const fleet::SteadyStateResult &R) {
    return 100.0 * (Base.CyclesPerRequest / R.CyclesPerRequest - 1.0);
  };

  std::printf("\n%-34s %10s %10s\n", "configuration", "this repro",
              "paper");
  std::printf("%-34s %+9.2f%% %+9.2f%%\n", "no Jump-Start",
              Speedup(RNoJs), -0.2);
  std::printf("%-34s %+9.2f%% %+9.2f%%\n",
              "BB layout (Vasm counters, V-A)", Speedup(RBb), 3.8);
  std::printf("%-34s %+9.2f%% %+9.2f%%\n",
              "function sorting (tier-2 CG, V-B)", Speedup(RFn), 0.75);
  std::printf("%-34s %+9.2f%% %+9.2f%%\n",
              "property reordering (V-C)", Speedup(RProp), 0.8);

  std::printf("\nbaseline cycles/request: %.0f\n", Base.CyclesPerRequest);
  std::printf("paper shape check: every optimization positive with BB "
              "layout the largest; disabling Jump-Start slightly "
              "negative (within noise of baseline)\n");

  // Export: one gauge per counter per variant, plus each bar's speedup
  // over the baseline (tests/golden/fig6.metrics.jsonl byte-diffs this).
  obs::Observability Obs;
  auto Record = [&](const char *Variant, const fleet::SteadyStateResult &R,
                    bool IsBar) {
    obs::LabelSet L{{"variant", Variant}};
    Obs.Metrics.gauge("fig6.cycles_per_request", L).set(R.CyclesPerRequest);
    Obs.Metrics.gauge("fig6.branch_miss_rate", L).set(R.BranchMissRate);
    Obs.Metrics.gauge("fig6.l1i_miss_rate", L).set(R.L1IMissRate);
    Obs.Metrics.gauge("fig6.itlb_miss_rate", L).set(R.ITlbMissRate);
    Obs.Metrics.gauge("fig6.l1d_miss_rate", L).set(R.L1DMissRate);
    Obs.Metrics.gauge("fig6.dtlb_miss_rate", L).set(R.DTlbMissRate);
    Obs.Metrics.gauge("fig6.llc_miss_rate", L).set(R.LlcMissRate);
    if (IsBar)
      Obs.Metrics.gauge("fig6.speedup_percent", L).set(Speedup(R));
  };
  Record("baseline", Base, /*IsBar=*/false);
  Record("nojumpstart", RNoJs, /*IsBar=*/true);
  Record("bb_layout", RBb, /*IsBar=*/true);
  Record("func_sort", RFn, /*IsBar=*/true);
  Record("prop_reorder", RProp, /*IsBar=*/true);
  return exportIfRequested(Obs, Flags.ExportPrefix);
}
