//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrent-serving load harness: N closed-loop client threads drive
/// vm::Server::serve() while a background thread drains the
/// retranslate-all pipeline through runBackgroundJitWork(), publishing a
/// fresh translation snapshot after each grant.  Per-request host
/// latencies are split at the warmup boundary -- the ticket index at
/// which the compiler thread ran out of work, i.e. the last snapshot
/// publication -- and p50/p95/p99 are reported separately for the warmup
/// and steady phases (warmup exclusion per Barrett et al., "Virtual
/// Machine Warmup Blows Hot and Cold").
///
/// Wall-clock numbers vary with the host; everything in `--counters`
/// output (served/shed counts, the per-index observables digest, the
/// translation placement digest, snapshots published) is deterministic
/// by the serving engine's contract -- byte-identical across runs AND
/// across client thread counts.  The checked-in BENCH_server.json is this
/// harness's `--quick --stats --json` output.  Two tier-1 tests re-run
/// `--quick --stats --check-against BENCH_server.json` at `--threads 1`
/// and `--threads 4`, and each fails unless its `deterministic` line and
/// `stats` block appear in the snapshot byte for byte.
///
//===----------------------------------------------------------------------===//

#include "StatsRunner.h"
#include "fleet/WorkloadGen.h"
#include "support/Hashing.h"
#include "support/StringUtil.h"
#include "vm/Server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace jumpstart;

namespace {

/// The deterministic request schedule: round-robin endpoints, hashed
/// argument stream (same recurrence as the DiffRunner's).
std::vector<runtime::Value> argsFor(uint32_t Rq) {
  return {runtime::Value::integer(
      static_cast<int64_t>((Rq * 2654435761ull) & 0xFFFFFull))};
}

struct LoadResult {
  uint32_t Threads = 0;
  uint64_t Requests = 0;
  double Seconds = 0;
  /// Ticket index at which the background compiler finished (the last
  /// snapshot publication); requests before it are warmup samples.
  uint64_t WarmupBoundary = 0;
  std::vector<double> WarmupNs;
  std::vector<double> SteadyNs;
  // Deterministic by the serving engine's contract.
  vm::ServeStats Stats;
  uint64_t ObsDigest = 0;
  uint64_t PlacementDigest = 0;
  uint64_t JitTranslations = 0;

  double requestsPerSec() const { return Requests / Seconds; }
};

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t I = static_cast<size_t>(P * (Sorted.size() - 1) + 0.5);
  return Sorted[std::min(I, Sorted.size() - 1)];
}

/// Serial profiling prefix with per-request JIT grants, withholding the
/// grant after the final request so the retranslate-all it triggers is
/// still fully queued when the concurrent window opens.
void profilePrefix(vm::Server &S, const fleet::Workload &W, uint32_t N) {
  for (uint32_t Rq = 0; Rq < N; ++Rq) {
    S.executeRequest(W.Endpoints[Rq % W.Endpoints.size()], argsFor(Rq));
    if (Rq + 1 < N)
      S.grantJitTime(0.25);
  }
}

LoadResult runLoad(const fleet::Workload &W, uint32_t ProfileTarget,
                   uint32_t Requests, uint32_t Threads) {
  vm::ServerConfig C;
  C.Cores = 16;
  C.JitWorkerCores = 2;
  C.ServeWorkers = Threads;
  C.Name = strFormat("load-t%u", Threads);
  C.Jit.ProfileRequestTarget = ProfileTarget;
  // Stretch optimized-compile costs so the background retranslate-all
  // spans a few dozen grant quanta (=> several mid-window publications).
  C.Jit.OptCompileCostPerBytecode = 2500;

  vm::Server S(W.Repo, C, /*Seed=*/7);
  S.startup();
  profilePrefix(S, W, ProfileTarget);

  LoadResult R;
  R.Threads = Threads;
  R.Requests = Requests;

  S.beginConcurrentServing();
  std::atomic<uint32_t> Next{0};
  std::atomic<uint64_t> Boundary{0};
  // Two-sided pacing couples the drain to client progress so the
  // retranslate-all genuinely overlaps live serving on any host: the
  // grants themselves are simulation arithmetic that would otherwise
  // finish in microseconds, while host-time pacing starves behind the
  // clients on single-core machines.  The compiler performs grant i
  // once ticket i*Step has been issued and then allows Step more
  // tickets; clients gate on the allowance OUTSIDE the timed region.
  // Pacing never reaches the deterministic counters: the number of
  // grants, and so of publications, is fixed by the virtual budget.
  const uint32_t Step = std::max<uint32_t>(1, Requests / 128);
  std::atomic<uint32_t> Allowed{Step};
  std::thread Compiler([&] {
    uint32_t Threshold = 0;
    while (S.theJit().hasPendingWork()) {
      while (Next.load(std::memory_order_relaxed) < Threshold &&
             Next.load(std::memory_order_relaxed) < Requests)
        std::this_thread::yield();
      S.runBackgroundJitWork(0.25);
      Threshold += Step;
      Allowed.fetch_add(Step, std::memory_order_relaxed);
    }
    Boundary.store(Next.load(std::memory_order_relaxed),
                   std::memory_order_release);
    Allowed.store(~uint32_t{0}, std::memory_order_release);
  });

  std::vector<double> LatencyNs(Requests);
  std::vector<vm::RequestObservables> Obs(Requests);
  auto Client = [&] {
    for (;;) {
      uint32_t Rq = Next.fetch_add(1, std::memory_order_relaxed);
      if (Rq >= Requests)
        break;
      while (Rq >= Allowed.load(std::memory_order_acquire))
        std::this_thread::yield();
      auto T0 = std::chrono::steady_clock::now();
      vm::RequestResult Res =
          S.serve(W.Endpoints[Rq % W.Endpoints.size()], argsFor(Rq), Rq);
      auto T1 = std::chrono::steady_clock::now();
      LatencyNs[Rq] =
          std::chrono::duration<double, std::nano>(T1 - T0).count();
      Obs[Rq] = std::move(Res.Obs);
    }
  };

  auto W0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Clients;
  for (uint32_t I = 1; I < Threads; ++I)
    Clients.emplace_back(Client);
  Client();
  for (std::thread &T : Clients)
    T.join();
  Compiler.join();
  auto W1 = std::chrono::steady_clock::now();
  R.Seconds = std::chrono::duration<double>(W1 - W0).count();
  R.Stats = S.endConcurrentServing();

  // Fold per-index observables in schedule order: identical for any
  // thread count or interleaving, by the engine's determinism contract.
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const vm::RequestObservables &O : Obs) {
    H = fnv1a(O.Ret.data(), O.Ret.size(), H);
    H = fnv1a(O.Output.data(), O.Output.size(), H);
    H = hashCombine(H, O.Faults);
    H = hashCombine(H, O.Ok ? 1 : 0);
  }
  R.ObsDigest = H;
  R.PlacementDigest = hashString(S.theJit().transDb().placementDigest());
  R.JitTranslations = S.theJit().transDb().size();

  R.WarmupBoundary = std::min<uint64_t>(Boundary.load(), Requests);
  R.WarmupNs.assign(LatencyNs.begin(),
                    LatencyNs.begin() + static_cast<size_t>(R.WarmupBoundary));
  R.SteadyNs.assign(LatencyNs.begin() + static_cast<size_t>(R.WarmupBoundary),
                    LatencyNs.end());
  std::sort(R.WarmupNs.begin(), R.WarmupNs.end());
  std::sort(R.SteadyNs.begin(), R.SteadyNs.end());
  return R;
}

//===----------------------------------------------------------------------===//
// Statistical mode (--stats seeds=N,iters=M): multi-seed warmup curves.
//===----------------------------------------------------------------------===//

/// Runs N fresh servers serially and records mean *virtual* seconds per
/// request over fixed-size iteration blocks, granting the JIT a quantum
/// after every request so translations mature mid-series.  The early
/// blocks run interpreted and the later ones JITed: a genuine warmup
/// curve, measured on the virtual clock so the series -- and the stats
/// block derived from it -- is byte-identical on any host.  Block size
/// and profile target are fixed independently of --quick so the quick CI
/// run reproduces the committed snapshot's stats block exactly.
stats::StatsSummary runStatsSweep(const fleet::Workload &W,
                                  const bench::StatsCliOptions &O) {
  constexpr uint32_t kBlock = 40;
  constexpr uint32_t kProfileTarget = 120;
  std::vector<std::pair<uint64_t, std::vector<double>>> SeedSeries;
  for (uint32_t Seed = 0; Seed < O.Seeds; ++Seed) {
    vm::ServerConfig C;
    C.Cores = 16;
    C.JitWorkerCores = 2;
    C.Name = strFormat("stats-s%u", Seed);
    C.Jit.ProfileRequestTarget = kProfileTarget;
    vm::Server S(W.Repo, C, /*Seed=*/7 + Seed);
    S.startup();
    std::vector<double> Series;
    Series.reserve(O.Iters);
    const uint32_t Rq0 = Seed * 9176;
    for (uint32_t It = 0; It < O.Iters; ++It) {
      double Sum = 0;
      for (uint32_t B = 0; B < kBlock; ++B) {
        uint32_t Rq = Rq0 + It * kBlock + B;
        vm::RequestResult Res =
            S.executeRequest(W.Endpoints[Rq % W.Endpoints.size()], argsFor(Rq));
        Sum += Res.Seconds;
        S.grantJitTime(0.25);
      }
      Series.push_back(Sum / kBlock);
    }
    SeedSeries.emplace_back(Seed, std::move(Series));
  }
  return stats::analyzeRuns(SeedSeries);
}

void printPhase(const char *Name, const std::vector<double> &Sorted) {
  std::printf("  %-7s samples=%-7zu p50=%9.0fns  p95=%9.0fns  p99=%9.0fns\n",
              Name, Sorted.size(), percentile(Sorted, 0.50),
              percentile(Sorted, 0.95), percentile(Sorted, 0.99));
}

std::string phaseJson(const char *Name, const std::vector<double> &Sorted,
                      const char *Trail) {
  return strFormat("    \"%s\": {\"samples\": %zu, \"p50_ns\": %.0f, "
                   "\"p95_ns\": %.0f, \"p99_ns\": %.0f}%s\n",
                   Name, Sorted.size(), percentile(Sorted, 0.50),
                   percentile(Sorted, 0.95), percentile(Sorted, 0.99), Trail);
}

/// The deterministic line: identical for any client thread count.
std::string deterministicLine(const LoadResult &R, bool HasStats) {
  return strFormat(
      "  \"deterministic\": {\"requests\": %llu, \"served\": %llu, "
      "\"shed\": %llu, \"faults\": %llu, \"snapshots_published\": %llu, "
      "\"snapshots_reclaimed\": %llu, \"translations\": %llu, "
      "\"obs_digest\": \"%016llx\", \"placement_digest\": \"%016llx\"}%s\n",
      static_cast<unsigned long long>(R.Requests),
      static_cast<unsigned long long>(R.Stats.Served),
      static_cast<unsigned long long>(R.Stats.Shed),
      static_cast<unsigned long long>(R.Stats.Faults),
      static_cast<unsigned long long>(R.Stats.SnapshotsPublished),
      static_cast<unsigned long long>(R.Stats.SnapshotsReclaimed),
      static_cast<unsigned long long>(R.JitTranslations),
      static_cast<unsigned long long>(R.ObsDigest),
      static_cast<unsigned long long>(R.PlacementDigest), HasStats ? "," : "");
}

std::string statsBlock(const bench::StatsCliOptions &StatsOpts,
                       const stats::StatsSummary &Stats) {
  return bench::statsBlockJson("virtual_seconds_per_request", StatsOpts,
                               Stats);
}

std::string renderJson(const LoadResult &R,
                       const bench::StatsCliOptions &StatsOpts,
                       const stats::StatsSummary *Stats) {
  std::string Out = "{\n";
  // Host-dependent: reported, never checked.
  Out += strFormat("  \"host\": {\n    \"threads\": %u, \"seconds\": %.6f, "
                   "\"requests_per_sec\": %.1f, \"warmup_boundary\": %llu,\n",
                   R.Threads, R.Seconds, R.requestsPerSec(),
                   static_cast<unsigned long long>(R.WarmupBoundary));
  Out += phaseJson("warmup", R.WarmupNs, ",");
  Out += phaseJson("steady", R.SteadyNs, "");
  Out += "  },\n";
  Out += deterministicLine(R, Stats != nullptr);
  if (Stats)
    Out += statsBlock(StatsOpts, *Stats) + "\n";
  return Out + "}\n";
}

std::string renderCounters(const LoadResult &R,
                           const stats::StatsSummary *Stats) {
  std::string Out = strFormat(
      "serve requests=%llu served=%llu shed=%llu faults=%llu "
      "snapshots=%llu reclaimed=%llu translations=%llu "
      "obs_digest=%016llx placement_digest=%016llx\n",
      static_cast<unsigned long long>(R.Requests),
      static_cast<unsigned long long>(R.Stats.Served),
      static_cast<unsigned long long>(R.Stats.Shed),
      static_cast<unsigned long long>(R.Stats.Faults),
      static_cast<unsigned long long>(R.Stats.SnapshotsPublished),
      static_cast<unsigned long long>(R.Stats.SnapshotsReclaimed),
      static_cast<unsigned long long>(R.JitTranslations),
      static_cast<unsigned long long>(R.ObsDigest),
      static_cast<unsigned long long>(R.PlacementDigest));
  if (Stats)
    Out += bench::statsCountersLine("virtual_seconds_per_request", *Stats);
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  uint32_t ProfileTarget = 300;
  uint32_t Requests = 12000;
  uint32_t Threads = 4;
  std::string JsonPath;
  std::string CountersPath;
  std::string SnapshotPath;
  bench::StatsCliOptions StatsOpts;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0) {
      ProfileTarget = 60;
      Requests = 2000;
    } else if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc) {
      JsonPath = argv[++I];
    } else if (std::strcmp(argv[I], "--counters") == 0 && I + 1 < argc) {
      CountersPath = argv[++I];
    } else if (std::strcmp(argv[I], "--check-against") == 0 && I + 1 < argc) {
      SnapshotPath = argv[++I];
    } else if (std::strcmp(argv[I], "--threads") == 0 && I + 1 < argc) {
      Threads = static_cast<uint32_t>(std::atoi(argv[++I]));
      if (Threads == 0) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        return 2;
      }
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
                   "usage: %s [--quick] [--json PATH] [--counters PATH] "
                   "[--threads N] [--stats [seeds=N,iters=M]] "
                   "[--check-against SNAPSHOT]\n",
                   argv[0]);
      return 2;
    }
  }

  fleet::WorkloadParams P;
  P.NumHelpers = 240;
  P.NumClasses = 48;
  P.NumEndpoints = 24;
  P.NumUnits = 24;
  std::unique_ptr<fleet::Workload> W = fleet::generateWorkload(P);

  LoadResult R = runLoad(*W, ProfileTarget, Requests, Threads);
  stats::StatsSummary Stats;
  if (StatsOpts.Enabled)
    Stats = runStatsSweep(*W, StatsOpts);

  std::printf("server_load: %u client threads, %llu requests, %.3fs "
              "(%.0f req/s), warmup boundary at ticket %llu\n",
              R.Threads, static_cast<unsigned long long>(R.Requests),
              R.Seconds, R.requestsPerSec(),
              static_cast<unsigned long long>(R.WarmupBoundary));
  printPhase("warmup", R.WarmupNs);
  printPhase("steady", R.SteadyNs);
  std::printf("  served=%llu shed=%llu snapshots=%llu/%llu reclaimed "
              "obs_digest=%016llx\n",
              static_cast<unsigned long long>(R.Stats.Served),
              static_cast<unsigned long long>(R.Stats.Shed),
              static_cast<unsigned long long>(R.Stats.SnapshotsReclaimed),
              static_cast<unsigned long long>(R.Stats.SnapshotsPublished),
              static_cast<unsigned long long>(R.ObsDigest));
  if (StatsOpts.Enabled)
    std::printf("  stats virtual-s/req over %u seeds x %u iters: worst=%s "
                "ci=[%.6f, %.6f] steady from iter %.1f\n",
                StatsOpts.Seeds, StatsOpts.Iters,
                stats::warmupClassName(Stats.WorstClass), Stats.SteadyCI.Lo,
                Stats.SteadyCI.Hi, Stats.SteadyStartMean);

  const stats::StatsSummary *MaybeStats = StatsOpts.Enabled ? &Stats : nullptr;
  if (!JsonPath.empty())
    bench::writeFile(JsonPath, renderJson(R, StatsOpts, MaybeStats));
  if (!CountersPath.empty())
    bench::writeFile(CountersPath, renderCounters(R, MaybeStats));
  if (SnapshotPath.empty())
    return 0;
  std::vector<bench::SnapshotBlock> Blocks{
      {"deterministic", deterministicLine(R, MaybeStats != nullptr)}};
  if (MaybeStats)
    Blocks.push_back({"stats", statsBlock(StatsOpts, Stats)});
  return bench::checkSnapshot(SnapshotPath, Blocks,
                              "bench/run_bench.sh --server");
}
