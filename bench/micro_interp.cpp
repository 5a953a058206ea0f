//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interpreter throughput benchmark.
///
/// Drives the interpreter over a fixed request mix (dispatch-heavy loops,
/// calls, string constants, dict lookups, property/method sites) and
/// reports requests/sec, interpreted instructions/sec, host allocations
/// per request and inline-cache hits, plus the whole-program-analysis
/// ablation on the same mix.  The checked-in BENCH_interp.json is a
/// snapshot of this harness's `--json --stats` output.  Its `stats`
/// block does not depend on `--quick`, so the tier-1 test
/// `micro_interp --quick --stats --check-against BENCH_interp.json`
/// fails unless this run renders that block byte for byte.
///
/// Wall-clock numbers vary with the host; every counter in `--counters`
/// output (steps, faults, allocations, inline-cache hits) is
/// deterministic and byte-compared across runs by the CI perf smoke.
///
//===----------------------------------------------------------------------===//

#include "StatsRunner.h"
#include "analysis/WholeProgram.h"
#include "core/Consumer.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "jit/Jit.h"
#include "runtime/ValueOps.h"
#include "support/StringUtil.h"
#include "vm/Server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace jumpstart;

namespace {

/// The benchmark program: each endpoint stresses one part of the
/// interpreter, and the request mix cycles through all of them.  Weighted
/// toward frame setup (deep call chains), string constants, dict probes
/// and property/method dispatch, while endpoint0 keeps pure dispatch
/// arithmetic in the mix.
const char *kSource =
    // Pure dispatch: tight arithmetic loop, no allocation.
    "function endpoint0($n) {"
    "  $acc = 0; $i = 0;"
    "  while ($i < 400) {"
    "    $acc = ($acc * 3 + $i + $n) % 65537;"
    "    $i = $i + 1;"
    "  }"
    "  return $acc;"
    "}"
    // Call-heavy: every iteration pays two frames.
    "function leafA($x) { return $x * 2 + 1; }"
    "function leafB($x) { return leafA($x) + leafA($x + 1); }"
    "function endpoint1($n) {"
    "  $t = 0; $i = 0;"
    "  while ($i < 120) { $t = $t + leafB($i + $n % 7); $i = $i + 1; }"
    "  return $t;"
    "}"
    // String constants: interned, so no VmString per execution.
    "function endpoint2($n) {"
    "  $t = 0; $i = 0;"
    "  while ($i < 100) {"
    "    $t = $t + strlen(\"alpha\") + strlen(\"beta-longer-constant\")"
    "       + strlen(\"gamma-const\") + strlen(\"delta-string-constant-x\");"
    "    $i = $i + 1;"
    "  }"
    "  return $t + $n % 3;"
    "}"
    // Dict workload: build once, then probe far past the index threshold.
    "function endpoint3($n) {"
    "  $d = dict[]; $i = 0;"
    "  while ($i < 24) { $d[$i * 7 % 31] = $i; $i = $i + 1; }"
    "  $t = 0; $j = 0;"
    "  while ($j < 80) { $t = $t + $d[$j * 7 % 31 % 31]; $j = $j + 1; }"
    "  return $t + $n % 5;"
    "}"
    // Property/method sites: the inline-cache workload.  The class has a
    // realistic handful of properties and methods so uncached lookups
    // pay a real scan; the hot sites touch the last-declared ones.
    "class Counter {"
    "  prop $a; prop $b; prop $c; prop $d; prop $e; prop $f; prop $g;"
    "  prop $v;"
    "  method m0() { return 0; } method m1() { return 1; }"
    "  method m2() { return 2; } method m3() { return 3; }"
    "  method bump($d) { $this->v = $this->v + $d; return $this->v; }"
    "  method scale($k) { return $this->v * $k + $this->a; }"
    "}"
    "function endpoint4($n) {"
    "  $c = new Counter(); $c->v = 0; $c->a = 3; $i = 0; $t = 0;"
    "  while ($i < 90) {"
    "    $t = $t + $c->bump($i % 5) + $c->scale(2);"
    "    $i = $i + 1;"
    "  }"
    "  return $t + $n % 2;"
    "}";

constexpr uint32_t kNumEndpoints = 5;

/// Request cycle, weighted toward the call/string/property endpoints
/// (the paper's workload is dominated by calls and member access, not
/// straight-line arithmetic); the arithmetic and dict endpoints stay in
/// the mix as the honest tail.
constexpr uint32_t kMix[] = {0, 1, 2, 4, 3, 1, 2, 4};
constexpr uint32_t kMixLen = sizeof(kMix) / sizeof(kMix[0]);

struct EngineResult {
  uint64_t Requests = 0;
  double Seconds = 0;
  uint64_t Steps = 0;
  uint64_t Allocs = 0;
  uint64_t Faults = 0;
  uint64_t ICHits = 0;
  uint64_t ICMisses = 0;

  double requestsPerSec() const { return Requests / Seconds; }
  double instrsPerSec() const { return Steps / Seconds; }
  double allocsPerRequest() const {
    return static_cast<double>(Allocs) / Requests;
  }
  double stepsPerRequest() const {
    return static_cast<double>(Steps) / Requests;
  }
};

/// When >= 0, every request hits that one endpoint (per-endpoint
/// breakdown mode, `--endpoint N`).
int OnlyEndpoint = -1;

/// One interpreter instance plus the endpoint ids it serves.
struct EngineState {
  runtime::ClassTable Classes;
  runtime::Heap Heap;
  interp::Interpreter Interp;
  std::vector<bc::FuncId> Endpoints;

  explicit EngineState(const bc::Repo &Repo)
      : Classes(Repo),
        Interp(Repo, Classes, Heap, runtime::BuiltinTable::standard()) {
    for (uint32_t E = 0; E < kNumEndpoints; ++E) {
      bc::FuncId F = Repo.findFunction(strFormat("endpoint%u", E));
      if (!F.valid()) {
        std::fprintf(stderr, "missing endpoint%u\n", E);
        std::exit(1);
      }
      Endpoints.push_back(F);
    }
  }

  interp::InterpResult serve(uint32_t Rq) {
    Args[0] = runtime::Value::integer(static_cast<int64_t>(Rq * 37 % 1000));
    bc::FuncId Target = OnlyEndpoint >= 0
                            ? Endpoints[static_cast<uint32_t>(OnlyEndpoint)]
                            : Endpoints[kMix[Rq % kMixLen]];
    interp::InterpResult R = Interp.call(Target, Args);
    Heap.reset();
    return R;
  }

  // Reused across requests: argument marshalling is harness cost, not
  // interpreter cost, and must not dilute the measurement.
  std::vector<runtime::Value> Args{runtime::Value::null()};
};

/// One timed pass of \p Requests requests.  The first pass also
/// accumulates the deterministic counters (identical every pass, so once
/// is enough).
double timedPass(EngineState &S, uint32_t Requests, EngineResult *Counters) {
  uint64_t AllocsBefore = S.Heap.hostAllocs();
  auto T0 = std::chrono::steady_clock::now();
  if (Counters) {
    for (uint32_t Rq = 0; Rq < Requests; ++Rq) {
      interp::InterpResult Res = S.serve(Rq);
      Counters->Steps += Res.Steps;
      Counters->Faults += Res.Faults;
    }
  } else {
    for (uint32_t Rq = 0; Rq < Requests; ++Rq)
      S.serve(Rq);
  }
  auto T1 = std::chrono::steady_clock::now();
  if (Counters)
    Counters->Allocs = S.Heap.hostAllocs() - AllocsBefore;
  double Sec = std::chrono::duration<double>(T1 - T0).count();
  return Sec > 0 ? Sec : 1e-9;
}

/// Benchmarks the interpreter over the request stream, keeping the best
/// of \p Reps timed windows so a load spike on a shared host is not
/// mistaken for the interpreter's speed.
EngineResult runEngine(const bc::Repo &Repo, uint32_t Requests,
                       uint32_t Reps) {
  EngineState S(Repo);

  // One warmup pass over all endpoints pays the one-time costs (string
  // interning, per-function metadata, arena growth) outside the window.
  for (uint32_t Rq = 0; Rq < kNumEndpoints; ++Rq)
    S.serve(Rq);

  EngineResult R;
  R.Requests = Requests;
  R.Seconds = 1e300;
  for (uint32_t Rep = 0; Rep < Reps; ++Rep)
    R.Seconds =
        std::min(R.Seconds, timedPass(S, Requests, Rep == 0 ? &R : nullptr));
  R.ICHits = S.Interp.caches().ICHits;
  R.ICMisses = S.Interp.caches().ICMisses;
  return R;
}

//===----------------------------------------------------------------------===//
// Proven-facts ablation: the whole-program analysis on the same workload.
//===----------------------------------------------------------------------===//

/// What the interprocedural analysis buys on this workload: statically
/// seeded interpreter ICs (cold-start req/s delta, miss-count delta) and
/// guards elided by the JIT lowering.
struct ProvenResult {
  uint32_t ICsSeeded = 0;
  uint64_t GuardsElided = 0;
  uint64_t Requests = 0;
  double OffSeconds = 0;
  double OnSeconds = 0;
  uint64_t MissesOff = 0;
  uint64_t MissesOn = 0;

  double offRequestsPerSec() const { return Requests / OffSeconds; }
  double onRequestsPerSec() const { return Requests / OnSeconds; }
};

/// Pre-populates \p S's inline caches from the analysis's proven
/// monomorphic sites -- the same seeding vm::Server::seedInlineCaches
/// performs at startup, applied to a bare interpreter.
uint32_t seedProvenICs(EngineState &S, const bc::Repo &Repo,
                       const jit::ProvenFacts &Facts) {
  uint32_t Seeded = 0;
  for (const jit::ProvenFacts::ICSeed &Seed : Facts.ICSeeds) {
    bc::FuncId F(Seed.Func);
    if (F.raw() >= Repo.numFuncs() || Seed.Pc >= Repo.func(F).Code.size() ||
        Seed.Cls >= Repo.numClasses())
      continue;
    const bc::Instr &In = Repo.func(F).Code[Seed.Pc];
    const runtime::ClassLayout &L = S.Classes.layout(bc::ClassId(Seed.Cls));
    uint64_t Payload;
    if (Seed.K == jit::ProvenFacts::ICSeed::Kind::Call) {
      bc::FuncId M = L.findMethod(In.strImm());
      if (!M.valid())
        continue;
      Payload = M.raw();
    } else {
      int64_t Slot = L.findSlot(In.strImm());
      if (Slot < 0)
        continue;
      Payload = static_cast<uint64_t>(Slot);
    }
    if (S.Interp.seedIC(F, Seed.Pc, &L, Payload))
      ++Seeded;
  }
  return Seeded;
}

/// Matures the full JIT over the benchmark mix with proven-guard elision
/// on and reports how many guards the lowering actually dropped.
uint64_t countElidedGuards(const bc::Repo &Repo, uint32_t Requests) {
  vm::ServerConfig SC;
  SC.Cores = 4;
  SC.JitWorkerCores = 1;
  SC.WarmupEndpoints.clear();
  SC.Jit.ProfileRequestTarget = std::max<uint32_t>(2, Requests / 3);
  SC.Jit.ProvenGuardElision = true;
  core::attachProvenFacts(SC, Repo);
  SC.Name = "bench";
  vm::Server S(Repo, SC, /*Seed=*/7);
  S.startup();
  std::vector<runtime::Value> Args{runtime::Value::null()};
  for (uint32_t Rq = 0; Rq < Requests; ++Rq) {
    Args[0] = runtime::Value::integer(static_cast<int64_t>(Rq * 37 % 1000));
    bc::FuncId F = Repo.findFunction(strFormat("endpoint%u", kMix[Rq % kMixLen]));
    S.executeRequest(F, Args);
    S.grantJitTime(16.0);
  }
  return S.theJit().transDb().guardsElided();
}

/// Cold-start ablation: a fresh interpreter instance per repetition (so
/// every inline cache starts empty), with and without analysis-seeded
/// ICs.  Cold starts are where static seeding can matter at all -- a
/// warmed engine converges to the same caches either way -- mirroring
/// the paper's warmup-vs-steady-state framing at interpreter scale.
ProvenResult runProvenAblation(const bc::Repo &Repo, uint32_t Requests,
                               uint32_t Reps) {
  ProvenResult P;
  P.Requests = Requests;
  analysis::WholeProgram WP(Repo);
  std::shared_ptr<const jit::ProvenFacts> Facts = WP.jitFacts();

  P.OffSeconds = P.OnSeconds = 1e300;
  for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
    EngineState Off(Repo);
    P.OffSeconds = std::min(P.OffSeconds, timedPass(Off, Requests, nullptr));
    if (Rep == 0)
      P.MissesOff = Off.Interp.caches().ICMisses;

    EngineState On(Repo);
    P.ICsSeeded = seedProvenICs(On, Repo, *Facts);
    P.OnSeconds = std::min(P.OnSeconds, timedPass(On, Requests, nullptr));
    if (Rep == 0)
      P.MissesOn = On.Interp.caches().ICMisses;
  }

  P.GuardsElided = countElidedGuards(Repo, std::min<uint32_t>(Requests, 64));
  return P;
}

//===----------------------------------------------------------------------===//
// Statistical mode (--stats seeds=N,iters=M): multi-seed warmup curves.
//===----------------------------------------------------------------------===//

/// Runs the interpreter N times from cold with distinct request streams
/// and records host allocations per request over fixed-size iteration
/// blocks.  The block size is independent of --quick so the quick CI run
/// and the full snapshot run produce the same series -- allocation counts
/// are a pure function of the request stream, so the resulting stats
/// block is byte-identical across hosts and runs.
stats::StatsSummary runStatsSweep(const bc::Repo &Repo,
                                  const bench::StatsCliOptions &O) {
  constexpr uint32_t kBlock = 60;
  std::vector<std::pair<uint64_t, std::vector<double>>> SeedSeries;
  for (uint32_t Seed = 0; Seed < O.Seeds; ++Seed) {
    // Fresh interpreter per seed: iteration 0 pays the one-time costs
    // (interning, metadata, arena growth) and later blocks are steady.
    EngineState Eng(Repo);
    std::vector<double> Series;
    Series.reserve(O.Iters);
    uint64_t Prev = Eng.Heap.hostAllocs();
    for (uint32_t It = 0; It < O.Iters; ++It) {
      for (uint32_t Rq = 0; Rq < kBlock; ++Rq)
        Eng.serve(Seed * 131 + It * kBlock + Rq);
      uint64_t Now = Eng.Heap.hostAllocs();
      Series.push_back(static_cast<double>(Now - Prev) /
                       static_cast<double>(kBlock));
      Prev = Now;
    }
    SeedSeries.emplace_back(Seed, std::move(Series));
  }
  return stats::analyzeRuns(SeedSeries);
}

/// The snapshot's one deterministic block.
std::string statsBlock(const bench::StatsCliOptions &StatsOpts,
                       const stats::StatsSummary &Stats) {
  return bench::statsBlockJson("allocs_per_request", StatsOpts, Stats);
}

std::string renderJson(const EngineResult &Fast, const ProvenResult &Proven,
                       const bench::StatsCliOptions &StatsOpts,
                       const stats::StatsSummary *Stats) {
  std::string Out = "{\n";
  Out += strFormat(
      "  \"fast\": {\"requests\": %llu, \"seconds\": %.6f, "
      "\"requests_per_sec\": %.1f, \"instrs_per_sec\": %.1f, "
      "\"steps_per_request\": %.2f, \"allocs_per_request\": %.4f, "
      "\"faults\": %llu, \"ic_hits\": %llu, \"ic_misses\": %llu},\n",
      static_cast<unsigned long long>(Fast.Requests), Fast.Seconds,
      Fast.requestsPerSec(), Fast.instrsPerSec(), Fast.stepsPerRequest(),
      Fast.allocsPerRequest(), static_cast<unsigned long long>(Fast.Faults),
      static_cast<unsigned long long>(Fast.ICHits),
      static_cast<unsigned long long>(Fast.ICMisses));
  // Whole-program analysis ablation on the same workload.
  Out += strFormat(
      "  \"proven\": {\"ics_seeded\": %u, \"guards_elided\": %llu, "
      "\"cold_requests_per_sec_off\": %.1f, "
      "\"cold_requests_per_sec_on\": %.1f, \"cold_speedup\": %.3f, "
      "\"ic_misses_off\": %llu, \"ic_misses_on\": %llu}%s\n",
      Proven.ICsSeeded, static_cast<unsigned long long>(Proven.GuardsElided),
      Proven.offRequestsPerSec(), Proven.onRequestsPerSec(),
      Proven.onRequestsPerSec() / Proven.offRequestsPerSec(),
      static_cast<unsigned long long>(Proven.MissesOff),
      static_cast<unsigned long long>(Proven.MissesOn), Stats ? "," : "");
  if (Stats)
    Out += statsBlock(StatsOpts, *Stats) + "\n";
  return Out + "}\n";
}

/// Deterministic counters only -- byte-identical across runs on any
/// host, which the CI perf smoke asserts by diffing two runs.
std::string renderCounters(const EngineResult &Fast,
                           const ProvenResult &Proven,
                           const stats::StatsSummary *Stats) {
  std::string Out =
      strFormat("fast steps=%llu faults=%llu allocs=%llu ic_hits=%llu "
                "ic_misses=%llu\n",
                static_cast<unsigned long long>(Fast.Steps),
                static_cast<unsigned long long>(Fast.Faults),
                static_cast<unsigned long long>(Fast.Allocs),
                static_cast<unsigned long long>(Fast.ICHits),
                static_cast<unsigned long long>(Fast.ICMisses));
  // Analysis-side counters are deterministic too: the facts are a pure
  // function of the bytecode and the JIT pipeline is single-threaded
  // here, so CI byte-compares these lines across runs like the rest.
  Out += strFormat("proven ics_seeded=%u guards_elided=%llu "
                   "ic_misses_off=%llu ic_misses_on=%llu\n",
                   Proven.ICsSeeded,
                   static_cast<unsigned long long>(Proven.GuardsElided),
                   static_cast<unsigned long long>(Proven.MissesOff),
                   static_cast<unsigned long long>(Proven.MissesOn));
  if (Stats)
    Out += bench::statsCountersLine("allocs_per_request", *Stats);
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  uint32_t Requests = 20000;
  uint32_t Reps = 5;
  std::string JsonPath;
  std::string CountersPath;
  std::string SnapshotPath;
  bench::StatsCliOptions StatsOpts;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0) {
      Requests = 2000;
      Reps = 3;
    } else if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc) {
      JsonPath = argv[++I];
    } else if (std::strcmp(argv[I], "--counters") == 0 && I + 1 < argc) {
      CountersPath = argv[++I];
    } else if (std::strcmp(argv[I], "--check-against") == 0 && I + 1 < argc) {
      SnapshotPath = argv[++I];
    } else if (std::strcmp(argv[I], "--endpoint") == 0 && I + 1 < argc) {
      OnlyEndpoint = std::atoi(argv[++I]);
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
                   "[--endpoint N] [--stats [seeds=N,iters=M]] "
                   "[--check-against SNAPSHOT]\n",
                   argv[0]);
      return 2;
    }
  }

  bc::Repo Repo;
  std::vector<std::string> Errors = frontend::compileUnit(
      Repo, runtime::BuiltinTable::standard(), "bench.hack", kSource);
  if (!Errors.empty()) {
    std::fprintf(stderr, "compile failed: %s\n", Errors.front().c_str());
    return 1;
  }

  EngineResult Fast = runEngine(Repo, Requests, Reps);
  ProvenResult Proven = runProvenAblation(Repo, Requests, Reps);
  stats::StatsSummary Stats;
  if (StatsOpts.Enabled)
    Stats = runStatsSweep(Repo, StatsOpts);

  std::printf("fast    %8.0f req/s  %12.0f instr/s  %7.2f allocs/req  "
              "%6.1f steps/req\n",
              Fast.requestsPerSec(), Fast.instrsPerSec(),
              Fast.allocsPerRequest(), Fast.stepsPerRequest());
  std::printf("proven  %u ICs seeded, %llu guards elided, cold IC misses "
              "%llu -> %llu, cold speedup %.3fx\n",
              Proven.ICsSeeded,
              static_cast<unsigned long long>(Proven.GuardsElided),
              static_cast<unsigned long long>(Proven.MissesOff),
              static_cast<unsigned long long>(Proven.MissesOn),
              Proven.onRequestsPerSec() / Proven.offRequestsPerSec());
  if (StatsOpts.Enabled)
    std::printf("stats   allocs/req over %u seeds x %u iters: worst=%s "
                "ci=[%.4f, %.4f]\n",
                StatsOpts.Seeds, StatsOpts.Iters,
                stats::warmupClassName(Stats.WorstClass), Stats.SteadyCI.Lo,
                Stats.SteadyCI.Hi);

  const stats::StatsSummary *MaybeStats = StatsOpts.Enabled ? &Stats : nullptr;
  if (!JsonPath.empty())
    bench::writeFile(JsonPath, renderJson(Fast, Proven, StatsOpts, MaybeStats));
  if (!CountersPath.empty())
    bench::writeFile(CountersPath, renderCounters(Fast, Proven, MaybeStats));
  if (SnapshotPath.empty())
    return 0;
  std::vector<bench::SnapshotBlock> Blocks;
  if (MaybeStats)
    Blocks.push_back({"stats", statsBlock(StatsOpts, Stats)});
  return bench::checkSnapshot(SnapshotPath, Blocks, "bench/run_bench.sh");
}
