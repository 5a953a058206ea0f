//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "fleet/ServerSim.h"

#include "support/Assert.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>

using namespace jumpstart;
using namespace jumpstart::fleet;

namespace {
/// Virtual seconds per simulation tick.
constexpr double kTickSeconds = 1.0;
/// Real requests executed per tick to track service time and drive JIT
/// state.
constexpr uint32_t kSamplesPerTick = 2;
} // namespace

WarmupResult jumpstart::fleet::runWarmup(const Workload &W,
                                         const TrafficModel &Traffic,
                                         vm::ServerConfig Config,
                                         const ServerSimParams &P,
                                         const profile::ProfilePackage *Pkg) {
  WarmupResult Result;
  Rng R(P.Seed);

  // Observability: record into the caller's context, or a run-owned one
  // (per-run isolation keeps identical runs byte-identical).
  if (!P.Obs)
    Result.OwnedObs = std::make_unique<obs::Observability>();
  obs::Observability &O = P.Obs ? *P.Obs : *Result.OwnedObs;
  Result.Obs = &O;
  // Each run restarts the virtual clock; per-run track names keep traces
  // from different runs apart.
  O.Clock.set(0);
  obs::LabelSet ByRun{{"run", P.RunLabel}};
  TimeSeries &Rps = O.Metrics.series("fleet.rps", ByRun);
  TimeSeries &NormalizedRps = O.Metrics.series("fleet.normalized_rps", ByRun);
  TimeSeries &Latency = O.Metrics.series("fleet.latency_seconds", ByRun);
  TimeSeries &CodeBytes = O.Metrics.series("fleet.code_bytes", ByRun);
  alwaysAssert(Rps.empty(),
               "runWarmup: RunLabel already used in this registry");
  Result.RpsSeries = &Rps;
  Result.NormalizedRpsSeries = &NormalizedRps;
  Result.LatencySeries = &Latency;
  Result.CodeBytesSeries = &CodeBytes;

  // Default warmup requests: a sample of this bucket's mix, enough to
  // touch the important units (paper section VII-A).
  if (Config.WarmupEndpoints.empty()) {
    for (uint32_t I = 0; I < 16; ++I) {
      uint32_t E = Traffic.sampleEndpoint(P.Region, P.Bucket, R);
      Config.WarmupEndpoints.push_back(W.Endpoints[E].raw());
    }
  }

  Config.Obs = &O;
  Config.Name = P.RunLabel;
  auto Server = std::make_unique<vm::Server>(W.Repo, Config, R.next());
  if (Pkg) {
    support::Status Installed = Server->installPackage(*Pkg);
    alwaysAssert(Installed.ok(), "runWarmup: package rejected");
  }
  Result.Init = Server->startup();

  jit::Jit &J = Server->theJit();
  double Now = Result.Init.TotalSeconds;
  Result.Phases.ServeStart = Now;
  Rps.record(0, 0);
  NormalizedRps.record(0, 0);
  CodeBytes.record(0, 0);

  jit::JitPhase LastPhase = J.phase();
  if (LastPhase != jit::JitPhase::Profiling) {
    // Consumer boots already past profiling.
    Result.Phases.ProfilingEnd = Now;
    Result.Phases.RelocationStart = Now;
    Result.Phases.RelocationEnd = Now;
  }
  uint64_t LastCodeBytes = J.totalCodeBytes();
  double LastCodeGrowth = Now;

  double CoreSecondsPerTick =
      static_cast<double>(Config.Cores) * kTickSeconds;

  while (Now < P.DurationSeconds) {
    // Sampled real requests: measure current service time and advance
    // JIT profiling state.
    double SampleCost = 0;
    for (uint32_t S = 0; S < kSamplesPerTick; ++S) {
      uint32_t E = Traffic.sampleEndpoint(P.Region, P.Bucket, R);
      SampleCost += Server->executeRequest(W.Endpoints[E],
                                           TrafficModel::makeArgs(R))
                        .Seconds;
    }
    double ServiceSec = SampleCost / kSamplesPerTick;

    // Background JIT work.
    double JitWall = Server->grantJitTime(kTickSeconds);
    double JitCoreSeconds =
        JitWall * static_cast<double>(Config.JitWorkerCores);

    // Fluid serving: remaining core capacity handles the offered load.
    double ServeCapacity =
        std::max(0.0, CoreSecondsPerTick - JitCoreSeconds);
    double Offered = P.OfferedRps * kTickSeconds;
    double Served = std::min(Offered, ServeCapacity / ServiceSec);

    // The analytically-served requests advance the profiling window too.
    uint64_t Extra = static_cast<uint64_t>(Served);
    Extra -= std::min<uint64_t>(Extra, kSamplesPerTick);
    for (uint64_t I = 0; I < Extra; ++I)
      J.onRequestFinished();

    Now += kTickSeconds;
    // Realign the shared clock with tick time (the sampled requests and
    // JIT grants above advanced it by their CPU costs).
    O.Clock.set(Now);
    Rps.record(Now, Served / kTickSeconds);
    NormalizedRps.record(Now, Served / Offered);
    // The paper's Figure 4a measures *wall* time per request, which
    // includes queueing on saturated warming servers.  Sakasegawa's M/M/c
    // waiting-time approximation: queueing is negligible at moderate
    // utilization and explodes only near saturation, as on a real
    // multi-core server.
    double MaxRate = ServeCapacity / ServiceSec;
    double Rho = std::min(0.99, MaxRate > 0 ? Served / MaxRate : 0.99);
    double C = std::max(1.0, static_cast<double>(Config.Cores) -
                                 Config.JitWorkerCores);
    double Wait =
        std::pow(Rho, std::sqrt(2.0 * (C + 1.0))) / (C * (1.0 - Rho));
    Latency.record(Now, ServiceSec * (1.0 + Wait));
    uint64_t Code = J.totalCodeBytes();
    CodeBytes.record(Now, static_cast<double>(Code));
    if (Code > LastCodeBytes) {
      LastCodeBytes = Code;
      LastCodeGrowth = Now;
    }

    // Phase transitions (Figure 1's labelled points).
    jit::JitPhase Phase = J.phase();
    if (Phase != LastPhase) {
      if (LastPhase == jit::JitPhase::Profiling)
        Result.Phases.ProfilingEnd = Now;
      if (Phase == jit::JitPhase::Relocating)
        Result.Phases.RelocationStart = Now;
      if (Phase == jit::JitPhase::Mature)
        Result.Phases.RelocationEnd = Now;
      LastPhase = Phase;
    }
  }
  Result.Phases.JitingStopped = LastCodeGrowth;

  // Capacity loss: area above the normalized curve over the full window
  // (server restart at t=0; it serves nothing until init finishes).
  Result.CapacityLossFraction =
      NormalizedRps.areaAbove(1.0, 0, P.DurationSeconds) /
      P.DurationSeconds;
  O.Metrics.gauge("fleet.capacity_loss_fraction", ByRun)
      .set(Result.CapacityLossFraction);

  Result.Server = std::move(Server);
  return Result;
}

std::vector<WarmupResult> jumpstart::fleet::runWarmupSweep(
    const Workload &W, const TrafficModel &Traffic,
    const vm::ServerConfig &Config, const std::vector<WarmupSweepRun> &Runs,
    support::ThreadPool *Pool, obs::MetricsRegistry *Merged) {
  for (const WarmupSweepRun &Run : Runs)
    alwaysAssert(Run.Params.Obs == nullptr,
                 "sweep runs record into run-owned registries "
                 "(shard-then-merge); do not pass Params.Obs");
  std::vector<WarmupResult> Results(Runs.size());
  auto RunOne = [&](size_t I) {
    Results[I] =
        runWarmup(W, Traffic, Config, Runs[I].Params, Runs[I].Package);
  };
  if (Pool)
    Pool->parallelFor(Runs.size(), RunOne);
  else
    for (size_t I = 0; I < Runs.size(); ++I)
      RunOne(I);
  // Deterministic merge: run-index order, regardless of which worker
  // finished first.
  if (Merged)
    for (const WarmupResult &Result : Results)
      Merged->mergeFrom(Result.Obs->Metrics);
  return Results;
}

std::unique_ptr<vm::Server> jumpstart::fleet::runSeeder(
    const Workload &W, const TrafficModel &Traffic, vm::ServerConfig Config,
    uint32_t Region, uint32_t Bucket, uint32_t Requests, uint64_t Seed) {
  Rng R(Seed);
  if (Config.WarmupEndpoints.empty()) {
    for (uint32_t I = 0; I < 8 && I < W.Endpoints.size(); ++I) {
      uint32_t E = Traffic.sampleEndpoint(Region, Bucket, R);
      Config.WarmupEndpoints.push_back(W.Endpoints[E].raw());
    }
  }
  auto Server = std::make_unique<vm::Server>(W.Repo, Config, R.next());
  Server->startup();
  for (uint32_t I = 0; I < Requests; ++I) {
    uint32_t E = Traffic.sampleEndpoint(Region, Bucket, R);
    Server->executeRequest(W.Endpoints[E], TrafficModel::makeArgs(R));
    // Give the JIT generous background time: seeders run for a long
    // window (C2 lasts ~30 minutes); we only need its end state.
    Server->grantJitTime(0.25);
  }
  // Drain any outstanding compile work.
  while (Server->theJit().hasPendingWork())
    Server->grantJitTime(1.0);
  return Server;
}
