//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The warmup simulator for one web server: a fluid queueing model over a
/// real VM.
///
/// Each virtual tick, the simulator executes a few *sampled* requests for
/// real against the vm::Server (advancing JIT state and measuring the
/// current per-request service time), grants the JIT its background
/// worker time, then serves the remaining offered load analytically:
/// served = min(offered, remaining core capacity / service time).  This
/// yields the paper's performance-over-uptime curves (Figures 1, 2, 4)
/// without executing hundreds of thousands of requests.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_FLEET_SERVERSIM_H
#define JUMPSTART_FLEET_SERVERSIM_H

#include "fleet/Traffic.h"
#include "fleet/WorkloadGen.h"
#include "obs/Observability.h"
#include "support/Stats.h"
#include "vm/Server.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace jumpstart::support {
class ThreadPool;
}

namespace jumpstart::fleet {

/// Simulation knobs for one server's warmup run.  The tick model is
/// fixed in ServerSim.cpp.
struct ServerSimParams {
  double DurationSeconds = 600;
  /// Offered load, as requests per second.
  double OfferedRps = 400;
  uint32_t Region = 0;
  uint32_t Bucket = 0;
  uint64_t Seed = 7;
  /// Observability sink shared with the harness (figure binaries pass one
  /// so several runs land in a single registry/trace).  Null makes the
  /// run create its own context, owned by the returned WarmupResult.
  obs::Observability *Obs = nullptr;
  /// Distinguishes runs sharing one Observability: it names the server's
  /// tracer tracks and labels the run's metric series ({run=RunLabel}).
  /// Two runs recording into one registry must use different labels.
  std::string RunLabel = "run";
};

/// Timestamps (in virtual seconds) of the JIT lifecycle transitions --
/// the labelled points of the paper's Figure 1.
struct PhaseTimes {
  double ServeStart = 0;       ///< server began accepting requests
  double ProfilingEnd = -1;    ///< point A
  double RelocationStart = -1; ///< point B
  double RelocationEnd = -1;   ///< point C
  double JitingStopped = -1;   ///< point D (code growth ceased)
};

/// Result of one warmup run.  The per-tick curves live in the run's
/// metrics registry (names "fleet.rps", "fleet.normalized_rps",
/// "fleet.latency_seconds", "fleet.code_bytes", labelled {run=RunLabel});
/// the accessors below read them back.
struct WarmupResult {
  PhaseTimes Phases;
  vm::InitStats Init;
  /// Capacity loss over [0, DurationSeconds]: area above the normalized
  /// RPS curve, as a fraction of the ideal (paper Figure 2 / section
  /// VII-A).
  double CapacityLossFraction = 0;
  /// The warmed server, for follow-on measurement (steady state).
  std::unique_ptr<vm::Server> Server;

  /// The observability context the run recorded into: the caller's
  /// (ServerSimParams::Obs) or the run-owned fallback below.
  obs::Observability *Obs = nullptr;
  /// Owns the context when the caller passed none (per-run isolation).
  std::unique_ptr<obs::Observability> OwnedObs;

  /// Served requests/second over uptime.
  const TimeSeries &rps() const { return *RpsSeries; }
  /// Served / offered over uptime.
  const TimeSeries &normalizedRps() const { return *NormalizedRpsSeries; }
  /// Mean wall time per request over uptime (Figure 4a).
  const TimeSeries &latencySeconds() const { return *LatencySeries; }
  /// Total JITed code bytes over uptime (Figure 1).
  const TimeSeries &codeBytes() const { return *CodeBytesSeries; }

  // Registry-backed storage, set by runWarmup.
  const TimeSeries *RpsSeries = nullptr;
  const TimeSeries *NormalizedRpsSeries = nullptr;
  const TimeSeries *LatencySeries = nullptr;
  const TimeSeries *CodeBytesSeries = nullptr;
};

/// Runs one server's restart-and-warmup.  If \p Package is set the
/// server boots as a Jump-Start consumer.
WarmupResult runWarmup(const Workload &W, const TrafficModel &Traffic,
                       vm::ServerConfig Config, const ServerSimParams &P,
                       const profile::ProfilePackage *Package = nullptr);

/// One run of a warmup sweep.  Params.Obs must be null: sweep runs are
/// sharded across host threads, so each records into its own run-owned
/// registry (shard-then-merge).
struct WarmupSweepRun {
  ServerSimParams Params;
  /// Boot this run as a Jump-Start consumer with this package (null: no
  /// Jump-Start).  Shared read-only across runs.
  const profile::ProfilePackage *Package = nullptr;
};

/// Runs several *independent* warmup simulations, sharded across \p Pool
/// (null: serial), then merges every run's metrics into \p Merged (when
/// non-null) in run-index order.  Each simulation is single-threaded and
/// seeded by its own params, and the merge order is fixed, so the results
/// -- including a metricsToJsonLines() rendering of \p Merged -- are
/// byte-identical for any worker count.
std::vector<WarmupResult>
runWarmupSweep(const Workload &W, const TrafficModel &Traffic,
               const vm::ServerConfig &Config,
               const std::vector<WarmupSweepRun> &Runs,
               support::ThreadPool *Pool,
               obs::MetricsRegistry *Merged = nullptr);

/// Convenience: runs a server as a *seeder*: boots without Jump-Start,
/// serves \p Requests real requests of its (region, bucket) mix (with
/// seeder instrumentation enabled by the caller via Config), and returns
/// the server for package extraction.
std::unique_ptr<vm::Server> runSeeder(const Workload &W,
                                      const TrafficModel &Traffic,
                                      vm::ServerConfig Config,
                                      uint32_t Region, uint32_t Bucket,
                                      uint32_t Requests, uint64_t Seed);

} // namespace jumpstart::fleet

#endif // JUMPSTART_FLEET_SERVERSIM_H
