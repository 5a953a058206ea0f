//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-time benchmark: how fast the reproduction itself runs, end to end
/// and per layer, on three workloads that stress different layers.
///
///   warmup  Server restarts as in Figure 4: a Jump-Start consumer boots
///           from the seeder's package (deserialize + precompile), a cold
///           server boots without one, and each serves its first requests
///           while the JIT is granted time every tick.  Stresses package
///           serde, the consumer precompile, the instrumented interpreter
///           with its profiling hooks, and the retranslate-all pipeline.
///   steady  A warmed Jump-Start consumer serves requests with the Vasm
///           shadow tracer feeding the machine simulator, as in Figure 5.
///           Stresses the interpreter and the simulator; no JIT work.
///   serve   Concurrent serve() from two closed-loop client threads while
///           a background thread drains retranslate-all and publishes
///           translation snapshots.  Stresses admission, execution
///           contexts, epoch-published snapshots and the plain
///           interpreter; no simulator, and profiling hooks only in the
///           serial prefix that precedes each window.
///
/// Usage: perfbench --workload warmup|steady|serve --seed N --seconds S
///                  --trace 0|1
///
/// All workloads run the figure harnesses' evaluation site.  The seed
/// picks the request stream (a pool sampled from one bucket's traffic)
/// and every server's seed.  Set-up -- generating the site, answering the
/// pool on the reference server, growing the seeder package, warming the
/// steady server -- runs three times; setup_s is the median.  The workload
/// then repeats one round of fixed work, half a second to a second long,
/// for S seconds; every round of a run does the same work.  Every time is
/// scaled to a reference host speed measured every 50 ms (see HostClock).
/// latency_p50_us is the median per-request host latency of a round and
/// throughput_rps its requests per second; each is reported as the median
/// over the run's rounds.  (No p99 is reported:
/// the warmup workload's tail, its profiling-phase requests, moved by 40%
/// between runs under load from other tenants, more than any bound the
/// benchmark could keep.)
///
/// Correctness: the reference server is never granted JIT time, so it
/// answers every request in the interpreter.  Each measured request's
/// observables (return value, output, faults) must equal its answer:
/// tiering, layout, Jump-Start and concurrency may not change them.
///
/// With --trace 1 the workload runs with spans around each call into a
/// layer and prints per-layer self times instead of the end-to-end
/// metrics, which are measured with tracing off.
///
/// The last line of standard output is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
///
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"
#include "fleet/ServerSim.h"
#include "fleet/Traffic.h"
#include "fleet/WorkloadGen.h"
#include "frontend/Compiler.h"
#include "jit/VasmTracer.h"
#include "obs/Observability.h"
#include "profile/ProfilePackage.h"
#include "runtime/Builtins.h"
#include "sim/Machine.h"
#include "support/Hashing.h"
#include "support/Random.h"
#include "vm/Server.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace jumpstart;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

uint64_t nanosSince(Clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
          .count());
}

[[noreturn]] void fail(const char *What) {
  std::fprintf(stderr, "perfbench: %s\n", What);
  std::exit(1);
}

//===----------------------------------------------------------------------===//
// Spans: self time per layer, recorded around calls into each layer.
//===----------------------------------------------------------------------===//

enum Layer : uint8_t {
  Frontend,  ///< frontend::compileProgram over the site's sources
  Verifier,  ///< bc::verifyRepo
  Seeder,    ///< seeder serving + package assembly
  Package,   ///< ProfilePackage serialize / deserialize
  Boot,      ///< Server construction + installPackage + startup
  Profiling, ///< requests served while the JIT is still profiling
  Interp,    ///< requests served after profiling, without the tracer
  Sim,       ///< what the Vasm shadow tracer + machine simulator add
  Jit,       ///< grantJitTime / runBackgroundJitWork
  Window,    ///< opening and closing a concurrent-serving window
  NumLayers
};

/// One thread's span accounting.  A span's self time is its duration
/// minus the time of the spans nested inside it.
struct SpanLog {
  std::array<uint64_t, NumLayers> SelfNs{};
  /// Child time accumulated by each open span, innermost last.
  std::vector<uint64_t> Open;

  /// Closes a span of \p L that lasted \p Ns.
  void close(Layer L, uint64_t Ns) {
    uint64_t Child = Open.back();
    Open.pop_back();
    SelfNs[L] += Ns - std::min(Child, Ns);
    if (!Open.empty())
      Open.back() += Ns;
  }
  void mergeFrom(const SpanLog &O) {
    for (size_t L = 0; L < NumLayers; ++L)
      SelfNs[L] += O.SelfNs[L];
  }
};

/// Scoped span; a no-op when \p Log is null (tracing off).
class Span {
public:
  Span(SpanLog *Log, Layer L) : Log(Log), L(L) {
    if (Log) {
      Log->Open.push_back(0);
      T0 = Clock::now();
    }
  }
  ~Span() {
    if (Log)
      Log->close(L, nanosSince(T0));
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanLog *Log;
  Layer L;
  Clock::time_point T0;
};

//===----------------------------------------------------------------------===//
// Host-speed calibration.
//===----------------------------------------------------------------------===//

/// Time of the calibration kernel on the host the bounds were set on, idle:
/// a 4-vCPU KVM guest on an Intel Xeon (Sapphire Rapids).
constexpr double kReferenceKernelNs = 200e3;

volatile uint64_t CalibrationSink;

/// Times a fixed integer kernel that touches no memory, median of five.
///
/// Other tenants of a shared host slow this benchmark by up to 70%, for
/// seconds to minutes at a time: more than the regressions it has to
/// resolve.  The slowdown shows in neither steal time nor CPU time; it is
/// work on the other hardware thread of the core, which takes issue slots
/// the program wants.  The kernel runs four independent xorshift chains,
/// so it too needs several issue slots per cycle, and slows with the
/// program: over one-second windows of the steady workload its time and
/// the request latency correlate at 0.9 to 0.97, with slope 1.0 to 1.1 on
/// log scales.
/// (A single chain needs one slot a cycle and tracks only clock-frequency
/// changes, correlation 0.5; a pointer chase through the last-level cache
/// swings fourfold with unrelated traffic.)  The kernel is the
/// benchmark's own code, so no change to the program moves it.
double calibrationKernelNs() {
  std::array<double, 5> Ns;
  for (double &N : Ns) {
    uint64_t A = 1, B = 2, C = 3, D = 4;
    Clock::time_point T0 = Clock::now();
    for (int I = 0; I < (1 << 16); ++I) {
      A ^= A << 13;
      B ^= B << 13;
      C ^= C << 13;
      D ^= D << 13;
      A ^= A >> 7;
      B ^= B >> 7;
      C ^= C >> 7;
      D ^= D >> 7;
      A ^= A << 17;
      B ^= B << 17;
      C ^= C << 17;
      D ^= D << 17;
    }
    N = static_cast<double>(nanosSince(T0));
    CalibrationSink = A + B + C + D;
  }
  std::nth_element(Ns.begin(), Ns.begin() + 2, Ns.end());
  return Ns[2];
}

/// The median of \p V; the upper middle value of an even count.
double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t I = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + I, V.end());
  return V[I];
}

/// Host time scaled to the reference host.
///
/// Work is timed in segments of about kSegmentNs, with the calibration
/// kernel timed between them; a segment's times are scaled by
/// kReferenceKernelNs over the mean of the kernel's times on either side.
/// Contention from other tenants comes and goes within a second, so the
/// segments are short: scaling whole rounds of a second instead left the
/// steady workload's five-seed spread at 0.17, against 0.06 with 50 ms
/// segments.  The kernel takes 2% of the time.
class HostClock {
public:
  static constexpr uint64_t kSegmentNs = 50'000'000;

  HostClock() : KernelNs(calibrationKernelNs()), Start(Clock::now()) {}

  /// Adds the host latency of an operation that ran in this segment.
  void addLatency(double Ns) { Pending.push_back(Ns); }

  /// Call between operations: ends the segment once it is long enough.
  void poll() {
    if (nanosSince(Start) >= kSegmentNs)
      endSegment();
  }

  /// Times the kernel, scales the segment that ends here, and starts the
  /// next one.
  void endSegment() {
    double Ns = static_cast<double>(nanosSince(Start));
    double After = calibrationKernelNs();
    double Scale = 2 * kReferenceKernelNs / (KernelNs + After);
    ScaledNs += Ns * Scale;
    for (double L : Pending)
      Latencies.push_back(L * Scale);
    Pending.clear();
    Scales.push_back(Scale);
    KernelNs = After;
    Start = Clock::now();
  }

  /// Reference-host seconds of the segments ended so far.
  double seconds() const { return ScaledNs / 1e9; }

  /// The scaled latencies of the segments ended since the last call.
  std::vector<double> takeLatencies() { return std::exchange(Latencies, {}); }

  /// The median segment scale, for times not taken segment by segment.
  double medianScale() const { return median(Scales); }

private:
  double KernelNs;
  Clock::time_point Start;
  double ScaledNs = 0;
  std::vector<double> Pending, Latencies, Scales;
};

//===----------------------------------------------------------------------===//
// Inputs: the site and a pool of requests with reference answers.
//===----------------------------------------------------------------------===//

/// Distinct requests a workload cycles through: enough that one seed's
/// pool carries the bucket's endpoint and argument mix.
constexpr uint32_t kPoolSize = 512;

struct Request {
  bc::FuncId Endpoint;
  std::vector<runtime::Value> Args;
  vm::RequestObservables Expected;
};

struct Site {
  std::unique_ptr<fleet::Workload> W;
  std::unique_ptr<fleet::TrafficModel> Traffic;
  std::vector<Request> Pool;
};

/// The figure harnesses' evaluation site.  Fixed across seeds, so that a
/// seed changes the request stream and the servers' seeds but not the
/// code the requests run.
fleet::WorkloadParams siteShape() {
  fleet::WorkloadParams P;
  P.NumHelpers = 700;
  P.NumClasses = 72;
  P.NumEndpoints = 40;
  P.NumUnits = 48;
  return P;
}

/// Generates the site, samples the request pool from bucket 0's traffic,
/// and answers every pooled request on the reference server.
Site makeSite(uint64_t Seed, HostClock &Host, SpanLog *Log) {
  Site S;
  S.W = fleet::generateWorkload(siteShape());
  const runtime::BuiltinTable &Builtins = runtime::BuiltinTable::standard();
  if (Log) {
    // generateWorkload compiles and verifies internally; repeat both
    // under spans to time the two layers apart from writing the source.
    std::vector<frontend::SourceFile> Files;
    for (const auto &[Name, Source] : S.W->Sources)
      Files.push_back({Name, Source});
    bc::Repo Scratch;
    {
      Span Sp(Log, Frontend);
      if (!frontend::compileProgram(Scratch, Builtins, Files).empty())
        fail("site failed to recompile");
    }
    Span Sp(Log, Verifier);
    if (!bc::verifyRepo(S.W->Repo, Builtins.size()).empty())
      fail("site failed to verify");
  }
  S.Traffic = std::make_unique<fleet::TrafficModel>(
      *S.W, fleet::TrafficParams(), hashCombine(Seed, 0x7a1f));

  Rng R(hashCombine(Seed, 0x9e11));
  vm::ServerConfig RefConfig;
  RefConfig.Name = "reference";
  vm::Server Ref(S.W->Repo, RefConfig, hashCombine(Seed, 0x4ef));
  Ref.startup();
  S.Pool.reserve(kPoolSize);
  for (uint32_t I = 0; I < kPoolSize; ++I) {
    Request Rq;
    Rq.Endpoint = S.W->Endpoints[S.Traffic->sampleEndpoint(0, 0, R)];
    Rq.Args = fleet::TrafficModel::makeArgs(R);
    Rq.Expected = Ref.executeRequest(Rq.Endpoint, Rq.Args).Obs;
    if (!Rq.Expected.Ok)
      fail("a reference request aborted");
    S.Pool.push_back(std::move(Rq));
    Host.poll();
  }
  return S;
}

bool matches(const vm::RequestObservables &Got,
             const vm::RequestObservables &Want) {
  return Got.Ok && Got.Ret == Want.Ret && Got.Output == Want.Output &&
         Got.Faults == Want.Faults;
}

/// Startup warmup requests for a server booting on this site: a sample
/// of the bucket's mix, as the fleet simulator uses.
std::vector<uint32_t> warmupEndpoints(const Site &S) {
  std::vector<uint32_t> Out;
  for (uint32_t I = 0; I < 16; ++I)
    Out.push_back(S.Pool[I].Endpoint.raw());
  return Out;
}

/// Grows a seeder package on bucket 0, as the figure harnesses do.
std::vector<uint8_t> seedPackage(const Site &S, vm::ServerConfig Config,
                                 uint64_t Seed, HostClock &Host,
                                 SpanLog *Log) {
  Config.Jit.SeederInstrumentation = true;
  profile::ProfilePackage Pkg;
  // The seeder runs for most of a set-up in one call: a segment of its own.
  Host.endSegment();
  {
    Span Sp(Log, Seeder);
    std::unique_ptr<vm::Server> Server =
        fleet::runSeeder(*S.W, *S.Traffic, Config, 0, 0, /*Requests=*/1200,
                         hashCombine(Seed, 0x5eed));
    Pkg = Server->buildSeederPackage(0, 0, /*SeederId=*/1);
  }
  Host.endSegment();
  Span Sp(Log, Package);
  return Pkg.serialize();
}

profile::ProfilePackage loadPackage(const std::vector<uint8_t> &Bytes,
                                    SpanLog *Log) {
  Span Sp(Log, Package);
  profile::ProfilePackage Pkg;
  if (!profile::ProfilePackage::deserialize(Bytes, Pkg))
    fail("the package failed to deserialize");
  return Pkg;
}

/// Boots \p Server, as a Jump-Start consumer when \p Pkg is given.
void boot(std::optional<vm::Server> &Server, const Site &S,
          const vm::ServerConfig &C, uint64_t Seed,
          const profile::ProfilePackage *Pkg, SpanLog *Log) {
  Span Sp(Log, Boot);
  Server.emplace(S.W->Repo, C, Seed);
  if (Pkg && !Server->installPackage(*Pkg).ok())
    fail("the package was rejected");
  Server->startup();
}

//===----------------------------------------------------------------------===//
// Measurement bookkeeping.
//===----------------------------------------------------------------------===//

/// Requests run, and requests whose observables were wrong.
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Sizes a workload reports next to its per-layer times.
struct LayerCounts {
  double Translations = 0;
  double CodeBytes = 0;
  double PackageBytes = 0;
  double SimInstructionsPerReq = 0;
  double Snapshots = 0;
};

/// Times one serial request, charges it to the Profiling or Interp layer
/// by the JIT's phase, and checks its observables.  \returns its ns.
double timedRequest(vm::Server &S, const Request &Rq, Checks &C,
                    SpanLog *Log) {
  Layer L = S.theJit().phase() == jit::JitPhase::Profiling ? Profiling
                                                           : Interp;
  Clock::time_point T0 = Clock::now();
  vm::RequestResult Res;
  {
    Span Sp(Log, L);
    Res = S.executeRequest(Rq.Endpoint, Rq.Args);
  }
  double Ns = static_cast<double>(nanosSince(T0));
  ++C.Attempted;
  if (!matches(Res.Obs, Rq.Expected))
    ++C.Failed;
  return Ns;
}

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

class Workload {
public:
  Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;
  virtual ~Workload() = default;
  /// Builds everything the rounds need; runs several times per run.
  virtual void setup(uint64_t Seed, HostClock &Host, SpanLog *Log) = 0;
  /// Runs one round of fixed work and adds each measured request's
  /// latency to \p Host.  \returns the measured reference-host seconds.
  virtual double round(HostClock &Host, Checks &C, SpanLog *Log) = 0;
  virtual LayerCounts counts() const = 0;
};

/// Restarts: one Jump-Start consumer and one cold server per round.
class WarmupWorkload : public Workload {
public:
  /// Requests each restarted server serves.  The cold server profiles
  /// the first kProfileRequests, retranslates, and serves the rest
  /// optimized; two requests per JIT tick, as the fleet simulator
  /// samples.
  static constexpr uint32_t kRequests = 560;
  static constexpr uint32_t kProfileRequests = 240;
  static constexpr uint32_t kRequestsPerTick = 2;

  void setup(uint64_t Seed, HostClock &Host, SpanLog *Log) override {
    this->Seed = Seed;
    S = makeSite(Seed, Host, Log);
    PackageBytes = seedPackage(S, config(), Seed, Host, Log);
    Counts.PackageBytes = static_cast<double>(PackageBytes.size());
  }

  double round(HostClock &Host, Checks &Chk, SpanLog *Log) override {
    double T0 = Host.seconds();
    restart(/*JumpStart=*/true, Host, Chk, Log);
    restart(/*JumpStart=*/false, Host, Chk, Log);
    Host.endSegment();
    return Host.seconds() - T0;
  }

  LayerCounts counts() const override { return Counts; }

private:
  vm::ServerConfig config() const {
    vm::ServerConfig C;
    C.Jit.ProfileRequestTarget = kProfileRequests;
    C.WarmupEndpoints = warmupEndpoints(S);
    return C;
  }

  void restart(bool JumpStart, HostClock &Host, Checks &Chk, SpanLog *Log) {
    // Servers record into an observability context, as in the fleet
    // simulator's warmup runs.
    obs::Observability Obs;
    vm::ServerConfig C = config();
    C.Obs = &Obs;
    C.Name = JumpStart ? "jumpstart" : "cold";
    std::optional<profile::ProfilePackage> Pkg;
    if (JumpStart)
      Pkg = loadPackage(PackageBytes, Log);
    std::optional<vm::Server> Server;
    boot(Server, S, C, hashCombine(Seed, JumpStart), Pkg ? &*Pkg : nullptr,
         Log);
    for (uint32_t I = 0; I < kRequests; ++I) {
      const Request &Rq = S.Pool[I % S.Pool.size()];
      Host.addLatency(timedRequest(*Server, Rq, Chk, Log));
      if ((I + 1) % kRequestsPerTick == 0) {
        Span Sp(Log, Jit);
        Server->grantJitTime(1.0);
        // The fleet simulator samples code size every tick (Figure 1).
        Counts.CodeBytes =
            static_cast<double>(Server->theJit().totalCodeBytes());
      }
      Host.poll();
    }
    Counts.Translations =
        static_cast<double>(Server->theJit().transDb().size());
  }

  uint64_t Seed = 0;
  Site S;
  std::vector<uint8_t> PackageBytes;
  LayerCounts Counts;
};

/// The evaluation machine scaled down with the synthetic site, as in the
/// steady-state figures.
sim::MachineConfig scaledMachine() {
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

/// A warmed Jump-Start consumer serving through the shadow tracer.  A
/// round serves the whole pool.
class SteadyWorkload : public Workload {
public:
  static constexpr uint32_t kWarmRequests = 150;

  void setup(uint64_t Seed, HostClock &Host, SpanLog *Log) override {
    // Tear down the previous set-up, newest first.
    Scope.reset();
    Tracer.reset();
    Machine.reset();
    Server.reset();

    S = makeSite(Seed, Host, Log);
    vm::ServerConfig C;
    C.Jit.ProfileRequestTarget = 400;
    C.WarmupEndpoints = warmupEndpoints(S);
    std::vector<uint8_t> Bytes = seedPackage(S, C, Seed, Host, Log);
    Counts.PackageBytes = static_cast<double>(Bytes.size());
    profile::ProfilePackage Pkg = loadPackage(Bytes, Log);
    boot(Server, S, C, hashCombine(Seed, 0x57ea), &Pkg, Log);
    Counts.Translations =
        static_cast<double>(Server->theJit().transDb().size());
    Counts.CodeBytes = static_cast<double>(Server->theJit().totalCodeBytes());

    Machine = std::make_unique<sim::MachineSim>(scaledMachine());
    Tracer = std::make_unique<jit::VasmTracer>(Server->theJit(), *Machine);
    // Fill the simulated caches before anything is measured.
    Scope = std::make_unique<vm::CallbackScope>(*Server, Tracer.get());
    Checks Discard;
    for (uint32_t I = 0; I < kWarmRequests; ++I) {
      timedRequest(*Server, S.Pool[I % S.Pool.size()], Discard, nullptr);
      Host.poll();
    }
    Machine->reset();
    Measured = 0;
  }

  double round(HostClock &Host, Checks &Chk, SpanLog *Log) override {
    double T0 = Host.seconds();
    double TracedNs = 0;
    for (const Request &Rq : S.Pool) {
      double Ns = timedRequest(*Server, Rq, Chk, nullptr);
      Host.addLatency(Ns);
      TracedNs += Ns;
      Host.poll();
    }
    Host.endSegment();
    double Seconds = Host.seconds() - T0;
    Measured += S.Pool.size();
    if (Log) {
      // The tracer is called tens of thousands of times per request, too
      // often to time each call.  The round's requests run again with it
      // detached; the difference is what tracing and simulation add.
      Scope.reset();
      double PlainNs = 0;
      for (const Request &Rq : S.Pool)
        PlainNs += timedRequest(*Server, Rq, Chk, nullptr);
      Scope = std::make_unique<vm::CallbackScope>(*Server, Tracer.get());
      Log->SelfNs[Interp] += static_cast<uint64_t>(PlainNs);
      Log->SelfNs[Sim] +=
          static_cast<uint64_t>(std::max(0.0, TracedNs - PlainNs));
      // The next round starts a segment of its own.
      Host.endSegment();
    }
    return Seconds;
  }

  LayerCounts counts() const override {
    LayerCounts C = Counts;
    C.SimInstructionsPerReq =
        static_cast<double>(Machine->counters().Instructions) /
        static_cast<double>(std::max<uint64_t>(1, Measured));
    return C;
  }

private:
  Site S;
  std::optional<vm::Server> Server;
  std::unique_ptr<sim::MachineSim> Machine;
  std::unique_ptr<jit::VasmTracer> Tracer;
  std::unique_ptr<vm::CallbackScope> Scope;
  uint64_t Measured = 0;
  LayerCounts Counts;
};

/// Concurrent serving on a fresh server per round, as the load harness
/// does: a serial profiling prefix, then a window in which the clients
/// serve while the retranslate-all the prefix triggered compiles in the
/// background.  Two clients and one compile thread fit a four-core host.
class ServeWorkload : public Workload {
public:
  static constexpr uint32_t kClients = 2;
  static constexpr uint32_t kProfileRequests = 120;
  static constexpr uint32_t kRoundRequests = 3000;

  void setup(uint64_t Seed, HostClock &Host, SpanLog *Log) override {
    this->Seed = Seed;
    S = makeSite(Seed, Host, Log);
  }

  /// \returns the reference-host seconds of the concurrent window.
  double round(HostClock &Host, Checks &Chk, SpanLog *Log) override {
    vm::ServerConfig C;
    C.JitWorkerCores = 2;
    C.ServeWorkers = kClients;
    C.Jit.ProfileRequestTarget = kProfileRequests;
    // Stretched optimized-compile costs: the background retranslate-all
    // spans many grants, so snapshots are published mid-window.
    C.Jit.OptCompileCostPerBytecode = 2500;
    C.WarmupEndpoints = warmupEndpoints(S);
    std::optional<vm::Server> Server;
    boot(Server, S, C, hashCombine(Seed, 0x5e7e), nullptr, Log);

    // The grant after the last prefix request is withheld, so the whole
    // retranslate-all is still queued when the window opens.
    for (uint32_t I = 0; I < kProfileRequests; ++I) {
      timedRequest(*Server, S.Pool[I % S.Pool.size()], Chk, Log);
      if (I + 1 < kProfileRequests) {
        Span Sp(Log, Jit);
        Server->grantJitTime(0.25);
      }
      Host.poll();
    }

    {
      Span Sp(Log, Window);
      Server->beginConcurrentServing();
    }
    // The window is one segment: the kernel cannot run inside it.
    Host.endSegment();
    const double W0 = Host.seconds();
    std::vector<double> LatencyNs(kRoundRequests);
    std::vector<uint8_t> Bad(kRoundRequests, 0);
    std::atomic<uint32_t> Next{0};
    std::vector<SpanLog> Logs(kClients + 1);
    auto Client = [&](SpanLog *L) {
      for (;;) {
        uint32_t Rq = Next.fetch_add(1, std::memory_order_relaxed);
        if (Rq >= kRoundRequests)
          break;
        const Request &Req =
            S.Pool[(kProfileRequests + Rq) % S.Pool.size()];
        Clock::time_point T0 = Clock::now();
        vm::RequestResult Res;
        {
          Span Sp(L, Interp);
          Res = Server->serve(Req.Endpoint, Req.Args, Rq);
        }
        LatencyNs[Rq] = static_cast<double>(nanosSince(T0));
        Bad[Rq] = Res.Shed || !matches(Res.Obs, Req.Expected);
      }
    };
    std::thread Compiler([&] {
      SpanLog *L = Log ? &Logs[kClients] : nullptr;
      while (Server->theJit().hasPendingWork()) {
        Span Sp(L, Jit);
        Server->runBackgroundJitWork(0.25);
      }
    });
    std::vector<std::thread> Clients;
    for (uint32_t I = 1; I < kClients; ++I)
      Clients.emplace_back(Client, Log ? &Logs[I] : nullptr);
    Client(Log ? &Logs[0] : nullptr);
    for (std::thread &Th : Clients)
      Th.join();
    Compiler.join();
    for (double Ns : LatencyNs)
      Host.addLatency(Ns);
    Host.endSegment();
    const double Seconds = Host.seconds() - W0;
    vm::ServeStats Stats;
    {
      Span Sp(Log, Window);
      Stats = Server->endConcurrentServing();
    }
    if (Log)
      for (const SpanLog &L : Logs)
        Log->mergeFrom(L);

    Chk.Attempted += kRoundRequests;
    uint64_t Failed = 0;
    for (uint8_t B : Bad)
      Failed += B;
    if (Stats.Served != kRoundRequests || Stats.Shed != 0)
      Failed = std::max<uint64_t>(Failed, 1);
    Chk.Failed += Failed;

    Counts.Snapshots = static_cast<double>(Stats.SnapshotsPublished);
    Counts.Translations =
        static_cast<double>(Server->theJit().transDb().size());
    Counts.CodeBytes = static_cast<double>(Server->theJit().totalCodeBytes());
    return Seconds;
  }

  LayerCounts counts() const override { return Counts; }

private:
  uint64_t Seed = 0;
  Site S;
  LayerCounts Counts;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "warmup")
    return std::make_unique<WarmupWorkload>();
  if (Name == "steady")
    return std::make_unique<SteadyWorkload>();
  if (Name == "serve")
    return std::make_unique<ServeWorkload>();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Command line and main.
//===----------------------------------------------------------------------===//

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
};

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload warmup|steady|serve --seed N "
               "--seconds S --trace 0|1\n",
               Argv0);
  std::exit(2);
}

Options parseOptions(int argc, char **argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; I += 2) {
    if (I + 1 >= argc)
      usage(argv[0]);
    const char *Flag = argv[I];
    const char *Val = argv[I + 1];
    char *End = nullptr;
    if (std::strcmp(Flag, "--workload") == 0) {
      O.Workload = Val;
    } else if (std::strcmp(Flag, "--seed") == 0) {
      O.Seed = std::strtoull(Val, &End, 10);
      HaveSeed = End != Val && *End == '\0';
    } else if (std::strcmp(Flag, "--seconds") == 0) {
      O.Seconds = std::strtod(Val, &End);
      HaveSeconds = End != Val && *End == '\0' && O.Seconds > 0;
    } else if (std::strcmp(Flag, "--trace") == 0) {
      HaveTrace = std::strcmp(Val, "0") == 0 || std::strcmp(Val, "1") == 0;
      O.Trace = std::strcmp(Val, "1") == 0;
    } else {
      usage(argv[0]);
    }
  }
  if (O.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage(argv[0]);
  return O;
}

/// Appends `"Name": {"value": V, "unit": U}` to \p Out, V at full
/// precision.
void emitMetric(std::string &Out, const char *Name, double Value,
                const char *Unit) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                Out.empty() ? "" : ", ", Name, Value, Unit);
  Out += Buf;
}

} // namespace

int main(int argc, char **argv) {
  Options O = parseOptions(argc, argv);
  std::unique_ptr<Workload> WL = makeWorkload(O.Workload);
  if (!WL)
    usage(argv[0]);

  HostClock Host;
  SpanLog SetupLog, RunLog;
  std::vector<double> SetupS;
  for (int I = 0; I < (O.Trace ? 1 : kSetups); ++I) {
    double T0 = Host.seconds();
    WL->setup(O.Seed, Host, O.Trace ? &SetupLog : nullptr);
    Host.endSegment();
    SetupS.push_back(Host.seconds() - T0);
  }
  const double SetupScale = Host.medianScale();

  // Rounds until the time is up.
  Checks Chk;
  uint64_t RoundRequests = 0;
  std::vector<double> P50Us, Rps;
  Clock::time_point Start = Clock::now();
  do {
    double Seconds = WL->round(Host, Chk, O.Trace ? &RunLog : nullptr);
    std::vector<double> LatencyNs = Host.takeLatencies();
    RoundRequests += LatencyNs.size();
    P50Us.push_back(median(LatencyNs) / 1e3);
    Rps.push_back(static_cast<double>(LatencyNs.size()) / Seconds);
  } while (secondsBetween(Start, Clock::now()) < O.Seconds);

  std::string Metrics;
  if (!O.Trace) {
    emitMetric(Metrics, "latency_p50_us", median(P50Us), "us");
    emitMetric(Metrics, "throughput_rps", median(Rps), "1/s");
    emitMetric(Metrics, "setup_s", median(SetupS), "s");
  } else {
    // Set-up layers in ms per set-up; the rest in us per request of the
    // rounds.
    double RunScale = Host.medianScale();
    auto SetupMs = [&](Layer L) {
      return static_cast<double>(SetupLog.SelfNs[L]) * SetupScale / 1e6;
    };
    auto UsPerReq = [&](Layer L) {
      return static_cast<double>(RunLog.SelfNs[L]) * RunScale / 1e3 /
             static_cast<double>(RoundRequests);
    };
    emitMetric(Metrics, "frontend_ms", SetupMs(Frontend), "ms");
    emitMetric(Metrics, "verifier_ms", SetupMs(Verifier), "ms");
    emitMetric(Metrics, "seeder_ms", SetupMs(Seeder), "ms");
    emitMetric(Metrics, "package_us_per_req", UsPerReq(Package), "us");
    emitMetric(Metrics, "boot_us_per_req", UsPerReq(Boot), "us");
    emitMetric(Metrics, "profiling_us_per_req", UsPerReq(Profiling), "us");
    emitMetric(Metrics, "interp_us_per_req", UsPerReq(Interp), "us");
    emitMetric(Metrics, "sim_us_per_req", UsPerReq(Sim), "us");
    emitMetric(Metrics, "jit_us_per_req", UsPerReq(Jit), "us");
    emitMetric(Metrics, "window_us_per_req", UsPerReq(Window), "us");
    LayerCounts C = WL->counts();
    emitMetric(Metrics, "translations", C.Translations, "count");
    emitMetric(Metrics, "code_bytes", C.CodeBytes, "bytes");
    emitMetric(Metrics, "package_bytes", C.PackageBytes, "bytes");
    emitMetric(Metrics, "sim_instructions_per_req", C.SimInstructionsPerReq,
               "count");
    emitMetric(Metrics, "snapshots_per_window", C.Snapshots, "count");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Chk.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Chk.Attempted),
              static_cast<unsigned long long>(Chk.Failed), Metrics.c_str());
  return 0;
}
