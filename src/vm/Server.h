//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated HHVM server: interpreter + JIT + runtime + a virtual
/// clock, with the Jump-Start seeder and consumer workflows of the paper's
/// Figure 3.
///
/// Time is virtual: executing a request consumes "cost units" (one unit ~
/// one cycle), converted to seconds by the configured core speed.  The
/// server does not schedule itself; the fleet simulator (or a figure
/// harness) drives it tick by tick, granting JIT-worker time and asking it
/// to execute sampled requests.
///
/// The server has two serving modes:
///
///  - Serial (executeRequest): one request at a time on the serial
///    execution context, with profiling hooks feeding the JIT tiering
///    policy.  All figure harnesses and the fleet simulator use this.
///
///  - Concurrent (beginConcurrentServing / serve / endConcurrentServing):
///    real host threads serve requests against per-worker execution
///    contexts while one background thread compiles
///    (runBackgroundJitWork) and publishes immutable translation
///    snapshots, shared with requests by reference count -- the paper's
///    retranslate-all under live load (section VII).  Shared state is
///    immutable for the window's duration (the data plane is frozen at
///    beginConcurrentServing); admission control bounds in-flight
///    requests and sheds or blocks on overload.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_VM_SERVER_H
#define JUMPSTART_VM_SERVER_H

#include "interp/Interpreter.h"
#include "jit/Jit.h"
#include "jit/Recorders.h"
#include "jit/TransSnapshot.h"
#include "profile/ProfilePackage.h"
#include "runtime/Builtins.h"
#include "runtime/ClassLayout.h"
#include "runtime/Heap.h"
#include "support/ThreadSafety.h"

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace jumpstart::obs {
struct Observability;
}

namespace jumpstart::support {
class ThreadPool;
}

namespace jumpstart::vm {

/// Admission control for serve() during concurrent serving: how many
/// requests may be past admission at once, and what happens to an
/// arrival beyond that.
struct AdmissionConfig {
  /// Requests allowed past admission concurrently (executing or waiting
  /// for an execution context).  0 means 2 * ServeWorkers.
  uint32_t MaxInFlight = 0;
  enum class Policy : uint8_t {
    /// Arrivals beyond MaxInFlight wait for capacity (closed-loop
    /// clients; never sheds).
    Block,
    /// Arrivals beyond MaxInFlight are rejected immediately:
    /// RequestResult::Shed is set and the jumpstart.server.shed counter
    /// accounts for them at end-of-serving.
    Shed,
  };
  Policy OnOverload = Policy::Block;
};

/// Server configuration (the evaluation hardware of paper section VII is
/// a 16-core Xeon D-1581).  Build it literally; vm::Server's constructor
/// asserts that validateServerConfig() accepts it.
struct ServerConfig {
  uint32_t Cores = 16;
  /// Background JIT worker threads while serving.
  uint32_t JitWorkerCores = 3;
  /// Cost units one core retires per virtual second.
  double UnitsPerCorePerSecond = 2.0e6;
  /// Virtual cost of loading one unit's metadata on first touch.
  double UnitLoadCost = 40000;
  /// Runtime-warmup friction: early requests pay a penalty that decays
  /// with requests served, modelling the warmup effects outside the JIT
  /// (data caches, backend connections, OS page cache).  Cost multiplier
  /// is 1 + RuntimeWarmupPenalty * exp(-served / RuntimeWarmupTau).
  /// The paper's Figure 4a shows even Jump-Start servers start ~3x their
  /// steady-state latency and converge by ~150s.
  double RuntimeWarmupPenalty = 3.0;
  double RuntimeWarmupTau = 300;
  jit::JitConfig Jit;
  interp::InterpOptions Interp;
  /// Enable the object-property-reordering optimization when a package
  /// with access counts is installed (paper section V-C).
  bool ReorderProperties = true;
  /// Order properties by co-access affinity instead of plain hotness
  /// (the section V-C future-work extension; needs a package carrying
  /// affinity counters).  installPackage ignores it unless
  /// ReorderProperties is on.
  bool UseAffinityPropOrder = false;
  /// Execution contexts available to serve() during concurrent serving.
  /// Each owns its own heap + interpreter; 1 keeps concurrent serving
  /// effectively serial.  Host threads, not virtual cores: virtual time
  /// is never divided by this.
  uint32_t ServeWorkers = 1;
  /// Overload behaviour for serve().
  AdmissionConfig Admission;
  /// Endpoints exercised by the initialization warmup requests (raw
  /// FuncIds); empty skips warmup requests.
  std::vector<uint32_t> WarmupEndpoints;
  /// Observability context (metrics + spans + virtual clock).  Null means
  /// the server records nothing.  The server allocates two tracer tracks
  /// (Name and Name + "/jit"), labels its metrics with {server=Name}, and
  /// advances the shared clock as it executes requests and initializes.
  obs::Observability *Obs = nullptr;
  /// Display name for tracks and metric labels (distinguishes servers
  /// sharing one Observability).
  std::string Name = "server";
  /// Host thread pool the JIT lowers and lays out each drain's jobs on
  /// (jit::Jit::runJitWork): serial grants, background drains and the
  /// consumer precompile alike.  Null prepares them inline.  Host-only:
  /// the virtual clock and all exports are identical with or without it;
  /// the *modeled* precompile parallelism is JitConfig::Parallelism.
  support::ThreadPool *CompilePool = nullptr;
};

/// All structural complaints about \p C, empty when it is coherent.
/// Like JumpStartOptions::validate(), each diagnostic names the field
/// it is about.  An incoherent config (e.g. JitWorkerCores == 0, which
/// grantJitTime divides by) never reaches a running server: vm::Server's
/// constructor aborts on the first diagnostic.
std::vector<std::string> validateServerConfig(const ServerConfig &C);

/// Initialization breakdown returned by startup().
struct InitStats {
  double TotalSeconds = 0;
  double DeserializeSeconds = 0;
  double PreloadSeconds = 0;
  double PrecompileSeconds = 0;
  double WarmupRequestSeconds = 0;
  bool UsedJumpStart = false;
};

/// Observables of one executed request -- everything a client of the
/// simulated server could see.  Captured before the per-request heap
/// reset (the return value is rendered to a string because it may point
/// into the heap).  The differential conformance oracle (src/testing)
/// asserts these are identical across execution tiers and thread counts.
struct RequestObservables {
  /// toString() of the endpoint's return value.
  std::string Ret;
  /// Everything the request printed.
  std::string Output;
  uint64_t Faults = 0;
  /// False when the request aborted (step budget, stack depth).
  bool Ok = true;
  bool operator==(const RequestObservables &) const = default;
};

/// Everything executeRequest()/serve() returns for one request.  A
/// value, not a side channel: safe to hold across other requests and
/// across threads.
struct RequestResult {
  /// Virtual seconds of CPU the request consumed (including metadata
  /// loading on the serial path).  Meaningless when Shed.
  double Seconds = 0;
  /// True when admission control rejected the request (Shed policy);
  /// the request did not execute and Obs is empty.
  bool Shed = false;
  RequestObservables Obs;
};

/// Outcome of one concurrent-serving window, returned by
/// endConcurrentServing().  Invariant: Submitted == Served + Shed.
struct ServeStats {
  uint64_t Submitted = 0;
  uint64_t Served = 0;
  uint64_t Shed = 0;
  uint64_t Faults = 0;
  /// Translation snapshots installed during the window (>= 1: the
  /// window opens with one).
  uint64_t SnapshotsPublished = 0;
  /// Snapshots freed by the time the window's requests finished, the
  /// live one not yet freed (== SnapshotsPublished - 1 unless something
  /// still holds a superseded snapshot).
  uint64_t SnapshotsReclaimed = 0;
  /// Virtual cost of the data-plane freeze (loading every unit not yet
  /// touched), charged at beginConcurrentServing() across all cores.
  double PreloadSeconds = 0;
};

/// One simulated HHVM server process.
class Server {
public:
  Server(const bc::Repo &R, ServerConfig Config, uint64_t Seed);
  ~Server();

  //===--------------------------------------------------------------------===
  // Jump-Start lifecycle (paper Figure 3).
  //===--------------------------------------------------------------------===

  /// Consumer mode: installs the downloaded package.  Must precede
  /// startup().  \returns fingerprint_mismatch when the package was built
  /// against a different repo (corrupt blobs are already filtered by the
  /// caller), and corrupt_data when a function or unit id in it lies
  /// outside this repo or a function is profiled twice; the code doubles
  /// as the rejection-reason metric label.
  support::Status installPackage(const profile::ProfilePackage &Pkg);

  /// Initializes the server: consumer mode deserializes + precompiles all
  /// optimized code with every core, then runs warmup requests in
  /// parallel; without Jump-Start, warmup requests run sequentially
  /// (paper section VII-A).
  InitStats startup();

  /// Seeder side: assembles this server's profile package.
  profile::ProfilePackage buildSeederPackage(uint32_t Region,
                                             uint32_t Bucket,
                                             uint64_t SeederId) const;

  //===--------------------------------------------------------------------===
  // Serial serving.
  //===--------------------------------------------------------------------===

  /// Executes one request against endpoint \p F for real and \returns
  /// its virtual seconds and observables.  Updates JIT profiling/tiering
  /// state as a side effect.  Serial path only; asserts outside a
  /// concurrent-serving window.
  RequestResult executeRequest(bc::FuncId F,
                               const std::vector<runtime::Value> &Args);

  /// Grants \p Seconds of background JIT-worker wall time (the workers
  /// use JitWorkerCores in parallel).  \returns seconds of work actually
  /// performed.  Serial path; during a concurrent-serving window use
  /// runBackgroundJitWork from the compile thread instead.
  double grantJitTime(double Seconds);

  //===--------------------------------------------------------------------===
  // Concurrent serving (paper section VII: warmup under live load).
  //===--------------------------------------------------------------------===

  /// Opens a concurrent-serving window: freezes the data plane (loads
  /// every unit and class layout so request threads only read shared
  /// state), creates ServeWorkers execution contexts, and publishes the
  /// first translation snapshot.  After this, serve() may be called from
  /// any number of client threads and runBackgroundJitWork() from one
  /// background compile thread, concurrently.
  void beginConcurrentServing();

  /// Executes one request on a free execution context, thread-safe.
  /// \p RequestIndex is the caller-assigned dense index of this request
  /// (0-based within the window); it determines the runtime-warmup decay
  /// deterministically, independent of thread interleaving.  Blocks or
  /// sheds per AdmissionConfig when the window is at MaxInFlight.
  ///
  /// Observables are interleaving-invariant (the oracle asserts this);
  /// Seconds depends on which translation snapshot the request observed
  /// and is therefore not deterministic across runs.  Never touches the
  /// observability context or the virtual clock -- integer totals are
  /// folded into metrics at endConcurrentServing().
  RequestResult serve(bc::FuncId F, const std::vector<runtime::Value> &Args,
                      uint64_t RequestIndex);

  /// Runs up to \p Seconds of JIT work and, when anything compiled,
  /// captures + publishes a fresh translation snapshot.  Must be called
  /// from exactly one background thread during the window; that thread
  /// is the sole mutator of the JIT and the observability context while
  /// serving runs.  \returns seconds of work actually performed.
  double runBackgroundJitWork(double Seconds);

  /// True while a concurrent-serving window is open.
  bool serving() const { return Serving.load(std::memory_order_acquire); }

  /// Closes the window: requires all clients done (asserts nothing in
  /// flight), folds integer totals into the metrics registry
  /// (jumpstart.server.requests/faults/shed), releases the execution
  /// contexts, and drops the live snapshot.  \returns the window's
  /// stats.
  ServeStats endConcurrentServing();

  //===--------------------------------------------------------------------===
  // Measurement hooks.
  //===--------------------------------------------------------------------===

  jit::Jit &theJit() { return TheJit; }
  const jit::Jit &theJit() const { return TheJit; }
  interp::Interpreter &interpreter() { return *Serial->Interp; }
  runtime::ClassTable &classes() { return Classes; }
  const ServerConfig &config() const { return Config; }

  uint64_t totalFaults() const { return Faults; }
  uint64_t requestsServed() const { return Requests; }
  /// Interpreter inline caches pre-filled at startup from the
  /// whole-program analysis facts (0 unless ProvenGuardElision is on).
  uint64_t icsSeeded() const { return ICsSeeded; }

  /// The observability context this server records into (null when the
  /// configuration carried none).
  obs::Observability *observability() const { return Obs; }

  /// Stable fingerprint of a repo, for package validation.
  static uint64_t repoFingerprint(const bc::Repo &R);

private:
  friend class CallbackScope;

  /// One execution context: everything mutated while a request runs.
  /// The serial path owns one (with profiling hooks); concurrent serving
  /// creates ServeWorkers more, checked out per request.  Aligned to a
  /// host cache line so that two contexts serving on different threads
  /// never share one.  Unaligned, whether they do depends on the
  /// allocation history, and when they did, perfbench serve ran about a
  /// fifth slower.
  struct alignas(64) ExecContext {
    ExecContext(const bc::Repo &R, runtime::ClassTable &Classes,
                const interp::InterpOptions &Opts);

    runtime::Heap Heap;
    std::unique_ptr<interp::Interpreter> Interp;
    std::string Output;
    interp::InstrCounts InstrCounts;
    /// Unit-load cost units charged while the current request runs
    /// (serial path; fed by ServerHooks).
    double PendingLoadUnits = 0;
    // Folded into ServeStats at endConcurrentServing().
    uint64_t Served = 0;
    uint64_t Faults = 0;
  };

  double unitsToSeconds(double Units) const {
    return Units / Config.UnitsPerCorePerSecond;
  }
  /// Charges first-touch loading of \p Unit: UnitLoadCost the first
  /// time, 0 after.
  double loadUnit(uint32_t Unit) {
    if (UnitLoaded[Unit])
      return 0;
    UnitLoaded[Unit] = 1;
    return Config.UnitLoadCost;
  }
  /// Charges first-touch unit loading for everything \p F needs.
  double loadUnitsFor(bc::FuncId F) { return loadUnit(R.func(F).Unit.raw()); }
  /// Pre-fills interpreter inline caches from the analysis facts
  /// (startup; no-op unless ProvenGuardElision is on and facts exist).
  void seedInlineCaches();
  /// Temporarily replaces the serial context's profiling hooks with
  /// \p CB; nullptr restores them.  Use through CallbackScope.
  void attachCallbacks(interp::ExecCallbacks *CB);
  /// Captures the JIT's translation state and installs it as the
  /// current snapshot.  Background compile thread (or begin) only.
  void publishSnapshot();
  /// Runs one request on \p Ctx, costing it with \p Snap, which the
  /// caller holds a reference to.  \p DecayRequests is the request
  /// count used for the runtime-warmup decay.
  RequestResult executeOnContext(ExecContext &Ctx,
                                 const jit::TransSnapshot &Snap,
                                 bc::FuncId F,
                                 const std::vector<runtime::Value> &Args,
                                 uint64_t DecayRequests);
  /// The request tail both serving modes share.  Renders \p Result's
  /// observables, recycles \p Ctx's heap and output, and costs the
  /// request: \p StartUnits plus each function's bytecodes at the cost
  /// \p Snap gives it (the live JIT's when null), scaled by the
  /// runtime-warmup friction of request number \p DecayRequests.
  RequestResult finishRequest(ExecContext &Ctx,
                              const interp::InterpResult &Result,
                              double StartUnits,
                              const jit::TransSnapshot *Snap,
                              uint64_t DecayRequests);
  /// Runs \p Seconds of JIT-worker wall time (JitWorkerCores in
  /// parallel) and advances the clock by the wall time the work took.
  /// \returns that wall time.
  double spendJitTime(double Seconds);
  uint32_t effectiveMaxInFlight() const;

  const bc::Repo &R;
  ServerConfig Config;
  obs::Observability *Obs = nullptr;
  uint32_t ServerTrack = 0;
  uint32_t JitTrack = 0;
  runtime::ClassTable Classes;
  jit::Jit TheJit;
  friend class ServerHooks;
  /// The serial execution context (executeRequest, warmup requests).
  std::unique_ptr<ExecContext> Serial;
  std::unique_ptr<jit::JitProfilingHooks> Hooks;
  uint64_t PackageBytes = 0;
  /// Indexed by raw UnitId: nonzero once the unit's metadata is loaded.
  std::vector<uint8_t> UnitLoaded;
  std::optional<profile::ProfilePackage> Package;
  uint64_t Faults = 0;
  uint64_t Requests = 0;
  uint64_t ICsSeeded = 0;
  bool Started = false;

  //===--------------------------------------------------------------------===
  // Concurrent-serving state.  Serving is written by the coordinating
  // thread in begin/end (no client thread runs across either edge, by
  // contract) and read by serve()/runBackgroundJitWork() as a guard.
  //===--------------------------------------------------------------------===
  std::atomic<bool> Serving{false};
  /// Requests on the serial counter when the window opened; request
  /// RequestIndex decays as serial request BaseRequests + RequestIndex + 1.
  uint64_t BaseRequests = 0;
  std::vector<std::unique_ptr<ExecContext>> ServeContexts;
  ServeStats CurStats;
  /// Snapshots destroyed this window, counted by their deleter on
  /// whichever thread drops the last reference.
  std::atomic<uint64_t> SnapshotsFreed{0};

  support::Mutex ServeM;
  support::CondVar ServeCV;
  /// The newest published snapshot.  serve() copies it when it checks
  /// out a context and holds that reference for the request.
  std::shared_ptr<const jit::TransSnapshot>
      CurSnapshot JUMPSTART_GUARDED_BY(ServeM);
  uint64_t PublishedCount JUMPSTART_GUARDED_BY(ServeM) = 0;
  std::vector<ExecContext *> FreeContexts JUMPSTART_GUARDED_BY(ServeM);
  uint32_t InFlightCount JUMPSTART_GUARDED_BY(ServeM) = 0;
  uint64_t SubmittedCount JUMPSTART_GUARDED_BY(ServeM) = 0;
  uint64_t ServedCount JUMPSTART_GUARDED_BY(ServeM) = 0;
  uint64_t ShedCount JUMPSTART_GUARDED_BY(ServeM) = 0;
};

/// RAII replacement for the old attachCallbacks(ExecCallbacks*) pair:
/// installs \p CB on the server's serial interpreter for this scope and
/// restores the profiling hooks on exit, so measurement hooks cannot
/// leak across requests (or into a concurrent-serving window, where the
/// serial context is off-limits anyway).
class CallbackScope {
public:
  CallbackScope(Server &S, interp::ExecCallbacks *CB) : S(&S) {
    S.attachCallbacks(CB);
  }
  ~CallbackScope() {
    if (S)
      S->attachCallbacks(nullptr);
  }

  CallbackScope(CallbackScope &&O) noexcept : S(O.S) { O.S = nullptr; }
  CallbackScope &operator=(CallbackScope &&) = delete;
  CallbackScope(const CallbackScope &) = delete;
  CallbackScope &operator=(const CallbackScope &) = delete;

private:
  Server *S;
};

} // namespace jumpstart::vm

#endif // JUMPSTART_VM_SERVER_H
