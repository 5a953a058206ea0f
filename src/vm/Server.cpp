//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "vm/Server.h"

#include "obs/Observability.h"
#include "runtime/ValueOps.h"
#include "support/Assert.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cmath>

using namespace jumpstart;
using namespace jumpstart::vm;

namespace jumpstart::vm {

/// Extends the JIT's profiling hooks with server concerns: first-touch
/// unit loading and feeding function-entry events to the tiering policy.
/// A frame entry looks its translation up once, for the tiering policy
/// and the profiling frame alike.  Serial path only -- concurrent
/// contexts run without callbacks.
class ServerHooks : public jit::JitProfilingHooks {
public:
  ServerHooks(Server &S, jit::Jit &J)
      : jit::JitProfilingHooks(J), S(S) {}

  void onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                   const runtime::Value *Args, uint32_t NumArgs) override {
    S.Serial->PendingLoadUnits += S.loadUnitsFor(Callee);
    const jit::Translation *Best = S.TheJit.onFuncEntered(Callee);
    enterFrame(Callee, Caller, Args, NumArgs, Best);
  }

private:
  Server &S;
};

} // namespace jumpstart::vm

Server::ExecContext::ExecContext(const bc::Repo &R,
                                 runtime::ClassTable &Classes,
                                 const interp::InterpOptions &Opts) {
  Interp = std::make_unique<interp::Interpreter>(
      R, Classes, Heap, runtime::BuiltinTable::standard(), Opts);
  Interp->setInstrCounts(&InstrCounts);
  Interp->setOutput(&Output);
}

Server::Server(const bc::Repo &R, ServerConfig Config, uint64_t Seed)
    : R(R), Config(std::move(Config)), Classes(R),
      TheJit(R, this->Config.Jit, this->Config.CompilePool),
      UnitLoaded(R.numUnits(), 0) {
  (void)Seed;
  std::vector<std::string> Diags = validateServerConfig(this->Config);
  std::string Why =
      Diags.empty() ? "" : "invalid vm::ServerConfig: " + Diags.front();
  alwaysAssert(Diags.empty(), Why.c_str());
  Serial =
      std::make_unique<ExecContext>(R, Classes, this->Config.Interp);
  Hooks = std::make_unique<ServerHooks>(*this, TheJit);
  Serial->Interp->setCallbacks(Hooks.get());

  if (this->Config.Obs) {
    Obs = this->Config.Obs;
    ServerTrack = Obs->Trace.allocTrack(this->Config.Name);
    JitTrack = Obs->Trace.allocTrack(this->Config.Name + "/jit");
    // JIT job costs convert to wall time at the worker pool's aggregate
    // rate.
    double PoolRate =
        this->Config.UnitsPerCorePerSecond * this->Config.JitWorkerCores;
    TheJit.setObservability(Obs, 1.0 / PoolRate, JitTrack);
  }
}

Server::~Server() {
  alwaysAssert(!Serving.load(std::memory_order_acquire),
               "destroying a server inside a concurrent-serving window");
}

uint64_t Server::repoFingerprint(const bc::Repo &R) {
  uint64_t H = 0x5e4a9b1cull;
  H = hashCombine(H, R.numFuncs());
  H = hashCombine(H, R.numClasses());
  H = hashCombine(H, R.numStrings());
  for (const bc::Function &F : R.funcs()) {
    H = hashCombine(H, F.Code.size());
    if (!F.Code.empty())
      H = hashCombine(H, static_cast<uint64_t>(F.Code[0].Opcode) ^
                             static_cast<uint64_t>(F.Code.back().ImmA));
  }
  return H;
}

namespace {

/// Rejects a package whose function or unit ids index past \p R, or
/// that profiles a function twice.  The JIT and the server index dense
/// per-function and per-unit tables by these ids.  Strict lint reports
/// each case too, but a package with fingerprint 0 is never linted.
support::Status checkPackageIds(const bc::Repo &R,
                                const profile::ProfilePackage &Pkg) {
  auto Corrupt = [](const char *What, uint32_t Id) {
    return support::errorStatus(support::StatusCode::CorruptData,
                                "package %s #%u is outside this repo", What,
                                Id);
  };
  const size_t NumFuncs = R.numFuncs();
  std::vector<uint8_t> Profiled(NumFuncs, 0);
  for (const profile::FuncProfile &F : Pkg.Funcs) {
    if (F.Func >= NumFuncs)
      return Corrupt("profiles function", F.Func);
    if (Profiled[F.Func])
      return support::errorStatus(support::StatusCode::CorruptData,
                                  "package profiles function %u twice",
                                  F.Func);
    Profiled[F.Func] = 1;
  }
  for (const auto &[Arc, Count] : Pkg.Opt.CallArcs) {
    (void)Count;
    if (Arc.first >= NumFuncs)
      return Corrupt("call arc names function", Arc.first);
    if (Arc.second >= NumFuncs)
      return Corrupt("call arc names function", Arc.second);
  }
  for (const auto &[Func, Counts] : Pkg.Opt.VasmBlockCounts) {
    (void)Counts;
    if (Func >= NumFuncs)
      return Corrupt("vasm counters name function", Func);
  }
  for (uint32_t Func : Pkg.Intermediate.FuncOrder)
    if (Func >= NumFuncs)
      return Corrupt("function order lists function", Func);
  for (uint32_t Func : Pkg.Intermediate.LiveFuncs)
    if (Func >= NumFuncs)
      return Corrupt("live-code list names function", Func);
  for (uint32_t Unit : Pkg.Preload.Units)
    if (Unit >= R.numUnits())
      return Corrupt("preload list names unit", Unit);
  return support::Status::okStatus();
}

} // namespace

support::Status Server::installPackage(const profile::ProfilePackage &Pkg) {
  alwaysAssert(!Started, "installPackage() must precede startup()");
  if (Pkg.RepoFingerprint != 0 &&
      Pkg.RepoFingerprint != repoFingerprint(R))
    return support::errorStatus(
        support::StatusCode::FingerprintMismatch,
        "package repo fingerprint %llx does not match this server",
        static_cast<unsigned long long>(Pkg.RepoFingerprint));
  if (support::Status Ids = checkPackageIds(R, Pkg); !Ids.ok())
    return Ids;
  Package = Pkg;
  PackageBytes = Pkg.serialize().size();
  if (Obs)
    Obs->Trace.instant(
        "install-package", "package", ServerTrack,
        {"bytes=" + std::to_string(PackageBytes),
         "seeder=" + std::to_string(Pkg.SeederId)});
  if (Config.ReorderProperties && !Package->Opt.PropAccessCounts.empty()) {
    if (Config.UseAffinityPropOrder && !Package->Opt.PropAffinity.empty())
      Classes.enableAffinityReordering(&Package->Opt.PropAccessCounts,
                                       &Package->Opt.PropAffinity);
    else
      Classes.enablePropReordering(&Package->Opt.PropAccessCounts);
  }
  return support::Status::okStatus();
}

RequestResult Server::executeRequest(bc::FuncId F,
                                     const std::vector<runtime::Value> &Args) {
  alwaysAssert(!Serving.load(std::memory_order_acquire),
               "executeRequest() is the serial path; use serve() inside a "
               "concurrent-serving window");
  ExecContext &Ctx = *Serial;
  size_t SpanIndex = 0;
  if (Obs)
    SpanIndex = Obs->Trace.beginSpan("request", "request", ServerTrack);
  Ctx.PendingLoadUnits = 0;
  Ctx.InstrCounts.clear();
  interp::InterpResult Result = Ctx.Interp->call(F, Args);
  Faults += Result.Faults;
  ++Requests;
  TheJit.onRequestFinished();
  RequestResult Res = finishRequest(Ctx, Result, Ctx.PendingLoadUnits,
                                    /*Snap=*/nullptr, Requests);
  if (Obs) {
    // The request's CPU time is what moves this server's virtual clock.
    Obs->Clock.advance(Res.Seconds);
    Obs->Trace.endSpan(SpanIndex);
    obs::LabelSet ByServer{{"server", Config.Name}};
    Obs->Metrics.counter("jumpstart.server.requests", ByServer).inc();
    if (Result.Faults)
      Obs->Metrics.counter("jumpstart.server.faults", ByServer)
          .inc(Result.Faults);
    Obs->Metrics
        .histogram("jumpstart.server.request_seconds", ByServer,
                   obs::latencyBucketsSeconds())
        .observe(Res.Seconds);
  }
  return Res;
}

RequestResult Server::finishRequest(ExecContext &Ctx,
                                    const interp::InterpResult &Result,
                                    double StartUnits,
                                    const jit::TransSnapshot *Snap,
                                    uint64_t DecayRequests) {
  RequestResult Res;
  // Render before the heap reset: the return value may point into it.
  Res.Obs.Ret = runtime::toString(Result.Ret);
  Res.Obs.Output = Ctx.Output;
  Res.Obs.Faults = Result.Faults;
  Res.Obs.Ok = Result.Ok;
  Ctx.Heap.reset();
  Ctx.Output.clear();

  // Summed in ascending FuncId order, as a scan of every function's
  // count would add them, so the floating-point total is the same.
  double Units = StartUnits;
  std::vector<uint32_t> &Touched = Ctx.InstrCounts.Touched;
  std::sort(Touched.begin(), Touched.end());
  for (uint32_t FuncRaw : Touched)
    Units += static_cast<double>(Ctx.InstrCounts.Counts[FuncRaw]) *
             (Snap ? Snap->CostPerBytecode[FuncRaw]
                   : TheJit.execCostPerBytecode(bc::FuncId(FuncRaw)));
  // Runtime-warmup friction (see ServerConfig::RuntimeWarmupPenalty).
  if (Config.RuntimeWarmupPenalty > 0 && Config.RuntimeWarmupTau > 0) {
    double Decay = std::exp(-static_cast<double>(DecayRequests) /
                            Config.RuntimeWarmupTau);
    Units *= 1.0 + Config.RuntimeWarmupPenalty * Decay;
  }
  Res.Seconds = unitsToSeconds(Units);
  return Res;
}

double Server::grantJitTime(double Seconds) {
  alwaysAssert(!Serving.load(std::memory_order_acquire),
               "grantJitTime() is the serial path; use "
               "runBackgroundJitWork() inside a concurrent-serving window");
  return spendJitTime(Seconds);
}

double Server::spendJitTime(double Seconds) {
  double Budget = Seconds * Config.JitWorkerCores *
                  Config.UnitsPerCorePerSecond;
  double Consumed = TheJit.runJitWork(Budget);
  double Wall =
      Consumed / (Config.JitWorkerCores * Config.UnitsPerCorePerSecond);
  // Compilation moves the clock too, so JIT job spans land on a timeline
  // even when no tick loop is driving it (e.g. runSeeder).  Inside a
  // concurrent-serving window this runs on the compile thread, the
  // window's sole observability writer.
  if (Obs)
    Obs->Clock.advance(Wall);
  return Wall;
}

void Server::attachCallbacks(interp::ExecCallbacks *CB) {
  Serial->Interp->setCallbacks(CB ? CB : Hooks.get());
}

void Server::seedInlineCaches() {
  if (!Config.Jit.ProvenGuardElision || !Config.Jit.Facts)
    return;
  for (const jit::ProvenFacts::ICSeed &S : Config.Jit.Facts->ICSeeds) {
    bc::FuncId F(S.Func);
    if (F.raw() >= R.numFuncs() || S.Pc >= R.func(F).Code.size() ||
        S.Cls >= R.numClasses())
      continue;
    const bc::Instr &In = R.func(F).Code[S.Pc];
    const runtime::ClassLayout &L = Classes.layout(bc::ClassId(S.Cls));
    // Seed exactly what the first successful dynamic lookup would cache;
    // an unresolvable site (missing method/property) caches nothing
    // dynamically, so it must stay cold here too.
    uint64_t Payload;
    if (S.K == jit::ProvenFacts::ICSeed::Kind::Call) {
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
    if (Serial->Interp->seedIC(F, S.Pc, &L, Payload))
      ++ICsSeeded;
  }
  if (Obs && ICsSeeded)
    Obs->Metrics
        .counter("jumpstart.interp.ics_seeded", {{"server", Config.Name}})
        .inc(ICsSeeded);
}

InitStats Server::startup() {
  alwaysAssert(!Started, "startup() called twice");
  Started = true;
  InitStats Stats;
  seedInlineCaches();

  // The startup span covers the whole initialization; phase sub-spans
  // nest under it.  The clock ends exactly InitStats::TotalSeconds past
  // its entry value (warmup requests advance it themselves; the final
  // set() squares the parallel-warmup discount with the trace).
  double ClockStart = Obs ? Obs->Clock.now() : 0;
  size_t StartupSpan = 0;
  if (Obs)
    StartupSpan = Obs->Trace.beginSpan("startup", "phase", ServerTrack);
  auto Finish = [&](InitStats &S) {
    if (Obs) {
      Obs->Clock.set(ClockStart + S.TotalSeconds);
      Obs->Trace.endSpan(StartupSpan);
      obs::LabelSet ByServer{{"server", Config.Name}};
      Obs->Metrics.gauge("jumpstart.server.init_seconds", ByServer)
          .set(S.TotalSeconds);
      Obs->Metrics
          .counter("jumpstart.server.boots",
                   {{"jumpstart", S.UsedJumpStart ? "yes" : "no"}})
          .inc();
    }
    return S;
  };

  auto RunWarmupRequests = [&](bool Parallel) {
    double Total = 0;
    for (uint32_t Raw : Config.WarmupEndpoints) {
      std::vector<runtime::Value> Args{runtime::Value::integer(0)};
      Total += executeRequest(bc::FuncId(Raw), Args).Seconds;
    }
    if (Parallel && Config.Cores > 1)
      Total /= static_cast<double>(Config.Cores);
    return Total;
  };

  if (!Package) {
    // Figure 3a: initialize, then run warmup requests *sequentially*
    // (their metadata-load order matters for locality; paper
    // section VII-A), then start serving.
    {
      obs::ScopedSpan Span(Obs ? &Obs->Trace : nullptr, "warmup-requests",
                           "phase", ServerTrack);
      Stats.WarmupRequestSeconds = RunWarmupRequests(/*Parallel=*/false);
    }
    Stats.TotalSeconds = Stats.WarmupRequestSeconds;
    return Finish(Stats);
  }

  // Figure 3c: deserialize the package, preload metadata, JIT all
  // optimized code using every core, then run warmup requests in
  // parallel.
  Stats.UsedJumpStart = true;
  Stats.DeserializeSeconds = unitsToSeconds(
      static_cast<double>(PackageBytes) * Config.DeserializeCostPerByte);
  if (Obs) {
    Obs->Trace.completeSpan("deserialize-package", "package", ServerTrack,
                            Obs->Clock.now(), Stats.DeserializeSeconds);
    Obs->Clock.advance(Stats.DeserializeSeconds);
  }

  // Category-1 preload: units, classes and strings, in package order.
  double PreloadUnitsCost = 0;
  for (uint32_t Unit : Package->Preload.Units)
    PreloadUnitsCost += loadUnit(Unit);
  for (uint32_t Cls : Package->Preload.Classes)
    if (Cls < R.numClasses())
      Classes.layout(bc::ClassId(Cls));
  // Preloading is parallel across cores (it is what enables the parallel
  // warmup requests; paper section VII-A).
  Stats.PreloadSeconds =
      unitsToSeconds(PreloadUnitsCost) / Config.Cores;
  if (Obs) {
    Obs->Trace.completeSpan("preload-metadata", "phase", ServerTrack,
                            Obs->Clock.now(), Stats.PreloadSeconds);
    Obs->Clock.advance(Stats.PreloadSeconds);
  }

  // Precompile every optimized translation before serving.  The clock
  // advances with each work slice so JIT job spans spread across the
  // precompile window.  The virtual wall-cost divides by the *modeled*
  // parallelism (JitConfig::Parallelism, default: every core -- paper
  // Figure 3c); Config.CompilePool only shrinks host wall-clock (each
  // slice's lowering and layout run on it) and never appears in this
  // arithmetic.
  uint32_t VirtK = std::max(
      1u, Config.Jit.Parallelism
              ? std::min(Config.Jit.Parallelism, Config.Cores)
              : Config.Cores);
  double PrecompileUnits = 0;
  {
    obs::ScopedSpan Span(Obs ? &Obs->Trace : nullptr, "consumer-precompile",
                         "phase", ServerTrack);
    TheJit.startConsumerPrecompile(*Package);
    while (TheJit.hasPendingWork()) {
      double Step = TheJit.runJitWork(16.0 * Config.UnitsPerCorePerSecond);
      alwaysAssert(Step > 0, "jit pipeline stalled with pending work");
      PrecompileUnits += Step;
      if (Obs)
        Obs->Clock.advance(unitsToSeconds(Step) / VirtK);
    }
  }
  Stats.PrecompileSeconds = unitsToSeconds(PrecompileUnits) / VirtK;

  {
    obs::ScopedSpan Span(Obs ? &Obs->Trace : nullptr, "warmup-requests",
                         "phase", ServerTrack);
    Stats.WarmupRequestSeconds = RunWarmupRequests(/*Parallel=*/true);
  }
  Stats.TotalSeconds = Stats.DeserializeSeconds + Stats.PreloadSeconds +
                       Stats.PrecompileSeconds +
                       Stats.WarmupRequestSeconds;
  return Finish(Stats);
}

profile::ProfilePackage Server::buildSeederPackage(uint32_t Region,
                                                   uint32_t Bucket,
                                                   uint64_t SeederId) const {
  return TheJit.buildPackage(Region, Bucket, SeederId, repoFingerprint(R));
}
