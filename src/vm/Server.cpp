//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "vm/Server.h"

#include "jit/ParallelRetranslate.h"
#include "obs/Observability.h"
#include "runtime/ValueOps.h"
#include "support/Assert.h"
#include "support/Hashing.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>

using namespace jumpstart;
using namespace jumpstart::vm;

namespace jumpstart::vm {

/// Extends the JIT's profiling hooks with server concerns: first-touch
/// unit loading and feeding function-entry events to the tiering policy.
/// Serial path only -- concurrent contexts run uninstrumented.
class ServerHooks : public jit::JitProfilingHooks {
public:
  ServerHooks(Server &S, jit::Jit &J)
      : jit::JitProfilingHooks(J), S(S) {}

  void onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                   const runtime::Value *Args, uint32_t NumArgs) override {
    S.Serial->PendingLoadUnits += S.loadUnitsFor(Callee);
    S.TheJit.onFuncEntered(Callee);
    jit::JitProfilingHooks::onFuncEnter(Callee, Caller, Args, NumArgs);
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
      TheJit(R, this->Config.Jit) {
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

support::Status Server::installPackage(const profile::ProfilePackage &Pkg) {
  alwaysAssert(!Started, "installPackage() must precede startup()");
  if (Pkg.RepoFingerprint != 0 &&
      Pkg.RepoFingerprint != repoFingerprint(R))
    return support::errorStatus(
        support::StatusCode::FingerprintMismatch,
        "package repo fingerprint %llx does not match this server",
        static_cast<unsigned long long>(Pkg.RepoFingerprint));
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

double Server::loadUnitsFor(bc::FuncId F) {
  uint32_t Unit = R.func(F).Unit.raw();
  if (!LoadedUnits.insert(Unit).second)
    return 0;
  return Config.UnitLoadCost;
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
  Ctx.InstrCounts.assign(R.numFuncs(), 0);
  interp::InterpResult Result = Ctx.Interp->call(F, Args);
  RequestResult Res;
  // Render before the heap reset: the return value may point into it.
  Res.Obs.Ret = runtime::toString(Result.Ret);
  Res.Obs.Output = Ctx.Output;
  Res.Obs.Faults = Result.Faults;
  Res.Obs.Ok = Result.Ok;
  Faults += Result.Faults;
  ++Requests;
  TheJit.onRequestFinished();
  Ctx.Heap.reset();
  Ctx.Output.clear();

  double Units = Ctx.PendingLoadUnits;
  for (uint32_t FuncRaw = 0; FuncRaw < Ctx.InstrCounts.size(); ++FuncRaw) {
    if (Ctx.InstrCounts[FuncRaw] == 0)
      continue;
    Units += static_cast<double>(Ctx.InstrCounts[FuncRaw]) *
             TheJit.execCostPerBytecode(bc::FuncId(FuncRaw));
  }
  // Runtime-warmup friction (see ServerConfig::RuntimeWarmupPenalty).
  if (Config.RuntimeWarmupPenalty > 0 && Config.RuntimeWarmupTau > 0) {
    double Decay = std::exp(-static_cast<double>(Requests) /
                            Config.RuntimeWarmupTau);
    Units *= 1.0 + Config.RuntimeWarmupPenalty * Decay;
  }
  double Seconds = unitsToSeconds(Units);
  if (Obs) {
    // The request's CPU time is what moves this server's virtual clock.
    Obs->Clock.advance(Seconds);
    Obs->Trace.endSpan(SpanIndex);
    obs::LabelSet ByServer{{"server", Config.Name}};
    Obs->Metrics.counter("jumpstart.server.requests", ByServer).inc();
    if (Result.Faults)
      Obs->Metrics.counter("jumpstart.server.faults", ByServer)
          .inc(Result.Faults);
    Obs->Metrics
        .histogram("jumpstart.server.request_seconds", ByServer,
                   obs::latencyBucketsSeconds())
        .observe(Seconds);
  }
  Res.Seconds = Seconds;
  return Res;
}

double Server::grantJitTime(double Seconds) {
  alwaysAssert(!Serving.load(std::memory_order_acquire),
               "grantJitTime() is the serial path; use "
               "runBackgroundJitWork() inside a concurrent-serving window");
  double Budget = Seconds * Config.JitWorkerCores *
                  Config.UnitsPerCorePerSecond;
  double Consumed = TheJit.runJitWork(Budget);
  double Wall =
      Consumed / (Config.JitWorkerCores * Config.UnitsPerCorePerSecond);
  // Background compilation moves the clock too, so JIT job spans land on
  // a timeline even when no tick loop is driving it (e.g. runSeeder).
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
    if (LoadedUnits.insert(Unit).second)
      PreloadUnitsCost += Config.UnitLoadCost;
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
  // Figure 3c); Config.CompilePool only shrinks host wall-clock and
  // never appears in this arithmetic.
  uint32_t VirtK = std::max(
      1u, Config.Jit.Parallelism
              ? std::min(Config.Jit.Parallelism, Config.Cores)
              : Config.Cores);
  double PrecompileUnits = 0;
  {
    obs::ScopedSpan Span(Obs ? &Obs->Trace : nullptr, "consumer-precompile",
                         "phase", ServerTrack);
    support::Status Installed = TheJit.installPackageProfiles(*Package);
    alwaysAssert(Installed.ok(),
                 "package passed lint but failed profile install");
    jit::ParallelRetranslate Driver(TheJit, Config.CompilePool);
    jit::RetranslateStats RStats =
        Driver.run(16.0 * Config.UnitsPerCorePerSecond, [&](double Step) {
          PrecompileUnits += Step;
          if (Obs)
            Obs->Clock.advance(unitsToSeconds(Step) / VirtK);
        });
    (void)RStats;
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
