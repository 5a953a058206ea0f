//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent-serving window: real host threads execute requests
/// against per-worker contexts while one background thread compiles and
/// publishes translation snapshots through epoch-based reclamation
/// (paper section VII: retranslate-all under live load, no quiescence).
///
/// Determinism contract.  Per-request *observables* (return value,
/// output, faults) are interleaving- and thread-count-invariant: the
/// interpreter is the single semantic core, shared state is frozen at
/// beginConcurrentServing(), and each request runs on a private heap.
/// Per-request *virtual seconds* are not: they depend on which snapshot
/// a request observed, i.e. on the race between serving and compilation
/// that this mode exists to exercise.  Consequently serve() never
/// touches the virtual clock, metrics, or tracer -- integer totals fold
/// into the registry once, at endConcurrentServing() -- and CI gates
/// only the invariant side (the tier-1 server_load snapshot checks at
/// --threads 1 and 4).
///
//===----------------------------------------------------------------------===//

#include "vm/Server.h"

#include "obs/Observability.h"
#include "support/Assert.h"

using namespace jumpstart;
using namespace jumpstart::vm;

uint32_t Server::effectiveMaxInFlight() const {
  if (Config.Admission.MaxInFlight)
    return Config.Admission.MaxInFlight;
  return 2 * Config.ServeWorkers;
}

void Server::publishSnapshot() {
  Publisher->publish(jit::TransSnapshot::capture(TheJit, ++SnapVersion));
}

void Server::beginConcurrentServing() {
  alwaysAssert(Started, "beginConcurrentServing() before startup()");
  alwaysAssert(!Serving.load(std::memory_order_acquire),
               "beginConcurrentServing() called twice");

  // Freeze the data plane: load every unit and build every class layout
  // now, so request threads never mutate shared lazy state (and never
  // race on who pays a first-touch charge).  The unit-load cost is
  // charged here, spread across all cores like the consumer preload.
  double PreloadUnitsCost = 0;
  for (size_t U = 0; U < R.numUnits(); ++U)
    PreloadUnitsCost += loadUnit(static_cast<uint32_t>(U));
  for (size_t C = 0; C < R.numClasses(); ++C)
    Classes.layout(bc::ClassId(static_cast<uint32_t>(C)));

  CurStats = ServeStats();
  CurStats.PreloadSeconds =
      unitsToSeconds(PreloadUnitsCost) / Config.Cores;
  if (Obs) {
    Obs->Trace.completeSpan("serve-preload", "phase", ServerTrack,
                            Obs->Clock.now(), CurStats.PreloadSeconds);
    Obs->Clock.advance(CurStats.PreloadSeconds);
    Obs->Trace.instant("begin-concurrent-serving", "phase", ServerTrack);
  }

  Domain = std::make_unique<support::EpochDomain>();
  Publisher = std::make_unique<jit::SnapshotPublisher>(*Domain);
  SnapVersion = 0;
  ServeContexts.clear();
  for (uint32_t I = 0; I < Config.ServeWorkers; ++I) {
    auto Ctx = std::make_unique<ExecContext>(R, Classes, Config.Interp);
    // Uninstrumented: no profiling hooks, so request threads never call
    // into the JIT.  InstrCounts still accumulate (the interpreter
    // counts unconditionally), which is all the cost model needs.
    Ctx->Slot = Domain->acquireSlot();
    ServeContexts.push_back(std::move(Ctx));
  }
  {
    support::MutexLock Lock(ServeM);
    FreeContexts.clear();
    for (auto &Ctx : ServeContexts)
      FreeContexts.push_back(Ctx.get());
    InFlightCount = 0;
    SubmittedCount = ServedCount = ShedCount = 0;
  }
  BaseRequests = Requests;
  publishSnapshot();
  Serving.store(true, std::memory_order_release);
}

RequestResult Server::serve(bc::FuncId F,
                            const std::vector<runtime::Value> &Args,
                            uint64_t RequestIndex) {
  alwaysAssert(Serving.load(std::memory_order_acquire),
               "serve() outside a concurrent-serving window");
  ExecContext *Ctx = nullptr;
  {
    support::MutexLock Lock(ServeM);
    ++SubmittedCount;
    while (InFlightCount >= effectiveMaxInFlight()) {
      if (Config.Admission.OnOverload == AdmissionConfig::Policy::Shed) {
        ++ShedCount;
        RequestResult Res;
        Res.Shed = true;
        return Res;
      }
      ServeCV.wait(Lock);
    }
    ++InFlightCount;
    // Admitted; wait for a context.  Bounded by MaxInFlight, so with
    // the Block policy this is the closed-loop client queue.
    while (FreeContexts.empty())
      ServeCV.wait(Lock);
    Ctx = FreeContexts.back();
    FreeContexts.pop_back();
  }

  RequestResult Res =
      executeOnContext(*Ctx, F, Args, BaseRequests + RequestIndex + 1);

  {
    support::MutexLock Lock(ServeM);
    FreeContexts.push_back(Ctx);
    --InFlightCount;
    ++ServedCount;
  }
  ServeCV.notifyAll();
  return Res;
}

RequestResult
Server::executeOnContext(ExecContext &Ctx, bc::FuncId F,
                         const std::vector<runtime::Value> &Args,
                         uint64_t DecayRequests) {
  // Pin an epoch for the whole request: the snapshot pointer stays
  // valid until we unpin, however many publications happen meanwhile.
  support::EpochGuard Guard(*Domain, *Ctx.Slot);
  const jit::TransSnapshot *Snap = Publisher->current();
  alwaysAssert(Snap, "serving without a published snapshot");

  Ctx.InstrCounts.clear();
  interp::InterpResult Result = Ctx.Interp->call(F, Args);
  Ctx.Faults += Result.Faults;
  ++Ctx.Served;
  // Cost the request against the pinned snapshot.  No unit-load term:
  // the data plane was fully preloaded at beginConcurrentServing().  The
  // runtime-warmup friction decays by the caller-assigned request index,
  // not arrival order, so it is interleaving-independent.
  return finishRequest(Ctx, Result, 0, Snap, DecayRequests);
}

double Server::runBackgroundJitWork(double Seconds) {
  alwaysAssert(Serving.load(std::memory_order_acquire),
               "runBackgroundJitWork() outside a concurrent-serving window");
  double Wall = spendJitTime(Seconds);
  if (Wall > 0)
    publishSnapshot();
  return Wall;
}

ServeStats Server::endConcurrentServing() {
  alwaysAssert(Serving.load(std::memory_order_acquire),
               "endConcurrentServing() without beginConcurrentServing()");
  {
    support::MutexLock Lock(ServeM);
    alwaysAssert(InFlightCount == 0,
                 "endConcurrentServing() with requests in flight");
    CurStats.Submitted = SubmittedCount;
    CurStats.Served = ServedCount;
    CurStats.Shed = ShedCount;
    FreeContexts.clear();
  }
  Serving.store(false, std::memory_order_release);

  for (auto &Ctx : ServeContexts) {
    CurStats.Faults += Ctx->Faults;
    Domain->releaseSlot(Ctx->Slot);
    Ctx->Slot = nullptr;
  }
  ServeContexts.clear();

  CurStats.SnapshotsPublished = Publisher->published();
  // Destroy the publisher first (frees the live snapshot), then drain
  // every retired one; with all slots released nothing can be pinned.
  Publisher.reset();
  Domain->reclaimAll();
  CurStats.SnapshotsReclaimed = Domain->freedCount();
  Domain.reset();

  alwaysAssert(CurStats.Submitted == CurStats.Served + CurStats.Shed,
               "lost request: Submitted != Served + Shed");

  Requests += CurStats.Served;
  Faults += CurStats.Faults;
  if (Obs) {
    obs::LabelSet ByServer{{"server", Config.Name}};
    Obs->Metrics.counter("jumpstart.server.requests", ByServer)
        .inc(CurStats.Served);
    if (CurStats.Faults)
      Obs->Metrics.counter("jumpstart.server.faults", ByServer)
          .inc(CurStats.Faults);
    // Registered unconditionally so the export layout does not depend
    // on whether overload happened.
    Obs->Metrics.counter("jumpstart.server.shed", ByServer)
        .inc(CurStats.Shed);
    Obs->Trace.instant("end-concurrent-serving", "phase", ServerTrack,
                       {"served=" + std::to_string(CurStats.Served),
                        "shed=" + std::to_string(CurStats.Shed),
                        "snapshots=" +
                            std::to_string(CurStats.SnapshotsPublished)});
  }
  return CurStats;
}
