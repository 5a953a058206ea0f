//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the concurrent-serving engine: epoch-based reclamation
/// properties, translation-snapshot publication, admission control
/// (shed accounting), the concurrent-vs-serial equivalence of a
/// background retranslate-all under live load, and the redesigned
/// Server API surface (RequestResult, CallbackScope, ServerConfig
/// validation).  Tier-1; ci/sanitize.sh runs it under TSAN
/// (JUMPSTART_SANITIZE=thread), which is what actually checks the
/// epoch pin/retire race.
///
//===----------------------------------------------------------------------===//

#include "fleet/WorkloadGen.h"
#include "jit/TransSnapshot.h"
#include "support/Epoch.h"
#include "support/ThreadPool.h"
#include "vm/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace jumpstart;

namespace {

//===----------------------------------------------------------------------===//
// Epoch-based reclamation.
//===----------------------------------------------------------------------===//

TEST(EpochDomain, RetireUnderPinIsDeferred) {
  support::EpochDomain D;
  support::EpochDomain::Slot *S = D.acquireSlot();

  bool Freed = false;
  D.pin(*S);
  D.retire([&Freed] { Freed = true; });
  // The reader entered at or before the retire tag, so nothing may be
  // freed however often the writer tries.
  D.tryReclaim();
  D.tryReclaim();
  EXPECT_FALSE(Freed);
  EXPECT_EQ(D.pendingCount(), 1u);

  D.unpin(*S);
  EXPECT_EQ(D.tryReclaim(), 1u);
  EXPECT_TRUE(Freed);
  EXPECT_EQ(D.pendingCount(), 0u);
  EXPECT_EQ(D.retiredCount(), 1u);
  EXPECT_EQ(D.freedCount(), 1u);
  D.releaseSlot(S);
}

TEST(EpochDomain, QuiescentDomainDrainsImmediately) {
  support::EpochDomain D;
  int Freed = 0;
  for (int I = 0; I < 5; ++I)
    D.retire([&Freed] { ++Freed; });
  EXPECT_EQ(D.tryReclaim(), 5u);
  EXPECT_EQ(Freed, 5);
}

TEST(EpochDomain, ReclaimAllRequiresQuiescence) {
  support::EpochDomain D;
  bool Freed = false;
  D.retire([&Freed] { Freed = true; });
  EXPECT_EQ(D.reclaimAll(), 1u);
  EXPECT_TRUE(Freed);
}

TEST(EpochDomain, GuardPinsForItsScope) {
  support::EpochDomain D;
  support::EpochDomain::Slot *S = D.acquireSlot();
  bool Freed = false;
  {
    support::EpochGuard G(D, *S);
    EXPECT_GE(G.epoch(), 1u);
    EXPECT_EQ(D.pinnedReaders(), 1u);
    D.retire([&Freed] { Freed = true; });
    D.tryReclaim();
    EXPECT_FALSE(Freed);
  }
  EXPECT_EQ(D.pinnedReaders(), 0u);
  D.tryReclaim();
  EXPECT_TRUE(Freed);
  D.releaseSlot(S);
}

TEST(EpochDomain, SlotsArePooled) {
  support::EpochDomain D;
  support::EpochDomain::Slot *A = D.acquireSlot();
  D.releaseSlot(A);
  support::EpochDomain::Slot *B = D.acquireSlot();
  EXPECT_EQ(A, B) << "released slot should be reused before growing";
  D.releaseSlot(B);
}

/// The reclamation safety property under real concurrency: readers
/// continuously pin, read the published object, and verify it is
/// internally consistent; the writer keeps swapping + retiring.  A
/// premature free shows up as a torn read (and, under TSAN, as a race).
TEST(EpochDomain, ConcurrentPublishNeverFreesVisibleObject) {
  struct Obj {
    uint64_t A = 0;
    uint64_t B = 0; ///< invariant: B == ~A
  };
  support::EpochDomain D;
  std::atomic<const Obj *> Cur{new Obj{0, ~uint64_t{0}}};

  constexpr int kReaders = 4;
  constexpr int kVersions = 400;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Torn{0};

  std::vector<support::EpochDomain::Slot *> Slots;
  for (int I = 0; I < kReaders; ++I)
    Slots.push_back(D.acquireSlot());

  std::vector<std::thread> Readers;
  for (int I = 0; I < kReaders; ++I)
    Readers.emplace_back([&, I] {
      while (!Stop.load(std::memory_order_acquire)) {
        support::EpochGuard G(D, *Slots[I]);
        const Obj *O = Cur.load(std::memory_order_acquire);
        if (O->B != ~O->A)
          Torn.fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (uint64_t V = 1; V <= kVersions; ++V) {
    const Obj *Next = new Obj{V, ~V};
    const Obj *Old = Cur.exchange(Next, std::memory_order_acq_rel);
    D.retire([Old] { delete Old; });
    D.tryReclaim();
  }
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();
  for (support::EpochDomain::Slot *S : Slots)
    D.releaseSlot(S);

  EXPECT_EQ(Torn.load(), 0u);
  delete Cur.load();
  D.reclaimAll();
  EXPECT_EQ(D.freedCount(), D.retiredCount());
  EXPECT_EQ(D.retiredCount(), static_cast<uint64_t>(kVersions));
}

//===----------------------------------------------------------------------===//
// Snapshot publication.
//===----------------------------------------------------------------------===//

TEST(SnapshotPublisher, VersionsAdvanceAndRetireesDrain) {
  support::EpochDomain D;
  jit::SnapshotPublisher P(D);
  EXPECT_EQ(P.current(), nullptr);
  for (uint64_t V = 1; V <= 3; ++V) {
    auto S = std::make_unique<jit::TransSnapshot>();
    S->Version = V;
    P.publish(std::unique_ptr<const jit::TransSnapshot>(std::move(S)));
    ASSERT_NE(P.current(), nullptr);
    EXPECT_EQ(P.current()->Version, V);
  }
  EXPECT_EQ(P.published(), 3u);
  // Two superseded snapshots retired; with no reader pinned they free
  // on the opportunistic reclaim inside publish().
  EXPECT_EQ(D.retiredCount(), 2u);
  EXPECT_EQ(D.pendingCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Server fixtures.
//===----------------------------------------------------------------------===//

class ServerConcurrencyFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    fleet::WorkloadParams P;
    P.NumHelpers = 120;
    P.NumClasses = 24;
    P.NumEndpoints = 12;
    P.NumUnits = 12;
    W = fleet::generateWorkload(P).release();
  }
  static void TearDownTestSuite() {
    delete W;
    W = nullptr;
  }

  static vm::ServerConfig fastConfig() {
    vm::ServerConfig C;
    C.Jit.ProfileRequestTarget = 20;
    C.JitWorkerCores = 1;
    return C;
  }

  /// The deterministic request schedule shared by every serving mode.
  static bc::FuncId endpointFor(uint32_t Rq) {
    return W->Endpoints[Rq % W->Endpoints.size()];
  }
  static std::vector<runtime::Value> argsFor(uint32_t Rq) {
    return {runtime::Value::integer(
        static_cast<int64_t>((Rq * 2654435761ull) & 0xFFFFFull))};
  }

  /// Runs the profiling prefix serially with small per-request JIT
  /// grants (profile translations must compile for samples to
  /// accumulate), withholding the grant after the final request so the
  /// retranslate-all triggered by it is still fully queued on return.
  static void profilePrefix(vm::Server &S, uint32_t N) {
    for (uint32_t Rq = 0; Rq < N; ++Rq) {
      S.executeRequest(endpointFor(Rq), argsFor(Rq));
      if (Rq + 1 < N)
        S.grantJitTime(0.25);
    }
  }

  static fleet::Workload *W;
};

fleet::Workload *ServerConcurrencyFixture::W = nullptr;

//===----------------------------------------------------------------------===//
// The tentpole: background retranslate-all under live load.
//===----------------------------------------------------------------------===//

TEST_F(ServerConcurrencyFixture, RetranslateAllUnderLiveLoadMatchesSerial) {
  constexpr uint32_t kProfile = 20;
  constexpr uint32_t kServe = 48;
  constexpr uint32_t kClients = 4;

  // Twin A: serial reference.  Drain the queued retranslate-all to
  // maturity, then serve the schedule one request at a time.
  vm::ServerConfig CA = fastConfig();
  vm::Server A(W->Repo, CA, 7);
  A.startup();
  profilePrefix(A, kProfile);
  ASSERT_TRUE(A.theJit().hasPendingWork());
  while (A.theJit().hasPendingWork())
    A.grantJitTime(1.0);
  ASSERT_EQ(A.theJit().phase(), jit::JitPhase::Mature);
  std::vector<vm::RequestObservables> SerialObs;
  for (uint32_t Rq = 0; Rq < kServe; ++Rq)
    SerialObs.push_back(A.executeRequest(endpointFor(Rq), argsFor(Rq)).Obs);
  std::string SerialPlacement = A.theJit().transDb().placementDigest();

  // Twin B: identical profiling prefix, then the retranslate-all runs on
  // a background thread WHILE kClients threads serve the same schedule
  // concurrently -- no quiescence anywhere.
  vm::ServerConfig CB = fastConfig();
  CB.ServeWorkers = kClients;
  vm::Server B(W->Repo, CB, 7);
  B.startup();
  profilePrefix(B, kProfile);
  ASSERT_TRUE(B.theJit().hasPendingWork());

  B.beginConcurrentServing();
  std::thread Compiler([&B] {
    while (B.theJit().hasPendingWork())
      B.runBackgroundJitWork(0.25);
  });

  std::vector<vm::RequestObservables> ConcObs(kServe);
  std::atomic<uint32_t> Next{0};
  auto Client = [&] {
    for (;;) {
      uint32_t Rq = Next.fetch_add(1, std::memory_order_relaxed);
      if (Rq >= kServe)
        break;
      vm::RequestResult Res = B.serve(endpointFor(Rq), argsFor(Rq), Rq);
      ASSERT_FALSE(Res.Shed);
      ConcObs[Rq] = std::move(Res.Obs);
    }
  };
  std::vector<std::thread> Clients;
  for (uint32_t I = 0; I < kClients; ++I)
    Clients.emplace_back(Client);
  for (std::thread &T : Clients)
    T.join();
  Compiler.join();
  vm::ServeStats Stats = B.endConcurrentServing();

  // No lost requests, nothing shed (Block policy), compilation finished.
  EXPECT_EQ(Stats.Submitted, kServe);
  EXPECT_EQ(Stats.Served, kServe);
  EXPECT_EQ(Stats.Shed, 0u);
  EXPECT_EQ(B.theJit().phase(), jit::JitPhase::Mature);
  EXPECT_EQ(B.requestsServed(), A.requestsServed());

  // At least the initial snapshot plus one mid-window publication, and
  // every superseded snapshot reclaimed.
  EXPECT_GE(Stats.SnapshotsPublished, 2u);
  EXPECT_EQ(Stats.SnapshotsReclaimed, Stats.SnapshotsPublished - 1);

  // The concurrent engine is semantically invisible: per-index
  // observables and the final translation placement match the serial
  // twin exactly.
  for (uint32_t Rq = 0; Rq < kServe; ++Rq) {
    EXPECT_EQ(ConcObs[Rq].Ret, SerialObs[Rq].Ret) << "request " << Rq;
    EXPECT_EQ(ConcObs[Rq].Output, SerialObs[Rq].Output) << "request " << Rq;
    EXPECT_EQ(ConcObs[Rq].Faults, SerialObs[Rq].Faults) << "request " << Rq;
    EXPECT_EQ(ConcObs[Rq].Ok, SerialObs[Rq].Ok) << "request " << Rq;
  }
  EXPECT_EQ(B.theJit().transDb().placementDigest(), SerialPlacement);
}

TEST_F(ServerConcurrencyFixture, BackgroundPrelowerMatchesSerialDigest) {
  constexpr uint32_t kProfile = 20;

  // Serial reference: drain the queued retranslate-all inline.
  vm::Server A(W->Repo, fastConfig(), 7);
  A.startup();
  profilePrefix(A, kProfile);
  while (A.theJit().hasPendingWork())
    A.grantJitTime(1.0);
  std::string SerialPlacement = A.theJit().transDb().placementDigest();

  // Twin: same prefix, but each background slice lowers and lays out
  // the jobs it finishes on a host compile pool.  The pool must be
  // invisible in the placement digest.
  support::ThreadPool Pool(3);
  vm::ServerConfig CB = fastConfig();
  CB.CompilePool = &Pool;
  vm::Server B(W->Repo, CB, 7);
  B.startup();
  profilePrefix(B, kProfile);
  ASSERT_TRUE(B.theJit().hasPendingWork());

  B.beginConcurrentServing();
  while (B.theJit().hasPendingWork())
    B.runBackgroundJitWork(0.25);
  vm::ServeStats Stats = B.endConcurrentServing();
  EXPECT_EQ(Stats.Submitted, 0u);

  EXPECT_EQ(B.theJit().phase(), jit::JitPhase::Mature);
  EXPECT_EQ(B.theJit().transDb().placementDigest(), SerialPlacement);
}

TEST_F(ServerConcurrencyFixture, PoolIsInvisibleAcrossAWindow) {
  // A window closes while the retranslate-all is still queued, then the
  // server serves serially with small grants.  Profile translations keep
  // recording until optimized code is placed, so the drain must lower
  // from the profile as it stands when each job finishes, not from one
  // taken inside the window.  A server with a compile pool must end
  // exactly where a pool-less one does.
  struct Outcome {
    std::string Placement;
    uint64_t CodeBytes = 0;
    std::vector<uint8_t> Package;
  };
  auto Run = [](support::ThreadPool *Pool) {
    vm::ServerConfig C = fastConfig();
    C.CompilePool = Pool;
    vm::Server S(W->Repo, C, 7);
    S.startup();
    constexpr uint32_t kProfile = 20;
    profilePrefix(S, kProfile);
    size_t Queued = S.theJit().pendingJobs();
    EXPECT_GT(Queued, 1u);
    S.beginConcurrentServing();
    S.runBackgroundJitWork(1e-6);
    S.endConcurrentServing();
    EXPECT_EQ(S.theJit().pendingJobs(), Queued)
        << "the window was meant to finish no job";
    for (uint32_t Rq = kProfile; Rq < kProfile + 60; ++Rq) {
      S.executeRequest(endpointFor(Rq), argsFor(Rq));
      S.grantJitTime(0.05);
    }
    while (S.theJit().hasPendingWork())
      S.grantJitTime(1.0);
    EXPECT_EQ(S.theJit().phase(), jit::JitPhase::Mature);
    return Outcome{S.theJit().transDb().placementDigest(),
                   S.theJit().totalCodeBytes(),
                   S.buildSeederPackage(0, 0, 1).serialize()};
  };
  support::ThreadPool Pool(3);
  Outcome Inline = Run(nullptr);
  Outcome Pooled = Run(&Pool);
  EXPECT_EQ(Pooled.Placement, Inline.Placement);
  EXPECT_EQ(Pooled.CodeBytes, Inline.CodeBytes);
  EXPECT_TRUE(Pooled.Package == Inline.Package);
}

TEST_F(ServerConcurrencyFixture, SnapshotCaptureMatchesJitCosts) {
  vm::Server S(W->Repo, fastConfig(), 7);
  S.startup();
  profilePrefix(S, 20);
  while (S.theJit().hasPendingWork())
    S.grantJitTime(1.0);
  auto Snap = jit::TransSnapshot::capture(S.theJit(), 1);
  ASSERT_EQ(Snap->CostPerBytecode.size(), W->Repo.numFuncs());
  EXPECT_GT(Snap->Translations, 0u);
  for (size_t F = 0; F < W->Repo.numFuncs(); ++F)
    EXPECT_EQ(Snap->CostPerBytecode[F],
              S.theJit().execCostPerBytecode(
                  bc::FuncId(static_cast<uint32_t>(F))));
}

//===----------------------------------------------------------------------===//
// Admission control.
//===----------------------------------------------------------------------===//

TEST_F(ServerConcurrencyFixture, ShedPolicyAccountsEveryRequest) {
  vm::ServerConfig C = fastConfig();
  C.ServeWorkers = 1;
  C.Admission.MaxInFlight = 1;
  C.Admission.OnOverload = vm::AdmissionConfig::Policy::Shed;
  vm::Server S(W->Repo, C, 7);
  S.startup();
  S.beginConcurrentServing();

  // Hammer the single-context server from 4 threads until someone is
  // shed; every arrival must be accounted as served or shed.
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kPerThread = 4000;
  std::atomic<uint64_t> LocalServed{0}, LocalShed{0};
  std::atomic<uint32_t> Ticket{0};
  std::atomic<bool> SawShed{false};
  std::vector<std::thread> Threads;
  for (uint32_t T = 0; T < kThreads; ++T)
    Threads.emplace_back([&] {
      for (uint32_t I = 0; I < kPerThread; ++I) {
        if (SawShed.load(std::memory_order_acquire) && I > 16)
          break;
        uint32_t Rq = Ticket.fetch_add(1, std::memory_order_relaxed);
        vm::RequestResult Res = S.serve(endpointFor(Rq), argsFor(Rq), Rq);
        if (Res.Shed) {
          LocalShed.fetch_add(1, std::memory_order_relaxed);
          SawShed.store(true, std::memory_order_release);
        } else {
          LocalServed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  vm::ServeStats Stats = S.endConcurrentServing();

  EXPECT_EQ(Stats.Submitted, Stats.Served + Stats.Shed)
      << "lost request under overload";
  EXPECT_EQ(Stats.Served, LocalServed.load());
  EXPECT_EQ(Stats.Shed, LocalShed.load());
  EXPECT_GT(Stats.Shed, 0u)
      << "4 threads against MaxInFlight=1 never overlapped";
}

TEST_F(ServerConcurrencyFixture, BlockPolicyNeverSheds) {
  vm::ServerConfig C = fastConfig();
  C.ServeWorkers = 2;
  C.Admission.MaxInFlight = 2;
  C.Admission.OnOverload = vm::AdmissionConfig::Policy::Block;
  vm::Server S(W->Repo, C, 7);
  S.startup();
  S.beginConcurrentServing();

  constexpr uint32_t kRequests = 256;
  std::atomic<uint32_t> Next{0};
  auto Client = [&] {
    for (;;) {
      uint32_t Rq = Next.fetch_add(1, std::memory_order_relaxed);
      if (Rq >= kRequests)
        break;
      vm::RequestResult Res = S.serve(endpointFor(Rq), argsFor(Rq), Rq);
      EXPECT_FALSE(Res.Shed);
    }
  };
  std::vector<std::thread> Clients;
  for (uint32_t I = 0; I < 6; ++I)
    Clients.emplace_back(Client);
  for (std::thread &T : Clients)
    T.join();
  vm::ServeStats Stats = S.endConcurrentServing();
  EXPECT_EQ(Stats.Submitted, kRequests);
  EXPECT_EQ(Stats.Served, kRequests);
  EXPECT_EQ(Stats.Shed, 0u);
}

//===----------------------------------------------------------------------===//
// API redesign: RequestResult, CallbackScope, config validation.
//===----------------------------------------------------------------------===//

TEST_F(ServerConcurrencyFixture, RequestResultCarriesObservables) {
  vm::Server S(W->Repo, fastConfig(), 7);
  S.startup();
  vm::RequestResult Res = S.executeRequest(endpointFor(3), argsFor(3));
  EXPECT_GT(Res.Seconds, 0.0);
  EXPECT_FALSE(Res.Shed);
  EXPECT_TRUE(Res.Obs.Ok);
  EXPECT_EQ(Res.Obs.Faults, 0u);
  // The request is deterministic: the same call must observe the same
  // return value and output, carried entirely in the RequestResult.
  vm::RequestResult Again = S.executeRequest(endpointFor(3), argsFor(3));
  EXPECT_EQ(Res.Obs.Ret, Again.Obs.Ret);
  EXPECT_EQ(Res.Obs.Output, Again.Obs.Output);
  EXPECT_EQ(Res.Obs.Ok, Again.Obs.Ok);
}

namespace {
class CountingCallbacks : public interp::ExecCallbacks {
public:
  uint64_t Enters = 0;
  void onFuncEnter(bc::FuncId, bc::FuncId, const runtime::Value *,
                   uint32_t) override {
    ++Enters;
  }
};
} // namespace

TEST_F(ServerConcurrencyFixture, CallbackScopeRestoresProfilingHooks) {
  vm::Server S(W->Repo, fastConfig(), 7);
  S.startup();
  CountingCallbacks CB;
  {
    vm::CallbackScope Scope(S, &CB);
    S.executeRequest(endpointFor(0), argsFor(0));
    EXPECT_GT(CB.Enters, 0u);
    // With measurement callbacks attached, the profiling hooks are off:
    // the JIT sees no function entries, so nothing is enqueued.
    EXPECT_FALSE(S.theJit().hasPendingWork());
  }
  uint64_t EntersAfterScope = CB.Enters;
  S.executeRequest(endpointFor(1), argsFor(1));
  EXPECT_EQ(CB.Enters, EntersAfterScope)
      << "scope exit did not detach the measurement callbacks";
  EXPECT_TRUE(S.theJit().hasPendingWork())
      << "scope exit did not restore the profiling hooks";
}

TEST(ServerConfigValidation, DefaultsValidate) {
  EXPECT_TRUE(vm::validateServerConfig(vm::ServerConfig{}).empty());
}

TEST(ServerConfigValidation, RejectsIncoherentSettings) {
  // Each case breaks one field; the diagnostic must name it.
  struct Case {
    const char *Field;
    void (*Break)(vm::ServerConfig &);
  };
  const Case Cases[] = {
      {"Cores", [](vm::ServerConfig &C) { C.Cores = 0; }},
      {"JitWorkerCores", [](vm::ServerConfig &C) { C.JitWorkerCores = 0; }},
      {"UnitsPerCorePerSecond",
       [](vm::ServerConfig &C) { C.UnitsPerCorePerSecond = 0; }},
      {"UnitLoadCost", [](vm::ServerConfig &C) { C.UnitLoadCost = -1; }},
      {"RuntimeWarmupTau",
       [](vm::ServerConfig &C) {
         C.RuntimeWarmupPenalty = 2.0;
         C.RuntimeWarmupTau = 0;
       }},
      {"ServeWorkers", [](vm::ServerConfig &C) { C.ServeWorkers = 0; }},
      {"MaxInFlight",
       [](vm::ServerConfig &C) {
         C.ServeWorkers = 4;
         C.Admission.MaxInFlight = 1;
       }},
      {"Name", [](vm::ServerConfig &C) { C.Name.clear(); }},
  };
  for (const Case &K : Cases) {
    vm::ServerConfig C;
    K.Break(C);
    std::vector<std::string> Diags = vm::validateServerConfig(C);
    ASSERT_EQ(Diags.size(), 1u) << K.Field;
    EXPECT_NE(Diags.front().find(K.Field), std::string::npos)
        << K.Field << ": " << Diags.front();
  }
}

TEST(ServerConfigValidation, ServerRejectsInvalidConfig) {
  // A literally built config with no JIT worker cores would otherwise
  // reach grantJitTime's division by JitWorkerCores.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  bc::Repo R;
  vm::ServerConfig C;
  C.JitWorkerCores = 0;
  EXPECT_DEATH({ vm::Server S(R, C, /*Seed=*/1); }, "JitWorkerCores");
}

} // namespace
