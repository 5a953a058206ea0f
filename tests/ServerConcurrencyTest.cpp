//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the concurrent-serving engine: translation-snapshot
/// publication and pricing, admission control (shed accounting), the
/// concurrent-vs-serial equivalence of a background retranslate-all
/// under live load, and the redesigned Server API surface
/// (RequestResult, CallbackScope, ServerConfig validation).  Tier-1;
/// ci/sanitize.sh runs it under ASan and TSan
/// (JUMPSTART_SANITIZE=thread), which is what actually checks that no
/// request reads a snapshot another thread has freed.
///
//===----------------------------------------------------------------------===//

#include "fleet/WorkloadGen.h"
#include "jit/TransSnapshot.h"
#include "support/ThreadPool.h"
#include "vm/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace jumpstart;

namespace {

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

  /// The serial twin: runs the profiling prefix on \p S, drains the
  /// retranslate-all it queued to maturity, then serves the first \p N
  /// schedule requests one at a time and \returns their observables.
  static std::vector<vm::RequestObservables>
  matureSerialObservables(vm::Server &S, uint32_t Profile, uint32_t N) {
    profilePrefix(S, Profile);
    EXPECT_TRUE(S.theJit().hasPendingWork());
    while (S.theJit().hasPendingWork())
      S.grantJitTime(1.0);
    EXPECT_EQ(S.theJit().phase(), jit::JitPhase::Mature);
    std::vector<vm::RequestObservables> Obs;
    for (uint32_t Rq = 0; Rq < N; ++Rq)
      Obs.push_back(S.executeRequest(endpointFor(Rq), argsFor(Rq)).Obs);
    return Obs;
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

  // Twin A: serial reference.
  vm::Server A(W->Repo, fastConfig(), 7);
  A.startup();
  std::vector<vm::RequestObservables> SerialObs =
      matureSerialObservables(A, kProfile, kServe);
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
  for (uint32_t Rq = 0; Rq < kServe; ++Rq)
    EXPECT_TRUE(ConcObs[Rq] == SerialObs[Rq]) << "request " << Rq;
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
  jit::TransSnapshot Snap = jit::TransSnapshot::capture(S.theJit());
  ASSERT_EQ(Snap.CostPerBytecode.size(), W->Repo.numFuncs());
  for (size_t F = 0; F < W->Repo.numFuncs(); ++F)
    EXPECT_EQ(Snap.CostPerBytecode[F],
              S.theJit().execCostPerBytecode(
                  bc::FuncId(static_cast<uint32_t>(F))));
}

//===----------------------------------------------------------------------===//
// Snapshot publication.
//===----------------------------------------------------------------------===//

/// Publication stress: four clients serve while the compile thread
/// drains the retranslate-all in grants small enough to publish hundreds
/// of snapshots.  A request reading a snapshot that another thread freed
/// shows as a use-after-free under ASan and as a race under TSan.  The
/// clients stop before the compile thread's last grants, so a
/// superseded snapshot that outlived its request (say, cached in its
/// execution context) shows as a short reclaim count.
TEST_F(ServerConcurrencyFixture, PublicationStressMatchesSerial) {
  constexpr uint32_t kProfile = 20;
  constexpr uint32_t kSchedule = 48;
  constexpr uint32_t kClients = 4;
  constexpr double kGrantSeconds = 0.002;
  constexpr uint64_t kMinSnapshots = 200;
  /// Grants the compile thread makes while the clients serve.
  constexpr uint64_t kServingGrants = 150;

  vm::Server A(W->Repo, fastConfig(), 7);
  A.startup();
  std::vector<vm::RequestObservables> SerialObs =
      matureSerialObservables(A, kProfile, kSchedule);

  vm::ServerConfig CB = fastConfig();
  CB.ServeWorkers = kClients;
  vm::Server B(W->Repo, CB, 7);
  B.startup();
  profilePrefix(B, kProfile);
  ASSERT_TRUE(B.theJit().hasPendingWork());

  B.beginConcurrentServing();
  std::atomic<uint32_t> Next{0};
  std::atomic<uint64_t> Grants{0};
  std::atomic<bool> ClientsDone{false};
  std::thread Compiler([&] {
    uint32_t Started = 0;
    while (B.theJit().hasPendingWork()) {
      if (Grants.load(std::memory_order_relaxed) < kServingGrants) {
        // Paced to the clients: a request starts between any two grants.
        while (Next.load(std::memory_order_acquire) <= Started)
          std::this_thread::yield();
        Started = Next.load(std::memory_order_acquire);
      } else {
        while (!ClientsDone.load(std::memory_order_acquire))
          std::this_thread::yield();
      }
      B.runBackgroundJitWork(kGrantSeconds);
      Grants.fetch_add(1, std::memory_order_release);
    }
  });

  std::atomic<uint64_t> Mismatches{0};
  auto Client = [&] {
    while (Grants.load(std::memory_order_acquire) < kServingGrants) {
      uint32_t Rq = Next.fetch_add(1, std::memory_order_relaxed);
      uint32_t Entry = Rq % kSchedule;
      vm::RequestResult Res = B.serve(endpointFor(Entry), argsFor(Entry), Rq);
      if (Res.Shed || !(Res.Obs == SerialObs[Entry]))
        Mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> Clients;
  for (uint32_t I = 0; I < kClients; ++I)
    Clients.emplace_back(Client);
  for (std::thread &T : Clients)
    T.join();
  ClientsDone.store(true, std::memory_order_release);
  Compiler.join();
  vm::ServeStats Stats = B.endConcurrentServing();

  EXPECT_EQ(B.theJit().phase(), jit::JitPhase::Mature);
  EXPECT_GT(Grants.load(), kServingGrants)
      << "the drain must outlast the clients";
  EXPECT_GE(Stats.SnapshotsPublished, kMinSnapshots);
  EXPECT_EQ(Stats.SnapshotsReclaimed, Stats.SnapshotsPublished - 1);
  EXPECT_EQ(Stats.Served, Next.load());
  EXPECT_EQ(Mismatches.load(), 0u);
}

/// serve() prices each request against the newest snapshot: the same
/// request costs less once the retranslate-all has drained, and the
/// same again on the unchanged snapshot.
TEST_F(ServerConcurrencyFixture, ServePricesAgainstNewestSnapshot) {
  vm::Server S(W->Repo, fastConfig(), 7);
  S.startup();
  profilePrefix(S, 20);
  ASSERT_TRUE(S.theJit().hasPendingWork());

  S.beginConcurrentServing();
  bc::FuncId F = endpointFor(0);
  std::vector<runtime::Value> Args = argsFor(0);
  double Before = S.serve(F, Args, 0).Seconds;
  while (S.theJit().hasPendingWork())
    S.runBackgroundJitWork(1.0);
  double After = S.serve(F, Args, 0).Seconds;
  double Again = S.serve(F, Args, 0).Seconds;
  S.endConcurrentServing();

  EXPECT_LT(After, Before);
  EXPECT_EQ(After, Again);
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
  interp::FrameObservation onFuncEnter(bc::FuncId, bc::FuncId,
                                       const runtime::Value *,
                                       uint32_t) override {
    ++Enters;
    return interp::FrameObservation::Body;
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
      {"UnitLoadCost", [](vm::ServerConfig &C) { C.UnitLoadCost = -1; }},
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
