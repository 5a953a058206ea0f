//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the host-parallelism layer: the thread pool itself, the
/// shard-then-merge metrics machinery, and -- the load-bearing property
/// -- that every simulated result is byte-identical for any worker
/// count.  Host threads may only change wall-clock time, never output.
///
//===----------------------------------------------------------------------===//

#include "core/Deployment.h"
#include "fleet/ServerSim.h"
#include "fleet/WorkloadGen.h"
#include "obs/Export.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"
#include "vm/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

using namespace jumpstart;
using support::ThreadPool;

//===----------------------------------------------------------------------===//
// ThreadPool.
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, InlineModeRunsOnCaller) {
  for (uint32_t N : {0u, 1u}) {
    ThreadPool P(N);
    std::vector<std::thread::id> Ran;
    P.parallelFor(5, [&](size_t I) {
      EXPECT_EQ(I, Ran.size()) << "inline mode runs the indices in order";
      Ran.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(Ran.size(), 5u) << N << " workers";
    for (std::thread::id Id : Ran)
      EXPECT_EQ(Id, std::this_thread::get_id()) << "<=1 workers runs inline";
  }
}

TEST(ThreadPoolTest, RunsEveryTaskAcrossWorkers) {
  ThreadPool P(4);
  std::mutex Mu;
  std::set<std::thread::id> Threads;
  std::vector<std::atomic<int>> Hits(8);
  // Each index waits until a second thread has run one, so a worker that
  // wakes first cannot drain the whole queue alone.  The wait has one
  // deadline for the whole call: a pool that runs every chunk on one
  // thread fails instead of hanging.
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  P.parallelFor(Hits.size(), [&](size_t I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Threads.insert(std::this_thread::get_id());
    }
    for (;;) {
      {
        std::lock_guard<std::mutex> Lock(Mu);
        if (Threads.size() >= 2)
          break;
      }
      if (std::chrono::steady_clock::now() > Deadline)
        break;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
  EXPECT_GE(Threads.size(), 2u) << "chunks ran on more than one thread";
  EXPECT_EQ(Threads.count(std::this_thread::get_id()), 0u)
      << "a pooled call runs its chunks on the workers";
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool P(3);
  std::vector<std::atomic<int>> Hits(97);
  P.parallelFor(Hits.size(), [&](size_t I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
  // N == 0 is a no-op.
  P.parallelFor(0, [&](size_t) { ADD_FAILURE() << "body ran for N=0"; });
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException) {
  // A throw on a worker reaches the caller once every chunk has finished.
  ThreadPool P(2);
  const std::thread::id Caller = std::this_thread::get_id();
  EXPECT_THROW(P.parallelFor(2,
                             [&](size_t I) {
                               ASSERT_NE(std::this_thread::get_id(), Caller);
                               if (I == 1)
                                 throw std::runtime_error("boom");
                             }),
               std::runtime_error);
  // The pool stays usable after an error.
  std::atomic<int> Ran{0};
  P.parallelFor(4, [&Ran](size_t) { ++Ran; });
  EXPECT_EQ(Ran.load(), 4);
}

TEST(ThreadPoolTest, InlineModeAlsoRethrows) {
  ThreadPool P(1);
  EXPECT_THROW(
      P.parallelFor(3, [](size_t) { throw std::runtime_error("inline boom"); }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotPoisonThePool) {
  // One chunk throwing must neither kill its worker nor stop the other
  // chunks; the call reports the exception, and the next call is clean.
  ThreadPool P(2);
  std::atomic<int> Ran{0};
  EXPECT_THROW(P.parallelFor(64,
                             [&Ran](size_t I) {
                               if (I == 0)
                                 throw std::runtime_error("task boom");
                               Ran.fetch_add(1, std::memory_order_relaxed);
                             }),
               std::runtime_error);
  // Chunk [0, 32) stopped at its first index; chunk [32, 64) ran whole.
  EXPECT_EQ(Ran.load(), 32) << "the other chunk still ran";
  Ran = 0;
  for (int Round = 0; Round < 4; ++Round)
    P.parallelFor(64, [&Ran](size_t) {
      Ran.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(Ran.load(), 4 * 64) << "both workers survived the throw";
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A chunk running on a pool worker fans out on the same pool -- fig4
  // hands one pool to runWarmupSweep and to its servers' CompilePool, so
  // every sweep run's retranslate-all is such a nested call; the nested
  // fan-out must run inline instead of deadlocking.
  ThreadPool P(2);
  std::atomic<int> Inner{0};
  P.parallelFor(4, [&](size_t) {
    P.parallelFor(8, [&](size_t) {
      Inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(Inner.load(), 32);
}

//===----------------------------------------------------------------------===//
// Shard-then-merge metrics.
//===----------------------------------------------------------------------===//

TEST(MetricsMergeTest, HistogramMergeAddsBuckets) {
  obs::Histogram A({1.0, 2.0});
  obs::Histogram B({1.0, 2.0});
  A.observe(0.5);
  A.observe(1.5);
  B.observe(1.5);
  B.observe(5.0);
  A.merge(B);
  EXPECT_EQ(A.count(), 4u);
  EXPECT_DOUBLE_EQ(A.sum(), 8.5);
  EXPECT_EQ(A.bucketCount(0), 1u);
  EXPECT_EQ(A.bucketCount(1), 2u);
  EXPECT_EQ(A.bucketCount(2), 1u) << "overflow bucket";
}

TEST(MetricsMergeTest, MergeFromFoldsEveryKind) {
  obs::MetricsRegistry Shard;
  Shard.counter("c", {{"k", "v"}}).inc(3);
  Shard.gauge("g").set(2.5);
  Shard.histogram("h", {}, {1.0}).observe(0.5);
  Shard.series("s", {{"run", "a"}}).record(1.0, 10.0);

  obs::MetricsRegistry Main;
  Main.counter("c", {{"k", "v"}}).inc(2);
  Main.mergeFrom(Shard);
  EXPECT_EQ(Main.findCounter("c", {{"k", "v"}})->value(), 5u);
  EXPECT_DOUBLE_EQ(Main.findGauge("g")->value(), 2.5);
  EXPECT_EQ(Main.findHistogram("h")->count(), 1u);
  ASSERT_NE(Main.findSeries("s", {{"run", "a"}}), nullptr);
  EXPECT_EQ(Main.findSeries("s", {{"run", "a"}})->points().size(), 1u);

  // Merging identical shards in the same order renders identically.
  obs::MetricsRegistry M1, M2;
  M1.mergeFrom(Shard);
  M2.mergeFrom(Shard);
  EXPECT_EQ(obs::metricsToJsonLines(M1), obs::metricsToJsonLines(M2));
}

//===----------------------------------------------------------------------===//
// Determinism: identical output for any worker count.
//===----------------------------------------------------------------------===//

namespace {

class ThreadingFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    fleet::WorkloadParams P;
    P.NumHelpers = 120;
    P.NumClasses = 24;
    P.NumEndpoints = 12;
    P.NumUnits = 12;
    W = fleet::generateWorkload(P).release();
    Traffic = new fleet::TrafficModel(*W, fleet::TrafficParams(), 42);
    vm::ServerConfig SeederConfig = baseConfig();
    SeederConfig.Jit.SeederInstrumentation = true;
    Pkg = new profile::ProfilePackage(
        fleet::runSeeder(*W, *Traffic, SeederConfig, 0, 0, 300, 12)
            ->buildSeederPackage(0, 0, 1));
  }
  static void TearDownTestSuite() {
    delete Pkg;
    delete Traffic;
    delete W;
    Pkg = nullptr;
    Traffic = nullptr;
    W = nullptr;
  }

  static vm::ServerConfig baseConfig() {
    vm::ServerConfig C;
    C.Jit.ProfileRequestTarget = 40;
    return C;
  }

  /// Boots a consumer with the given host pool and renders everything
  /// observable about the result into one string: full metrics + trace
  /// dumps plus a per-translation TransDb summary.
  static std::string bootSignature(support::ThreadPool *Pool,
                                   bool PrecompileLive) {
    obs::Observability Obs;
    vm::ServerConfig C = baseConfig();
    C.CompilePool = Pool;
    C.Jit.PrecompileLiveCode = PrecompileLive;
    C.Obs = &Obs;
    C.Name = "consumer";
    vm::Server S(W->Repo, C, 17);
    if (!S.installPackage(*Pkg).ok())
      return "install failed";
    vm::InitStats Init = S.startup();
    std::string Sig = strFormat("init=%.6f precompile=%.6f code=%llu\n",
                                Init.TotalSeconds, Init.PrecompileSeconds,
                                static_cast<unsigned long long>(
                                    S.theJit().totalCodeBytes()));
    for (const auto &T : S.theJit().transDb().all())
      Sig += strFormat("t%u k=%s f=%u placed=%d entry=%llu blocks=%zu "
                       "cost=%.6f\n",
                       T->Id, jit::transKindName(T->Kind),
                       T->func().raw(), T->Placed ? 1 : 0,
                       static_cast<unsigned long long>(T->entryAddr()),
                       T->BlockAddrs.size(), T->CostPerBytecode);
    Sig += obs::metricsToJsonLines(Obs.Metrics);
    Sig += obs::traceToJsonLines(Obs.Trace);
    return Sig;
  }

  static fleet::Workload *W;
  static fleet::TrafficModel *Traffic;
  static profile::ProfilePackage *Pkg;
};

fleet::Workload *ThreadingFixture::W = nullptr;
fleet::TrafficModel *ThreadingFixture::Traffic = nullptr;
profile::ProfilePackage *ThreadingFixture::Pkg = nullptr;

} // namespace

TEST_F(ThreadingFixture, ConsumerBootIdenticalForAnyWorkerCount) {
  for (bool PrecompileLive : {false, true}) {
    std::string Serial = bootSignature(nullptr, PrecompileLive);
    ASSERT_NE(Serial.find("placed=1"), std::string::npos)
        << "precompile must place translations";
    for (uint32_t Workers : {1u, 2u, 8u}) {
      ThreadPool Pool(Workers);
      EXPECT_EQ(bootSignature(&Pool, PrecompileLive), Serial)
          << Workers << " workers, precompile_live=" << PrecompileLive;
    }
  }
}

TEST_F(ThreadingFixture, WarmupSweepMatchesSerial) {
  vm::ServerConfig Config = baseConfig();
  auto MakeRuns = [&] {
    std::vector<fleet::WarmupSweepRun> Runs;
    for (int I = 0; I < 3; ++I) {
      fleet::WarmupSweepRun Run;
      Run.Params.DurationSeconds = 60;
      Run.Params.Seed = 7 + I;
      Run.Params.RunLabel = strFormat("run%d", I);
      Run.Package = (I == 1) ? Pkg : nullptr;
      Runs.push_back(std::move(Run));
    }
    return Runs;
  };
  obs::MetricsRegistry SerialMerged;
  std::vector<fleet::WarmupResult> Serial = fleet::runWarmupSweep(
      *W, *Traffic, Config, MakeRuns(), nullptr, &SerialMerged);
  std::string SerialJson = obs::metricsToJsonLines(SerialMerged);
  for (uint32_t Workers : {2u, 8u}) {
    ThreadPool Pool(Workers);
    obs::MetricsRegistry Merged;
    std::vector<fleet::WarmupResult> Results = fleet::runWarmupSweep(
        *W, *Traffic, Config, MakeRuns(), &Pool, &Merged);
    EXPECT_EQ(obs::metricsToJsonLines(Merged), SerialJson)
        << Workers << " workers";
    ASSERT_EQ(Results.size(), Serial.size());
    for (size_t I = 0; I < Results.size(); ++I)
      EXPECT_DOUBLE_EQ(Results[I].CapacityLossFraction,
                       Serial[I].CapacityLossFraction);
  }
}

TEST_F(ThreadingFixture, DeploymentIdenticalForAnyWorkerCount) {
  core::JumpStartOptions Opts;
  Opts.Coverage.MinProfiledFuncs = 5;
  Opts.Coverage.MinTotalSamples = 100;
  Opts.ValidationRequests = 10;
  core::DeploymentParams DP;
  DP.Regions = 1;
  DP.Buckets = 2;
  DP.SeedersPerPair = 1;
  DP.SeederRequests = 120;
  DP.ConsumerSamplesPerPair = 1;
  vm::ServerConfig Config = baseConfig();

  // Everything a push leaves behind, but the shelves: the report, and
  // the full metrics and trace dumps of the push it recorded.
  auto RunPush = [&](support::ThreadPool *Pool,
                     core::PackageManager &Manager) {
    vm::ServerConfig C = Config;
    C.CompilePool = Pool;
    obs::Observability Obs;
    core::DeploymentReport R = core::simulateDeployment(
        *W, *Traffic, C, Opts, Manager, DP, /*Chaos=*/nullptr, &Obs);
    std::string S = strFormat(
        "canary=%d seeders=%u published=%u failures=%u booted=%u js=%u "
        "init=%.6f\n",
        R.CanaryHealthy ? 1 : 0, R.SeedersRun, R.PackagesPublished,
        R.SeederFailures, R.ConsumersBooted, R.ConsumersUsedJumpStart,
        R.MeanConsumerInitSeconds);
    for (const std::string &Line : R.Log)
      S += Line + "\n";
    S += obs::metricsToJsonLines(Obs.Metrics);
    S += obs::traceToJsonLines(Obs.Trace);
    return S;
  };

  core::PackageManager SerialManager;
  std::string Serial = RunPush(nullptr, SerialManager);
  ASSERT_NE(Serial.find("push-C3-consumers"), std::string::npos)
      << "the dump carries the push's phase spans";
  for (uint32_t Workers : {1u, 2u, 8u}) {
    ThreadPool Pool(Workers);
    core::PackageManager Manager;
    EXPECT_EQ(RunPush(&Pool, Manager), Serial) << Workers << " workers";
    for (uint32_t B = 0; B < DP.Buckets; ++B) {
      EXPECT_EQ(Manager.available(0, B), SerialManager.available(0, B))
          << "published blobs must land on the same shelves";
      // Manifest-level determinism: same checksums in the same order.
      auto A = Manager.manifests(0, B);
      auto S2 = SerialManager.manifests(0, B);
      ASSERT_EQ(A.size(), S2.size());
      for (size_t I = 0; I < A.size(); ++I)
        EXPECT_EQ(A[I].Checksum, S2[I].Checksum)
            << "shelf (0," << B << ") package #" << I;
    }
  }
}
