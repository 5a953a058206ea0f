//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-module integration and property tests: semantic invariance
/// across execution tiers and observation modes, end-to-end package round
/// trips over randomly generated workloads, and simulator determinism.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "core/Consumer.h"
#include "core/Seeder.h"
#include "fleet/ServerSim.h"
#include "fleet/SteadyState.h"
#include "jit/VasmTracer.h"
#include "runtime/ValueOps.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace jumpstart;
using jumpstart::testing::countersString;

namespace {

fleet::WorkloadParams tinySite(uint64_t Seed) {
  fleet::WorkloadParams P;
  P.Seed = Seed;
  P.NumHelpers = 96;
  P.NumClasses = 18;
  P.NumEndpoints = 10;
  P.NumUnits = 10;
  return P;
}

/// Runs every endpoint once in a bare interpreter and returns the
/// stringified results.
std::vector<std::string> endpointResults(const fleet::Workload &W,
                                         interp::ExecCallbacks *CB,
                                         int64_t Arg) {
  runtime::ClassTable Classes(W.Repo);
  runtime::Heap Heap;
  interp::Interpreter Interp(W.Repo, Classes, Heap,
                             runtime::BuiltinTable::standard());
  Interp.setCallbacks(CB);
  std::vector<std::string> Results;
  for (bc::FuncId E : W.Endpoints) {
    interp::InterpResult R =
        Interp.call(E, {runtime::Value::integer(Arg)});
    Results.push_back(runtime::toString(R.Ret));
    Heap.reset();
  }
  return Results;
}

} // namespace

//===----------------------------------------------------------------------===//
// Semantic invariance.
//===----------------------------------------------------------------------===//

TEST(SemanticInvariance, ObservationDoesNotChangeResults) {
  // Attaching profiling hooks or the Vasm tracer must never change what
  // the program computes.
  auto W = fleet::generateWorkload(tinySite(3));
  std::vector<std::string> Plain = endpointResults(*W, nullptr, 12345);

  jit::Jit J(W->Repo, jit::JitConfig());
  jit::JitProfilingHooks Hooks(J);
  EXPECT_EQ(endpointResults(*W, &Hooks, 12345), Plain);

  sim::MachineSim Machine;
  jit::VasmTracer Tracer(J, Machine);
  EXPECT_EQ(endpointResults(*W, &Tracer, 12345), Plain);
}

TEST(SemanticInvariance, TiersDoNotChangeResults) {
  // A fully warmed Jump-Start consumer and a bare interpreter must agree
  // on every endpoint result: the JIT affects cost, never semantics.
  auto W = fleet::generateWorkload(tinySite(4));
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 9);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 30;
  Config.Jit.SeederInstrumentation = true;
  auto Seeder = fleet::runSeeder(*W, Traffic, Config, 0, 0, 100, 5);
  profile::ProfilePackage Pkg = Seeder->buildSeederPackage(0, 0, 1);

  vm::ServerConfig CConfig;
  CConfig.Jit.ProfileRequestTarget = 30;
  vm::Server Consumer(W->Repo, CConfig, 6);
  ASSERT_TRUE(Consumer.installPackage(Pkg).ok());
  Consumer.startup();
  ASSERT_EQ(Consumer.theJit().phase(), jit::JitPhase::Mature);

  std::vector<std::string> Plain = endpointResults(*W, nullptr, 777);
  for (size_t E = 0; E < W->Endpoints.size(); ++E) {
    // Execute on the consumer (hooks attached, optimized code "running").
    runtime::Heap Scratch;
    interp::InterpResult R = Consumer.interpreter().call(
        W->Endpoints[E], {runtime::Value::integer(777)});
    EXPECT_EQ(runtime::toString(R.Ret), Plain[E])
        << "endpoint " << E << " diverged on the warmed consumer";
  }
}

TEST(SemanticInvariance, PropertyReorderingPreservesSemantics) {
  // Reordered object layouts are an internal matter: results identical.
  auto W = fleet::generateWorkload(tinySite(5));
  std::vector<std::string> Plain = endpointResults(*W, nullptr, 999);

  // Build a counts map that reorders aggressively (every property hot in
  // reverse declaration order).
  std::unordered_map<std::string, uint64_t> Counts;
  for (const bc::Class &K : W->Repo.classes()) {
    uint64_t Hot = 1;
    for (const bc::StringId P : K.DeclProps)
      Counts[K.Name + "::" + W->Repo.str(P)] = Hot++;
  }
  runtime::ClassTable Classes(W->Repo);
  Classes.enablePropReordering(&Counts);
  runtime::Heap Heap;
  interp::Interpreter Interp(W->Repo, Classes, Heap,
                             runtime::BuiltinTable::standard());
  for (size_t E = 0; E < W->Endpoints.size(); ++E) {
    interp::InterpResult R = Interp.call(
        W->Endpoints[E], {runtime::Value::integer(999)});
    EXPECT_EQ(runtime::toString(R.Ret), Plain[E]);
    Heap.reset();
  }
}

//===----------------------------------------------------------------------===//
// End-to-end package round trip over random workloads.
//===----------------------------------------------------------------------===//

class PackageRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PackageRoundTrip, SeedConsumeServe) {
  auto W = fleet::generateWorkload(tinySite(GetParam()));
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), GetParam());
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 30;

  core::PackageManager Manager;
  core::JumpStartOptions Opts;
  Opts.Coverage.MinProfiledFuncs = 3;
  Opts.Coverage.MinTotalSamples = 50;
  Opts.ValidationRequests = 8;
  core::SeederParams SP;
  SP.Requests = 80;
  SP.Seed = GetParam() * 7 + 1;
  core::SeederOutcome Seeded = core::runSeederWorkflow(
      *W, Traffic, Config, Opts, Manager, SP);
  ASSERT_TRUE(Seeded.Published)
      << (Seeded.Problems.empty() ? "?" : Seeded.Problems[0]);

  core::ConsumerParams CP;
  CP.Seed = GetParam() * 13 + 5;
  core::ConsumerOutcome Consumer =
      core::startConsumer(*W, Config, Opts, Manager, CP);
  ASSERT_TRUE(Consumer.UsedJumpStart);
  ASSERT_EQ(Consumer.Server->theJit().phase(), jit::JitPhase::Mature);

  // The consumer serves every endpoint without faults and its mature
  // requests are much cheaper than a cold server's.
  vm::Server Cold(W->Repo, Config, 1);
  Cold.startup();
  Rng R(GetParam());
  double WarmCost = 0;
  double ColdCost = 0;
  uint64_t FaultsBefore = Consumer.Server->totalFaults();
  for (int I = 0; I < 10; ++I) {
    auto Args = fleet::TrafficModel::makeArgs(R);
    bc::FuncId E = W->Endpoints[R.nextBelow(W->Endpoints.size())];
    WarmCost += Consumer.Server->executeRequest(E, Args).Seconds;
    ColdCost += Cold.executeRequest(E, Args).Seconds;
  }
  EXPECT_EQ(Consumer.Server->totalFaults(), FaultsBefore);
  EXPECT_LT(WarmCost, ColdCost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackageRoundTrip,
                         ::testing::Values(11, 22, 33, 44, 55));

//===----------------------------------------------------------------------===//
// Simulator determinism.
//===----------------------------------------------------------------------===//

TEST(Determinism, WarmupRunsAreReproducible) {
  auto W = fleet::generateWorkload(tinySite(6));
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 6);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 100;
  fleet::ServerSimParams P;
  P.DurationSeconds = 60;
  P.OfferedRps = 800;
  fleet::WarmupResult A = fleet::runWarmup(*W, Traffic, Config, P);
  fleet::WarmupResult B = fleet::runWarmup(*W, Traffic, Config, P);
  EXPECT_DOUBLE_EQ(A.CapacityLossFraction, B.CapacityLossFraction);
  ASSERT_EQ(A.rps().points().size(), B.rps().points().size());
  for (size_t I = 0; I < A.rps().points().size(); ++I)
    EXPECT_DOUBLE_EQ(A.rps().points()[I].Value, B.rps().points()[I].Value);
}

TEST(Determinism, SteadyStateMeasurementIsReproducible) {
  auto W = fleet::generateWorkload(tinySite(7));
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 7);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 30;
  auto S1 = fleet::runSeeder(*W, Traffic, Config, 0, 0, 80, 9);
  auto S2 = fleet::runSeeder(*W, Traffic, Config, 0, 0, 80, 9);
  fleet::SteadyStateParams P;
  P.Requests = 40;
  P.WarmupRequests = 10;
  fleet::SteadyStateResult A = measureSteadyState(*W, Traffic, *S1, P);
  fleet::SteadyStateResult B = measureSteadyState(*W, Traffic, *S2, P);
  EXPECT_EQ(A.Counters.Instructions, B.Counters.Instructions);
  EXPECT_EQ(A.Counters.BranchMisses, B.Counters.BranchMisses);
  EXPECT_EQ(A.Counters.L1IMisses, B.Counters.L1IMisses);
  EXPECT_DOUBLE_EQ(A.Cycles, B.Cycles);
}

TEST(Determinism, PackagesAreByteIdentical) {
  auto W = fleet::generateWorkload(tinySite(8));
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 8);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 30;
  Config.Jit.SeederInstrumentation = true;
  auto S1 = fleet::runSeeder(*W, Traffic, Config, 0, 0, 60, 10);
  auto S2 = fleet::runSeeder(*W, Traffic, Config, 0, 0, 60, 10);
  EXPECT_EQ(S1->buildSeederPackage(0, 0, 1).serialize(),
            S2->buildSeederPackage(0, 0, 1).serialize());
}

TEST(Determinism, ConsumerBootIdenticalAcrossHostThreads) {
  // The host compile pool only changes wall-clock time: the translations
  // a consumer boots with -- ids, placement addresses, block layout,
  // costs -- must be byte-for-byte identical for any worker count.
  auto W = fleet::generateWorkload(tinySite(10));
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 10);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 30;
  Config.Jit.SeederInstrumentation = true;
  auto Seeder = fleet::runSeeder(*W, Traffic, Config, 0, 0, 100, 11);
  profile::ProfilePackage Pkg = Seeder->buildSeederPackage(0, 0, 1);

  auto TransDbDump = [&](support::ThreadPool *Pool) {
    vm::ServerConfig C;
    C.Jit.ProfileRequestTarget = 30;
    C.CompilePool = Pool;
    vm::Server S(W->Repo, C, 12);
    EXPECT_TRUE(S.installPackage(Pkg).ok());
    S.startup();
    std::string Dump;
    for (const auto &T : S.theJit().transDb().all()) {
      Dump += strFormat("t%u k=%s f=%u entry=%llu cost=%f [", T->Id,
                        jit::transKindName(T->Kind), T->func().raw(),
                        static_cast<unsigned long long>(T->entryAddr()),
                        T->CostPerBytecode);
      for (uint64_t A : T->BlockAddrs)
        Dump += strFormat("%llu,", static_cast<unsigned long long>(A));
      Dump += "]\n";
    }
    return Dump;
  };
  std::string Serial = TransDbDump(nullptr);
  ASSERT_FALSE(Serial.empty());
  for (uint32_t Workers : {2u, 8u}) {
    support::ThreadPool Pool(Workers);
    EXPECT_EQ(TransDbDump(&Pool), Serial) << Workers << " workers";
  }
}

//===----------------------------------------------------------------------===//
// The Vasm tracer against a mature server.
//===----------------------------------------------------------------------===//

TEST(TracerIntegration, MatureServerProducesJitAddressTraffic) {
  auto W = fleet::generateWorkload(tinySite(9));
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 9);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 30;
  auto Server = fleet::runSeeder(*W, Traffic, Config, 0, 0, 100, 4);
  ASSERT_EQ(Server->theJit().phase(), jit::JitPhase::Mature);

  sim::MachineSim Machine;
  jit::VasmTracer Tracer(Server->theJit(), Machine);
  {
    vm::CallbackScope Scope(*Server, &Tracer);
    Rng R(2);
    for (int I = 0; I < 20; ++I) {
      bc::FuncId E = W->Endpoints[R.nextBelow(W->Endpoints.size())];
      Server->executeRequest(E, fleet::TrafficModel::makeArgs(R));
    }
  }

  const sim::PerfCounters &C = Machine.counters();
  EXPECT_GT(C.Instructions, 10000u);
  EXPECT_GT(C.Branches, 100u);
  EXPECT_GT(C.L1DAccesses, 100u);
  // Mature servers fetch from the code cache, not the interpreter loop:
  // the vast majority of instruction fetches land above the cache base.
  EXPECT_GT(C.L1IAccesses, C.Instructions / 2);
}

//===----------------------------------------------------------------------===//
// The plan-driven tracer against the per-instruction walk it replaced.
//===----------------------------------------------------------------------===//

namespace {

/// The shadow tracer's per-instruction algorithm, kept as the reference
/// for jit::VasmTracer: blocks are looked up with VasmUnit::findBlock and
/// walked with one MachineSim::fetch per instruction.  It also counts the
/// cases a comparison must cover.
class ReferenceTracer : public interp::ExecCallbacks {
public:
  struct Coverage {
    uint64_t JumpElidedBlocks = 0;
    uint64_t ColdBlocks = 0;
    uint64_t InlinedFrames = 0;
    uint64_t InterpretedInstrs = 0;
  };

  ReferenceTracer(jit::Jit &J, sim::MachineSim &Machine)
      : J(J), Machine(Machine) {}

  const Coverage &coverage() const { return Seen; }

  void onFuncEnter(bc::FuncId Callee, bc::FuncId, const runtime::Value *,
                   uint32_t) override {
    Frame F;
    F.Func = Callee.raw();
    Frame *Parent = top();
    if (Parent && Parent->Unit && Parent->Unit->isInlined(Callee)) {
      F.Trans = Parent->Trans;
      F.Unit = Parent->Unit;
      ++Seen.InlinedFrames;
    } else {
      const jit::Translation *T = J.transDb().best(Callee);
      if (T && T->Placed) {
        F.Trans = T;
        F.Unit = T->Unit.get();
      }
    }
    Frames.push_back(F);
  }

  void onFuncExit(bc::FuncId) override {
    if (!Frames.empty())
      Frames.pop_back();
  }

  void onBlockEnter(bc::FuncId FuncId, uint32_t Block) override {
    Frame *F = top();
    if (!F || !F->Unit || !F->Trans || !F->Trans->Placed)
      return;
    uint32_t VB = F->Unit->findBlock(bc::FuncId(F->Func), Block);
    if (F->Func != FuncId.raw())
      VB = F->Unit->findBlock(FuncId, Block);
    if (VB == jit::VasmUnit::kNoBlock)
      return;
    if (F->LastVasmBlock != jit::VasmUnit::kNoBlock) {
      const jit::VBlock &Last = F->Unit->Blocks[F->LastVasmBlock];
      if (!Last.Instrs.empty() &&
          Last.Instrs.back().Kind == jit::VKind::CondBranch) {
        uint64_t LastEnd =
            F->Trans->BlockAddrs[F->LastVasmBlock] + Last.sizeBytes();
        uint64_t NextAddr = F->Trans->BlockAddrs[VB];
        Machine.condBranch(terminatorAddr(*F, F->LastVasmBlock),
                           NextAddr != LastEnd, NextAddr);
      }
    }

    uint64_t Addr = F->Trans->BlockAddrs[VB];
    const jit::CodeCache &Cache = J.codeCache();
    uint64_t ColdBase = Cache.base(jit::CodeArea::Cold);
    if (Addr >= ColdBase &&
        Addr < ColdBase + Cache.capacity(jit::CodeArea::Cold))
      ++Seen.ColdBlocks;
    const std::vector<jit::VInstr> &Instrs = F->Unit->Blocks[VB].Instrs;
    size_t Count = Instrs.size();
    if (Count && VB < F->Trans->JumpElided.size() &&
        F->Trans->JumpElided[VB]) {
      --Count;
      ++Seen.JumpElidedBlocks;
    }
    for (size_t I = 0; I < Count; ++I) {
      Machine.fetch(Addr, Instrs[I].SizeBytes);
      Addr += Instrs[I].SizeBytes;
    }
    F->LastVasmBlock = VB;
  }

  bool wantsInstrTrace(bc::FuncId F) override {
    const jit::Translation *T = J.transDb().best(F);
    return !(T && T->Placed);
  }

  void onInstr(bc::FuncId, uint32_t, uint32_t) override {
    // The interpreter loop's region, as jit/VasmTracer.cpp models it.
    ++Seen.InterpretedInstrs;
    for (int I = 0; I < 3; ++I) {
      Machine.fetch(0x08000000ull + (InterpCursor % (16 * 1024)), 12);
      InterpCursor += 64;
    }
  }

  void onVirtualCall(bc::FuncId, uint32_t, bc::FuncId Callee) override {
    Frame *F = top();
    if (!F || !F->Unit || !F->Trans || F->Unit->isInlined(Callee))
      return;
    uint64_t Target = 0;
    const jit::Translation *T = J.transDb().best(Callee);
    if (T && T->Placed)
      Target = T->entryAddr();
    uint64_t Pc = F->LastVasmBlock != jit::VasmUnit::kNoBlock
                      ? terminatorAddr(*F, F->LastVasmBlock)
                      : 0;
    Machine.indirectBranch(Pc, Target);
  }

  void onPropAccess(bc::ClassId, bc::StringId, bool IsWrite,
                    uint64_t Addr) override {
    Machine.dataAccess(Addr, IsWrite);
  }

  void onDataAccess(uint64_t Addr, bool IsWrite) override {
    Machine.dataAccess(Addr, IsWrite);
  }

private:
  struct Frame {
    uint32_t Func = 0;
    const jit::Translation *Trans = nullptr;
    const jit::VasmUnit *Unit = nullptr;
    uint32_t LastVasmBlock = jit::VasmUnit::kNoBlock;
  };

  Frame *top() { return Frames.empty() ? nullptr : &Frames.back(); }

  uint64_t terminatorAddr(const Frame &F, uint32_t VB) const {
    const jit::VBlock &B = F.Unit->Blocks[VB];
    uint64_t Addr = F.Trans->BlockAddrs[VB];
    for (size_t I = 0; I + 1 < B.Instrs.size(); ++I)
      Addr += B.Instrs[I].SizeBytes;
    return Addr;
  }

  jit::Jit &J;
  sim::MachineSim &Machine;
  std::vector<Frame> Frames;
  uint64_t InterpCursor = 0;
  Coverage Seen;
};

/// Small caches and TLBs, so a small site still misses everywhere.
sim::MachineConfig smallMachine() {
  sim::MachineConfig M;
  M.L1I = sim::CacheConfig{4 * 1024, 64, 4};
  M.L1D = sim::CacheConfig{4 * 1024, 64, 4};
  M.Llc = sim::CacheConfig{64 * 1024, 64, 8};
  M.ITlbEntries = 4;
  M.ITlbWays = 2;
  M.DTlbEntries = 4;
  M.DTlbWays = 2;
  M.BtbSize = 64;
  M.BranchTableSize = 256;
  return M;
}

/// Serves \p Requests seeded requests on each of two identically built
/// servers, one traced by the reference and one by jit::VasmTracer, and
/// expects every counter to match.  \returns what the reference saw.
template <typename MakeServerFn>
ReferenceTracer::Coverage expectTracersAgree(const fleet::Workload &W,
                                             MakeServerFn MakeServer,
                                             int Requests) {
  std::unique_ptr<vm::Server> RefServer = MakeServer();
  std::unique_ptr<vm::Server> PlanServer = MakeServer();
  sim::MachineSim RefMachine(smallMachine());
  sim::MachineSim PlanMachine(smallMachine());
  ReferenceTracer Ref(RefServer->theJit(), RefMachine);
  jit::VasmTracer Plan(PlanServer->theJit(), PlanMachine);
  auto Serve = [&](vm::Server &S, interp::ExecCallbacks &CB) {
    vm::CallbackScope Scope(S, &CB);
    Rng R(21);
    for (int I = 0; I < Requests; ++I) {
      bc::FuncId E = W.Endpoints[R.nextBelow(W.Endpoints.size())];
      S.executeRequest(E, fleet::TrafficModel::makeArgs(R));
    }
  };
  Serve(*RefServer, Ref);
  Serve(*PlanServer, Plan);
  EXPECT_EQ(countersString(PlanMachine.counters()),
            countersString(RefMachine.counters()));
  EXPECT_GT(RefMachine.counters().L1IMisses, 0u);
  EXPECT_GT(RefMachine.counters().ITlbMisses, 0u);
  EXPECT_GT(RefMachine.counters().BranchMisses, 0u);
  return Ref.coverage();
}

} // namespace

TEST(TracerEquivalence, JumpStartConsumerMatchesPerInstructionWalk) {
  auto W = fleet::generateWorkload(tinySite(12));
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 12);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 30;
  Config.Jit.SeederInstrumentation = true;
  auto Seeder = fleet::runSeeder(*W, Traffic, Config, 0, 0, 100, 13);
  profile::ProfilePackage Pkg = Seeder->buildSeederPackage(0, 0, 1);

  ReferenceTracer::Coverage Seen = expectTracersAgree(
      *W,
      [&] {
        vm::ServerConfig C;
        C.Jit.ProfileRequestTarget = 30;
        auto S = std::make_unique<vm::Server>(W->Repo, C, 14);
        EXPECT_TRUE(S->installPackage(Pkg).ok());
        S->startup();
        return S;
      },
      60);
  EXPECT_GT(Seen.JumpElidedBlocks, 0u);
  EXPECT_GT(Seen.ColdBlocks, 0u);
  EXPECT_GT(Seen.InlinedFrames, 0u);
  EXPECT_GT(Seen.InterpretedInstrs, 0u);
}

TEST(TracerEquivalence, SelfWarmedServerMatchesPerInstructionWalk) {
  auto W = fleet::generateWorkload(tinySite(15));
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 15);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 30;
  ReferenceTracer::Coverage Seen = expectTracersAgree(
      *W,
      [&] { return fleet::runSeeder(*W, Traffic, Config, 0, 0, 100, 16); },
      60);
  EXPECT_GT(Seen.JumpElidedBlocks, 0u);
  EXPECT_GT(Seen.ColdBlocks, 0u);
  EXPECT_GT(Seen.InlinedFrames, 0u);
  EXPECT_GT(Seen.InterpretedInstrs, 0u);
}
