//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "testing/DiffRunner.h"

#include "analysis/Linter.h"
#include "bytecode/Verifier.h"
#include "core/Consumer.h"
#include "core/PackageManager.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "obs/Export.h"
#include "obs/Observability.h"
#include "runtime/Builtins.h"
#include "runtime/ClassLayout.h"
#include "runtime/Heap.h"
#include "runtime/ValueOps.h"
#include "support/Assert.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"
#include "testing/ReferenceInterpreter.h"
#include "testing/Shrinker.h"
#include "vm/Server.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

using namespace jumpstart;
using namespace jumpstart::testing;
using support::Status;
using support::StatusCode;

//===----------------------------------------------------------------------===//
// Matrices.
//===----------------------------------------------------------------------===//

std::vector<ExecConfig> jumpstart::testing::smokeMatrix() {
  std::vector<ExecConfig> M;
  ExecConfig Interp;
  Interp.Name = "interp";
  Interp.Mode = ExecConfig::Tier::InterpOnly;
  M.push_back(Interp);

  // The reference interpreter is diffed like any other cell, so every
  // sweep also checks the production interpreter against it.
  ExecConfig Reference;
  Reference.Name = "reference";
  Reference.Mode = ExecConfig::Tier::Reference;
  M.push_back(Reference);

  ExecConfig Profile;
  Profile.Name = "profile";
  Profile.Mode = ExecConfig::Tier::ProfileOnly;
  M.push_back(Profile);

  ExecConfig Jit;
  Jit.Name = "jit";
  M.push_back(Jit);

  // Full JIT with whole-program proven-guard elision: placement differs
  // (elided guards), observables must not.  Every recorded elision is
  // re-proven via analysis::lintTranslations after the run.
  ExecConfig JitProven = Jit;
  JitProven.Name = "jit-proven";
  JitProven.ProvenGuardElision = true;
  M.push_back(JitProven);

  ExecConfig Js;
  Js.Name = "jumpstart";
  Js.JumpStart = true;
  Js.DigestGroup = "jumpstart";
  M.push_back(Js);

  // Same cell with a host compile pool: the --threads axis.  Grouped
  // with "jumpstart" so the digests are byte-compared.
  ExecConfig JsThreads = Js;
  JsThreads.Name = "jumpstart-threads4";
  JsThreads.HostThreads = 4;
  M.push_back(JsThreads);
  return M;
}

std::vector<ExecConfig> jumpstart::testing::fullMatrix() {
  std::vector<ExecConfig> M = smokeMatrix();

  ExecConfig NoLayout;
  NoLayout.Name = "jit-nolayout";
  NoLayout.UseExtTsp = false;
  NoLayout.SplitHotCold = false;
  NoLayout.UseFunctionSort = false;
  M.push_back(NoLayout);

  ExecConfig NoSort;
  NoSort.Name = "jit-nosort";
  NoSort.UseFunctionSort = false;
  M.push_back(NoSort);

  ExecConfig NoSplit;
  NoSplit.Name = "jit-nosplit";
  NoSplit.SplitHotCold = false;
  M.push_back(NoSplit);

  ExecConfig JsNoReorder;
  JsNoReorder.Name = "jumpstart-noreorder";
  JsNoReorder.JumpStart = true;
  JsNoReorder.ReorderProperties = false;
  M.push_back(JsNoReorder);

  ExecConfig JsNoExtTsp;
  JsNoExtTsp.Name = "jumpstart-noextsp";
  JsNoExtTsp.JumpStart = true;
  JsNoExtTsp.UseExtTsp = false;
  M.push_back(JsNoExtTsp);

  // Jump-Start consumer with the whole-program analysis on, once with a
  // host compile pool: the analysis is deterministic, so the pair must
  // produce byte-identical digests (shared group), and both must match
  // every other cell observably.
  ExecConfig JsProven;
  JsProven.Name = "jumpstart-proven";
  JsProven.JumpStart = true;
  JsProven.ProvenGuardElision = true;
  JsProven.DigestGroup = "jumpstart-proven";
  M.push_back(JsProven);

  ExecConfig JsProvenThreads = JsProven;
  JsProvenThreads.Name = "jumpstart-proven-threads4";
  JsProvenThreads.HostThreads = 4;
  M.push_back(JsProvenThreads);
  return M;
}

std::vector<ExecConfig> jumpstart::testing::serveMatrix(uint32_t Threads) {
  std::vector<ExecConfig> M;
  ExecConfig Interp;
  Interp.Name = "interp";
  Interp.Mode = ExecConfig::Tier::InterpOnly;
  M.push_back(Interp);

  // Jump-Start-booted (mature before the window opens, like a production
  // consumer), served through the concurrent engine.  One client thread
  // vs N must agree on every observable AND on the determinism digest.
  ExecConfig Serve1;
  Serve1.Name = "jumpstart-serve1";
  Serve1.JumpStart = true;
  Serve1.ServeThreads = 1;
  Serve1.DigestGroup = "serve";
  M.push_back(Serve1);

  ExecConfig ServeN = Serve1;
  ServeN.Name = strFormat("jumpstart-serve%u", Threads);
  ServeN.ServeThreads = Threads;
  M.push_back(ServeN);
  return M;
}

ExecConfig jumpstart::testing::skewConfig() {
  ExecConfig C;
  C.Name = "jit-skew";
  C.IntAddSkew = 1;
  return C;
}

//===----------------------------------------------------------------------===//
// Helpers.
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void fold(uint64_t &H, std::string_view S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= kFnvPrime;
  }
}

void foldU64(uint64_t &H, uint64_t V) {
  for (int I = 0; I < 8; ++I) {
    H ^= (V >> (I * 8)) & 0xFF;
    H *= kFnvPrime;
  }
}

/// The deterministic request-argument stream: request R hits endpoint
/// R % E with one integer argument.  Identical for every configuration.
std::vector<runtime::Value> argsFor(uint32_t Request) {
  return {runtime::Value::integer(
      static_cast<int64_t>((Request * 2654435761ull) & 0xFFFFFull))};
}

/// The per-request step budget: big enough for any generated program,
/// small enough that an injected non-terminating loop aborts quickly.
constexpr uint64_t kStepBudget = 2'000'000;

std::string digestOf(const vm::Server &S, const obs::Observability &Obs) {
  std::string D = S.theJit().transDb().placementDigest();
  D += obs::metricsToJsonLines(Obs.Metrics);
  D += obs::traceToJsonLines(Obs.Trace);
  return D;
}

/// First differing line between two digests, for mismatch messages.
std::string firstDigestDiff(const std::string &A, const std::string &B) {
  size_t Pos = 0;
  size_t Line = 1;
  while (Pos < A.size() && Pos < B.size() && A[Pos] == B[Pos]) {
    if (A[Pos] == '\n')
      ++Line;
    ++Pos;
  }
  auto LineAt = [&](const std::string &S) {
    size_t Begin = S.rfind('\n', Pos);
    Begin = Begin == std::string::npos ? 0 : Begin + 1;
    size_t End = S.find('\n', Begin);
    return S.substr(Begin, End == std::string::npos ? End : End - Begin);
  };
  return strFormat("digest line %zu: \"%s\" vs \"%s\"", Line,
                   LineAt(A).c_str(), LineAt(B).c_str());
}

} // namespace

//===----------------------------------------------------------------------===//
// Compilation.
//===----------------------------------------------------------------------===//

Status DiffRunner::compileProgram(const std::string &Source,
                                  fleet::Workload &W) {
  const runtime::BuiltinTable &Builtins = runtime::BuiltinTable::standard();
  std::vector<std::string> Errors =
      frontend::compileUnit(W.Repo, Builtins, "diff.hack", Source);
  if (!Errors.empty())
    return support::errorStatus(StatusCode::InvalidArgument,
                                "frontend: %s", Errors.front().c_str());
  std::vector<std::string> VErrors =
      bc::verifyRepo(W.Repo, Builtins.size());
  if (!VErrors.empty())
    return support::errorStatus(StatusCode::FailedPrecondition,
                                "verifier: %s", VErrors.front().c_str());
  for (const bc::Function &F : W.Repo.funcs())
    if (!F.isMethod() && F.Name.rfind("endpoint", 0) == 0)
      W.Endpoints.push_back(F.Id);
  if (W.Endpoints.empty())
    return support::errorStatus(StatusCode::FailedPrecondition,
                                "program has no endpoint function");
  W.EndpointPartition.assign(W.Endpoints.size(), 0);
  W.NumPartitions = 1;
  W.Sources = {{"diff.hack", Source}};
  return Status::okStatus();
}

//===----------------------------------------------------------------------===//
// Single-configuration execution.
//===----------------------------------------------------------------------===//

RunTrace DiffRunner::runConfig(const fleet::Workload &W,
                               const ExecConfig &C) const {
  RunTrace T;
  const uint32_t NumRequests = Params.RequestsPerProgram;
  const size_t NumEndpoints = W.Endpoints.size();

  if (C.Mode == ExecConfig::Tier::InterpOnly ||
      C.Mode == ExecConfig::Tier::Reference) {
    // Bare interpreters: no server, no JIT, no observation hooks.
    runtime::ClassTable Classes(W.Repo);
    runtime::Heap Heap;
    interp::InterpOptions Opts;
    Opts.StepBudget = kStepBudget;
    Opts.TestOnlyIntAddSkew = C.IntAddSkew;
    const runtime::BuiltinTable &Builtins = runtime::BuiltinTable::standard();
    auto ServeBare = [&](auto &Interp) {
      std::string Output;
      Interp.setOutput(&Output);
      for (uint32_t Rq = 0; Rq < NumRequests; ++Rq) {
        interp::InterpResult R = Interp.call(
            W.Endpoints[Rq % NumEndpoints], argsFor(Rq));
        T.Requests.push_back({runtime::toString(R.Ret), Output, R.Faults,
                              R.Ok});
        Heap.reset();
        Output.clear();
      }
    };
    if (C.Mode == ExecConfig::Tier::Reference) {
      ReferenceInterpreter Interp(W.Repo, Classes, Heap, Builtins, Opts);
      ServeBare(Interp);
    } else {
      interp::Interpreter Interp(W.Repo, Classes, Heap, Builtins, Opts);
      ServeBare(Interp);
    }
    return T;
  }

  obs::Observability Obs;
  std::unique_ptr<support::ThreadPool> Pool;
  if (C.HostThreads > 1)
    Pool = std::make_unique<support::ThreadPool>(C.HostThreads);

  vm::ServerConfig SC;
  SC.Cores = 4;
  SC.JitWorkerCores = 1;
  SC.WarmupEndpoints.clear(); // the schedule is the only traffic
  SC.Interp.StepBudget = kStepBudget;
  SC.Interp.TestOnlyIntAddSkew = C.IntAddSkew;
  SC.Jit.ProfileRequestTarget =
      C.Mode == ExecConfig::Tier::FullJit
          ? std::max<uint32_t>(2, NumRequests / 3)
          : (1u << 30); // ProfileOnly: maturity never arrives
  SC.Jit.UseExtTsp = C.UseExtTsp;
  SC.Jit.SplitHotCold = C.SplitHotCold;
  SC.Jit.UseFunctionSort = C.UseFunctionSort;
  SC.ReorderProperties = C.ReorderProperties;
  SC.Jit.ProvenGuardElision = C.ProvenGuardElision;
  core::attachProvenFacts(SC, W.Repo);
  SC.Name = "diff";
  SC.CompilePool = Pool.get();
  if (C.ServeThreads > 0)
    SC.ServeWorkers = C.ServeThreads;

  // Concurrent-serving cells: open a window, let ServeThreads closed-loop
  // clients pull a shared ticket and serve, close the window.  Request Rq
  // lands at Results[Rq], so the recorded order is schedule order no
  // matter which thread ran it.
  auto ServeConcurrent = [&](vm::Server &S) {
    S.beginConcurrentServing();
    std::vector<RequestObs> Results(NumRequests);
    std::atomic<uint32_t> Next{0};
    auto Client = [&] {
      for (;;) {
        uint32_t Rq = Next.fetch_add(1, std::memory_order_relaxed);
        if (Rq >= NumRequests)
          break;
        vm::RequestResult Res =
            S.serve(W.Endpoints[Rq % NumEndpoints], argsFor(Rq), Rq);
        Results[Rq] = {Res.Obs.Ret, Res.Obs.Output, Res.Obs.Faults,
                       Res.Obs.Ok};
      }
    };
    std::vector<std::thread> Clients;
    for (uint32_t I = 1; I < C.ServeThreads; ++I)
      Clients.emplace_back(Client);
    Client();
    for (std::thread &Th : Clients)
      Th.join();
    S.endConcurrentServing();
    for (RequestObs &R : Results)
      T.Requests.push_back(std::move(R));
  };

  auto Serve = [&](vm::Server &S) {
    if (C.ServeThreads > 0) {
      ServeConcurrent(S);
      return;
    }
    for (uint32_t Rq = 0; Rq < NumRequests; ++Rq) {
      vm::RequestResult Res =
          S.executeRequest(W.Endpoints[Rq % NumEndpoints], argsFor(Rq));
      T.Requests.push_back({Res.Obs.Ret, Res.Obs.Output, Res.Obs.Faults,
                            Res.Obs.Ok});
      // Drain the JIT pipeline so tier transitions happen at the same
      // request index on every run.
      S.grantJitTime(16.0);
    }
    // Cross-validate every guard the lowering elided: an independent
    // analysis run must re-prove each recorded elision.
    if (C.ProvenGuardElision) {
      analysis::Linter L(W.Repo,
                         static_cast<uint32_t>(
                             runtime::BuiltinTable::standard().size()));
      for (const analysis::Diagnostic &D :
           L.lintTranslations(S.theJit().transDb()))
        if (D.Sev == analysis::Severity::Error &&
            T.ElisionLint.empty())
          T.ElisionLint = D.str(&W.Repo);
    }
  };

  if (!C.JumpStart) {
    SC.Obs = &Obs;
    vm::Server S(W.Repo, SC, /*Seed=*/7);
    S.startup();
    Serve(S);
    T.Digest = digestOf(S, Obs);
    return T;
  }

  // Jump-Start cell: grow a package on a seeder running the *same*
  // schedule, publish it, then boot a consumer through the real accept
  // path (deserialize, strict lint, fingerprint, precompile).
  vm::ServerConfig SeederSC = SC;
  SeederSC.Name = "seeder";
  SeederSC.CompilePool = nullptr;
  SeederSC.Jit.SeederInstrumentation = true;
  SeederSC.Jit.ProfileRequestTarget =
      std::max<uint32_t>(2, NumRequests / 3);
  vm::Server Seeder(W.Repo, SeederSC, /*Seed=*/11);
  Seeder.startup();
  for (uint32_t Rq = 0; Rq < NumRequests; ++Rq) {
    Seeder.executeRequest(W.Endpoints[Rq % NumEndpoints], argsFor(Rq));
    Seeder.grantJitTime(16.0);
  }
  profile::ProfilePackage Pkg = Seeder.buildSeederPackage(0, 0, 1);

  core::PackageManager Manager;
  alwaysAssert(Manager.publish(0, 0, Pkg.serialize()).ok(),
               "publishing the diff package");

  core::JumpStartOptions Opts;
  // Tiny generated programs cannot meet production coverage thresholds;
  // the strict lint and fingerprint checks stay at their defaults.
  Opts.Coverage.MinProfiledFuncs = 1;
  Opts.Coverage.MinTotalSamples = 1;
  Opts.Coverage.MinPackageBytes = 1;

  core::ConsumerParams CP;
  CP.Seed = 13;
  CP.Name = "diff";
  core::ConsumerOutcome Out =
      core::startConsumer(W, SC, Opts, Manager, CP, nullptr, &Obs);
  alwaysAssert(Out.Server != nullptr, "consumer failed to boot at all");
  T.BootedJumpStart = Out.UsedJumpStart;
  Serve(*Out.Server);
  T.Digest = digestOf(*Out.Server, Obs);
  return T;
}

//===----------------------------------------------------------------------===//
// Comparison and sweep.
//===----------------------------------------------------------------------===//

std::string DiffRunner::compareTraces(const RunTrace &A,
                                      const RunTrace &B) {
  if (A.Requests.size() != B.Requests.size())
    return strFormat("request count %zu vs %zu", A.Requests.size(),
                     B.Requests.size());
  for (size_t I = 0; I < A.Requests.size(); ++I) {
    const RequestObs &X = A.Requests[I];
    const RequestObs &Y = B.Requests[I];
    if (X.Ret != Y.Ret)
      return strFormat("request %zu: return \"%s\" vs \"%s\"", I,
                       X.Ret.c_str(), Y.Ret.c_str());
    if (X.Output != Y.Output)
      return strFormat("request %zu: output \"%s\" vs \"%s\"", I,
                       X.Output.c_str(), Y.Output.c_str());
    if (X.Faults != Y.Faults)
      return strFormat("request %zu: %llu vs %llu faults", I,
                       static_cast<unsigned long long>(X.Faults),
                       static_cast<unsigned long long>(Y.Faults));
    if (X.Ok != Y.Ok)
      return strFormat("request %zu: ok=%d vs ok=%d", I, X.Ok, Y.Ok);
  }
  return "";
}

DiffRunner::DiffRunner(DiffParams P) : Params(std::move(P)) {
  if (Params.Matrix.empty())
    Params.Matrix = smokeMatrix();
  // A single-config matrix is allowed: ablation sweeps run one arm at a
  // time and compare the two sweeps' observables digests (ObsDigest)
  // instead of doing pairwise in-run comparison.
  alwaysAssert(!Params.Matrix.empty(),
               "differential testing needs at least one configuration");
}

void DiffRunner::recordMismatch(const GenProgram &Prog,
                                uint64_t ProgramSeed, const ExecConfig &A,
                                const ExecConfig &B, std::string What,
                                bool DigestOnly, DiffStats &Stats) {
  Mismatch Mm;
  Mm.ProgramSeed = ProgramSeed;
  Mm.ConfigA = A.Name;
  Mm.ConfigB = B.Name;
  Mm.What = std::move(What);
  Mm.Source = Prog.render();

  // "Still fails" for the shrinker: the candidate compiles and the same
  // config pair still diverges (semantically, or by digest for
  // determinism mismatches).
  auto Differs = [&](const GenProgram &Cand) {
    fleet::Workload W;
    if (!compileProgram(Cand.render(), W).ok())
      return false;
    RunTrace TA = runConfig(W, A);
    RunTrace TB = runConfig(W, B);
    if (DigestOnly)
      return TA.Digest != TB.Digest;
    if (!compareTraces(TA, TB).empty())
      return true;
    return B.JumpStart && !TB.BootedJumpStart;
  };

  GenProgram Min = Prog;
  if (Params.Shrink && Differs(Prog))
    Min = shrinkProgram(std::move(Min), Differs);
  Mm.Shrunk = Min.render();
  Mm.ShrunkLines = Min.sourceLines();

  if (!Params.ReproDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Params.ReproDir, Ec);
    std::string Base =
        strFormat("%s/p%llu-%s-vs-%s", Params.ReproDir.c_str(),
                  static_cast<unsigned long long>(ProgramSeed),
                  Mm.ConfigA.c_str(), Mm.ConfigB.c_str());
    std::ofstream Hack(Base + ".hack");
    Hack << Mm.Shrunk;
    std::ofstream Txt(Base + ".txt");
    Txt << strFormat("program seed: %llu\nconfigs: %s vs %s\n"
                     "mismatch: %s\noriginal lines: %zu\n"
                     "shrunk lines: %zu\n\n--- original ---\n%s",
                     static_cast<unsigned long long>(ProgramSeed),
                     Mm.ConfigA.c_str(), Mm.ConfigB.c_str(),
                     Mm.What.c_str(), Prog.sourceLines(), Mm.ShrunkLines,
                     Mm.Source.c_str());
    Mm.ArtifactPath = Base + ".hack";
  }
  Stats.Mismatches.push_back(std::move(Mm));
}

void DiffRunner::checkProgram(const GenProgram &Prog, uint64_t ProgramSeed,
                              DiffStats &Stats) {
  ++Stats.Programs;
  std::string Source = Prog.render();
  if (Stats.SweepDigest == 0)
    Stats.SweepDigest = kFnvOffset;
  if (Stats.ObsDigest == 0)
    Stats.ObsDigest = kFnvOffset;
  fold(Stats.SweepDigest, Source);
  fold(Stats.ObsDigest, Source);

  fleet::Workload W;
  Status Compiled = compileProgram(Source, W);
  if (!Compiled.ok()) {
    // A generator bug is itself a reportable failure of the harness.
    Mismatch Mm;
    Mm.ProgramSeed = ProgramSeed;
    Mm.ConfigA = "frontend";
    Mm.ConfigB = "generator";
    Mm.What = strFormat("generated program does not compile: %s",
                        Compiled.message().c_str());
    Mm.Source = Source;
    Mm.Shrunk = Source;
    Mm.ShrunkLines = Prog.sourceLines();
    Stats.Mismatches.push_back(std::move(Mm));
    return;
  }

  std::vector<RunTrace> Traces;
  Traces.reserve(Params.Matrix.size());
  for (const ExecConfig &C : Params.Matrix) {
    Traces.push_back(runConfig(W, C));
    ++Stats.Runs;
    const RunTrace &T = Traces.back();
    if (T.BootedJumpStart)
      ++Stats.JumpStartBoots;
    fold(Stats.SweepDigest, C.Name);
    for (const RequestObs &R : T.Requests) {
      fold(Stats.SweepDigest, R.Ret);
      fold(Stats.SweepDigest, R.Output);
      foldU64(Stats.SweepDigest, R.Faults);
      foldU64(Stats.SweepDigest, R.Ok ? 1 : 0);
      // The observables-only digest deliberately skips config names and
      // placement/metrics digests: the elision ablation compares it
      // across matrices whose cells differ in those.
      fold(Stats.ObsDigest, R.Ret);
      fold(Stats.ObsDigest, R.Output);
      foldU64(Stats.ObsDigest, R.Faults);
      foldU64(Stats.ObsDigest, R.Ok ? 1 : 0);
    }
    fold(Stats.SweepDigest, T.Digest);
  }

  // Elision re-proof failures surface as mismatches against "analysis":
  // the JIT elided a guard the whole-program analysis cannot defend.
  for (size_t I = 0; I < Params.Matrix.size(); ++I)
    if (!Traces[I].ElisionLint.empty())
      recordMismatch(Prog, ProgramSeed, Params.Matrix[I], Params.Matrix[I],
                     strFormat("elision re-proof failed: %s",
                               Traces[I].ElisionLint.c_str()),
                     /*DigestOnly=*/false, Stats);

  // (a) semantic equality against the baseline config (matrix cell 0).
  const ExecConfig &Ref = Params.Matrix.front();
  for (size_t I = 1; I < Params.Matrix.size(); ++I) {
    const ExecConfig &C = Params.Matrix[I];
    std::string What = compareTraces(Traces.front(), Traces[I]);
    if (What.empty() && C.JumpStart && !Traces[I].BootedJumpStart)
      What = "consumer declined the seeder-published package (fallback "
             "boot)";
    if (!What.empty())
      recordMismatch(Prog, ProgramSeed, Ref, C, std::move(What),
                     /*DigestOnly=*/false, Stats);
  }

  // (b) determinism digests within each group (the --threads promise).
  std::map<std::string, size_t> GroupFirst;
  for (size_t I = 0; I < Params.Matrix.size(); ++I) {
    const ExecConfig &C = Params.Matrix[I];
    if (C.DigestGroup.empty())
      continue;
    auto [It, Inserted] = GroupFirst.try_emplace(C.DigestGroup, I);
    if (Inserted)
      continue;
    ++Stats.DigestComparisons;
    size_t First = It->second;
    if (Traces[First].Digest != Traces[I].Digest)
      recordMismatch(
          Prog, ProgramSeed, Params.Matrix[First], C,
          strFormat("determinism digest differs: %s",
                    firstDigestDiff(Traces[First].Digest,
                                    Traces[I].Digest)
                        .c_str()),
          /*DigestOnly=*/true, Stats);
  }
}

DiffStats DiffRunner::run() {
  DiffStats Stats;
  Stats.SweepDigest = kFnvOffset;
  for (uint32_t I = 0; I < Params.NumPrograms; ++I) {
    uint64_t ProgramSeed = Params.Seed * 1'000'003ull + I;
    GenParams G = Params.Gen;
    G.Seed = ProgramSeed;
    GenProgram Prog = generateProgram(G);
    checkProgram(Prog, ProgramSeed, Stats);
  }
  return Stats;
}
