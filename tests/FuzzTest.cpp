//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Grammar-directed fuzzing: generate random (syntactically valid)
/// mini-Hack programs and check the pipeline invariants -- everything the
/// compiler accepts must verify, and everything that verifies must
/// execute without crashing the VM (dynamic faults are fine; crashes and
/// verifier escapes are not).  Also cross-checks that JIT observation
/// hooks never change results on the fuzzed programs.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "analysis/Linter.h"
#include "bytecode/Verifier.h"
#include "core/Consumer.h"
#include "core/Seeder.h"
#include "fleet/Traffic.h"
#include "fleet/WorkloadGen.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "jit/Jit.h"
#include "jit/Recorders.h"
#include "profile/ProfilePackage.h"
#include "runtime/Builtins.h"
#include "runtime/ValueOps.h"
#include "support/Random.h"
#include "support/StringUtil.h"
#include "testing/Corpus.h"
#include "testing/PackageMutator.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace jumpstart;
using jumpstart::testing::BodyObservingHooks;

namespace {

/// Generates random well-formed programs.
class ProgramFuzzer {
public:
  explicit ProgramFuzzer(uint64_t Seed) : R(Seed) {}

  std::string generate() {
    Source.clear();
    NumFuncs = 2 + static_cast<int>(R.nextBelow(5));
    genClass();
    for (int F = 0; F < NumFuncs; ++F)
      genFunction(F);
    return Source;
  }

private:
  /// Variables in scope for the function currently being generated.
  std::vector<std::string> Vars;

  void genClass() {
    Source += "class Box {\n  prop $a; prop $b; prop $c;\n"
              "  method set($v) { $this->a = $v; $this->b = $v * 2; "
              "return $this; }\n"
              "  method get() { return $this->a + $this->b; }\n}\n";
  }

  std::string randVar() {
    if (Vars.empty())
      return "$unset"; // reads as null: legal
    return Vars[R.nextBelow(Vars.size())];
  }

  /// A random expression of bounded depth.  All constructs are legal in
  /// any context; type errors at runtime are intentional (they must
  /// fault, not crash).
  std::string genExpr(int Depth) {
    if (Depth <= 0 || R.nextBool(0.3)) {
      switch (R.nextBelow(6)) {
      case 0:
        return strFormat("%d", static_cast<int>(R.nextBelow(100)));
      case 1:
        return strFormat("%d.5", static_cast<int>(R.nextBelow(9)));
      case 2:
        return "\"s" + std::to_string(R.nextBelow(10)) + "\"";
      case 3:
        return R.nextBool(0.5) ? "true" : "null";
      default:
        return randVar();
      }
    }
    switch (R.nextBelow(8)) {
    case 0: {
      const char *Ops[] = {"+", "-", "*", "/", "%", ".",
                           "==", "!=", "<", "<=", ">", ">="};
      return "(" + genExpr(Depth - 1) + " " +
             Ops[R.nextBelow(sizeof(Ops) / sizeof(Ops[0]))] + " " +
             genExpr(Depth - 1) + ")";
    }
    case 1:
      return "(" + genExpr(Depth - 1) +
             (R.nextBool(0.5) ? " && " : " || ") + genExpr(Depth - 1) +
             ")";
    case 2:
      return "(!" + genExpr(Depth - 1) + ")";
    case 3:
      return "vec[" + genExpr(Depth - 1) + ", " + genExpr(Depth - 1) +
             "]";
    case 4:
      return "dict[\"k\" => " + genExpr(Depth - 1) + "]";
    case 5:
      return genExpr(Depth - 1) + "[" + genExpr(Depth - 1) + "]";
    case 6:
      // A call to an already-generated function (acyclic by index).
      if (CurrentFunc > 0) {
        int Callee = static_cast<int>(R.nextBelow(CurrentFunc));
        return strFormat("f%d(%s)", Callee, genExpr(Depth - 1).c_str());
      }
      return "abs(" + genExpr(Depth - 1) + ")";
    default:
      return "new Box()->set(" + genExpr(Depth - 1) + ")->get()";
    }
  }

  void genStmt(int Depth, int Indent) {
    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    switch (R.nextBelow(Depth > 0 ? 5 : 2)) {
    case 0: {
      std::string V = strFormat("$v%d", static_cast<int>(R.nextBelow(6)));
      Source += Pad + V + " = " + genExpr(2) + ";\n";
      Vars.push_back(V);
      return;
    }
    case 1:
      Source += Pad + "print(to_str(" + genExpr(1) + "));\n";
      return;
    case 2: {
      Source += Pad + "if (" + genExpr(1) + ") {\n";
      genStmt(Depth - 1, Indent + 1);
      Source += Pad + "} else {\n";
      genStmt(Depth - 1, Indent + 1);
      Source += Pad + "}\n";
      return;
    }
    case 3: {
      // Loops are always bounded by construction.
      std::string I = strFormat("$i%d", Indent);
      Source += Pad + I + " = 0;\n";
      Source += Pad + "while (" + I + " < " +
                std::to_string(1 + R.nextBelow(6)) + ") {\n";
      genStmt(Depth - 1, Indent + 1);
      Source += Pad + "  " + I + " = " + I + " + 1;\n";
      Source += Pad + "}\n";
      Vars.push_back(I);
      return;
    }
    default:
      Source += Pad + "if (" + genExpr(1) + ") { return " + genExpr(2) +
                "; }\n";
      return;
    }
  }

  void genFunction(int Index) {
    CurrentFunc = Index;
    Vars = {"$x"};
    Source += strFormat("function f%d($x) {\n", Index);
    int Stmts = 2 + static_cast<int>(R.nextBelow(5));
    for (int S = 0; S < Stmts; ++S)
      genStmt(2, 1);
    Source += "  return " + genExpr(2) + ";\n}\n";
  }

  Rng R;
  std::string Source;
  int NumFuncs = 0;
  int CurrentFunc = 0;
};

} // namespace

class FuzzPipeline : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzPipeline, CompileVerifyExecute) {
  ProgramFuzzer Fuzzer(GetParam());
  std::string Source = Fuzzer.generate();

  bc::Repo Repo;
  const runtime::BuiltinTable &Builtins = runtime::BuiltinTable::standard();
  std::vector<std::string> Errors =
      frontend::compileUnit(Repo, Builtins, "fuzz.hack", Source);
  ASSERT_TRUE(Errors.empty())
      << "fuzzer emitted an invalid program (seed " << GetParam()
      << "): " << Errors[0] << "\n"
      << Source;

  // Invariant 1: accepted programs verify.
  std::vector<std::string> VErrors = bc::verifyRepo(Repo, Builtins.size());
  ASSERT_TRUE(VErrors.empty())
      << "verifier escape (seed " << GetParam() << "): " << VErrors[0]
      << "\n" << Source;

  // Invariant 2: verified programs execute without crashing, observed or
  // not, and observation never changes results.
  runtime::ClassTable Classes(Repo);
  runtime::Heap Heap;
  interp::InterpOptions Opts;
  Opts.StepBudget = 2'000'000;
  interp::Interpreter Interp(Repo, Classes, Heap, Builtins, Opts);
  std::string Output;
  Interp.setOutput(&Output);

  // The production hooks (every frame EntryExit here) and hooks that
  // observe every frame's body.
  jit::Jit J(Repo, jit::JitConfig());
  jit::JitProfilingHooks Hooks(J);
  BodyObservingHooks BodyHooks(J);
  jit::JitProfilingHooks *const Observers[] = {&Hooks, &BodyHooks};

  for (const bc::Function &F : Repo.funcs()) {
    if (F.isMethod())
      continue;
    std::vector<runtime::Value> Args;
    for (uint32_t P = 0; P < F.NumParams; ++P)
      Args.push_back(runtime::Value::integer(7));

    Interp.setCallbacks(nullptr);
    interp::InterpResult Plain = Interp.call(F.Id, Args);
    std::string PlainOut = Output;
    // Render the return value before the reset: it may point into the heap.
    std::string PlainRet = runtime::toString(Plain.Ret);
    Heap.reset();
    Output.clear();

    for (jit::JitProfilingHooks *CB : Observers) {
      SCOPED_TRACE(CB == &Hooks ? "JitProfilingHooks" : "body observed");
      Interp.setCallbacks(CB);
      interp::InterpResult Observed = Interp.call(F.Id, Args);
      std::string ObservedRet = runtime::toString(Observed.Ret);
      Heap.reset();

      EXPECT_EQ(Plain.Ok, Observed.Ok);
      EXPECT_EQ(Plain.Steps, Observed.Steps);
      EXPECT_EQ(Plain.Faults, Observed.Faults);
      EXPECT_EQ(PlainRet, ObservedRet)
          << "observation changed a result (seed " << GetParam() << ", "
          << F.Name << ")\n" << Source;
      EXPECT_EQ(Output, PlainOut);
      Output.clear();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<uint64_t>(1, 25));

//===----------------------------------------------------------------------===//
// Package-mutation fuzzing.
//
// The checkers live in src/testing/PackageMutator.h (shared with the
// corpus replayer); these tests drive them across a seed range and, on
// failure, dump a replayable (kind, seed) corpus entry so the regression
// is pinned forever.  tests/CorpusReplayTest.cpp replays every checked-in
// entry on every run.
//===----------------------------------------------------------------------===//

namespace jstest = jumpstart::testing;

namespace {

/// On failure, writes a corpus entry to $JUMPSTART_CORPUS_DUMP_DIR (or
/// the checked-in corpus dir) so the failing seed can be committed as a
/// permanent regression test.
void dumpCorpusOnFailure(const std::string &Kind, uint64_t Seed,
                         const std::string &Failure) {
  if (Failure.empty())
    return;
  const char *DumpDir = std::getenv("JUMPSTART_CORPUS_DUMP_DIR");
  jstest::CorpusEntry E;
  E.Kind = Kind;
  E.Seed = Seed;
  E.Note = Failure;
  std::string Path;
  if (jstest::writeCorpusEntry(DumpDir ? DumpDir : JUMPSTART_CORPUS_DIR,
                               E, &Path)
          .ok())
    ADD_FAILURE() << "corpus entry dumped to " << Path
                  << " -- commit it to pin this regression";
}

const jstest::MutationEnv &sharedEnv() {
  // Built once per process: the env runs a full seeder workflow.
  static const jstest::MutationEnv Env = jstest::buildMutationEnv();
  return Env;
}

} // namespace

class PackageFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PackageFuzz, ByteFlipsAndTruncationsFailCleanly) {
  std::string Failure = jstest::checkByteFlips(sharedEnv(), GetParam());
  dumpCorpusOnFailure("pkg_byteflip", GetParam(), Failure);
  EXPECT_EQ(Failure, "");
}

TEST_P(PackageFuzz, StructMutationsAreCaughtOrHarmless) {
  std::string Failure =
      jstest::checkStructMutation(sharedEnv(), GetParam());
  dumpCorpusOnFailure("pkg_struct", GetParam(), Failure);
  EXPECT_EQ(Failure, "");
}

TEST_P(PackageFuzz, DistributionCorruptionFallsBack) {
  std::string Failure =
      jstest::checkDistributionCorruption(sharedEnv(), GetParam());
  dumpCorpusOnFailure("pkg_distribution", GetParam(), Failure);
  EXPECT_EQ(Failure, "");
}

TEST_P(PackageFuzz, RebasedPackageSurvivesDrift) {
  std::string Failure = jstest::checkDriftRebase(sharedEnv(), GetParam());
  dumpCorpusOnFailure("pkg_drift", GetParam(), Failure);
  EXPECT_EQ(Failure, "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackageFuzz,
                         ::testing::Range<uint64_t>(1, 13));
