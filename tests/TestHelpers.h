//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the test suite: compile a snippet, run a function,
/// and inspect the result.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_TESTS_TESTHELPERS_H
#define JUMPSTART_TESTS_TESTHELPERS_H

#include "bytecode/Repo.h"
#include "bytecode/Verifier.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "jit/Recorders.h"
#include "runtime/Builtins.h"
#include "runtime/ClassLayout.h"
#include "runtime/Heap.h"
#include "sim/Machine.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace jumpstart::testing {

/// Every sim::PerfCounters field as `name=value`, so that a failed
/// EXPECT_EQ between two renderings shows which fields differ.
inline std::string countersString(const sim::PerfCounters &C) {
  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };
  return strFormat(
      "instr=%llu br=%llu brMiss=%llu l1i=%llu l1iMiss=%llu l1d=%llu "
      "l1dMiss=%llu llc=%llu llcMiss=%llu itlb=%llu itlbMiss=%llu "
      "dtlb=%llu dtlbMiss=%llu",
      U(C.Instructions), U(C.Branches), U(C.BranchMisses), U(C.L1IAccesses),
      U(C.L1IMisses), U(C.L1DAccesses), U(C.L1DMisses), U(C.LlcAccesses),
      U(C.LlcMisses), U(C.ITlbAccesses), U(C.ITlbMisses), U(C.DTlbAccesses),
      U(C.DTlbMisses));
}

/// Profiling hooks that observe the body of every frame.  On a JIT with
/// no translations JitProfilingHooks itself answers EntryExit for every
/// frame, so only these run the instrumented interpreter body there.
class BodyObservingHooks : public jit::JitProfilingHooks {
public:
  using jit::JitProfilingHooks::JitProfilingHooks;

  interp::FrameObservation onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                                       const runtime::Value *Args,
                                       uint32_t NumArgs,
                                       interp::FrameRecord &Record) override {
    jit::JitProfilingHooks::onFuncEnter(Callee, Caller, Args, NumArgs,
                                        Record);
    return interp::FrameObservation::Body;
  }
};

/// A compiled program plus the runtime needed to execute it.
class TestVm {
public:
  /// Compiles \p Source; fails the current test on any diagnostic.
  explicit TestVm(const std::string &Source)
      : Builtins(runtime::BuiltinTable::standard()), Classes(Repo), Heap() {
    std::vector<std::string> Errors =
        frontend::compileUnit(Repo, Builtins, "test.src", Source);
    for (const std::string &E : Errors)
      ADD_FAILURE() << "compile error: " << E;
    CompileOk = Errors.empty();
    if (CompileOk) {
      std::vector<std::string> VerifyErrors =
          bc::verifyRepo(Repo, Builtins.size());
      for (const std::string &E : VerifyErrors)
        ADD_FAILURE() << "verifier error: " << E;
      CompileOk = VerifyErrors.empty();
    }
    Interp = std::make_unique<interp::Interpreter>(Repo, Classes, Heap,
                                                   Builtins);
    Interp->setOutput(&Output);
  }

  bool ok() const { return CompileOk; }

  /// Runs free function \p Name with integer arguments \p Args.
  interp::InterpResult run(const std::string &Name,
                           std::vector<int64_t> Args = {}) {
    bc::FuncId F = Repo.findFunction(Name);
    EXPECT_TRUE(F.valid()) << "no such function: " << Name;
    std::vector<runtime::Value> Values;
    Values.reserve(Args.size());
    for (int64_t A : Args)
      Values.push_back(runtime::Value::integer(A));
    Output.clear();
    return Interp->call(F, Values);
  }

  /// Runs \p Name and expects an Int result, which is returned.
  int64_t runInt(const std::string &Name, std::vector<int64_t> Args = {}) {
    interp::InterpResult R = run(Name, std::move(Args));
    EXPECT_TRUE(R.Ok) << "execution aborted";
    EXPECT_EQ(R.Ret.T, runtime::Type::Int)
        << "expected Int result, got " << runtime::typeName(R.Ret.T);
    return R.Ret.isInt() ? R.Ret.I : 0;
  }

  /// Runs \p Name and returns the captured print output.
  std::string runForOutput(const std::string &Name,
                           std::vector<int64_t> Args = {}) {
    run(Name, std::move(Args));
    return Output;
  }

  bc::Repo Repo;
  const runtime::BuiltinTable &Builtins;
  runtime::ClassTable Classes;
  runtime::Heap Heap;
  std::unique_ptr<interp::Interpreter> Interp;
  std::string Output;
  bool CompileOk = false;
};

} // namespace jumpstart::testing

#endif // JUMPSTART_TESTS_TESTHELPERS_H
