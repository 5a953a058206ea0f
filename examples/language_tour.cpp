//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tour of the VM substrate as a standalone library: compile mini-Hack
/// source, verify it, disassemble it, run it in the interpreter, and watch
/// the multi-tier JIT take over -- no fleet machinery involved.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Disasm.h"
#include "bytecode/Verifier.h"
#include "frontend/Compiler.h"
#include "jit/Jit.h"
#include "jit/Recorders.h"
#include "interp/Interpreter.h"
#include "runtime/ValueOps.h"

#include <cstdio>

using namespace jumpstart;

static const char *kSource = R"(
// A tiny program in the mini-Hack dialect.
class Counter {
  prop $total;
  prop $step;
  method init($step) {
    $this->total = 0;
    $this->step = $step;
    return $this;
  }
  method bump() {
    $this->total = $this->total + $this->step;
    return $this->total;
  }
}

function fib($n) {
  if ($n < 2) { return $n; }
  return fib($n - 1) + fib($n - 2);
}

function main($n) {
  $c = new Counter()->init(3);
  $i = 0;
  $msg = "";
  while ($i < $n) {
    $c->bump();
    $i = $i + 1;
  }
  $msg = "fib(" . $n . ")=" . fib($n) . " total=" . $c->total;
  print($msg);
  return $c->total;
}
)";

int main() {
  // 1. Offline compilation: source -> bytecode repo.
  bc::Repo Repo;
  const runtime::BuiltinTable &Builtins = runtime::BuiltinTable::standard();
  std::vector<std::string> Errors =
      frontend::compileUnit(Repo, Builtins, "tour.hack", kSource);
  for (const std::string &E : Errors)
    std::printf("compile error: %s\n", E.c_str());
  if (!Errors.empty())
    return 1;
  std::vector<std::string> VerifyErrors =
      bc::verifyRepo(Repo, Builtins.size());
  for (const std::string &E : VerifyErrors)
    std::printf("verify error: %s\n", E.c_str());
  if (!VerifyErrors.empty())
    return 1;
  std::printf("compiled and verified: %zu functions, %zu classes\n\n",
              Repo.numFuncs(), Repo.numClasses());

  // 2. Inspect the bytecode.
  bc::FuncId Fib = Repo.findFunction("fib");
  std::printf("%s\n", bc::disasmFunction(Repo, Repo.func(Fib)).c_str());

  // 3. Execute in the interpreter.
  runtime::ClassTable Classes(Repo);
  runtime::Heap Heap;
  interp::Interpreter Interp(Repo, Classes, Heap, Builtins);
  std::string Output;
  Interp.setOutput(&Output);

  bc::FuncId Main = Repo.findFunction("main");
  interp::InterpResult R =
      Interp.call(Main, {runtime::Value::integer(10)});
  std::printf("main(10) -> %s   [%llu bytecodes, %llu faults]\n",
              runtime::toString(R.Ret).c_str(),
              static_cast<unsigned long long>(R.Steps),
              static_cast<unsigned long long>(R.Faults));
  std::printf("printed: \"%s\"\n\n", Output.c_str());

  // 4. Let the multi-tier JIT warm up on it.
  jit::JitConfig Config;
  Config.ProfileRequestTarget = 5;
  jit::Jit Jit(Repo, Config);
  jit::JitProfilingHooks Hooks(Jit);
  Interp.setCallbacks(&Hooks);
  for (int I = 0; I < 8; ++I) {
    Jit.onFuncEntered(Main);
    Jit.onFuncEntered(Fib);
    Heap.reset();
    Output.clear();
    Interp.call(Main, {runtime::Value::integer(12)});
    Jit.onRequestFinished();
    while (Jit.hasPendingWork())
      Jit.runJitWork(1e9);
  }
  std::printf("JIT phase after 8 requests: %s\n",
              jit::jitPhaseName(Jit.phase()));
  for (bc::FuncId F : {Main, Fib}) {
    const jit::Translation *T = Jit.transDb().best(F);
    std::printf("  %-14s -> %s translation, %.2f cost-units/bytecode "
                "(interpreter: %.0f)\n",
                Repo.func(F).Name.c_str(),
                T ? jit::transKindName(T->Kind) : "no",
                T ? T->CostPerBytecode : 0.0,
                jit::kInterpCostPerBytecode);
  }
  std::printf("\ncode cache: %llu bytes of JITed code\n",
              static_cast<unsigned long long>(Jit.totalCodeBytes()));
  return 0;
}
