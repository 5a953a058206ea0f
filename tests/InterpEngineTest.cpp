//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interpreter-vs-reference conformance.
///
/// The production interpreter (threaded dispatch, arena frames, interned
/// strings, inline caches, per-run step accounting) must be observably
/// identical to testing::ReferenceInterpreter, the original switch loop:
/// same results, same faults, same step totals, same per-function
/// instruction counts, and -- the strictest check -- the same callback
/// stream event for event, including type observations and simulated
/// heap addresses.  These tests drive both over generated programs and
/// hand-written edge cases and diff everything.  Bytecode the verifier
/// rejects never runs: the interpreter answers Null with one fault.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "interp/InterpCache.h"
#include "runtime/ValueOps.h"
#include "support/StringUtil.h"
#include "testing/DiffRunner.h"
#include "testing/ProgramGen.h"
#include "testing/ReferenceInterpreter.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace jumpstart;
namespace jstest = jumpstart::testing;

namespace {

/// Records every callback invocation as one line, so two interpreters'
/// observation streams can be diffed as strings.
class RecordingCallbacks : public interp::ExecCallbacks {
public:
  /// Tracing every instruction of every function makes the stream (and
  /// both interpreters' preamble paths) maximally sensitive.
  bool wantsInstrTrace(bc::FuncId) override { return true; }

  void onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                   const runtime::Value *Args, uint32_t NumArgs) override {
    Log += strFormat("enter %u from %u args %u\n", Callee.raw(), Caller.raw(),
                     NumArgs);
    for (uint32_t I = 0; I < NumArgs; ++I)
      Log += strFormat("  arg %s\n", runtime::toString(Args[I]).c_str());
  }
  void onFuncExit(bc::FuncId F) override {
    Log += strFormat("exit %u\n", F.raw());
  }
  void onBlockEnter(bc::FuncId F, uint32_t Block) override {
    Log += strFormat("block %u:%u\n", F.raw(), Block);
  }
  void onInstr(bc::FuncId F, uint32_t InstrIndex, uint32_t Depth) override {
    Log += strFormat("instr %u:%u depth %u\n", F.raw(), InstrIndex, Depth);
  }
  void onVirtualCall(bc::FuncId Caller, uint32_t InstrIndex,
                     bc::FuncId Callee) override {
    Log += strFormat("vcall %u:%u -> %u\n", Caller.raw(), InstrIndex,
                     Callee.raw());
  }
  void onTypeObserve(bc::FuncId F, uint32_t InstrIndex,
                     runtime::Type T) override {
    Log += strFormat("type %u:%u %s\n", F.raw(), InstrIndex,
                     runtime::typeName(T));
  }
  void onPropAccess(bc::ClassId Cls, bc::StringId Prop, bool IsWrite,
                    uint64_t Addr) override {
    Log += strFormat("prop %u.%u w%d @%llu\n", Cls.raw(), Prop.raw(), IsWrite,
                     static_cast<unsigned long long>(Addr));
  }
  void onDataAccess(uint64_t Addr, bool IsWrite) override {
    Log += strFormat("data w%d @%llu\n", IsWrite,
                     static_cast<unsigned long long>(Addr));
  }

  std::string Log;
};

/// Everything one interpreter produced for one program.
struct EngineTrace {
  std::vector<std::string> Rets;
  std::vector<std::string> Outputs;
  std::vector<uint64_t> Faults;
  std::vector<uint64_t> Steps;
  std::vector<bool> Oks;
  std::vector<uint64_t> InstrCounts;
  std::string CallbackLog;
};

/// Runs \p Requests requests against every endpoint of \p W on a fresh
/// \p InterpT (interp::Interpreter or jstest::ReferenceInterpreter), with
/// full observation attached.
template <typename InterpT>
EngineTrace runEngine(const fleet::Workload &W, uint32_t Requests,
                      uint64_t StepBudget = 200'000) {
  runtime::ClassTable Classes(W.Repo);
  runtime::Heap Heap;
  interp::InterpOptions Opts;
  Opts.StepBudget = StepBudget;
  InterpT Interp(W.Repo, Classes, Heap, runtime::BuiltinTable::standard(),
                 Opts);
  EngineTrace T;
  RecordingCallbacks CB;
  Interp.setCallbacks(&CB);
  Interp.setInstrCounts(&T.InstrCounts);
  std::string Output;
  Interp.setOutput(&Output);
  for (uint32_t Rq = 0; Rq < Requests; ++Rq) {
    bc::FuncId F = W.Endpoints[Rq % W.Endpoints.size()];
    std::vector<runtime::Value> Args = {runtime::Value::integer(
        static_cast<int64_t>((Rq * 2654435761ull) & 0xFFFFFull))};
    interp::InterpResult R = Interp.call(F, Args);
    T.Rets.push_back(runtime::toString(R.Ret));
    T.Outputs.push_back(Output);
    T.Faults.push_back(R.Faults);
    T.Steps.push_back(R.Steps);
    T.Oks.push_back(R.Ok);
    Heap.reset();
    Output.clear();
  }
  T.CallbackLog = std::move(CB.Log);
  return T;
}

void expectTracesEqual(const EngineTrace &Fast, const EngineTrace &Ref,
                       uint64_t Seed) {
  ASSERT_EQ(Fast.Rets.size(), Ref.Rets.size()) << "seed " << Seed;
  for (size_t I = 0; I < Fast.Rets.size(); ++I) {
    EXPECT_EQ(Fast.Rets[I], Ref.Rets[I]) << "seed " << Seed << " rq " << I;
    EXPECT_EQ(Fast.Outputs[I], Ref.Outputs[I])
        << "seed " << Seed << " rq " << I;
    EXPECT_EQ(Fast.Faults[I], Ref.Faults[I])
        << "seed " << Seed << " rq " << I;
    EXPECT_EQ(Fast.Steps[I], Ref.Steps[I]) << "seed " << Seed << " rq " << I;
    EXPECT_EQ(Fast.Oks[I], Ref.Oks[I]) << "seed " << Seed << " rq " << I;
  }
  EXPECT_EQ(Fast.InstrCounts, Ref.InstrCounts) << "seed " << Seed;
  EXPECT_EQ(Fast.CallbackLog, Ref.CallbackLog) << "seed " << Seed;
}

/// Diffs \p W between the interpreter and the reference; \p Seed labels
/// failures.
void expectMatchesReference(const fleet::Workload &W, uint64_t Seed,
                            uint32_t Requests) {
  expectTracesEqual(runEngine<interp::Interpreter>(W, Requests),
                    runEngine<jstest::ReferenceInterpreter>(W, Requests),
                    Seed);
}

/// Paths generated programs never reach (ProgramGen builds one-entry
/// dicts and three-property classes with monomorphic sites): a dict grown
/// past runtime::VmDict::kIndexThreshold and probed with int and string
/// keys, hits and misses; a ten-property class; a polymorphic method and
/// property site; string constants inside loops.
const char *kHandWrittenProgram =
    "class Wide {"
    "  prop $p0; prop $p1; prop $p2; prop $p3; prop $p4;"
    "  prop $p5; prop $p6; prop $p7; prop $p8; prop $p9;"
    "  method tag($k) { return $this->p9 * 10 + $this->p0 + $k; }"
    "}"
    "class Narrow {"
    "  prop $p9; prop $p0;"
    "  method tag($k) { return $this->p9 - $this->p0 - $k; }"
    "}"
    "function poke($o, $k) { return $o->tag($k) + $o->p9; }"
    "function endpoint0($n) {"
    "  $d = dict[]; $i = 0;"
    "  while ($i < 12) {"
    "    $d[$i * 3] = $i;"
    "    $d[\"k\" . $i] = $i + 100;"
    "    $i = $i + 1;"
    "  }"
    "  $hits = 0; $misses = 0; $t = 0; $j = 0;"
    "  while ($j < 40) {"
    "    $v = $d[$j];"
    "    if ($v == null) { $misses = $misses + 1; }"
    "    else { $t = $t + $v; $hits = $hits + 1; }"
    "    $s = $d[\"k\" . $j];"
    "    if ($s == null) { $misses = $misses + 1; }"
    "    else { $t = $t + $s; $hits = $hits + 1; }"
    "    $j = $j + 1;"
    "  }"
    "  return $t * 10000 + $hits * 100 + $misses + $n % 7;"
    "}"
    "function endpoint1($n) {"
    "  $w = new Wide(); $w->p0 = $n % 5; $w->p9 = 3; $w->p4 = \"mid\";"
    "  $a = new Narrow(); $a->p0 = 1; $a->p9 = $n % 3;"
    "  $t = 0; $i = 0;"
    "  while ($i < 16) {"
    "    $t = $t + poke($w, $i) + poke($a, $i) + strlen(\"wide-narrow\");"
    "    print(\"tick\");"
    "    $i = $i + 1;"
    "  }"
    "  return $t + strlen($w->p4);"
    "}";

} // namespace

//===----------------------------------------------------------------------===//
// Conformance against the reference interpreter.
//===----------------------------------------------------------------------===//

TEST(InterpEngine, GeneratedProgramsMatchAcrossEngines) {
  // 50 generated programs plus one hand-written one, every observable
  // diffed against the reference -- including the full callback stream
  // (blocks, instr traces, type observations, property and data-access
  // addresses).
  for (uint32_t I = 0; I < 50; ++I) {
    uint64_t Seed = 90'000'001ull + I;
    jstest::GenParams G;
    G.Seed = Seed;
    G.NumClasses = 2;
    jstest::GenProgram Prog = jstest::generateProgram(G);
    fleet::Workload W;
    ASSERT_TRUE(jstest::DiffRunner::compileProgram(Prog.render(), W).ok())
        << "seed " << Seed;
    expectMatchesReference(W, Seed, 8);
  }
  fleet::Workload W;
  ASSERT_TRUE(jstest::DiffRunner::compileProgram(kHandWrittenProgram, W).ok());
  ASSERT_EQ(W.Endpoints.size(), 2u);
  expectMatchesReference(W, /*Seed=*/0, 8);
}

TEST(InterpEngine, StepBudgetAbortsIdentically) {
  // Tight budgets land the abort mid-program; the per-run bulk charge
  // must abort at exactly the same instruction (same Steps, same
  // truncated callback stream) as the reference's per-instruction check.
  jstest::GenParams G;
  G.Seed = 424242;
  G.MaxStmts = 6;
  jstest::GenProgram Prog = jstest::generateProgram(G);
  fleet::Workload W;
  ASSERT_TRUE(jstest::DiffRunner::compileProgram(Prog.render(), W).ok());
  // First find a budget that actually truncates execution.
  EngineTrace Free = runEngine<jstest::ReferenceInterpreter>(W, 2);
  uint64_t FullSteps = Free.Steps[0];
  ASSERT_GT(FullSteps, 4u);
  for (uint64_t Budget : {FullSteps / 2, FullSteps - 1, uint64_t(3),
                          uint64_t(1)}) {
    EngineTrace Fast = runEngine<interp::Interpreter>(W, 2, Budget);
    EngineTrace Ref = runEngine<jstest::ReferenceInterpreter>(W, 2, Budget);
    expectTracesEqual(Fast, Ref, Budget);
    EXPECT_FALSE(Fast.Oks[0]) << "budget " << Budget << " did not abort";
  }
}

TEST(InterpEngine, UninstrumentedResultsMatchInstrumented) {
  // The interpreter compiles two instantiations (with and without
  // callback code), and only the plain one contains the fused peephole
  // paths -- so this diff is the fused paths' primary oracle.  Sweep a
  // spread of generated programs, endpoints, and arguments.
  for (uint64_t Seed = 777; Seed < 777 + 30; ++Seed) {
    jstest::GenParams G;
    G.Seed = Seed;
    G.NumClasses = 2;
    jstest::GenProgram Prog = jstest::generateProgram(G);
    fleet::Workload W;
    ASSERT_TRUE(jstest::DiffRunner::compileProgram(Prog.render(), W).ok());

    runtime::ClassTable Classes(W.Repo);
    runtime::Heap Heap;
    interp::Interpreter Interp(W.Repo, Classes, Heap,
                               runtime::BuiltinTable::standard());
    RecordingCallbacks CB;
    for (bc::FuncId Endpoint : W.Endpoints) {
      for (int64_t Arg : {0, 5, 999}) {
        std::vector<runtime::Value> Args = {runtime::Value::integer(Arg)};
        Interp.setCallbacks(nullptr);
        interp::InterpResult Plain = Interp.call(Endpoint, Args);
        // Stringify before reset: a string return points into the heap.
        std::string PlainRet = runtime::toString(Plain.Ret);
        Heap.reset();
        Interp.setCallbacks(&CB);
        interp::InterpResult Observed = Interp.call(Endpoint, Args);
        std::string ObservedRet = runtime::toString(Observed.Ret);
        Heap.reset();
        EXPECT_EQ(PlainRet, ObservedRet)
            << "seed " << Seed << " arg " << Arg;
        EXPECT_EQ(Plain.Steps, Observed.Steps)
            << "seed " << Seed << " arg " << Arg;
        EXPECT_EQ(Plain.Faults, Observed.Faults)
            << "seed " << Seed << " arg " << Arg;
      }
    }
    EXPECT_FALSE(CB.Log.empty());
  }
}

//===----------------------------------------------------------------------===//
// Inline caches.
//===----------------------------------------------------------------------===//

TEST(InterpEngine, InlineCachesHitAndStayCorrect) {
  jstest::TestVm Vm(
      "class P { prop $x; method get() { return $this->x; } }"
      "function main() {"
      "  $p = new P(); $p->x = 0; $i = 0; $t = 0;"
      "  while ($i < 50) { $p->x = $i; $t = $t + $p->get(); $i = $i + 1; }"
      "  return $t;"
      "}");
  ASSERT_TRUE(Vm.ok());
  EXPECT_EQ(Vm.runInt("main"), 49 * 50 / 2);
  const interp::InterpCaches &C = Vm.Interp->caches();
  // Each site misses once (first execution) and hits thereafter.
  EXPECT_GT(C.ICHits, C.ICMisses);
  EXPECT_GT(C.ICMisses, 0u);
}

TEST(InterpEngine, PolymorphicSitesStayCorrect) {
  // One call site alternating between two receiver layouts: the
  // monomorphic cache thrashes but must never dispatch to the wrong
  // method or slot.
  jstest::TestVm Vm(
      "class A { prop $v; method tag() { return 100 + $this->v; } }"
      "class B { prop $v; method tag() { return 200 + $this->v; } }"
      "function poke($o) { return $o->tag(); }"
      "function main() {"
      "  $a = new A(); $a->v = 1; $b = new B(); $b->v = 2;"
      "  $i = 0; $t = 0;"
      "  while ($i < 10) { $t = $t + poke($a) + poke($b); $i = $i + 1; }"
      "  return $t;"
      "}");
  ASSERT_TRUE(Vm.ok());
  EXPECT_EQ(Vm.runInt("main"), 10 * (101 + 202));
}

TEST(InterpEngine, ICStatsAreDeterministic) {
  const char *Source =
      "class K { prop $n; method bump() { $this->n = $this->n + 1; "
      "return $this->n; } }"
      "function main() {"
      "  $k = new K(); $k->n = 0; $i = 0;"
      "  while ($i < 20) { $k->bump(); $i = $i + 1; }"
      "  return $k->n;"
      "}";
  uint64_t Hits[2], Misses[2];
  for (int Round = 0; Round < 2; ++Round) {
    jstest::TestVm Vm(Source);
    ASSERT_TRUE(Vm.ok());
    EXPECT_EQ(Vm.runInt("main"), 20);
    Hits[Round] = Vm.Interp->caches().ICHits;
    Misses[Round] = Vm.Interp->caches().ICMisses;
  }
  EXPECT_EQ(Hits[0], Hits[1]);
  EXPECT_EQ(Misses[0], Misses[1]);
  EXPECT_GT(Hits[0], 0u);
}

//===----------------------------------------------------------------------===//
// Static execution metadata.
//===----------------------------------------------------------------------===//

TEST(InterpEngine, ExecInfoRunLengthsAndMaxStack) {
  jstest::TestVm Vm("function main() {"
                    "  $a = 1 + 2 * 3;"
                    "  if ($a > 5) { $a = $a - 1; }"
                    "  return $a;"
                    "}");
  ASSERT_TRUE(Vm.ok());
  const bc::Function &F = Vm.Repo.func(Vm.Repo.findFunction("main"));
  uint32_t MaxStack = 0;
  ASSERT_TRUE(
      bc::verifyFunctionIssues(Vm.Repo, F, Vm.Builtins.size(), &MaxStack)
          .empty());
  interp::FuncExecInfo Info =
      interp::computeExecInfo(F, /*Verified=*/true, MaxStack);
  ASSERT_TRUE(Info.Verified);
  ASSERT_EQ(Info.RunLen.size(), F.Code.size());
  // Every run length is >= 1, and positions followed by a non-run-ending
  // instruction extend the successor's run by exactly one.
  for (size_t I = 0; I < F.Code.size(); ++I) {
    EXPECT_GE(Info.RunLen[I], 1u);
    const bc::OpInfo &OI = bc::opInfo(F.Code[I].Opcode);
    bool Ends = bc::hasFlag(OI.Flags, bc::OpFlags::Branch) ||
                bc::hasFlag(OI.Flags, bc::OpFlags::CondBranch) ||
                bc::hasFlag(OI.Flags, bc::OpFlags::Terminal) ||
                bc::hasFlag(OI.Flags, bc::OpFlags::Call);
    if (Ends || I + 1 == F.Code.size())
      EXPECT_EQ(Info.RunLen[I], 1u) << "at " << I;
    else
      EXPECT_EQ(Info.RunLen[I], Info.RunLen[I + 1] + 1) << "at " << I;
  }
  // `1 + 2 * 3` needs at least three simultaneous stack slots.
  EXPECT_GE(Info.MaxStack, 3u);
  EXPECT_LE(Info.MaxStack, 16u);
}

TEST(InterpEngine, UnverifiableFunctionsFault) {
  // Hand-built bytecode the verifier rejects: the interpreter must not
  // run it (it would underflow the operand stack, read past the locals,
  // fall off the end or index past the builtin table) but answer Null
  // with exactly one fault -- called directly or from verified code,
  // with and without callbacks.
  auto In = [](bc::Op O, int64_t A = 0, int64_t B = 0) {
    bc::Instr I;
    I.Opcode = O;
    I.ImmA = A;
    I.ImmB = B;
    return I;
  };
  struct Case {
    const char *Name;
    std::vector<bc::Instr> Code;
  };
  const Case Cases[] = {
      {"pop_empty", {In(bc::Op::PopC), In(bc::Op::Null), In(bc::Op::RetC)}},
      {"add_underflow",
       {In(bc::Op::Int, 1), In(bc::Op::Add), In(bc::Op::RetC)}},
      {"local_out_of_range", {In(bc::Op::GetL, 9), In(bc::Op::RetC)}},
      {"lone_nop", {In(bc::Op::Nop)}},
      {"bad_builtin",
       {In(bc::Op::NativeCall, 100000, 0), In(bc::Op::RetC)}},
  };

  const runtime::BuiltinTable &Builtins = runtime::BuiltinTable::standard();
  bc::Repo R;
  bc::Unit &U = R.createUnit("unverifiable");
  std::vector<bc::FuncId> Bad, Callers;
  for (const Case &C : Cases) {
    bc::Function &F = R.createFunction(U, C.Name);
    F.NumLocals = 1;
    F.Code = C.Code;
    ASSERT_FALSE(bc::verifyFunction(R, F, Builtins.size()).empty())
        << C.Name;
    Bad.push_back(F.Id);
    // A verified caller: `return bad();`.
    bc::Function &Caller = R.createFunction(U, strFormat("call_%s", C.Name));
    Caller.Code = {In(bc::Op::FCall, Bad.back().raw(), 0), In(bc::Op::RetC)};
    ASSERT_TRUE(bc::verifyFunction(R, Caller, Builtins.size()).empty());
    Callers.push_back(Caller.Id);
  }

  runtime::ClassTable Classes(R);
  runtime::Heap Heap;
  interp::Interpreter Interp(R, Classes, Heap, Builtins);
  RecordingCallbacks CB;
  for (bool Observed : {false, true}) {
    Interp.setCallbacks(Observed ? &CB : nullptr);
    for (size_t I = 0; I < Bad.size(); ++I) {
      for (bc::FuncId Entry : {Bad[I], Callers[I]}) {
        std::string What = strFormat(
            "%s %s %s", Cases[I].Name, Observed ? "observed" : "plain",
            Entry == Bad[I] ? "direct" : "via caller");
        interp::InterpResult Res = Interp.call(Entry, {});
        EXPECT_TRUE(Res.Ok) << What;
        EXPECT_TRUE(Res.Ret.isNull()) << What;
        EXPECT_EQ(Res.Faults, 1u) << What;
        Heap.reset();
      }
    }
  }
  for (bc::FuncId F : Bad)
    EXPECT_EQ(CB.Log.find(strFormat("enter %u from", F.raw())),
              std::string::npos)
        << "unverified function " << F.raw() << " entered a frame";
}

//===----------------------------------------------------------------------===//
// Frame arena.
//===----------------------------------------------------------------------===//

TEST(InterpEngine, FrameArenaLifoReuse) {
  runtime::FrameArena A;
  runtime::FrameArena::Mark M0 = A.mark();
  runtime::Value *F1 = A.alloc(10);
  runtime::FrameArena::Mark M1 = A.mark();
  runtime::Value *F2 = A.alloc(20);
  EXPECT_EQ(F2, F1 + 10) << "nested frames are contiguous";
  A.rewind(M1);
  runtime::Value *F3 = A.alloc(5);
  EXPECT_EQ(F3, F2) << "rewind frees the nested frame's space";
  A.rewind(M0);
  EXPECT_EQ(A.alloc(1), F1) << "full rewind returns to the base";

  // Oversized frames get their own chunk; normal allocation continues
  // after rewind.
  A.clear();
  runtime::Value *Big = A.alloc(100'000);
  Big[99'999] = runtime::Value::integer(7);
  EXPECT_EQ(Big[99'999].I, 7);
  EXPECT_GE(A.numChunks(), 1u);
  A.clear();
  runtime::Value *After = A.alloc(1);
  After[0] = runtime::Value::integer(1);
  EXPECT_EQ(After[0].I, 1);
}

TEST(InterpEngine, DeepRecursionReusesArena) {
  // 60 nested frames, run twice: the second request must not grow the
  // arena (capacity is retained across Heap::reset).
  jstest::TestVm Vm("function f($n) {"
                    "  if ($n <= 0) { return 0; }"
                    "  return $n + f($n - 1);"
                    "}"
                    "function main() { return f(60); }");
  ASSERT_TRUE(Vm.ok());
  EXPECT_EQ(Vm.runInt("main"), 60 * 61 / 2);
  size_t ChunksAfterFirst = Vm.Heap.frameArena().numChunks();
  Vm.Heap.reset();
  EXPECT_EQ(Vm.runInt("main"), 60 * 61 / 2);
  EXPECT_EQ(Vm.Heap.frameArena().numChunks(), ChunksAfterFirst);
}

//===----------------------------------------------------------------------===//
// Allocation accounting (what the benchmark and CI perf smoke measure).
//===----------------------------------------------------------------------===//

TEST(InterpEngine, FastEngineAllocatesLessThanLegacy) {
  // Call-and-string-heavy source: the reference pays two vector
  // allocations per frame plus one VmString per Str execution; the
  // interpreter pays neither after the first request.
  const char *Source =
      "function leaf($i) { $s = \"tag\"; return strlen($s) + $i; }"
      "function main() {"
      "  $i = 0; $t = 0;"
      "  while ($i < 30) { $t = $t + leaf($i); $i = $i + 1; }"
      "  return $t;"
      "}";
  auto AllocsPerRequest = [&](auto Tag) {
    using InterpT = typename decltype(Tag)::type;
    jstest::TestVm Vm(Source);
    EXPECT_TRUE(Vm.ok());
    InterpT Interp(Vm.Repo, Vm.Classes, Vm.Heap, Vm.Builtins);
    bc::FuncId Main = Vm.Repo.findFunction("main");
    // Warmup request pays one-time costs (interning, metadata).
    Interp.call(Main, {});
    Vm.Heap.reset();
    uint64_t Before = Vm.Heap.hostAllocs();
    Interp.call(Main, {});
    return Vm.Heap.hostAllocs() - Before;
  };
  uint64_t Fast = AllocsPerRequest(std::type_identity<interp::Interpreter>{});
  uint64_t Ref =
      AllocsPerRequest(std::type_identity<jstest::ReferenceInterpreter>{});
  // Reference: >= 62 frame vectors + 30 strings.  Interpreter: 0.
  EXPECT_EQ(Fast, 0u);
  EXPECT_GE(Ref, 90u);
}

TEST(InterpEngine, InternedStringsKeepLegacyAddressStream) {
  // The interned VmString is reused, but the simulated address space
  // must advance exactly as if each execution allocated afresh --
  // that is what keeps D-cache simulation results identical to the
  // reference's.
  runtime::Heap Interning;
  runtime::VmString *A = Interning.internString(3, "hello");
  runtime::VmString *B = Interning.internString(3, "hello");
  EXPECT_EQ(A, B) << "same id must intern to the same string";
  EXPECT_EQ(A->Data, "hello");

  runtime::Heap Allocating;
  runtime::VmString *X = Allocating.allocString("hello");
  runtime::VmString *Y = Allocating.allocString("hello");
  EXPECT_NE(X, Y);
  EXPECT_EQ(A->Addr, X->Addr);
  // The probe allocation lands at the same simulated address on both
  // heaps only if the intern *hit* advanced the bump pointer too.
  EXPECT_EQ(Interning.allocString("probe")->Addr,
            Allocating.allocString("probe")->Addr)
      << "an intern hit must still advance the simulated heap";
}
