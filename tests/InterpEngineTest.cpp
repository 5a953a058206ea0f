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

#include "fleet/WorkloadGen.h"
#include "interp/InterpCache.h"
#include "runtime/ValueOps.h"
#include "support/StringUtil.h"
#include "testing/DiffRunner.h"
#include "testing/ProgramGen.h"
#include "testing/ReferenceInterpreter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <type_traits>

using namespace jumpstart;
namespace jstest = jumpstart::testing;

namespace {

/// Records every callback invocation as one line, so two interpreters'
/// observation streams can be diffed as strings.
class RecordingCallbacks : public interp::ExecCallbacks {
public:
  /// By default every frame is BodyAndInstrs: tracing every instruction
  /// of every function makes the stream (and both interpreters' preamble
  /// paths) maximally sensitive.  \p Mixed picks EntryExit, Body or
  /// BodyAndInstrs by FuncId % 3 instead, so calls cross between plain
  /// and observed frames in every direction.
  explicit RecordingCallbacks(bool Mixed = false) : Mixed(Mixed) {}

  static interp::FrameObservation kindOf(bc::FuncId F) {
    static constexpr interp::FrameObservation Kinds[] = {
        interp::FrameObservation::EntryExit, interp::FrameObservation::Body,
        interp::FrameObservation::BodyAndInstrs};
    return Kinds[F.raw() % 3];
  }

  interp::FrameObservation observeFrame(bc::FuncId F) override {
    return Mixed ? kindOf(F) : interp::FrameObservation::BodyAndInstrs;
  }

  void onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                   const runtime::Value *Args, uint32_t NumArgs) override {
    if (Caller.valid())
      KindPairs |= 1u << (3 * static_cast<uint32_t>(kindOf(Caller)) +
                          static_cast<uint32_t>(kindOf(Callee)));
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
  /// Bit 3 * kindOf(caller) + kindOf(callee) for every call made.
  uint32_t KindPairs = 0;

private:
  bool Mixed;
};

/// Every (caller, callee) pair of observation kinds.
constexpr uint32_t kAllKindPairs = (1u << 9) - 1;

/// Everything one interpreter produced for one program.
struct EngineTrace {
  std::vector<std::string> Rets;
  std::vector<std::string> Outputs;
  std::vector<uint64_t> Faults;
  std::vector<uint64_t> Steps;
  std::vector<bool> Oks;
  interp::InstrCounts InstrCounts;
  std::string CallbackLog;
  uint32_t KindPairs = 0;
};

/// Runs \p Requests requests against every endpoint of \p W on a fresh
/// \p InterpT (interp::Interpreter or jstest::ReferenceInterpreter), with
/// a RecordingCallbacks(\p Mixed) attached.
template <typename InterpT>
EngineTrace runEngine(const fleet::Workload &W, uint32_t Requests,
                      bool Mixed, uint64_t StepBudget = 200'000) {
  runtime::ClassTable Classes(W.Repo);
  runtime::Heap Heap;
  interp::InterpOptions Opts;
  Opts.StepBudget = StepBudget;
  InterpT Interp(W.Repo, Classes, Heap, runtime::BuiltinTable::standard(),
                 Opts);
  EngineTrace T;
  RecordingCallbacks CB(Mixed);
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
  T.KindPairs = CB.KindPairs;
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
  EXPECT_EQ(Fast.InstrCounts.Counts, Ref.InstrCounts.Counts) << "seed " << Seed;
  EXPECT_EQ(Fast.InstrCounts.Touched, Ref.InstrCounts.Touched)
      << "seed " << Seed;
  EXPECT_EQ(Fast.CallbackLog, Ref.CallbackLog) << "seed " << Seed;
}

/// Diffs \p W between the interpreter and the reference, under the
/// every-frame and the mixed recorder; \p Seed labels failures.
/// \returns the kind pairs the mixed recorder saw.
uint32_t expectMatchesReference(const fleet::Workload &W, uint64_t Seed,
                                uint32_t Requests) {
  uint32_t KindPairs = 0;
  for (bool Mixed : {false, true}) {
    EngineTrace Fast = runEngine<interp::Interpreter>(W, Requests, Mixed);
    expectTracesEqual(
        Fast, runEngine<jstest::ReferenceInterpreter>(W, Requests, Mixed),
        Seed);
    if (Mixed)
      KindPairs = Fast.KindPairs;
  }
  return KindPairs;
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
  // addresses) -- with every frame observed, and again with plain and
  // observed frames calling each other.
  uint32_t KindPairs = 0;
  for (uint32_t I = 0; I < 50; ++I) {
    uint64_t Seed = 90'000'001ull + I;
    jstest::GenParams G;
    G.Seed = Seed;
    G.NumClasses = 2;
    jstest::GenProgram Prog = jstest::generateProgram(G);
    fleet::Workload W;
    ASSERT_TRUE(jstest::DiffRunner::compileProgram(Prog.render(), W).ok())
        << "seed " << Seed;
    KindPairs |= expectMatchesReference(W, Seed, 8);
  }
  fleet::Workload W;
  ASSERT_TRUE(jstest::DiffRunner::compileProgram(kHandWrittenProgram, W).ok());
  ASSERT_EQ(W.Endpoints.size(), 2u);
  KindPairs |= expectMatchesReference(W, /*Seed=*/0, 8);
  EXPECT_EQ(KindPairs, kAllKindPairs)
      << "some caller/callee pair of observation kinds never ran";
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
  EngineTrace Free = runEngine<jstest::ReferenceInterpreter>(W, 2, false);
  uint64_t FullSteps = Free.Steps[0];
  ASSERT_GT(FullSteps, 4u);
  for (bool Mixed : {false, true}) {
    for (uint64_t Budget : {FullSteps / 2, FullSteps - 1, uint64_t(3),
                            uint64_t(1)}) {
      EngineTrace Fast = runEngine<interp::Interpreter>(W, 2, Mixed, Budget);
      EngineTrace Ref =
          runEngine<jstest::ReferenceInterpreter>(W, 2, Mixed, Budget);
      expectTracesEqual(Fast, Ref, Budget);
      EXPECT_FALSE(Fast.Oks[0]) << "budget " << Budget << " did not abort";
    }
  }
}

TEST(InterpEngine, UninstrumentedResultsMatchInstrumented) {
  // The interpreter compiles two instantiations (with and without
  // callback code), and only the plain one contains the fused peephole
  // paths -- so this diff, like the mixed recorder's diffs against the
  // reference above, checks the fused paths.  Sweep a spread of
  // generated programs, endpoints, and arguments.
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
// Superinstructions.
//===----------------------------------------------------------------------===//

namespace {

/// Assembles hand-built functions whose branches name labels.
class Asm {
public:
  Asm &op(bc::Op O, int64_t A = 0) {
    Code.emplace_back(O, A);
    return *this;
  }
  Asm &branch(bc::Op O, const std::string &Label) {
    Fixups.emplace_back(Code.size(), Label);
    Code.emplace_back(O);
    return *this;
  }
  Asm &label(const std::string &Label) {
    Labels[Label] = pc();
    return *this;
  }
  uint32_t pc() const { return static_cast<uint32_t>(Code.size()); }
  std::vector<bc::Instr> build() const {
    std::vector<bc::Instr> Out = Code;
    for (const auto &[At, Label] : Fixups)
      Out[At].ImmA = Labels.at(Label);
    return Out;
  }

private:
  std::vector<bc::Instr> Code;
  std::map<std::string, uint32_t> Labels;
  std::vector<std::pair<size_t, std::string>> Fixups;
};

/// One instruction of a test shape.  A branch names a label of the
/// shape's tail, and a Nop with a label defines that label.
struct SeqInstr {
  bc::Op O;
  int64_t Imm = 0;
  const char *Label = nullptr;
};

/// The test shape of one superinstruction: its sequence reads the local
/// operand from L0 (argument 0), and the stack operand, when it takes
/// one, is pushed from L1 (argument 1) before it; results go to L3.
struct SuperShape {
  interp::SuperOp Id;
  bool TakesStackTop;
  /// The sequence; its Int takes the case's immediate.
  std::vector<SeqInstr> Seq;
  /// Runs after the sequence and one Nop, and returns.
  std::vector<SeqInstr> Tail;
};

std::vector<SuperShape> superShapes() {
  using bc::Op;
  using S = interp::SuperOp;
  auto IntBinop = [](S Id, Op O) {
    return SuperShape{Id, true, {{Op::Int}, {O}}, {{Op::RetC}}};
  };
  auto IntBinopSetL = [](S Id, Op O) {
    return SuperShape{Id,
                      true,
                      {{Op::Int}, {O}, {Op::SetL, 3}},
                      {{Op::GetL, 3}, {Op::RetC}}};
  };
  auto GetLIntBinop = [](S Id, Op O) {
    return SuperShape{
        Id, false, {{Op::GetL, 0}, {Op::Int}, {O}}, {{Op::RetC}}};
  };
  auto GetLBinop = [](S Id, Op O) {
    return SuperShape{Id, true, {{Op::GetL, 0}, {O}}, {{Op::RetC}}};
  };
  auto GetLIntBinopSetL = [](S Id, Op O, int64_t Dest) {
    return SuperShape{Id,
                      false,
                      {{Op::GetL, 0}, {Op::Int}, {O}, {Op::SetL, Dest}},
                      {{Op::GetL, Dest}, {Op::RetC}}};
  };
  return {
      IntBinop(S::IntAdd, Op::Add),
      IntBinop(S::IntMul, Op::Mul),
      IntBinop(S::IntMod, Op::Mod),
      IntBinop(S::IntCmpEq, Op::CmpEq),
      IntBinop(S::IntCmpLt, Op::CmpLt),
      IntBinop(S::IntCmpGt, Op::CmpGt),
      IntBinopSetL(S::IntAddSetL, Op::Add),
      IntBinopSetL(S::IntSubSetL, Op::Sub),
      IntBinopSetL(S::IntModSetL, Op::Mod),
      GetLIntBinop(S::GetLIntAdd, Op::Add),
      GetLIntBinop(S::GetLIntMul, Op::Mul),
      GetLIntBinop(S::GetLIntMod, Op::Mod),
      GetLBinop(S::GetLAdd, Op::Add),
      GetLBinop(S::GetLSub, Op::Sub),
      {S::GetLIntCmpLtJmpZ,
       false,
       {{Op::GetL, 0}, {Op::Int}, {Op::CmpLt}, {Op::JmpZ, 0, "else"}},
       {{Op::Int, 1}, {Op::RetC}, {Op::Nop, 0, "else"}, {Op::Int, 2},
        {Op::RetC}}},
      GetLIntBinopSetL(S::GetLIntAddSetL, Op::Add, 3),
      GetLIntBinopSetL(S::GetLIntSubSetL, Op::Sub, 3),
      // An increment of the local it reads.
      GetLIntBinopSetL(S::GetLIntAddSetL, Op::Add, 0),
      // The stored value and the loaded one both reach the result.
      {S::SetLGetL,
       true,
       {{Op::SetL, 3}, {Op::GetL, 0}},
       {{Op::GetL, 3}, {Op::Sub}, {Op::RetC}}},
      {S::SetLJmp,
       true,
       {{Op::SetL, 3}, {Op::Jmp, 0, "target"}},
       {{Op::Int, 9}, {Op::RetC}, {Op::Nop, 0, "target"}, {Op::GetL, 3},
        {Op::RetC}}},
      {S::GetLInt, false, {{Op::GetL, 0}, {Op::Int}}, {{Op::Sub}, {Op::RetC}}},
  };
}

/// Lays out \p Shape with immediate \p K:
///
///   [GetL 1]  GetL 2; JmpNZ mid; Nop; <Seq>; Nop; <Tail>
///   mid: <Seq[0, Mid)>; Jmp <Seq + Mid>
///
/// A truthy argument 2 enters the sequence by a branch to its
/// instruction \p Mid (its start when Mid is 0), after running the
/// instructions before it elsewhere.  \p SeqStart receives the
/// sequence's first pc.
std::vector<bc::Instr> layOut(const SuperShape &Shape, int64_t K,
                              uint32_t Mid, uint32_t &SeqStart) {
  Asm A;
  auto Emit = [&](const SeqInstr &In, bool InSeq) {
    if (In.Label && In.O == bc::Op::Nop)
      A.label(In.Label).op(bc::Op::Nop);
    else if (In.Label)
      A.branch(In.O, In.Label);
    else
      A.op(In.O, InSeq && In.O == bc::Op::Int ? K : In.Imm);
  };
  if (Shape.TakesStackTop)
    A.op(bc::Op::GetL, 1);
  A.op(bc::Op::GetL, 2).branch(bc::Op::JmpNZ, "mid").op(bc::Op::Nop);
  SeqStart = A.pc();
  for (const SeqInstr &In : Shape.Seq)
    Emit(In, true);
  A.op(bc::Op::Nop);
  for (const SeqInstr &In : Shape.Tail)
    Emit(In, false);
  A.label("mid");
  for (uint32_t I = 0; I < Mid; ++I)
    Emit(Shape.Seq[I], true);
  A.op(bc::Op::Jmp, SeqStart + Mid);
  return A.build();
}

/// Everything a call observably produces.
struct CallOutcome {
  std::string Ret;
  uint64_t Faults = 0;
  uint64_t Steps = 0;
  bool Ok = false;
  std::vector<uint64_t> Counts;

  bool operator==(const CallOutcome &) const = default;
};

std::ostream &operator<<(std::ostream &OS, const CallOutcome &C) {
  return OS << "ret " << C.Ret << " faults " << C.Faults << " steps "
            << C.Steps << " ok " << C.Ok;
}

/// Runs each of \p Calls on a fresh \p InterpT with \p Budget and
/// \p Skew, with no callbacks, so the interpreter's frames run the plain
/// loop over the quickened code.
template <typename InterpT>
std::vector<CallOutcome>
runPlain(const bc::Repo &R,
         const std::vector<std::pair<bc::FuncId, std::vector<runtime::Value>>>
             &Calls,
         uint64_t Budget, int64_t Skew) {
  runtime::ClassTable Classes(R);
  runtime::Heap Heap;
  interp::InterpOptions Opts;
  Opts.StepBudget = Budget;
  Opts.TestOnlyIntAddSkew = Skew;
  InterpT Interp(R, Classes, Heap, runtime::BuiltinTable::standard(), Opts);
  interp::InstrCounts Counts;
  Interp.setInstrCounts(&Counts);
  std::vector<CallOutcome> Out;
  for (const auto &[F, Args] : Calls) {
    Counts.clear();
    interp::InterpResult Res = Interp.call(F, Args);
    Out.push_back({runtime::toString(Res.Ret), Res.Faults, Res.Steps, Res.Ok,
                   Counts.Counts});
    Heap.reset();
  }
  return Out;
}

/// Diffs \p Calls between the interpreter and the reference at every
/// step budget from 1 to the longest call's full count, and unbounded,
/// with and without the test-only Add skew.
void expectPlainMatchesReferenceAtEveryBudget(
    const bc::Repo &R,
    const std::vector<std::pair<bc::FuncId, std::vector<runtime::Value>>>
        &Calls,
    const std::vector<std::string> &Labels) {
  uint64_t MaxSteps = 0;
  for (const CallOutcome &C : runPlain<jstest::ReferenceInterpreter>(
           R, Calls, interp::InterpOptions().StepBudget, 0))
    MaxSteps = std::max(MaxSteps, C.Steps);
  ASSERT_GT(MaxSteps, 0u);
  for (int64_t Skew : {0, 1}) {
    for (uint64_t Budget = 1; Budget <= MaxSteps + 1; ++Budget) {
      uint64_t B = Budget > MaxSteps ? interp::InterpOptions().StepBudget
                                     : Budget;
      std::vector<CallOutcome> Fast =
          runPlain<interp::Interpreter>(R, Calls, B, Skew);
      std::vector<CallOutcome> Ref =
          runPlain<jstest::ReferenceInterpreter>(R, Calls, B, Skew);
      ASSERT_EQ(Fast.size(), Ref.size());
      for (size_t I = 0; I < Fast.size(); ++I)
        EXPECT_EQ(Fast[I], Ref[I]) << Labels[I] << " budget " << B
                                   << " skew " << Skew;
    }
  }
}

constexpr int64_t kExact = int64_t(1) << 53;

/// Operand values: ints in and past the exact compare range, and the
/// non-int tags.
std::vector<runtime::Value> operandValues() {
  using runtime::Value;
  return {Value::integer(37),         Value::integer(-5),
          Value::integer(0),          Value::integer(kExact),
          Value::integer(-kExact),    Value::integer(kExact + 1),
          Value::integer(-kExact - 1), Value::dbl(2.5),
          Value::null(),              Value::boolean(true)};
}

} // namespace

TEST(InterpEngine, SuperinstructionsMatchReferenceAtEveryBudget) {
  // Every superinstruction, hand-built so that the quickener emits it at
  // a known pc, on int operands (the fused path) and on each fallback: a
  // non-int local or stack operand, a zero Mod divisor, compare operands
  // past 2^53 (immediate or dynamic), the test-only Add skew, every step
  // budget (checked mode), and a branch to each instruction inside the
  // sequence.  (The verifier rejects a binop with a missing stack
  // operand, so no superinstruction ever meets one.)
  const runtime::BuiltinTable &Builtins = runtime::BuiltinTable::standard();
  const std::vector<runtime::Value> Values = operandValues();
  const std::vector<int64_t> Immediates = {3, 0, -7, kExact, kExact + 1,
                                           -kExact - 1};
  std::vector<bool> Seen(interp::kNumSuperOps, false);
  for (const SuperShape &Shape : superShapes()) {
    bc::Repo R;
    bc::Unit &U = R.createUnit("supers");
    std::vector<std::pair<bc::FuncId, std::vector<runtime::Value>>> Calls;
    std::vector<std::string> Labels;
    const bool HasInt =
        std::any_of(Shape.Seq.begin(), Shape.Seq.end(),
                    [](const SeqInstr &In) { return In.O == bc::Op::Int; });
    for (int64_t K : HasInt ? Immediates : std::vector<int64_t>{0}) {
      for (uint32_t Mid = 0; Mid < Shape.Seq.size(); ++Mid) {
        bc::Function &F = R.createFunction(
            U, strFormat("f%u", static_cast<unsigned>(R.numFuncs())));
        F.NumParams = 3;
        F.NumLocals = 4;
        uint32_t Start = 0;
        F.Code = layOut(Shape, K, Mid, Start);
        uint32_t MaxStack = 0;
        ASSERT_TRUE(
            bc::verifyFunctionIssues(R, F, Builtins.size(), &MaxStack).empty())
            << F.Name;
        interp::FuncExecInfo Info =
            interp::computeExecInfo(F, /*Verified=*/true, MaxStack);
        ASSERT_EQ(Info.Quick[Start].Opcode, interp::quickOp(Shape.Id))
            << "superinstruction " << static_cast<unsigned>(Shape.Id)
            << " not emitted at pc " << Start;
        Seen[static_cast<size_t>(Shape.Id)] = true;
        for (const runtime::Value &Local : Values) {
          for (const runtime::Value &Top :
               Shape.TakesStackTop ? Values
                                   : std::vector<runtime::Value>{Values[0]}) {
            for (bool Branch : {false, true}) {
              Calls.push_back(
                  {F.Id, {Local, Top, runtime::Value::boolean(Branch)}});
              Labels.push_back(strFormat(
                  "super %u K %lld mid %u local %s top %s branch %d",
                  static_cast<unsigned>(Shape.Id), static_cast<long long>(K),
                  Mid, runtime::toString(Local).c_str(),
                  runtime::toString(Top).c_str(), Branch));
            }
          }
        }
      }
    }
    expectPlainMatchesReferenceAtEveryBudget(R, Calls, Labels);
  }
  for (unsigned Id = 0; Id < interp::kNumSuperOps; ++Id)
    EXPECT_TRUE(Seen[Id]) << "superinstruction " << Id << " has no shape";
}

TEST(InterpEngine, CompiledLoopsMatchReferenceAtEveryBudget) {
  // Frontend code shaped like the perfbench site's helpers (an
  // arithmetic loop and a branchy helper under a calling loop), where the
  // superinstructions chain, diffed at every abort point.
  jstest::TestVm Vm(
      "function arith($x) { $acc = $x; $i = 0;"
      "  while ($i < 5) { $acc = ($acc * 3 + $i) % 65537; $i = $i + 1; }"
      "  return $acc; }"
      "function branchy($x) {"
      "  if ($x % 3 == 0) { $r = $x * 2 + 1; }"
      "  else { $r = $x - 1; if ($r < 0) { $r = 0 - $r; } }"
      "  return $r; }"
      "function main($n) { $t = 0; $j = 0;"
      "  while ($j < 3) { $t = $t + arith($n + $j) + branchy($n - $j);"
      "    $j = $j + 1; }"
      "  return $t; }");
  ASSERT_TRUE(Vm.ok());
  bc::FuncId Main = Vm.Repo.findFunction("main");
  std::vector<std::pair<bc::FuncId, std::vector<runtime::Value>>> Calls;
  std::vector<std::string> Labels;
  for (const runtime::Value &Arg : operandValues()) {
    Calls.push_back({Main, {Arg}});
    Labels.push_back("main(" + runtime::toString(Arg) + ")");
  }
  expectPlainMatchesReferenceAtEveryBudget(Vm.Repo, Calls, Labels);
}

TEST(InterpEngine, SuperinstructionsAllFireOnThePerfbenchSite) {
  // The quickener emits every superinstruction on the perfbench-shaped
  // site, so none is dead.  Quickened code differs from the original
  // only in the opcode of a sequence's start, which names that
  // superinstruction's first instruction.
  fleet::WorkloadParams P;
  P.NumHelpers = 700;
  P.NumClasses = 72;
  P.NumEndpoints = 40;
  P.NumUnits = 48;
  std::unique_ptr<fleet::Workload> W = fleet::generateWorkload(P);
  static constexpr bc::Op kFirst[] = {
#define JUMPSTART_SUPER_FIRST(Name, First) bc::Op::First,
      JUMPSTART_SUPERINSTRS(JUMPSTART_SUPER_FIRST)
#undef JUMPSTART_SUPER_FIRST
  };
  std::vector<uint64_t> Emitted(interp::kNumSuperOps, 0);
  const uint32_t NumBuiltins = runtime::BuiltinTable::standard().size();
  for (const bc::Function &F : W->Repo.funcs()) {
    uint32_t MaxStack = 0;
    ASSERT_TRUE(
        bc::verifyFunctionIssues(W->Repo, F, NumBuiltins, &MaxStack).empty());
    interp::FuncExecInfo Info =
        interp::computeExecInfo(F, /*Verified=*/true, MaxStack);
    ASSERT_EQ(Info.Quick.size(), F.Code.size());
    for (size_t I = 0; I < F.Code.size(); ++I) {
      const bc::Instr &Q = Info.Quick[I], &C = F.Code[I];
      EXPECT_EQ(Q.ImmA, C.ImmA);
      EXPECT_EQ(Q.ImmB, C.ImmB);
      unsigned Byte = static_cast<uint8_t>(Q.Opcode);
      if (Byte < bc::kNumOpcodes) {
        EXPECT_EQ(Q.Opcode, C.Opcode) << F.Name << " pc " << I;
        continue;
      }
      unsigned Id = Byte - bc::kNumOpcodes;
      ASSERT_LT(Id, interp::kNumSuperOps);
      EXPECT_EQ(kFirst[Id], C.Opcode) << F.Name << " pc " << I;
      ++Emitted[Id];
    }
  }
  for (unsigned Id = 0; Id < interp::kNumSuperOps; ++Id)
    EXPECT_GT(Emitted[Id], 0u) << "superinstruction " << Id
                               << " never emitted on the site";
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
