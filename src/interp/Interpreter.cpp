//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
//
// The frame loop, execFrameFast<Instrumented>: threaded dispatch
// (computed goto on GNU-compatible compilers, a switch otherwise), frames
// carved from the request FrameArena using the verifier's stack bound,
// interned strings, inline caches for property/method sites, and step
// accounting charged per straight-line run instead of per instruction
// (interp/InterpCache.h proves the equivalence).  The Instrumented
// template parameter hoists every callback test out of the loop: the
// plain instantiation contains no observation code at all.  enterFrame
// picks the instantiation once per frame, from the callbacks'
// observeFrame answer, so frames nobody records run the plain body even
// while callbacks are attached.
//
// The plain instantiation runs each function's quickened code
// (FuncExecInfo::Quick), whose superinstructions execute a whole
// bytecode sequence in one dispatch when their guard holds and otherwise
// enter the base handler of their first instruction; the observed one
// runs Function::Code.
//
// Only functions the verifier accepts run; a call to any other function
// returns Null with one fault.  testing::ReferenceInterpreter keeps the
// original switch loop as an independent reference: every observable --
// results, faults, step totals, abort points, callback streams,
// simulated heap addresses -- must be bit-for-bit identical to it, and
// the conformance tests and the DiffRunner's reference cell diff the two
// to enforce it.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "runtime/ValueOps.h"
#include "support/Assert.h"

#include <cstring>

using namespace jumpstart;
using namespace jumpstart::interp;
using runtime::Value;

#if defined(__GNUC__) || defined(__clang__)
#define JUMPSTART_COMPUTED_GOTO 1
#define JS_UNLIKELY(X) __builtin_expect(!!(X), 0)
#else
#define JUMPSTART_COMPUTED_GOTO 0
#define JS_UNLIKELY(X) (X)
#endif

Interpreter::Interpreter(const bc::Repo &R, runtime::ClassTable &Classes,
                         runtime::Heap &H,
                         const runtime::BuiltinTable &Builtins,
                         InterpOptions Opts)
    : R(R), Classes(Classes), H(H), Builtins(Builtins), Opts(Opts),
      Blocks(R), Caches(R, Builtins.size()) {}

Value Interpreter::fault() {
  ++Faults;
  return Value::null();
}

bool Interpreter::seedIC(bc::FuncId F, uint32_t Pc, const void *Key,
                         uint64_t Payload) {
  if (F.raw() >= R.numFuncs() || !Key)
    return false;
  FuncExecInfo &Info = Caches.info(F);
  if (Pc >= Info.ICs.size())
    return false; // unverified function (no IC table) or bad site
  ICEntry &E = Info.ICs[Pc];
  if (E.Key)
    return false; // already warm; never overwrite a live entry
  E.Key = Key;
  E.Payload = Payload;
  return true;
}

InterpResult Interpreter::call(bc::FuncId F,
                               const std::vector<Value> &Args) {
  Steps = 0;
  Faults = 0;
  Aborted = false;
  if (Counts && Counts->Counts.size() < R.numFuncs())
    Counts->Counts.resize(R.numFuncs(), 0);
  InterpResult Result;
  Result.Ret = enterFrame(F, Args.data(), static_cast<uint32_t>(Args.size()),
                          Value::null(), bc::FuncId(), 0);
  Result.Ok = !Aborted;
  Result.Steps = Steps;
  Result.Faults = Faults;
  return Result;
}

Value Interpreter::enterFrame(bc::FuncId FId, const Value *Args,
                              uint32_t NumArgs, Value This, bc::FuncId Caller,
                              uint32_t Depth) {
  if (Depth >= Opts.MaxCallDepth) {
    Aborted = true;
    return Value::null();
  }
  FuncExecInfo &Info = Caches.info(FId);
  if (JS_UNLIKELY(!Info.Verified))
    return fault();
  FrameObservation Observe = FrameObservation::EntryExit;
  if (Callbacks) {
    Callbacks->onFuncEnter(FId, Caller, Args, NumArgs);
    Observe = Callbacks->observeFrame(FId);
  }
  const bc::Function &F = R.func(FId);
  Value Ret =
      Observe == FrameObservation::EntryExit
          ? execFrameFast<false>(F, Info, FId, Args, NumArgs, This, Depth,
                                 false)
          : execFrameFast<true>(F, Info, FId, Args, NumArgs, This, Depth,
                                Observe == FrameObservation::BodyAndInstrs);
  if (Callbacks)
    Callbacks->onFuncExit(FId);
  return Ret;
}

// VM_FIRST_CASE opens the base handler of an opcode some superinstruction
// starts with: its label is where that superinstruction's fallback
// enters, past the preamble.
#if JUMPSTART_COMPUTED_GOTO
#define VM_CASE(Name) lbl_##Name
#define VM_FIRST_CASE(Name) lbl_##Name
#define VM_SUPER(Name) lbl_##Name
#define VM_DISPATCH()                                                          \
  do {                                                                         \
    VM_PREAMBLE();                                                             \
    goto *Handlers[static_cast<uint8_t>(Ip->Opcode)];                          \
  } while (0)
#else
#define VM_CASE(Name) case static_cast<uint8_t>(bc::Op::Name)
#define VM_FIRST_CASE(Name)                                                    \
  VM_CASE(Name):                                                               \
  lbl_##Name
#define VM_SUPER(Name) case static_cast<uint8_t>(quickOp(SuperOp::Name))
#define VM_DISPATCH() goto DispatchTop
#endif

// Per-dispatch work.  In bulk-charged mode (the common case) the budget
// was paid at the run boundary, so only the instrumentation remains --
// and the plain instantiation compiles the whole macro down to one
// never-taken branch.  Checked mode replicates a per-instruction budget
// check exactly; it is entered only when the current run cannot fit the
// remaining budget, and then provably aborts before reaching the next
// run boundary.
#define VM_PREAMBLE()                                                          \
  do {                                                                         \
    if (JS_UNLIKELY(Checked)) {                                                \
      if (++Steps > Opts.StepBudget) {                                         \
        Aborted = true;                                                        \
        goto ExitLoop;                                                         \
      }                                                                        \
      ++FrameSteps;                                                            \
    }                                                                          \
    if constexpr (Instrumented) {                                              \
      uint32_t IPc = VM_PC();                                                  \
      uint32_t B = PcToBlock[IPc];                                             \
      if (B != CurBlock) {                                                     \
        CurBlock = B;                                                          \
        Callbacks->onBlockEnter(FId, B);                                       \
      }                                                                        \
      if (TraceInstrs)                                                         \
        Callbacks->onInstr(FId, IPc, Depth);                                   \
    }                                                                          \
  } while (0)

// Sequential advance within a run: no budget or bounds work.
#define VM_NEXT()                                                              \
  do {                                                                         \
    ++Ip;                                                                      \
    VM_DISPATCH();                                                             \
  } while (0)

// Control transfer to a branch target: starts a new run.
#define VM_JUMP(Target)                                                        \
  do {                                                                         \
    uint32_t JT = (Target);                                                    \
    Ip = Code + JT;                                                            \
    ChargeRun(JT);                                                             \
    VM_DISPATCH();                                                             \
  } while (0)

// Advance past a run-ending instruction (call or untaken conditional
// branch): the next instruction starts a new run.
#define VM_NEXT_RUN()                                                          \
  do {                                                                         \
    ++Ip;                                                                      \
    if (JS_UNLIKELY(Ip >= CodeEnd))                                            \
      goto ExitLoop;                                                           \
    ChargeRun(VM_PC());                                                        \
    VM_DISPATCH();                                                             \
  } while (0)

#define VM_PUSH(V) (void)(*Sp++ = (V))
#define VM_POP() (*--Sp)
// Current instruction index (only needed off the straight-line path:
// run charges, IC sites, instrumentation).
#define VM_PC() static_cast<uint32_t>(Ip - Code)

namespace {

inline bool exactInt(int64_t V) {
  constexpr int64_t L = int64_t(1) << 53;
  return V <= L && V >= -L;
}

/// True when both operands are ints whose magnitude keeps the
/// int->double conversion inside runtime::compare exact (|v| <= 2^53).
/// For such pairs integer comparison is bit-identical to runtime::compare's
/// double-based comparison, so the frame loop may inline it.
inline bool exactIntPair(const Value &A, const Value &B) {
  return A.isInt() && B.isInt() && exactInt(A.I) && exactInt(B.I);
}

/// Branch-condition fast path, identical to runtime::toBool for the
/// int/bool tags that dominate loop back edges.
inline bool condBool(const Value &V) {
  if (V.isInt())
    return V.I != 0;
  if (V.isBool())
    return V.B;
  return runtime::toBool(V);
}

/// Binop \p O over the ints \p A and \p B for a superinstruction,
/// bit-identical to the base handler's both-int path.  \returns false,
/// leaving \p Out untouched, where the base handler must run instead: a
/// zero divisor (the fault bookkeeping lives there), a comparison whose
/// int->double conversion might round (see exactIntPair), or an Add
/// under the test-only skew.
template <bc::Op O>
inline bool fusedBinop(int64_t A, int64_t B, bool NoSkew, Value &Out) {
  if constexpr (O == bc::Op::Add) {
    if (!NoSkew)
      return false;
    Out = Value::integer(runtime::wrapAdd(A, B));
  } else if constexpr (O == bc::Op::Sub) {
    Out = Value::integer(runtime::wrapSub(A, B));
  } else if constexpr (O == bc::Op::Mul) {
    Out = Value::integer(runtime::wrapMul(A, B));
  } else if constexpr (O == bc::Op::Mod) {
    if (B == 0)
      return false;
    Out = Value::integer(A % B);
  } else {
    static_assert(O == bc::Op::CmpEq || O == bc::Op::CmpLt ||
                  O == bc::Op::CmpGt);
    if (!exactInt(A) || !exactInt(B))
      return false;
    if constexpr (O == bc::Op::CmpEq)
      Out = Value::boolean(A == B);
    else if constexpr (O == bc::Op::CmpLt)
      Out = Value::boolean(A < B);
    else
      Out = Value::boolean(A > B);
  }
  return true;
}

} // namespace

template <bool Instrumented>
Value Interpreter::execFrameFast(const bc::Function &F, FuncExecInfo &Info,
                                 bc::FuncId FId, const Value *Args,
                                 uint32_t NumArgs, Value This, uint32_t Depth,
                                 [[maybe_unused]] bool TraceInstrs) {
  [[maybe_unused]] const uint32_t *PcToBlock = nullptr;
  if constexpr (Instrumented)
    PcToBlock = Blocks.pcToBlock(FId);

  // One arena carve covers locals and the operand stack; MaxStack bounds
  // every path, so pushes need no growth checks and returns rewind in
  // O(1).  Args may point into the caller's stack region, which lies
  // below this frame's mark and stays untouched.
  runtime::FrameArena &Arena = H.frameArena();
  const runtime::FrameArena::Mark Mark = Arena.mark();
  Value *Locals = Arena.alloc(F.NumLocals + Info.MaxStack);
  Value *const StackBase = Locals + F.NumLocals;
  Value *Sp = StackBase; // one past the top of the stack
  const uint32_t CopyArgs = NumArgs < F.NumLocals ? NumArgs : F.NumLocals;
  for (uint32_t I = 0; I < CopyArgs; ++I)
    Locals[I] = Args[I];
  for (uint32_t I = CopyArgs; I < F.NumLocals; ++I)
    Locals[I] = Value::null();

  const uint32_t *const RunLen = Info.RunLen.data();
  ICEntry *const ICs = Info.ICs.data();
  const bc::Instr *const Code =
      Instrumented ? F.Code.data() : Info.Quick.data();
  const bc::Instr *const CodeEnd = Code + F.Code.size();

  Value RetVal = Value::null();
  const bc::Instr *Ip = Code;
  [[maybe_unused]] uint32_t CurBlock = ~0u;
  uint64_t FrameSteps = 0;
  bool Checked = false;
  // Superinstructions fuse no Add under the test-only skew, so every Add
  // pays the base handler's skew check.
  const bool NoSkew = Opts.TestOnlyIntAddSkew == 0;

  auto ChargeRun = [&](uint32_t At) {
    uint32_t RL = RunLen[At];
    if (JS_UNLIKELY(Steps + RL > Opts.StepBudget)) {
      Checked = true;
      return;
    }
    Steps += RL;
    FrameSteps += RL;
  };

#if JUMPSTART_COMPUTED_GOTO
  static const void *const Handlers[] = {
#define JUMPSTART_OP_LABEL(Name, ImmA, ImmB, Pop, Push, Flags) &&lbl_##Name,
      JUMPSTART_OPCODES(JUMPSTART_OP_LABEL)
#undef JUMPSTART_OP_LABEL
#define JUMPSTART_SUPER_LABEL(Name, First) &&lbl_##Name,
      JUMPSTART_SUPERINSTRS(JUMPSTART_SUPER_LABEL)
#undef JUMPSTART_SUPER_LABEL
  };
#endif

  ChargeRun(0);
#if JUMPSTART_COMPUTED_GOTO
  VM_DISPATCH();
#else
DispatchTop:
  VM_PREAMBLE();
  switch (static_cast<uint8_t>(Ip->Opcode)) {
#endif

  VM_CASE(Nop) : { VM_NEXT(); }

  VM_FIRST_CASE(Int) : {
    VM_PUSH(Value::integer(Ip->ImmA));
    VM_NEXT();
  }

  VM_CASE(Dbl) : {
    double D;
    std::memcpy(&D, &Ip->ImmA, sizeof(D));
    VM_PUSH(Value::dbl(D));
    VM_NEXT();
  }

  VM_CASE(True) : {
    VM_PUSH(Value::boolean(true));
    VM_NEXT();
  }

  VM_CASE(False) : {
    VM_PUSH(Value::boolean(false));
    VM_NEXT();
  }

  VM_CASE(Null) : {
    VM_PUSH(Value::null());
    VM_NEXT();
  }

  VM_CASE(Str) : {
    // Interned: one host allocation per distinct repo string per server,
    // not one per execution.  The simulated bump still happens inside
    // internString, so downstream addresses match fresh allocation.
    const bc::Instr &In = *Ip;
    VM_PUSH(Value::str(H.internString(In.strImm().raw(), R.str(In.strImm()))));
    VM_NEXT();
  }

  VM_CASE(NewVec) : {
    VM_PUSH(Value::vec(H.allocVec()));
    VM_NEXT();
  }

  VM_CASE(NewDict) : {
    VM_PUSH(Value::dict(H.allocDict()));
    VM_NEXT();
  }

  VM_CASE(AddElem) : {
    Value V = VM_POP();
    Value C = VM_POP();
    if (!C.isVec()) {
      VM_PUSH(fault());
      VM_NEXT();
    }
    C.V->Elems.push_back(V);
    if constexpr (Instrumented)
      Callbacks->onDataAccess(C.V->Addr + 16 * C.V->Elems.size(),
                              /*IsWrite=*/true);
    VM_PUSH(C);
    VM_NEXT();
  }

  VM_CASE(AddKeyElem) : {
    Value V = VM_POP();
    Value K = VM_POP();
    Value C = VM_POP();
    if (!C.isDict()) {
      VM_PUSH(fault());
      VM_NEXT();
    }
    int64_t At = K.isStr() ? C.Dt->find(std::string_view(K.S->Data))
                           : C.Dt->find(runtime::toInt(K));
    if (At >= 0)
      C.Dt->Entries[static_cast<size_t>(At)].second = V;
    else
      C.Dt->Entries.emplace_back(
          K.isStr() ? runtime::DictKey::fromStr(K.S->Data)
                    : runtime::DictKey::fromInt(runtime::toInt(K)),
          V);
    if constexpr (Instrumented)
      Callbacks->onDataAccess(C.Dt->Addr + 16 * C.Dt->Entries.size(),
                              /*IsWrite=*/true);
    VM_PUSH(C);
    VM_NEXT();
  }

  VM_CASE(GetElem) : {
    Value K = VM_POP();
    Value C = VM_POP();
    if constexpr (Instrumented)
      Callbacks->onTypeObserve(FId, VM_PC(), C.T);
    if (C.isVec()) {
      int64_t Index = runtime::toInt(K);
      if (Index < 0 || Index >= static_cast<int64_t>(C.V->Elems.size())) {
        VM_PUSH(fault());
        VM_NEXT();
      }
      if constexpr (Instrumented)
        Callbacks->onDataAccess(C.V->Addr + 16 * (Index + 1),
                                /*IsWrite=*/false);
      VM_PUSH(C.V->Elems[static_cast<size_t>(Index)]);
      VM_NEXT();
    }
    if (C.isDict()) {
      // Allocation-free probe: no DictKey (and no std::string) is
      // materialized for the lookup.
      int64_t At = K.isStr() ? C.Dt->find(std::string_view(K.S->Data))
                             : C.Dt->find(runtime::toInt(K));
      if constexpr (Instrumented)
        Callbacks->onDataAccess(C.Dt->Addr + 16 * (At >= 0 ? At + 1 : 1),
                                /*IsWrite=*/false);
      if (At < 0) {
        VM_PUSH(Value::null());
        VM_NEXT();
      }
      VM_PUSH(C.Dt->Entries[static_cast<size_t>(At)].second);
      VM_NEXT();
    }
    VM_PUSH(fault());
    VM_NEXT();
  }

  VM_CASE(SetElem) : {
    Value V = VM_POP();
    Value K = VM_POP();
    Value C = VM_POP();
    if constexpr (Instrumented)
      Callbacks->onTypeObserve(FId, VM_PC(), C.T);
    if (C.isVec()) {
      int64_t Index = runtime::toInt(K);
      int64_t Size = static_cast<int64_t>(C.V->Elems.size());
      if (Index == Size) {
        C.V->Elems.push_back(V);
      } else if (Index >= 0 && Index < Size) {
        C.V->Elems[static_cast<size_t>(Index)] = V;
      } else {
        VM_PUSH(fault());
        VM_NEXT();
      }
      if constexpr (Instrumented)
        Callbacks->onDataAccess(C.V->Addr + 16 * (Index + 1),
                                /*IsWrite=*/true);
      VM_PUSH(C);
      VM_NEXT();
    }
    if (C.isDict()) {
      int64_t At = K.isStr() ? C.Dt->find(std::string_view(K.S->Data))
                             : C.Dt->find(runtime::toInt(K));
      if (At >= 0)
        C.Dt->Entries[static_cast<size_t>(At)].second = V;
      else
        C.Dt->Entries.emplace_back(
            K.isStr() ? runtime::DictKey::fromStr(K.S->Data)
                      : runtime::DictKey::fromInt(runtime::toInt(K)),
            V);
      if constexpr (Instrumented)
        Callbacks->onDataAccess(C.Dt->Addr + 16 * C.Dt->Entries.size(),
                                /*IsWrite=*/true);
      VM_PUSH(C);
      VM_NEXT();
    }
    VM_PUSH(fault());
    VM_NEXT();
  }

  VM_CASE(Len) : {
    Value C = VM_POP();
    if (C.isVec())
      VM_PUSH(Value::integer(static_cast<int64_t>(C.V->Elems.size())));
    else if (C.isDict())
      VM_PUSH(Value::integer(static_cast<int64_t>(C.Dt->Entries.size())));
    else if (C.isStr())
      VM_PUSH(Value::integer(static_cast<int64_t>(C.S->Data.size())));
    else
      VM_PUSH(fault());
    VM_NEXT();
  }

  VM_CASE(PopC) : {
    (void)VM_POP();
    VM_NEXT();
  }

  VM_CASE(Dup) : {
    Value V = VM_POP();
    VM_PUSH(V);
    VM_PUSH(V);
    VM_NEXT();
  }

  VM_FIRST_CASE(GetL) : {
    VM_PUSH(Locals[Ip->localImm()]);
    VM_NEXT();
  }

  VM_FIRST_CASE(SetL) : {
    Locals[Ip->localImm()] = VM_POP();
    VM_NEXT();
  }

// Arithmetic.  Both-int Add/Sub/Mul inline the common case; the result
// is identical to runtime::arith's BothInt path and never null, so the
// fault bookkeeping below is unaffected.  Div/Mod keep their
// zero-divisor handling in runtime::arith.
#define VM_ARITH_TAIL(A, B, Res)                                               \
  do {                                                                         \
    if ((Res).isNull() && !((A).isNull() || (B).isNull()))                     \
      ++Faults;                                                                \
    if constexpr (Instrumented)                                                \
      Callbacks->onTypeObserve(FId, VM_PC(), (A).T);                                \
    VM_PUSH(Res);                                                              \
    VM_NEXT();                                                                 \
  } while (0)

  VM_CASE(Add) : {
    Value B = VM_POP();
    Value A = VM_POP();
    Value Res;
    if (A.isInt() && B.isInt())
      Res = Value::integer(runtime::wrapAdd(A.I, B.I));
    else
      Res = runtime::arith(runtime::ArithOp::Add, A, B);
    if (JS_UNLIKELY(Opts.TestOnlyIntAddSkew != 0) && Res.isInt())
      Res = Value::integer(runtime::wrapAdd(Res.I, Opts.TestOnlyIntAddSkew));
    VM_ARITH_TAIL(A, B, Res);
  }

  VM_CASE(Sub) : {
    Value B = VM_POP();
    Value A = VM_POP();
    Value Res;
    if (A.isInt() && B.isInt())
      Res = Value::integer(runtime::wrapSub(A.I, B.I));
    else
      Res = runtime::arith(runtime::ArithOp::Sub, A, B);
    VM_ARITH_TAIL(A, B, Res);
  }

  VM_CASE(Mul) : {
    Value B = VM_POP();
    Value A = VM_POP();
    Value Res;
    if (A.isInt() && B.isInt())
      Res = Value::integer(runtime::wrapMul(A.I, B.I));
    else
      Res = runtime::arith(runtime::ArithOp::Mul, A, B);
    VM_ARITH_TAIL(A, B, Res);
  }

  VM_CASE(Div) : {
    Value B = VM_POP();
    Value A = VM_POP();
    Value Res;
    if (A.isInt() && B.isInt()) {
      // Mirrors runtime::arith's BothInt branch exactly, including the
      // exact-division int result and the zero-divisor null.
      if (B.I == 0)
        Res = Value::null();
      else if (A.I % B.I == 0)
        Res = Value::integer(A.I / B.I);
      else
        Res = Value::dbl(static_cast<double>(A.I) /
                         static_cast<double>(B.I));
    } else {
      Res = runtime::arith(runtime::ArithOp::Div, A, B);
    }
    VM_ARITH_TAIL(A, B, Res);
  }

  VM_CASE(Mod) : {
    Value B = VM_POP();
    Value A = VM_POP();
    Value Res;
    if (A.isInt() && B.isInt())
      Res = B.I == 0 ? Value::null() : Value::integer(A.I % B.I);
    else
      Res = runtime::arith(runtime::ArithOp::Mod, A, B);
    VM_ARITH_TAIL(A, B, Res);
  }

#undef VM_ARITH_TAIL

  VM_CASE(Concat) : {
    Value B = VM_POP();
    Value A = VM_POP();
    VM_PUSH(runtime::concat(H, A, B));
    VM_NEXT();
  }

  VM_CASE(Not) : {
    Value V = VM_POP();
    VM_PUSH(Value::boolean(!runtime::toBool(V)));
    VM_NEXT();
  }

// Comparison semantics are double-based in runtime::compare (ints are
// converted); the inline path fires only when that conversion is exact,
// so the integer compare below is bit-identical (see exactIntPair).
#define VM_CMP(O, IntExpr)                                                     \
  do {                                                                         \
    Value B = VM_POP();                                                        \
    Value A = VM_POP();                                                        \
    if constexpr (Instrumented)                                                \
      Callbacks->onTypeObserve(FId, VM_PC(), A.T);                                  \
    if (exactIntPair(A, B))                                                    \
      VM_PUSH(Value::boolean(IntExpr));                                        \
    else                                                                       \
      VM_PUSH(runtime::compare(O, A, B));                                      \
    VM_NEXT();                                                                 \
  } while (0)

  VM_CASE(CmpEq) : { VM_CMP(runtime::CmpOp::Eq, A.I == B.I); }
  VM_CASE(CmpNe) : { VM_CMP(runtime::CmpOp::Ne, A.I != B.I); }
  VM_CASE(CmpLt) : { VM_CMP(runtime::CmpOp::Lt, A.I < B.I); }
  VM_CASE(CmpLe) : { VM_CMP(runtime::CmpOp::Le, A.I <= B.I); }
  VM_CASE(CmpGt) : { VM_CMP(runtime::CmpOp::Gt, A.I > B.I); }
  VM_CASE(CmpGe) : { VM_CMP(runtime::CmpOp::Ge, A.I >= B.I); }

#undef VM_CMP

  VM_CASE(Jmp) : { VM_JUMP(Ip->targetImm()); }

  VM_CASE(JmpZ) : {
    Value V = VM_POP();
    if (!condBool(V))
      VM_JUMP(Ip->targetImm());
    VM_NEXT_RUN();
  }

  VM_CASE(JmpNZ) : {
    Value V = VM_POP();
    if (condBool(V))
      VM_JUMP(Ip->targetImm());
    VM_NEXT_RUN();
  }

  VM_CASE(FCall) : {
    const bc::Instr &In = *Ip;
    uint32_t N = In.countImm();
    assert(Sp - StackBase >= static_cast<ptrdiff_t>(N) &&
           "verifier guarantees arg availability");
    const Value *CallArgs = Sp - N;
    Value Res =
        enterFrame(In.funcImm(), CallArgs, N, Value::null(), FId, Depth + 1);
    Sp -= N;
    VM_PUSH(Res);
    if (JS_UNLIKELY(Aborted))
      goto ExitLoop;
    VM_NEXT_RUN();
  }

  VM_CASE(FCallObj) : {
    const bc::Instr &In = *Ip;
    uint32_t N = In.countImm();
    assert(Sp - StackBase >= static_cast<ptrdiff_t>(N) + 1 &&
           "verifier guarantees receiver + args");
    Value Recv = *(Sp - N - 1);
    const Value *CallArgs = Sp - N;
    Value Res;
    if (!Recv.isObj()) {
      Res = fault();
    } else {
      // Monomorphic method-dispatch cache keyed by the receiver's
      // layout; layouts are immutable once built, so a hit cannot be
      // stale.  Misses (including polymorphic sites) fall back to the
      // flattened method table.
      const runtime::ClassLayout *L = Recv.O->Layout;
      ICEntry &IC = ICs[VM_PC()];
      bc::FuncId Callee;
      if (IC.Key == L) {
        Callee = bc::FuncId(static_cast<uint32_t>(IC.Payload));
        ++Caches.ICHits;
      } else {
        Callee = L->findMethod(In.strImm());
        ++Caches.ICMisses;
        if (Callee.valid()) {
          IC.Key = L;
          IC.Payload = Callee.raw();
        }
      }
      if (!Callee.valid()) {
        Res = fault();
      } else {
        if constexpr (Instrumented)
          Callbacks->onVirtualCall(FId, VM_PC(), Callee);
        Res = enterFrame(Callee, CallArgs, N, Recv, FId, Depth + 1);
      }
    }
    Sp -= N + 1;
    VM_PUSH(Res);
    if (JS_UNLIKELY(Aborted))
      goto ExitLoop;
    VM_NEXT_RUN();
  }

  VM_CASE(NativeCall) : {
    const bc::Instr &In = *Ip;
    uint32_t N = In.countImm();
    assert(Sp - StackBase >= static_cast<ptrdiff_t>(N) &&
           "verifier guarantees arg availability");
    const runtime::Builtin &Native = Builtins.builtin(In.builtinImm());
    runtime::NativeContext Ctx{H, Output};
    Value Res = Native.Fn(Ctx, Sp - N, N);
    Sp -= N;
    VM_PUSH(Res);
    VM_NEXT_RUN();
  }

  VM_CASE(NewObj) : {
    const runtime::ClassLayout &Layout = Classes.layout(Ip->clsImm());
    VM_PUSH(Value::obj(H.allocObject(&Layout, Layout.numSlots())));
    VM_NEXT();
  }

  VM_CASE(GetProp) : {
    const bc::Instr &In = *Ip;
    Value Obj = VM_POP();
    if (!Obj.isObj()) {
      VM_PUSH(fault());
      VM_NEXT();
    }
    const runtime::ClassLayout *L = Obj.O->Layout;
    ICEntry &IC = ICs[VM_PC()];
    int64_t Slot;
    if (IC.Key == L) {
      Slot = static_cast<int64_t>(IC.Payload);
      ++Caches.ICHits;
    } else {
      Slot = L->findSlot(In.strImm());
      ++Caches.ICMisses;
      if (Slot >= 0) {
        IC.Key = L;
        IC.Payload = static_cast<uint64_t>(Slot);
      }
    }
    if (Slot < 0) {
      VM_PUSH(fault());
      VM_NEXT();
    }
    if constexpr (Instrumented) {
      Callbacks->onPropAccess(L->id(), In.strImm(), /*IsWrite=*/false,
                              Obj.O->slotAddr(static_cast<uint32_t>(Slot)));
      Callbacks->onTypeObserve(FId, VM_PC(),
                               Obj.O->Slots[static_cast<size_t>(Slot)].T);
    }
    VM_PUSH(Obj.O->Slots[static_cast<size_t>(Slot)]);
    VM_NEXT();
  }

  VM_CASE(SetProp) : {
    const bc::Instr &In = *Ip;
    Value V = VM_POP();
    Value Obj = VM_POP();
    if (!Obj.isObj()) {
      (void)fault();
      VM_NEXT();
    }
    const runtime::ClassLayout *L = Obj.O->Layout;
    ICEntry &IC = ICs[VM_PC()];
    int64_t Slot;
    if (IC.Key == L) {
      Slot = static_cast<int64_t>(IC.Payload);
      ++Caches.ICHits;
    } else {
      Slot = L->findSlot(In.strImm());
      ++Caches.ICMisses;
      if (Slot >= 0) {
        IC.Key = L;
        IC.Payload = static_cast<uint64_t>(Slot);
      }
    }
    if (Slot < 0) {
      (void)fault();
      VM_NEXT();
    }
    if constexpr (Instrumented)
      Callbacks->onPropAccess(L->id(), In.strImm(), /*IsWrite=*/true,
                              Obj.O->slotAddr(static_cast<uint32_t>(Slot)));
    Obj.O->Slots[static_cast<size_t>(Slot)] = V;
    VM_NEXT();
  }

  VM_CASE(GetThis) : {
    VM_PUSH(This);
    VM_NEXT();
  }

  VM_CASE(RetC) : {
    RetVal = VM_POP();
    goto ExitLoop;
  }

// Superinstructions (see JUMPSTART_SUPERINSTRS).  The run charge already
// covers a whole sequence: only its last instruction may end a run.  A
// sequence runs in one dispatch only when Cond holds and steps are
// bulk-charged; otherwise the superinstruction enters the base handler of
// its First instruction, which runs that one instruction and dispatches
// the next -- exactly the unfused execution, so steps, abort points,
// faults and IC counters cannot move.  The observed loop runs
// Function::Code, which holds no superinstruction, and Instrumented
// folds each of these handlers down to the fallback.
#define VM_SUPER_GUARD(First, Cond)                                            \
  do {                                                                         \
    if (Instrumented || JS_UNLIKELY(Checked || !(Cond)))                       \
      goto lbl_##First;                                                        \
  } while (0)

  // Int;binop: the stack top is the left operand, the immediate the right.
#define VM_INT_BINOP(Name, O)                                                  \
  VM_SUPER(Name) : {                                                           \
    Value &Top = Sp[-1];                                                       \
    Value Out;                                                                 \
    VM_SUPER_GUARD(Int, Top.isInt() && fusedBinop<bc::Op::O>(                 \
                            Top.I, Ip->ImmA, NoSkew, Out));                    \
    Top = Out;                                                                 \
    Ip += 2;                                                                   \
    VM_DISPATCH();                                                             \
  }
  VM_INT_BINOP(IntAdd, Add)
  VM_INT_BINOP(IntMul, Mul)
  VM_INT_BINOP(IntMod, Mod)
  VM_INT_BINOP(IntCmpEq, CmpEq)
  VM_INT_BINOP(IntCmpLt, CmpLt)
  VM_INT_BINOP(IntCmpGt, CmpGt)
#undef VM_INT_BINOP

  // Int;binop;SetL: as Int;binop, then the result leaves the stack.
#define VM_INT_BINOP_SETL(Name, O)                                             \
  VM_SUPER(Name) : {                                                           \
    const Value &Top = Sp[-1];                                                 \
    Value Out;                                                                 \
    VM_SUPER_GUARD(Int, Top.isInt() && fusedBinop<bc::Op::O>(                 \
                            Top.I, Ip->ImmA, NoSkew, Out));                    \
    --Sp;                                                                      \
    Locals[Ip[2].localImm()] = Out;                                            \
    Ip += 3;                                                                   \
    VM_DISPATCH();                                                             \
  }
  VM_INT_BINOP_SETL(IntAddSetL, Add)
  VM_INT_BINOP_SETL(IntSubSetL, Sub)
  VM_INT_BINOP_SETL(IntModSetL, Mod)
#undef VM_INT_BINOP_SETL

  // GetL;Int;binop: the local is the left operand, the immediate the
  // right.
#define VM_GETL_INT_BINOP(Name, O)                                             \
  VM_SUPER(Name) : {                                                           \
    const Value &L = Locals[Ip->localImm()];                                   \
    Value Out;                                                                 \
    VM_SUPER_GUARD(GetL, L.isInt() && fusedBinop<bc::Op::O>(                  \
                                          L.I, Ip[1].ImmA, NoSkew, Out));      \
    VM_PUSH(Out);                                                              \
    Ip += 3;                                                                   \
    VM_DISPATCH();                                                             \
  }
  VM_GETL_INT_BINOP(GetLIntAdd, Add)
  VM_GETL_INT_BINOP(GetLIntMul, Mul)
  VM_GETL_INT_BINOP(GetLIntMod, Mod)
#undef VM_GETL_INT_BINOP

  // GetL;binop: the stack top is the left operand, the local the right.
#define VM_GETL_BINOP(Name, O)                                                 \
  VM_SUPER(Name) : {                                                           \
    const Value &L = Locals[Ip->localImm()];                                   \
    Value &Top = Sp[-1];                                                       \
    Value Out;                                                                 \
    VM_SUPER_GUARD(GetL, L.isInt() && Top.isInt() &&                           \
                             fusedBinop<bc::Op::O>(Top.I, L.I, NoSkew, Out));  \
    Top = Out;                                                                 \
    Ip += 2;                                                                   \
    VM_DISPATCH();                                                             \
  }
  VM_GETL_BINOP(GetLAdd, Add)
  VM_GETL_BINOP(GetLSub, Sub)
#undef VM_GETL_BINOP

  // GetL;Int;CmpLt;JmpZ: a loop test, which ends the run like JmpZ.
  VM_SUPER(GetLIntCmpLtJmpZ) : {
    const Value &L = Locals[Ip->localImm()];
    Value Out;
    VM_SUPER_GUARD(GetL, L.isInt() && fusedBinop<bc::Op::CmpLt>(
                                          L.I, Ip[1].ImmA, NoSkew, Out));
    if (!Out.B)
      VM_JUMP(Ip[3].targetImm());
    Ip += 3;
    VM_NEXT_RUN();
  }

  // GetL;Int;Add|Sub;SetL: an increment, of the same local or another.
#define VM_GETL_INT_BINOP_SETL(Name, O)                                        \
  VM_SUPER(Name) : {                                                           \
    const Value &L = Locals[Ip->localImm()];                                   \
    Value Out;                                                                 \
    VM_SUPER_GUARD(GetL, L.isInt() && fusedBinop<bc::Op::O>(                  \
                                          L.I, Ip[1].ImmA, NoSkew, Out));      \
    Locals[Ip[3].localImm()] = Out;                                            \
    Ip += 4;                                                                   \
    VM_DISPATCH();                                                             \
  }
  VM_GETL_INT_BINOP_SETL(GetLIntAddSetL, Add)
  VM_GETL_INT_BINOP_SETL(GetLIntSubSetL, Sub)
#undef VM_GETL_INT_BINOP_SETL

  // SetL;GetL: the statement seam.  The stored value leaves the stack
  // and the loaded one takes its slot.
  VM_SUPER(SetLGetL) : {
    VM_SUPER_GUARD(SetL, true);
    Locals[Ip->localImm()] = Sp[-1];
    Sp[-1] = Locals[Ip[1].localImm()];
    Ip += 2;
    VM_DISPATCH();
  }

  VM_SUPER(SetLJmp) : {
    VM_SUPER_GUARD(SetL, true);
    Locals[Ip->localImm()] = VM_POP();
    VM_JUMP(Ip[1].targetImm());
  }

  VM_SUPER(GetLInt) : {
    VM_SUPER_GUARD(GetL, true);
    Sp[0] = Locals[Ip->localImm()];
    Sp[1] = Value::integer(Ip[1].ImmA);
    Sp += 2;
    Ip += 2;
    VM_DISPATCH();
  }

#undef VM_SUPER_GUARD

#if !JUMPSTART_COMPUTED_GOTO
  }
#endif

ExitLoop:
  if (Counts && FrameSteps)
    Counts->add(FId, FrameSteps);
  Arena.rewind(Mark);
  return RetVal;
}

#undef VM_CASE
#undef VM_FIRST_CASE
#undef VM_SUPER
#undef VM_DISPATCH
#undef VM_PREAMBLE
#undef VM_NEXT
#undef VM_JUMP
#undef VM_NEXT_RUN
#undef VM_PUSH
#undef VM_POP
#undef VM_PC
