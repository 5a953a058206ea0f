//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "testing/ReferenceInterpreter.h"

#include "runtime/ValueOps.h"
#include "support/Assert.h"

#include <cstring>

using namespace jumpstart;
using namespace jumpstart::testing;
using runtime::Value;

ReferenceInterpreter::ReferenceInterpreter(
    const bc::Repo &R, runtime::ClassTable &Classes, runtime::Heap &H,
    const runtime::BuiltinTable &Builtins, interp::InterpOptions Opts)
    : R(R), Classes(Classes), H(H), Builtins(Builtins), Opts(Opts),
      Blocks(R) {}

Value ReferenceInterpreter::fault() {
  ++Faults;
  return Value::null();
}

interp::InterpResult
ReferenceInterpreter::call(bc::FuncId F, const std::vector<Value> &Args) {
  Steps = 0;
  Faults = 0;
  Aborted = false;
  interp::InterpResult Result;
  Result.Ret = execFrame(F, Args.data(), static_cast<uint32_t>(Args.size()),
                         Value::null(), bc::FuncId(), /*Depth=*/0);
  Result.Ok = !Aborted;
  Result.Steps = Steps;
  Result.Faults = Faults;
  return Result;
}

Value ReferenceInterpreter::execFrame(bc::FuncId FId, const Value *Args,
                                      uint32_t NumArgs, Value This,
                                      bc::FuncId Caller, uint32_t Depth) {
  if (Depth >= Opts.MaxCallDepth) {
    Aborted = true;
    return Value::null();
  }
  const bc::Function &F = R.func(FId);
  if (F.Code.empty())
    return fault();

  // Body events go to Observer, which is null in a frame the callbacks
  // answer EntryExit for; entry and exit always go to Callbacks.
  interp::ExecCallbacks *Observer = nullptr;
  bool TraceInstrs = false;
  if (Callbacks) {
    Callbacks->onFuncEnter(FId, Caller, Args, NumArgs);
    const interp::FrameObservation Observe = Callbacks->observeFrame(FId);
    if (Observe != interp::FrameObservation::EntryExit)
      Observer = Callbacks;
    TraceInstrs = Observe == interp::FrameObservation::BodyAndInstrs;
  }
  const bc::BlockList *BlockInfo = Observer ? &Blocks.blocks(FId) : nullptr;

  // Frame state.
  std::vector<Value> Locals(F.NumLocals, Value::null());
  for (uint32_t I = 0; I < NumArgs && I < F.NumLocals; ++I)
    Locals[I] = Args[I];
  std::vector<Value> Stack;
  Stack.reserve(16);
  // Model cost: one host allocation per frame vector (the production
  // interpreter's arena frames charge nothing).
  H.noteHostAllocs(2);
  uint64_t FrameSteps = 0;
  uint32_t CurBlock = ~0u;

  auto Push = [&](Value V) { Stack.push_back(V); };
  auto Pop = [&]() {
    assert(!Stack.empty() && "operand stack underflow (verifier bug)");
    Value V = Stack.back();
    Stack.pop_back();
    return V;
  };

  Value RetVal = Value::null();
  uint32_t Pc = 0;
  const size_t CodeSize = F.Code.size();

  while (Pc < CodeSize) {
    if (++Steps > Opts.StepBudget) {
      Aborted = true;
      break;
    }
    ++FrameSteps;

    if (Observer) {
      uint32_t Block = BlockInfo->blockOf(Pc);
      if (Block != CurBlock) {
        CurBlock = Block;
        Observer->onBlockEnter(FId, Block);
      }
      if (TraceInstrs)
        Observer->onInstr(FId, Pc, Depth);
    }

    const bc::Instr &In = F.Code[Pc];
    switch (In.Opcode) {
    case bc::Op::Nop:
      break;
    case bc::Op::Int:
      Push(Value::integer(In.ImmA));
      break;
    case bc::Op::Dbl: {
      double D;
      std::memcpy(&D, &In.ImmA, sizeof(D));
      Push(Value::dbl(D));
      break;
    }
    case bc::Op::True:
      Push(Value::boolean(true));
      break;
    case bc::Op::False:
      Push(Value::boolean(false));
      break;
    case bc::Op::Null:
      Push(Value::null());
      break;
    case bc::Op::Str:
      Push(Value::str(H.allocString(R.str(In.strImm()))));
      break;
    case bc::Op::NewVec:
      Push(Value::vec(H.allocVec()));
      break;
    case bc::Op::NewDict:
      Push(Value::dict(H.allocDict()));
      break;
    case bc::Op::AddElem: {
      Value V = Pop();
      Value C = Pop();
      if (!C.isVec()) {
        Push(fault());
        break;
      }
      C.V->Elems.push_back(V);
      if (Observer)
        Observer->onDataAccess(
            C.V->Addr + 16 * C.V->Elems.size(), /*IsWrite=*/true);
      Push(C);
      break;
    }
    case bc::Op::AddKeyElem: {
      Value V = Pop();
      Value K = Pop();
      Value C = Pop();
      if (!C.isDict()) {
        Push(fault());
        break;
      }
      runtime::DictKey Key = K.isStr()
                                 ? runtime::DictKey::fromStr(K.S->Data)
                                 : runtime::DictKey::fromInt(runtime::toInt(K));
      int64_t At = C.Dt->find(Key);
      if (At >= 0)
        C.Dt->Entries[static_cast<size_t>(At)].second = V;
      else
        C.Dt->Entries.emplace_back(std::move(Key), V);
      if (Observer)
        Observer->onDataAccess(C.Dt->Addr + 16 * C.Dt->Entries.size(),
                               /*IsWrite=*/true);
      Push(C);
      break;
    }
    case bc::Op::GetElem: {
      Value K = Pop();
      Value C = Pop();
      if (Observer)
        Observer->onTypeObserve(FId, Pc, C.T);
      if (C.isVec()) {
        int64_t Index = runtime::toInt(K);
        if (Index < 0 ||
            Index >= static_cast<int64_t>(C.V->Elems.size())) {
          Push(fault());
          break;
        }
        if (Observer)
          Observer->onDataAccess(C.V->Addr + 16 * (Index + 1),
                                 /*IsWrite=*/false);
        Push(C.V->Elems[static_cast<size_t>(Index)]);
        break;
      }
      if (C.isDict()) {
        runtime::DictKey Key =
            K.isStr() ? runtime::DictKey::fromStr(K.S->Data)
                      : runtime::DictKey::fromInt(runtime::toInt(K));
        int64_t At = C.Dt->find(Key);
        if (Observer)
          Observer->onDataAccess(C.Dt->Addr + 16 * (At >= 0 ? At + 1 : 1),
                                 /*IsWrite=*/false);
        if (At < 0) {
          Push(Value::null());
          break;
        }
        Push(C.Dt->Entries[static_cast<size_t>(At)].second);
        break;
      }
      Push(fault());
      break;
    }
    case bc::Op::SetElem: {
      Value V = Pop();
      Value K = Pop();
      Value C = Pop();
      if (Observer)
        Observer->onTypeObserve(FId, Pc, C.T);
      if (C.isVec()) {
        int64_t Index = runtime::toInt(K);
        int64_t Size = static_cast<int64_t>(C.V->Elems.size());
        if (Index == Size) {
          C.V->Elems.push_back(V);
        } else if (Index >= 0 && Index < Size) {
          C.V->Elems[static_cast<size_t>(Index)] = V;
        } else {
          Push(fault());
          break;
        }
        if (Observer)
          Observer->onDataAccess(C.V->Addr + 16 * (Index + 1),
                                 /*IsWrite=*/true);
        Push(C);
        break;
      }
      if (C.isDict()) {
        runtime::DictKey Key =
            K.isStr() ? runtime::DictKey::fromStr(K.S->Data)
                      : runtime::DictKey::fromInt(runtime::toInt(K));
        int64_t At = C.Dt->find(Key);
        if (At >= 0)
          C.Dt->Entries[static_cast<size_t>(At)].second = V;
        else
          C.Dt->Entries.emplace_back(std::move(Key), V);
        if (Observer)
          Observer->onDataAccess(C.Dt->Addr + 16 * C.Dt->Entries.size(),
                                 /*IsWrite=*/true);
        Push(C);
        break;
      }
      Push(fault());
      break;
    }
    case bc::Op::Len: {
      Value C = Pop();
      if (C.isVec())
        Push(Value::integer(static_cast<int64_t>(C.V->Elems.size())));
      else if (C.isDict())
        Push(Value::integer(static_cast<int64_t>(C.Dt->Entries.size())));
      else if (C.isStr())
        Push(Value::integer(static_cast<int64_t>(C.S->Data.size())));
      else
        Push(fault());
      break;
    }
    case bc::Op::PopC:
      Pop();
      break;
    case bc::Op::Dup: {
      Value V = Pop();
      Push(V);
      Push(V);
      break;
    }
    case bc::Op::GetL:
      Push(Locals[In.localImm()]);
      break;
    case bc::Op::SetL:
      Locals[In.localImm()] = Pop();
      break;
    case bc::Op::Add:
    case bc::Op::Sub:
    case bc::Op::Mul:
    case bc::Op::Div:
    case bc::Op::Mod: {
      Value B = Pop();
      Value A = Pop();
      runtime::ArithOp O;
      switch (In.Opcode) {
      case bc::Op::Add:
        O = runtime::ArithOp::Add;
        break;
      case bc::Op::Sub:
        O = runtime::ArithOp::Sub;
        break;
      case bc::Op::Mul:
        O = runtime::ArithOp::Mul;
        break;
      case bc::Op::Div:
        O = runtime::ArithOp::Div;
        break;
      default:
        O = runtime::ArithOp::Mod;
        break;
      }
      Value Res = runtime::arith(O, A, B);
      if (Opts.TestOnlyIntAddSkew != 0 && In.Opcode == bc::Op::Add &&
          Res.isInt())
        Res = Value::integer(runtime::wrapAdd(Res.I, Opts.TestOnlyIntAddSkew));
      if (Res.isNull() && !(A.isNull() || B.isNull()))
        ++Faults;
      if (Observer)
        Observer->onTypeObserve(FId, Pc, A.T);
      Push(Res);
      break;
    }
    case bc::Op::Concat: {
      Value B = Pop();
      Value A = Pop();
      Push(runtime::concat(H, A, B));
      break;
    }
    case bc::Op::Not:
      Push(Value::boolean(!runtime::toBool(Pop())));
      break;
    case bc::Op::CmpEq:
    case bc::Op::CmpNe:
    case bc::Op::CmpLt:
    case bc::Op::CmpLe:
    case bc::Op::CmpGt:
    case bc::Op::CmpGe: {
      Value B = Pop();
      Value A = Pop();
      runtime::CmpOp O;
      switch (In.Opcode) {
      case bc::Op::CmpEq:
        O = runtime::CmpOp::Eq;
        break;
      case bc::Op::CmpNe:
        O = runtime::CmpOp::Ne;
        break;
      case bc::Op::CmpLt:
        O = runtime::CmpOp::Lt;
        break;
      case bc::Op::CmpLe:
        O = runtime::CmpOp::Le;
        break;
      case bc::Op::CmpGt:
        O = runtime::CmpOp::Gt;
        break;
      default:
        O = runtime::CmpOp::Ge;
        break;
      }
      if (Observer)
        Observer->onTypeObserve(FId, Pc, A.T);
      Push(runtime::compare(O, A, B));
      break;
    }
    case bc::Op::Jmp:
      Pc = In.targetImm();
      continue;
    case bc::Op::JmpZ: {
      bool Cond = runtime::toBool(Pop());
      if (!Cond) {
        Pc = In.targetImm();
        continue;
      }
      break;
    }
    case bc::Op::JmpNZ: {
      bool Cond = runtime::toBool(Pop());
      if (Cond) {
        Pc = In.targetImm();
        continue;
      }
      break;
    }
    case bc::Op::FCall: {
      uint32_t N = In.countImm();
      assert(Stack.size() >= N && "verifier guarantees arg availability");
      const Value *CallArgs = Stack.data() + (Stack.size() - N);
      Value Res = execFrame(In.funcImm(), CallArgs, N, Value::null(), FId,
                            Depth + 1);
      Stack.resize(Stack.size() - N);
      Push(Res);
      if (Aborted)
        Pc = static_cast<uint32_t>(CodeSize);
      break;
    }
    case bc::Op::FCallObj: {
      uint32_t N = In.countImm();
      assert(Stack.size() >= N + 1 && "verifier guarantees receiver + args");
      Value Recv = Stack[Stack.size() - N - 1];
      const Value *CallArgs = Stack.data() + (Stack.size() - N);
      Value Res;
      if (!Recv.isObj()) {
        Res = fault();
      } else {
        bc::FuncId Callee = Recv.O->Layout->findMethod(In.strImm());
        if (!Callee.valid()) {
          Res = fault();
        } else {
          if (Observer)
            Observer->onVirtualCall(FId, Pc, Callee);
          Res = execFrame(Callee, CallArgs, N, Recv, FId, Depth + 1);
        }
      }
      Stack.resize(Stack.size() - N - 1);
      Push(Res);
      if (Aborted)
        Pc = static_cast<uint32_t>(CodeSize);
      break;
    }
    case bc::Op::NativeCall: {
      uint32_t N = In.countImm();
      assert(Stack.size() >= N && "verifier guarantees arg availability");
      const runtime::Builtin &Native = Builtins.builtin(In.builtinImm());
      runtime::NativeContext Ctx{H, Output};
      Value Res = Native.Fn(Ctx, Stack.data() + (Stack.size() - N), N);
      Stack.resize(Stack.size() - N);
      Push(Res);
      break;
    }
    case bc::Op::NewObj: {
      const runtime::ClassLayout &Layout = Classes.layout(In.clsImm());
      Push(Value::obj(H.allocObject(&Layout, Layout.numSlots())));
      break;
    }
    case bc::Op::GetProp: {
      Value Obj = Pop();
      if (!Obj.isObj()) {
        Push(fault());
        break;
      }
      int64_t Slot = Obj.O->Layout->findSlot(In.strImm());
      if (Slot < 0) {
        Push(fault());
        break;
      }
      if (Observer)
        Observer->onPropAccess(Obj.O->Layout->id(), In.strImm(),
                               /*IsWrite=*/false,
                               Obj.O->slotAddr(static_cast<uint32_t>(Slot)));
      if (Observer)
        Observer->onTypeObserve(FId, Pc,
                                Obj.O->Slots[static_cast<size_t>(Slot)].T);
      Push(Obj.O->Slots[static_cast<size_t>(Slot)]);
      break;
    }
    case bc::Op::SetProp: {
      Value V = Pop();
      Value Obj = Pop();
      if (!Obj.isObj()) {
        (void)fault();
        break;
      }
      int64_t Slot = Obj.O->Layout->findSlot(In.strImm());
      if (Slot < 0) {
        (void)fault();
        break;
      }
      if (Observer)
        Observer->onPropAccess(Obj.O->Layout->id(), In.strImm(),
                               /*IsWrite=*/true,
                               Obj.O->slotAddr(static_cast<uint32_t>(Slot)));
      Obj.O->Slots[static_cast<size_t>(Slot)] = V;
      break;
    }
    case bc::Op::GetThis:
      Push(This);
      break;
    case bc::Op::RetC:
      RetVal = Pop();
      Pc = static_cast<uint32_t>(CodeSize);
      continue;
    }
    ++Pc;
  }

  if (Counts) {
    if (Counts->Counts.size() < R.numFuncs())
      Counts->Counts.resize(R.numFuncs(), 0);
    if (FrameSteps)
      Counts->add(FId, FrameSteps);
  }
  if (Callbacks)
    Callbacks->onFuncExit(FId);
  return RetVal;
}
