//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "interp/InterpCache.h"

#include "bytecode/Blocks.h"
#include "bytecode/Verifier.h"

using namespace jumpstart;
using namespace jumpstart::interp;

namespace {

/// A run ends at any instruction after which control may leave the
/// straight line: branches and returns transfer control, and calls hand
/// the step counter to a callee (so charging must stop there for the
/// callee to observe the same count as under per-instruction checking).
bool endsRun(bc::Op O) {
  bc::OpFlags F = bc::opInfo(O).Flags;
  return bc::hasFlag(F, bc::OpFlags::Branch) ||
         bc::hasFlag(F, bc::OpFlags::CondBranch) ||
         bc::hasFlag(F, bc::OpFlags::Terminal) ||
         bc::hasFlag(F, bc::OpFlags::Call);
}

bool hasCacheableSite(const bc::Function &F) {
  for (const bc::Instr &In : F.Code)
    if (In.Opcode == bc::Op::GetProp || In.Opcode == bc::Op::SetProp ||
        In.Opcode == bc::Op::FCallObj)
      return true;
  return false;
}

/// The opcode byte Quick holds at \p I: the longest superinstruction
/// whose sequence starts there and ends before \p End, else the base
/// opcode.
bc::Op quickenAt(const std::vector<bc::Instr> &Code, size_t I, size_t End) {
  using bc::Op;
  // Past End reads as Nop, which no sequence contains.
  auto At = [&](size_t K) {
    return I + K < End ? Code[I + K].Opcode : Op::Nop;
  };
  const Op O1 = At(1), O2 = At(2), O3 = At(3);
  switch (At(0)) {
  case Op::Int:
    if (O2 == Op::SetL) {
      if (O1 == Op::Add)
        return quickOp(SuperOp::IntAddSetL);
      if (O1 == Op::Sub)
        return quickOp(SuperOp::IntSubSetL);
      if (O1 == Op::Mod)
        return quickOp(SuperOp::IntModSetL);
    }
    switch (O1) {
    case Op::Add: return quickOp(SuperOp::IntAdd);
    case Op::Mul: return quickOp(SuperOp::IntMul);
    case Op::Mod: return quickOp(SuperOp::IntMod);
    case Op::CmpEq: return quickOp(SuperOp::IntCmpEq);
    case Op::CmpLt: return quickOp(SuperOp::IntCmpLt);
    case Op::CmpGt: return quickOp(SuperOp::IntCmpGt);
    default: break;
    }
    break;
  case Op::GetL:
    if (O1 == Op::Int) {
      if (O2 == Op::CmpLt && O3 == Op::JmpZ)
        return quickOp(SuperOp::GetLIntCmpLtJmpZ);
      if (O2 == Op::Add && O3 == Op::SetL && At(4) == Op::Jmp)
        return quickOp(SuperOp::GetLIntAddSetLJmp);
      if (O2 == Op::Sub && O3 == Op::SetL)
        return quickOp(SuperOp::GetLIntSubSetL);
      switch (O2) {
      case Op::Add: return quickOp(SuperOp::GetLIntAdd);
      case Op::Mul: return quickOp(SuperOp::GetLIntMul);
      case Op::Mod: return quickOp(SuperOp::GetLIntMod);
      default: return quickOp(SuperOp::GetLInt);
      }
    }
    if (O1 == Op::Add)
      return quickOp(SuperOp::GetLAdd);
    if (O1 == Op::Sub)
      return quickOp(SuperOp::GetLSub);
    break;
  case Op::SetL:
    if (O1 == Op::GetL)
      return quickOp(SuperOp::SetLGetL);
    if (O1 == Op::Jmp)
      return quickOp(SuperOp::SetLJmp);
    break;
  default:
    break;
  }
  return Code[I].Opcode;
}

} // namespace

FuncExecInfo jumpstart::interp::computeExecInfo(const bc::Function &F,
                                                bool Verified,
                                                uint32_t MaxStack) {
  FuncExecInfo Info;
  if (!Verified)
    return Info;
  Info.Verified = true;
  Info.MaxStack = MaxStack;

  size_t N = F.Code.size();
  const std::vector<uint8_t> Leader = bc::blockLeaders(F);
  Info.RunLen.resize(N);
  Info.Quick = F.Code;
  // NextLeader: the first leader after I, where I's sequence must end.
  size_t NextLeader = N;
  for (size_t I = N; I-- > 0;) {
    Info.RunLen[I] = (endsRun(F.Code[I].Opcode) || I + 1 == N)
                         ? 1
                         : Info.RunLen[I + 1] + 1;
    Info.Quick[I].Opcode = quickenAt(F.Code, I, NextLeader);
    if (Leader[I])
      NextLeader = I;
  }

  if (hasCacheableSite(F))
    Info.ICs.assign(N, ICEntry{});
  return Info;
}

FuncExecInfo &InterpCaches::analyze(bc::FuncId F) {
  if (Cache.size() < R.numFuncs())
    Cache.resize(R.numFuncs());
  const bc::Function &Func = R.func(F);
  uint32_t MaxStack = 0;
  bool Verified =
      bc::verifyFunctionIssues(R, Func, NumBuiltins, &MaxStack).empty();
  Cache[F.raw()] = std::make_unique<FuncExecInfo>(
      computeExecInfo(Func, Verified, MaxStack));
  return *Cache[F.raw()];
}
