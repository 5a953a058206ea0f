//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "interp/InterpCache.h"

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
  Info.RunLen.resize(N);
  for (size_t I = N; I-- > 0;)
    Info.RunLen[I] = (endsRun(F.Code[I].Opcode) || I + 1 == N)
                         ? 1
                         : Info.RunLen[I + 1] + 1;

  if (hasCacheableSite(F))
    Info.ICs.assign(N, ICEntry{});
  return Info;
}

std::unique_ptr<FuncExecInfo> InterpCaches::analyze(bc::FuncId F) const {
  const bc::Function &Func = R.func(F);
  uint32_t MaxStack = 0;
  bool Verified =
      bc::verifyFunctionIssues(R, Func, NumBuiltins, &MaxStack).empty();
  return std::make_unique<FuncExecInfo>(
      computeExecInfo(Func, Verified, MaxStack));
}
