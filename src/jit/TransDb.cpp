//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/TransDb.h"

#include "support/StringUtil.h"

using namespace jumpstart;
using namespace jumpstart::jit;

Translation &TransDb::create(TransKind Kind,
                             std::unique_ptr<VasmUnit> Unit) {
  auto T = std::make_unique<Translation>();
  T->Kind = Kind;
  T->Unit = std::move(Unit);
  // Execution cost: cost units per bytecode covered.  Calls model helper
  // overhead; everything else retires in about a unit.
  uint64_t Cost = 0;
  for (const VBlock &B : T->Unit->Blocks) {
    for (const VInstr &I : B.Instrs) {
      switch (I.Kind) {
      case VKind::Call:
      case VKind::IndCall:
        Cost += 4;
        break;
      case VKind::Counter:
        Cost += 2;
        break;
      default:
        Cost += 1;
        break;
      }
    }
  }
  T->CostPerBytecode =
      T->Unit->BytecodeCount
          ? static_cast<double>(Cost) /
                static_cast<double>(T->Unit->BytecodeCount)
          : 1.0;
  T->Id = static_cast<uint32_t>(All.size());
  ElidedGuardCount += T->Unit->ElidedGuards.size();
  KindBytes[static_cast<size_t>(Kind)] += T->Unit->sizeBytes();
  uint32_t F = T->Unit->Func.raw();
  if (F >= Current.size())
    Current.resize(F + 1, Row{kNoTrans, kNoTrans, kNoTrans});
  Current[F][static_cast<size_t>(Kind)] = T->Id;
  All.push_back(std::move(T));
  return *All.back();
}

std::string TransDb::placementDigest() const {
  std::string Out;
  for (const auto &T : All)
    Out += strFormat("t%u %s f%u placed=%d entry=%llu blocks=%zu\n",
                     T->Id, transKindName(T->Kind), T->func().raw(),
                     T->Placed ? 1 : 0,
                     static_cast<unsigned long long>(T->entryAddr()),
                     T->BlockAddrs.size());
  return Out;
}
