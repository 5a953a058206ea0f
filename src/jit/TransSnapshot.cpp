//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/TransSnapshot.h"

#include "jit/Jit.h"

namespace jumpstart::jit {

TransSnapshot TransSnapshot::capture(const Jit &J) {
  TransSnapshot S;
  const bc::Repo &R = J.repo();
  S.CostPerBytecode.resize(R.numFuncs());
  for (size_t I = 0; I < R.numFuncs(); ++I)
    S.CostPerBytecode[I] =
        J.execCostPerBytecode(bc::FuncId(static_cast<uint32_t>(I)));
  return S;
}

} // namespace jumpstart::jit
