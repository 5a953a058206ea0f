//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/TransSnapshot.h"

#include "jit/Jit.h"

namespace jumpstart::jit {

std::unique_ptr<const TransSnapshot> TransSnapshot::capture(const Jit &J,
                                                            uint64_t Version) {
  auto S = std::make_unique<TransSnapshot>();
  S->Version = Version;
  const bc::Repo &R = J.repo();
  S->CostPerBytecode.resize(R.numFuncs());
  for (size_t I = 0; I < R.numFuncs(); ++I) {
    bc::FuncId F(static_cast<uint32_t>(I));
    S->CostPerBytecode[I] = J.execCostPerBytecode(F);
    if (J.currentTranslation(F))
      ++S->Translations;
  }
  return S;
}

void SnapshotPublisher::publish(std::unique_ptr<const TransSnapshot> Next) {
  const TransSnapshot *Raw = Next.release();
  const TransSnapshot *Old = Cur.exchange(Raw, std::memory_order_acq_rel);
  Published.fetch_add(1, std::memory_order_relaxed);
  if (Old)
    Domain.retire([Old] { delete Old; });
  // Opportunistic: each publication tries to drain snapshots retired by
  // earlier ones.  endConcurrentServing() does the final reclaimAll().
  Domain.tryReclaim();
}

} // namespace jumpstart::jit
