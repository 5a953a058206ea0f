//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-server translation database: every translation the JIT has
/// produced, indexed by function and kind.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_TRANSDB_H
#define JUMPSTART_JIT_TRANSDB_H

#include "jit/Translation.h"

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace jumpstart::jit {

/// Owns all translations of one server's JIT.
///
/// Lookups are array indexes: each function has a row holding the id of
/// its current (latest) translation of each kind.  best() reads the row
/// and checks Placed at read time, so placement needs no bookkeeping
/// here.
///
/// Threading: one thread owns a TransDb, and nothing here locks.  That
/// thread is the server's serial path, or the single background compile
/// thread during a concurrent-serving window.  The compile pool's workers
/// never touch it: Jit::runJitWork resolves every lookup a job needs on
/// the owning thread before it fans out, and installs the prepared units
/// itself (see jit/Jit.cpp).  serve() threads read immutable
/// TransSnapshots instead.  The TSan sweep checks this contract.
class TransDb {
public:
  /// Creates a translation from \p Unit; it starts unplaced.
  Translation &create(TransKind Kind, std::unique_ptr<VasmUnit> Unit);

  Translation *find(uint32_t Id) {
    return Id < All.size() ? All[Id].get() : nullptr;
  }

  /// Current translation of \p F with kind \p K, or nullptr.
  const Translation *forFunc(bc::FuncId F, TransKind K) const {
    if (F.raw() >= Current.size())
      return nullptr;
    uint32_t Id = Current[F.raw()][static_cast<size_t>(K)];
    return Id == kNoTrans ? nullptr : All[Id].get();
  }
  Translation *forFunc(bc::FuncId F, TransKind K) {
    return const_cast<Translation *>(std::as_const(*this).forFunc(F, K));
  }

  /// The translation that would execute for \p F right now: a placed
  /// optimized translation wins, then live, then profile.
  const Translation *best(bc::FuncId F) const {
    if (F.raw() >= Current.size())
      return nullptr;
    const Row &Ids = Current[F.raw()];
    for (TransKind K :
         {TransKind::Optimized, TransKind::Live, TransKind::Profile}) {
      uint32_t Id = Ids[static_cast<size_t>(K)];
      if (Id != kNoTrans && All[Id]->Placed)
        return All[Id].get();
    }
    return nullptr;
  }

  size_t size() const { return All.size(); }

  /// The full translation list, in id order.
  const std::vector<std::unique_ptr<Translation>> &all() const {
    return All;
  }

  /// Total analysis-proven guard elisions across installed translations
  /// (sum of VasmUnit::ElidedGuards, accumulated in create).
  uint64_t guardsElided() const { return ElidedGuardCount; }

  /// Total Vasm bytes of translations of kind \p K (placed or not).  A
  /// running total kept by create(): a unit never changes size once
  /// created, and replaced translations stay in all().
  uint64_t bytesOfKind(TransKind K) const {
    return KindBytes[static_cast<size_t>(K)];
  }

  /// One line per translation in id order (kind, function, placement,
  /// entry address, block count).  Part of the determinism promise: two
  /// runs of the same schedule must produce byte-identical digests
  /// regardless of host compile-pool width; the conformance oracle
  /// (src/testing) asserts exactly that.
  std::string placementDigest() const;

private:
  static constexpr uint32_t kNoTrans = ~0u;
  /// Translation id per TransKind.
  using Row = std::array<uint32_t, 3>;

  std::vector<std::unique_ptr<Translation>> All;
  /// Indexed by raw FuncId; grows as functions get translations.
  std::vector<Row> Current;
  uint64_t ElidedGuardCount = 0;
  /// Vasm bytes created so far, by TransKind.
  uint64_t KindBytes[3] = {};
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_TRANSDB_H
