//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lazily-built, memoized basic-block information per function, for the
/// JIT (region selection, lowering, profile slabs) and the analyses.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_BYTECODE_BLOCKCACHE_H
#define JUMPSTART_BYTECODE_BLOCKCACHE_H

#include "bytecode/Blocks.h"
#include "bytecode/Repo.h"

#include <memory>
#include <vector>

namespace jumpstart::bc {

/// Caches BlockList per FuncId.  Not thread-safe; each simulated server
/// owns its VM state and the simulators are single-threaded.
class BlockCache {
public:
  explicit BlockCache(const Repo &R) : R(R) {}

  const BlockList &blocks(FuncId F) {
    if (F.raw() < Cache.size() && Cache[F.raw()])
      return *Cache[F.raw()];
    return build(F);
  }

private:
  /// Computes and caches \p F's blocks on first use.
  const BlockList &build(FuncId F);

  const Repo &R;
  std::vector<std::unique_ptr<BlockList>> Cache;
};

} // namespace jumpstart::bc

#endif // JUMPSTART_BYTECODE_BLOCKCACHE_H
