//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lazily-built, memoized basic-block information per function, shared by
/// the interpreter (block-entry profiling) and the JIT (region selection).
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

  /// Precomputed Pc -> block-id table for \p F (see
  /// BlockList::instrToBlockData).
  const uint32_t *pcToBlock(FuncId F) { return blocks(F).instrToBlockData(); }

private:
  /// Computes and caches \p F's blocks on first use.
  const BlockList &build(FuncId F);

  const Repo &R;
  std::vector<std::unique_ptr<BlockList>> Cache;
};

} // namespace jumpstart::bc

#endif // JUMPSTART_BYTECODE_BLOCKCACHE_H
