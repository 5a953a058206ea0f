//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated code cache: the address space JITed code is placed into.
///
/// Mirrors HHVM's area split: a *hot* area (optimized code, placed in
/// function-sorted order), a *cold* area (split-off cold blocks), a
/// *profile* area (tier-1 translations, discarded after retranslate-all)
/// and a *live* area (tracelet translations).  Allocation is bump-pointer;
/// when the live area fills up the JIT stops translating new code, which
/// is point "D" of the paper's Figure 1.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_CODECACHE_H
#define JUMPSTART_JIT_CODECACHE_H

#include <cstdint>

namespace jumpstart::jit {

/// Identifies one area of the code cache.
enum class CodeArea : uint8_t {
  Hot,     ///< Optimized translations (paper: "main").
  Cold,    ///< Cold-split blocks of optimized translations.
  Profile, ///< Tier-1 profiling translations.
  Live,    ///< Tracelet translations.
};

/// Code cache sizing (simulated bytes).  Defaults are scaled-down
/// proportions of HHVM's production configuration.
struct CodeCacheConfig {
  uint64_t HotBytes = 48ull << 20;
  uint64_t ColdBytes = 48ull << 20;
  uint64_t ProfileBytes = 32ull << 20;
  uint64_t LiveBytes = 16ull << 20;
};

/// The bump-allocating, relocatable address space.
class CodeCache {
public:
  explicit CodeCache(CodeCacheConfig Config = CodeCacheConfig());

  /// Allocates \p Bytes in \p Area.  \returns the base address, or 0 when
  /// the area is full (the caller must treat 0 as "stop JITing").
  uint64_t allocate(CodeArea Area, uint64_t Bytes);

  /// Bytes used in \p Area.
  uint64_t used(CodeArea Area) const;

  /// Bytes available in \p Area.
  uint64_t capacity(CodeArea Area) const;

  bool isFull(CodeArea Area) const { return used(Area) >= capacity(Area); }

  /// Resets the hot and cold areas so optimized code can be re-placed
  /// (the relocation step between points B and C of Figure 1 re-places
  /// translations from scratch in the function-sorted order).
  void resetHotCold();

  /// Base address of \p Area (areas are disjoint, hot first).
  uint64_t base(CodeArea Area) const;

private:
  CodeCacheConfig Config;
  uint64_t Used[4] = {0, 0, 0, 0};
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_CODECACHE_H
