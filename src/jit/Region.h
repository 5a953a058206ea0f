//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Region selection for the tier-2 optimizing compiler.
///
/// HHVM's region compiler forms arbitrary code regions from profile data
/// (paper section II-A).  In this reproduction a region is a whole
/// function plus an *inline plan*: which profiled callees get embedded at
/// which call sites (driven by site hotness and callee size), and which
/// virtual call sites get devirtualized behind a class guard (driven by
/// the call-target profiles).  This captures the property section V-B
/// hinges on: tier-1 code has no inlining, tier-2 code aggressively does,
/// so a call graph built from tier-1 data misrepresents tier-2 code.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_REGION_H
#define JUMPSTART_JIT_REGION_H

#include "bytecode/BlockCache.h"
#include "bytecode/Repo.h"
#include "jit/ProvenFacts.h"
#include "profile/ProfileStore.h"

#include <map>
#include <vector>

namespace jumpstart::jit {

/// Inlining knobs.  The fixed inlining and devirtualization thresholds
/// are constants in Region.cpp.
struct RegionParams {
  /// Callees larger than this many bytecodes are never inlined.
  uint32_t MaxInlineBytecodes = 48;
};

/// The region compiler's plan for one function.
struct RegionDescriptor {
  bc::FuncId Func;

  /// Call sites chosen for inlining: (enclosing function, instruction
  /// index) -> callee.  Keys use the *enclosing* function because inlining
  /// recurses into already-inlined bodies.
  std::map<uint64_t, bc::FuncId> InlinedCalls;

  /// Virtual call sites that devirtualize to a guarded direct call
  /// (without inlining): (function, instruction index) -> target.
  std::map<uint64_t, bc::FuncId> DevirtualizedCalls;

  /// All distinct functions inlined somewhere in this region.
  std::vector<bc::FuncId> InlinedFuncs;

  /// Total bytecodes covered (function + inlined bodies).
  uint32_t TotalBytecodes = 0;

  static uint64_t siteKey(bc::FuncId F, uint32_t InstrIndex) {
    return (static_cast<uint64_t>(F.raw()) << 32) | InstrIndex;
  }

  bc::FuncId inlinedCallee(bc::FuncId F, uint32_t InstrIndex) const {
    auto It = InlinedCalls.find(siteKey(F, InstrIndex));
    return It == InlinedCalls.end() ? bc::FuncId() : It->second;
  }

  bc::FuncId devirtTarget(bc::FuncId F, uint32_t InstrIndex) const {
    auto It = DevirtualizedCalls.find(siteKey(F, InstrIndex));
    return It == DevirtualizedCalls.end() ? bc::FuncId() : It->second;
  }
};

/// Builds the region (inline plan) for \p Func from the tier-1 profiles
/// in \p Store.  \p Facts (optional) adds analysis-proven
/// devirtualizations: a virtual site with a proven unique target
/// devirtualizes even when the call-target profile never reached
/// dominance (or never ran at all).
RegionDescriptor selectRegion(const bc::Repo &R, bc::BlockCache &Blocks,
                              const profile::ProfileStore &Store,
                              bc::FuncId Func,
                              const RegionParams &Params = RegionParams(),
                              const ProvenFacts *Facts = nullptr);

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_REGION_H
