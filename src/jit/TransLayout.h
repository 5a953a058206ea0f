//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Applies the code-layout optimizations to a Vasm unit and places the
/// result in the code cache: Ext-TSP block ordering, hot/cold splitting,
/// and the injection of accurate Vasm block counters from a Jump-Start
/// package right before layout (paper section V-A).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_TRANSLAYOUT_H
#define JUMPSTART_JIT_TRANSLAYOUT_H

#include "bytecode/BlockCache.h"
#include "jit/CodeCache.h"
#include "jit/Translation.h"
#include "layout/CallGraph.h"
#include "layout/Cfg.h"
#include "profile/ProfilePackage.h"
#include "profile/ProfileStore.h"

#include <vector>

namespace jumpstart::jit {

/// Layout controls for one translation.
struct LayoutOptions {
  /// Run Ext-TSP block reordering (otherwise keep lowering order).
  bool UseExtTsp = true;
  /// Split cold blocks into the cold area.
  bool SplitCold = true;
  /// Blocks below this fraction of the entry weight are cold.
  double ColdRatio = 0.01;
};

/// The computed placement order of a unit's blocks.
struct UnitLayout {
  std::vector<uint32_t> HotOrder;
  std::vector<uint32_t> ColdOrder;
};

/// Builds the layout CFG of \p Unit: its blocks with their sizes and
/// weights, successor links plus inline call edges.  Edge weights are
/// estimated as min(src, dst) block weight, the classic approximation
/// when only block counters exist.
layout::Cfg layoutCfg(const VasmUnit &Unit);

/// Computes the block layout of \p Unit.
UnitLayout layoutUnit(const VasmUnit &Unit, const LayoutOptions &Opts);

/// Overwrites \p Unit's block weights with the accurate counters \p Counts
/// (collected on seeders from instrumented optimized code).  Extra or
/// missing trailing entries are tolerated: layouts may differ slightly
/// across servers.
void injectVasmCounts(VasmUnit &Unit, const std::vector<uint64_t> &Counts);

/// Places \p T in the code cache: hot blocks in \p HotArea in layout
/// order, cold blocks (if any) in the cold area.  \returns false when an
/// area is full (translation stays unplaced).
bool placeTranslation(Translation &T, CodeCache &Cache, CodeArea HotArea,
                      const UnitLayout &Layout);

/// Builds the tier-1 call graph (paper section V-B's *inaccurate* one):
/// nodes are functions with tier-1 sample counts; arcs come from direct
/// call sites (weighted by the enclosing block's count) and from the
/// call-target profiles of virtual sites.  Because tier-1 code has no
/// inlining, arcs into functions that tier-2 will inline are all present
/// -- misrepresenting the optimized code.
layout::CallGraph buildTier1CallGraph(const bc::Repo &R,
                                      bc::BlockCache &Blocks,
                                      const profile::ProfileStore &Store);

/// Builds the tier-2 call graph from seeder entry-instrumentation arcs
/// (paper section V-B's accurate one: inlined calls never appear).
layout::CallGraph buildTier2CallGraph(const bc::Repo &R,
                                      const profile::OptProfile &Opt,
                                      const profile::ProfileStore &Store);

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_TRANSLAYOUT_H
