//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference Ext-TSP solver: layout::extTspOrder as it was before the
/// incremental solver, kept only so tests have an independent
/// implementation to diff block orders against.
///
/// Every merge iteration re-evaluates the best merge of every chain pair
/// an edge connects: two concatenations plus up to 31 splits, each built
/// as a fresh vector and scored by a quadratic scan of the chain.  It
/// deliberately never gains an optimization.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_TESTING_REFERENCEEXTTSP_H
#define JUMPSTART_TESTING_REFERENCEEXTTSP_H

#include "layout/ExtTsp.h"
#include "support/Random.h"

#include <vector>

namespace jumpstart::testing {

/// The block order the pre-incremental solver computes for \p G; the
/// production layout::extTspOrder must return exactly this.
std::vector<uint32_t> referenceExtTspOrder(
    const layout::Cfg &G,
    const layout::ExtTspParams &Params = layout::ExtTspParams());

/// A random CFG of \p NumBlocks blocks for diffing the two solvers.  Each
/// graph draws its own shape, so that a run of them exercises every rule
/// of the greedy choice: uniform block sizes and weights (gains tie
/// everywhere), a heavy fallthrough backbone (chains past the split
/// limit), edges into block 0 (the entry rule), and self-loops, repeated
/// edges, isolated blocks and zero weights.
layout::Cfg randomExtTspCfg(Rng &R, uint32_t NumBlocks);

} // namespace jumpstart::testing

#endif // JUMPSTART_TESTING_REFERENCEEXTTSP_H
