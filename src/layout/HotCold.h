//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hot/cold code splitting.
///
/// HHVM applies basic-block layout and hot/cold splitting together, driven
/// by the same profile (paper section V-A).  Blocks whose execution count
/// falls below a fraction of the function entry count are moved to a cold
/// code area; the hot area keeps the Ext-TSP order of the remaining
/// blocks.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_LAYOUT_HOTCOLD_H
#define JUMPSTART_LAYOUT_HOTCOLD_H

#include "layout/Cfg.h"

#include <vector>

namespace jumpstart::layout {

/// Result of splitting a laid-out function.
struct HotColdSplit {
  /// Block ids placed in the hot area, in layout order.
  std::vector<uint32_t> Hot;
  /// Block ids relegated to the cold area, in layout order.
  std::vector<uint32_t> Cold;
};

/// Splits \p Order into hot and cold parts.  A block is cold when its
/// weight is below \p ColdRatio times the entry block's weight (and the
/// entry itself is always hot).  With a zero entry weight, everything
/// stays hot.
HotColdSplit splitHotCold(const Cfg &G, const std::vector<uint32_t> &Order,
                          double ColdRatio);

} // namespace jumpstart::layout

#endif // JUMPSTART_LAYOUT_HOTCOLD_H
