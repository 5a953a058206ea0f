//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tier-2 Ext-TSP sweep: 2000 fixed-seed random CFGs of 2 to 256
/// blocks, each ordered by the incremental layout::extTspOrder and by the
/// reference solver, which must agree exactly.  LayoutTest's twins run a
/// smaller set in tier-1; this one is too slow for it, because the
/// reference takes most of a second per 256-block graph.
///
/// Labeled tier2 in ctest; ci/sanitize.sh excludes it (-LE tier2), plain
/// `ctest` runs it.
///
//===----------------------------------------------------------------------===//

#include "layout/ExtTsp.h"
#include "testing/ReferenceExtTsp.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace jumpstart;

TEST(ExtTspSweep, TwoThousandCfgsMatchReference) {
  Rng R(0xe575);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    // Log-uniform sizes up to 128 blocks, as many of 2-16 blocks as of
    // 16-128; every 40th graph has 129-256.
    double LogN = 1.0 + 6.0 * R.nextDouble();
    uint32_t N = Trial % 40 == 39
                     ? 129 + static_cast<uint32_t>(R.nextBelow(128))
                     : static_cast<uint32_t>(std::exp2(LogN));
    layout::Cfg G = jumpstart::testing::randomExtTspCfg(R, N);
    ASSERT_EQ(layout::extTspOrder(G),
              jumpstart::testing::referenceExtTspOrder(G))
        << "trial " << Trial << ", " << N << " blocks";
  }
}
