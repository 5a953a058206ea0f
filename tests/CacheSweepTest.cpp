//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tier-2 cache sweep: 2000 fixed-seed streams of 20000 operations,
/// spread over every cache and TLB geometry the harnesses use, each
/// replayed through the way-hinted sim::Cache and the scan-only reference,
/// which must agree on every access.  SimTest's CacheTwin tests run a
/// smaller set in tier-1.
///
/// Labeled tier2 in ctest; ci/sanitize.sh excludes it (-LE tier2), plain
/// `ctest` runs it.
///
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"
#include "testing/ReferenceCache.h"

#include <gtest/gtest.h>

using namespace jumpstart;

TEST(CacheSweep, TwoThousandStreamsMatchReference) {
  const sim::CacheConfig Geometries[] = {
      {64 * 64, 64, 1},            // direct-mapped
      {8 * 4096, 4096, 4},         // the scaled TLBs: 2 sets of 4 ways
      {128 * 4096, 4096, 4},       // the default I-TLB
      {16 * 1024, 64, 8},          // the scaled L1s: 32 sets of 8 ways
      {32 * 1024, 64, 8},          // the default L1s: 64 sets of 8 ways
      {256 * 1024, 64, 16},        // the scaled LLC: 256 sets of 16 ways
      {2 * 1024 * 1024, 64, 16},   // the default LLC
  };
  Rng R(0xcac4e);
  for (int Stream = 0; Stream < 2000; ++Stream) {
    const sim::CacheConfig &Config =
        Geometries[Stream % std::size(Geometries)];
    std::vector<jumpstart::testing::CacheOp> Ops =
        jumpstart::testing::randomCacheStream(R, Config, 20000);
    ASSERT_EQ(jumpstart::testing::diffCacheStream(Config, Ops), "")
        << "stream " << Stream << ", " << Config.SizeBytes << " bytes, "
        << Config.Ways << " ways";
  }
}
