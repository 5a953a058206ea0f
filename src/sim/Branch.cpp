//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "sim/Branch.h"

#include "support/Assert.h"

using namespace jumpstart;
using namespace jumpstart::sim;

BranchPredictor::BranchPredictor(uint32_t TableSize) {
  alwaysAssert(TableSize > 0 && (TableSize & (TableSize - 1)) == 0,
               "predictor table size must be a power of two");
  Counters.assign(TableSize, 1); // weakly not-taken
  Mask = TableSize - 1;
}

void BranchPredictor::reset() {
  for (uint8_t &C : Counters)
    C = 1;
  Branches = 0;
  Mispredicts = 0;
}

TargetPredictor::TargetPredictor(uint32_t TableSize) {
  alwaysAssert(TableSize > 0 && (TableSize & (TableSize - 1)) == 0,
               "predictor table size must be a power of two");
  Targets.assign(TableSize, 0);
  Mask = TableSize - 1;
}

void TargetPredictor::reset() {
  for (uint64_t &T : Targets)
    T = 0;
  Branches = 0;
  Mispredicts = 0;
}
