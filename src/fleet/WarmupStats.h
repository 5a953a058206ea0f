//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Warmup-curve classification for fleet simulations.
///
/// Bridges the fleet layer's virtual-time warmup curves (WarmupResult's
/// registry-backed normalized-RPS series) into the stats/ changepoint
/// classifier, and renders the Jump-Start on/off warmup-class-transition
/// table the paper's Figure 4 motivates: per (server, seed), the class
/// of the cold-start curve next to the class of the Jump-Start curve.
/// The expected transition is warmup -> flat (or at least an earlier
/// steady-state iteration).  The classes land in fig4's exported
/// `classes.json` and in BENCH_package.json's per-age columns, which the
/// tier-1 snapshot check requires verbatim.
///
/// Everything here is deterministic: the input curves come from the
/// virtual clock, classification is RNG-free, and both renderings format
/// with fixed printf conversions, so exports are byte-identical across
/// runs and ThreadPool worker counts.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_FLEET_WARMUPSTATS_H
#define JUMPSTART_FLEET_WARMUPSTATS_H

#include "fleet/ServerSim.h"
#include "stats/Warmup.h"

#include <string>
#include <vector>

namespace jumpstart::fleet {

/// Parameters for the normalized-RPS (served/offered) curve: throughput
/// direction (higher is better), with a 5% equivalence tolerance: the
/// simulated load wobbles a few percent tick-to-tick, and those wobbles
/// are not warmup phases.  Unlike raw latency -- which the JIT's live
/// tail keeps nudging down for the whole window -- the normalized curve
/// saturates once the server reaches offered capacity, so it is the
/// curve whose steady state the transition table reads.  Outlier masking
/// is off: the virtual clock has no measurement noise to clip, and when
/// most of a run sits at its steady value the Tukey fences collapse
/// (IQR = 0) and would winsorize away the very warmup ramp being
/// classified.
inline stats::ClassifyParams warmupThroughputClassifyParams() {
  stats::ClassifyParams P;
  P.LowerIsBetter = false;
  P.RelTolerance = 0.05;
  P.MaskOutliers = false;
  return P;
}

/// Classifies a warmup run's normalized-RPS curve.  Deterministic.
stats::Classification
classifyWarmupThroughput(const WarmupResult &R,
                         const stats::ClassifyParams &P =
                             warmupThroughputClassifyParams());

/// One row of the warmup-class-transition table: the same (server,
/// seed) run measured without and with a Jump-Start profile package.
struct ClassTransition {
  std::string Label;
  uint64_t Seed = 0;
  /// Cold start (no Jump-Start package).
  stats::Classification Cold;
  /// Jump-Start consumer boot.
  stats::Classification Warm;
};

/// Human-readable table (aligned columns) for bench stdout.
std::string renderTransitionTableText(const std::vector<ClassTransition> &Rows);

/// JSON rendering for `PREFIX.classes.json` exports: one object with a
/// `rows` array; every double printed with %.6f.
std::string renderTransitionTableJson(const std::vector<ClassTransition> &Rows);

} // namespace jumpstart::fleet

#endif // JUMPSTART_FLEET_WARMUPSTATS_H
