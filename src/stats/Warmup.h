//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Warmup-curve classification and multi-seed summary statistics.
///
/// Implements the measurement methodology of Barrett et al. ("Virtual
/// Machine Warmup Blows Hot and Cold") on top of the exact changepoint
/// detector: each (benchmark, seed) run's per-iteration series is
/// segmented and labelled
///
///   flat          -- every segment's mean is equivalent to the final
///                    (steady) segment's: steady from the start;
///   warmup        -- all non-equivalent earlier segments are *worse*
///                    than steady (the curve the paper assumes);
///   slowdown      -- all non-equivalent earlier segments are *better*:
///                    the run degraded into its final state;
///   inconsistent  -- mixed directions, or no final segment long enough
///                    to call steady at all.
///
/// A multi-seed summary then tallies the classes, reports the worst one
/// (the CI gate's degradation ordering: flat < warmup < slowdown <
/// inconsistent), and attaches a bootstrap confidence interval over the
/// per-seed steady-segment means.  Classification itself uses no RNG;
/// only the bootstrap draws random resamples, from an explicitly seeded
/// generator, so every number here is reproducible byte-for-byte.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_STATS_WARMUP_H
#define JUMPSTART_STATS_WARMUP_H

#include "stats/Changepoint.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jumpstart::stats {

/// Warmup classes, ordered from best to worst for CI gating.
enum class WarmupClass : uint8_t {
  Flat = 0,
  Warmup = 1,
  Slowdown = 2,
  Inconsistent = 3,
};

/// Snake-case name used in JSON blocks and counters files.
const char *warmupClassName(WarmupClass C);
/// Severity ordering: higher rank = worse (flat < warmup < slowdown <
/// inconsistent).
inline int warmupClassRank(WarmupClass C) { return static_cast<int>(C); }

/// Classification knobs.
struct ClassifyParams {
  ChangepointParams Changepoints;
  /// Metric direction: true for latency/allocations (smaller is
  /// better), false for throughput.
  bool LowerIsBetter = true;
  /// Segment means within RelTolerance * max(|mean|, |steady mean|) of
  /// the steady mean count as "already steady".
  double RelTolerance = 0.02;
  /// Winsorize to Tukey fences before detection (Barrett et al.'s
  /// outlier treatment): periodic spikes do not become segments.
  bool MaskOutliers = true;
};

/// One run's verdict.
struct Classification {
  WarmupClass Class = WarmupClass::Inconsistent;
  /// First iteration of steady state: the start of the earliest segment
  /// from which every later segment mean is equivalent to the final
  /// one.  0 for flat runs; the steady segment's start for inconsistent
  /// runs (best effort).
  size_t SteadyStart = 0;
  /// Mean of the final (steady) segment.
  double SteadyMean = 0;
  /// The underlying exact segmentation (of the masked series when
  /// ClassifyParams::MaskOutliers).
  Segmentation Seg;
};

/// Classifies one per-iteration series.  Deterministic, RNG-free.
Classification classifySeries(const std::vector<double> &Values,
                              const ClassifyParams &P = {});

/// Bootstrap CI knobs.  The seed is fixed and explicit: resampling is
/// the one random element of the analysis, and two runs over the same
/// inputs must emit identical intervals.
struct BootstrapParams {
  uint64_t Seed = 0x57a75b007ULL;
};

/// A percentile-bootstrap confidence interval.
struct ConfidenceInterval {
  double Lo = 0;
  double Hi = 0;
  double Mean = 0;

  /// Gate predicate: this interval is entirely worse than \p Committed.
  /// Overlapping intervals are never flagged (the statistical
  /// replacement for the old single-number compare).
  bool disjointlyWorseThan(const ConfidenceInterval &Committed,
                           bool LowerIsBetter) const {
    return LowerIsBetter ? Lo > Committed.Hi : Hi < Committed.Lo;
  }
};

/// Percentile bootstrap over the mean of \p Values: a 95% interval from
/// 1000 resamples.
ConfidenceInterval bootstrapMeanCI(const std::vector<double> &Values,
                                   const BootstrapParams &P = {});

/// One seed's analyzed run.
struct RunAnalysis {
  uint64_t Seed = 0;
  Classification C;
};

/// The multi-seed summary that lands in BENCH_*.json `stats` blocks.
struct StatsSummary {
  /// Class tallies indexed by WarmupClass.
  uint32_t Tally[4] = {0, 0, 0, 0};
  WarmupClass WorstClass = WarmupClass::Flat;
  /// Bootstrap CI over the per-seed steady-segment means.
  ConfidenceInterval SteadyCI;
  /// Mean steady-state start iteration across seeds.
  double SteadyStartMean = 0;
  std::vector<RunAnalysis> Runs;
};

/// Classifies every (seed, series) run and aggregates.
StatsSummary
analyzeRuns(const std::vector<std::pair<uint64_t, std::vector<double>>>
                &SeedSeries,
            const ClassifyParams &CP = {}, const BootstrapParams &BP = {});

} // namespace jumpstart::stats

#endif // JUMPSTART_STATS_WARMUP_H
