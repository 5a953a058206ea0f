//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the stats library: exact changepoint detection, outlier
/// masking, warmup-curve classification, and bootstrap confidence
/// intervals.  Includes the scaling-invariance property sweep the
/// data-derived penalty exists for: classification must not change when
/// the metric's unit does.
///
//===----------------------------------------------------------------------===//

#include "stats/Changepoint.h"
#include "stats/Warmup.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace jumpstart;
using namespace jumpstart::stats;

namespace {

/// A series built from mean-stable blocks plus uniform noise in
/// [-Noise, Noise] from an explicit seed.
std::vector<double> blockSeries(const std::vector<std::pair<size_t, double>>
                                    &Blocks,
                                double Noise, uint64_t Seed) {
  Rng R(Seed);
  std::vector<double> V;
  for (const auto &[Len, Mean] : Blocks)
    for (size_t I = 0; I < Len; ++I)
      V.push_back(Mean + Noise * (2 * R.nextDouble() - 1));
  return V;
}

std::vector<double> scaled(const std::vector<double> &V, double C) {
  std::vector<double> Out = V;
  for (double &X : Out)
    X *= C;
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Changepoint detection
//===----------------------------------------------------------------------===//

TEST(Changepoint, RecoversCleanStepExactly) {
  // A noise-free step: 20 iterations at 10, then 20 at 2.
  std::vector<double> V = blockSeries({{20, 10.0}, {20, 2.0}}, 0, 1);
  Segmentation S = detectChangepoints(V);
  ASSERT_EQ(S.Changepoints.size(), 1u);
  EXPECT_EQ(S.Changepoints[0], 20u);
  ASSERT_EQ(S.Segments.size(), 2u);
  EXPECT_DOUBLE_EQ(S.Segments[0].Mean, 10.0);
  EXPECT_DOUBLE_EQ(S.Segments[1].Mean, 2.0);
  EXPECT_DOUBLE_EQ(S.Cost, 0.0);
}

TEST(Changepoint, RecoversNoisyStepExactly) {
  // Noise more than an order of magnitude below the shift: the boundary
  // must land on the exact iteration, for every noise realization.
  for (uint64_t Seed : {1, 2, 3, 5, 13}) {
    std::vector<double> V =
        blockSeries({{25, 8.0}, {15, 3.0}}, 0.2, Seed);
    Segmentation S = detectChangepoints(V);
    ASSERT_EQ(S.Changepoints.size(), 1u) << "seed " << Seed;
    EXPECT_EQ(S.Changepoints[0], 25u) << "seed " << Seed;
    EXPECT_NEAR(S.Segments[0].Mean, 8.0, 0.15);
    EXPECT_NEAR(S.Segments[1].Mean, 3.0, 0.15);
  }
}

TEST(Changepoint, RecoversMultipleSteps) {
  // A three-level staircase down (the canonical warmup shape).
  std::vector<double> V =
      blockSeries({{12, 20.0}, {10, 8.0}, {18, 2.0}}, 0.15, 3);
  Segmentation S = detectChangepoints(V);
  ASSERT_EQ(S.Changepoints.size(), 2u);
  EXPECT_EQ(S.Changepoints[0], 12u);
  EXPECT_EQ(S.Changepoints[1], 22u);
}

TEST(Changepoint, RampApproximatedByMonotoneSegments) {
  // A gradual ramp down into a plateau.  The piecewise-constant model
  // approximates the ramp with a monotone staircase whose final segment
  // is the plateau -- what the classifier needs to call it warmup.
  std::vector<double> V;
  for (size_t I = 0; I < 15; ++I)
    V.push_back(20.0 - static_cast<double>(I));
  for (size_t I = 0; I < 25; ++I)
    V.push_back(5.0);
  Segmentation S = detectChangepoints(V);
  ASSERT_GE(S.Segments.size(), 2u);
  for (size_t I = 1; I < S.Segments.size(); ++I)
    EXPECT_LT(S.Segments[I].Mean, S.Segments[I - 1].Mean);
  EXPECT_DOUBLE_EQ(S.Segments.back().Mean, 5.0);
  EXPECT_LE(S.Segments.back().Begin, 15u);

  ClassifyParams P;
  P.MaskOutliers = false; // the plateau dominates: fences would clip the ramp
  Classification C = classifySeries(V, P);
  EXPECT_EQ(C.Class, WarmupClass::Warmup);
  EXPECT_LE(C.SteadyStart, 15u);
}

TEST(Changepoint, NoisyFlatSeriesIsOneSegment) {
  // Pure noise around one mean: the BIC penalty must suppress every
  // spurious split.
  std::vector<double> V = blockSeries({{60, 5.0}}, 0.3, 11);
  Segmentation S = detectChangepoints(V);
  EXPECT_TRUE(S.Changepoints.empty());
  ASSERT_EQ(S.Segments.size(), 1u);
  EXPECT_NEAR(S.Segments[0].Mean, 5.0, 0.15);
}

TEST(Changepoint, ConstantSeriesIsOneSegment) {
  std::vector<double> V(40, 3.25);
  Segmentation S = detectChangepoints(V);
  EXPECT_TRUE(S.Changepoints.empty());
  ASSERT_EQ(S.Segments.size(), 1u);
  EXPECT_DOUBLE_EQ(S.Segments[0].Mean, 3.25);
}

TEST(Changepoint, MinSegmentLengthBlocksShortSegments) {
  // A 2-point excursion cannot become its own segment: segments are at
  // least 3 points long.
  std::vector<double> V(30, 1.0);
  V[14] = 50.0;
  V[15] = 50.0;
  ChangepointParams P;
  P.Penalty = 1.0; // cheap splits: only the length floor protects us
  Segmentation S = detectChangepoints(V, P);
  for (const Segment &Seg : S.Segments)
    EXPECT_GE(Seg.length(), 3u);
}

TEST(Changepoint, EmptyAndTinySeries) {
  EXPECT_TRUE(detectChangepoints({}).Segments.empty());
  Segmentation S = detectChangepoints({1.0, 2.0, 3.0});
  EXPECT_TRUE(S.Changepoints.empty());
  ASSERT_EQ(S.Segments.size(), 1u);
  EXPECT_DOUBLE_EQ(S.Segments[0].Mean, 2.0);
}

TEST(Changepoint, SegmentsTileTheSeries) {
  std::vector<double> V =
      blockSeries({{10, 4.0}, {14, 9.0}, {12, 1.0}}, 0.2, 19);
  Segmentation S = detectChangepoints(V);
  ASSERT_FALSE(S.Segments.empty());
  EXPECT_EQ(S.Segments.front().Begin, 0u);
  EXPECT_EQ(S.Segments.back().End, V.size());
  for (size_t I = 1; I < S.Segments.size(); ++I)
    EXPECT_EQ(S.Segments[I].Begin, S.Segments[I - 1].End);
}

TEST(Changepoint, PeriodicOutliersMaskedAway) {
  // A GC-style spike every 10 iterations.  Unmasked, the detector
  // faithfully reports spike-level segments (~10x the base level);
  // winsorizing to the Tukey fences bounds every value -- and therefore
  // every segment mean -- to within a few IQRs of the quartiles, so no
  // segment strays more than ~10% from the true level.
  std::vector<double> V = blockSeries({{60, 4.0}}, 0.1, 23);
  for (size_t I = 9; I < V.size(); I += 10)
    V[I] = 40.0;

  Segmentation Raw = detectChangepoints(V);
  double RawWorst = 0;
  for (const Segment &S : Raw.Segments)
    RawWorst = std::max(RawWorst, S.Mean);
  EXPECT_GT(RawWorst, 8.0) << "unmasked spikes must surface as segments";

  std::vector<double> Masked = maskOutliers(V);
  for (double X : Masked)
    EXPECT_LT(X, 4.5);
  Segmentation S = detectChangepoints(Masked);
  for (const Segment &Seg : S.Segments)
    EXPECT_NEAR(Seg.Mean, 4.0, 0.4);
}

TEST(Changepoint, MaskingPreservesRealStep) {
  // Winsorizing must not erase a genuine level shift that covers a large
  // fraction of the series.
  std::vector<double> V = blockSeries({{30, 10.0}, {30, 2.0}}, 0.2, 29);
  Segmentation S = detectChangepoints(maskOutliers(V));
  ASSERT_EQ(S.Changepoints.size(), 1u);
  EXPECT_EQ(S.Changepoints[0], 30u);
}

TEST(Changepoint, RobustNoiseVarianceIgnoresLevelShifts) {
  // The successive-difference estimator must see the noise, not the step.
  std::vector<double> Flat = blockSeries({{40, 5.0}}, 0.3, 31);
  std::vector<double> Stepped = blockSeries({{20, 5.0}, {20, 50.0}}, 0.3, 31);
  double VarFlat = robustNoiseVariance(Flat);
  double VarStepped = robustNoiseVariance(Stepped);
  EXPECT_GT(VarFlat, 0.0);
  // One jump contributes one of n-1 differences: the median barely moves.
  EXPECT_LT(VarStepped, 4.0 * VarFlat);
  EXPECT_DOUBLE_EQ(robustNoiseVariance({}), 0.0);
  EXPECT_DOUBLE_EQ(robustNoiseVariance({1.0}), 0.0);
}

TEST(Changepoint, DeterministicAcrossCalls) {
  std::vector<double> V =
      blockSeries({{15, 6.0}, {25, 2.0}}, 0.25, 37);
  Segmentation A = detectChangepoints(V);
  Segmentation B = detectChangepoints(V);
  EXPECT_EQ(A.Changepoints, B.Changepoints);
  EXPECT_DOUBLE_EQ(A.Cost, B.Cost);
  EXPECT_DOUBLE_EQ(A.PenaltyUsed, B.PenaltyUsed);
}

//===----------------------------------------------------------------------===//
// Warmup classification
//===----------------------------------------------------------------------===//

TEST(WarmupClassify, TruthTable) {
  ClassifyParams P; // lower is better (latency-like)

  // Flat: noise around one mean from the start.
  Classification Flat =
      classifySeries(blockSeries({{40, 5.0}}, 0.1, 41), P);
  EXPECT_EQ(Flat.Class, WarmupClass::Flat);
  EXPECT_EQ(Flat.SteadyStart, 0u);

  // Warmup: starts slow, steps down to steady.
  Classification Warm = classifySeries(
      blockSeries({{10, 20.0}, {10, 8.0}, {20, 2.0}}, 0.1, 43), P);
  EXPECT_EQ(Warm.Class, WarmupClass::Warmup);
  EXPECT_EQ(Warm.SteadyStart, 20u);
  EXPECT_NEAR(Warm.SteadyMean, 2.0, 0.1);

  // Slowdown: starts fast, degrades into its final state.
  Classification Slow = classifySeries(
      blockSeries({{15, 2.0}, {25, 9.0}}, 0.1, 47), P);
  EXPECT_EQ(Slow.Class, WarmupClass::Slowdown);

  // Inconsistent: dips below steady, then rises above it.
  Classification Mixed = classifySeries(
      blockSeries({{12, 2.0}, {12, 20.0}, {16, 8.0}}, 0.1, 53), P);
  EXPECT_EQ(Mixed.Class, WarmupClass::Inconsistent);
}

TEST(WarmupClassify, ThroughputDirectionFlips) {
  // The same rising staircase is a warmup curve for throughput and a
  // slowdown for latency.
  std::vector<double> Rising =
      blockSeries({{10, 100.0}, {30, 400.0}}, 2.0, 59);
  ClassifyParams Latency;
  Latency.LowerIsBetter = true;
  ClassifyParams Throughput;
  Throughput.LowerIsBetter = false;
  EXPECT_EQ(classifySeries(Rising, Latency).Class, WarmupClass::Slowdown);
  EXPECT_EQ(classifySeries(Rising, Throughput).Class, WarmupClass::Warmup);
}

TEST(WarmupClassify, ShortFinalSegmentIsInconsistent) {
  // The run was still moving when it ended: the final segment covers
  // less than a tenth of the series, the floor for a steady state.
  std::vector<double> V = blockSeries({{36, 10.0}, {3, 2.0}}, 0, 61);
  ClassifyParams P;
  P.Changepoints.Penalty = 0.5;
  // Masking off: with 92% of the series at one value the Tukey fences
  // collapse (IQR = 0) and would clip away the very tail under test.
  P.MaskOutliers = false;
  EXPECT_EQ(classifySeries(V, P).Class, WarmupClass::Inconsistent);
}

TEST(WarmupClassify, NearSteadySegmentsExtendSteadyState) {
  // A segment within RelTolerance of steady counts as already steady, so
  // SteadyStart walks back past it.
  std::vector<double> V;
  for (size_t I = 0; I < 10; ++I)
    V.push_back(30.0);
  for (size_t I = 0; I < 10; ++I)
    V.push_back(10.05);
  for (size_t I = 0; I < 20; ++I)
    V.push_back(10.0);
  ClassifyParams P;
  P.Changepoints.Penalty = 0.1;
  Classification C = classifySeries(V, P);
  EXPECT_EQ(C.Class, WarmupClass::Warmup);
  EXPECT_EQ(C.SteadyStart, 10u);
}

TEST(WarmupClassify, PeriodicOutliersDoNotBreakFlat) {
  // With masking on (the default), GC-style spikes leave a flat run
  // flat: winsorizing bounds them to the Tukey fences, well inside the
  // equivalence tolerance.  Unmasked, the spikes dominate and the run
  // misclassifies.
  std::vector<double> V = blockSeries({{50, 5.0}}, 0.02, 67);
  for (size_t I = 7; I < V.size(); I += 10)
    V[I] = 60.0;
  EXPECT_EQ(classifySeries(V).Class, WarmupClass::Flat);
  ClassifyParams NoMask;
  NoMask.MaskOutliers = false;
  EXPECT_NE(classifySeries(V, NoMask).Class, WarmupClass::Flat);
}

TEST(WarmupClassify, EmptySeriesIsInconsistent) {
  EXPECT_EQ(classifySeries({}).Class, WarmupClass::Inconsistent);
}

TEST(WarmupClassify, ClassNamesAndRanks) {
  EXPECT_STREQ(warmupClassName(WarmupClass::Flat), "flat");
  EXPECT_STREQ(warmupClassName(WarmupClass::Warmup), "warmup");
  EXPECT_STREQ(warmupClassName(WarmupClass::Slowdown), "slowdown");
  EXPECT_STREQ(warmupClassName(WarmupClass::Inconsistent), "inconsistent");
  EXPECT_LT(warmupClassRank(WarmupClass::Flat),
            warmupClassRank(WarmupClass::Warmup));
  EXPECT_LT(warmupClassRank(WarmupClass::Warmup),
            warmupClassRank(WarmupClass::Slowdown));
  EXPECT_LT(warmupClassRank(WarmupClass::Slowdown),
            warmupClassRank(WarmupClass::Inconsistent));
}

TEST(WarmupClassify, ScalingInvarianceProperty) {
  // The reason the penalty is data-derived: classification is a property
  // of the curve's *shape*, so changing the metric's unit (seconds vs
  // milliseconds vs allocations) must not change the verdict.  40 seeds
  // of random block structure, each checked under three positive scales.
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    Rng R(1000 + Seed);
    std::vector<std::pair<size_t, double>> Blocks;
    size_t NumBlocks = 1 + R.nextBelow(3);
    for (size_t B = 0; B < NumBlocks; ++B)
      Blocks.push_back({8 + R.nextBelow(20), 1.0 + 9.0 * R.nextDouble()});
    std::vector<double> V = blockSeries(Blocks, 0.05, 2000 + Seed);

    Classification Base = classifySeries(V);
    for (double C : {0.5, 3.7, 1e3}) {
      Classification Scaled = classifySeries(scaled(V, C));
      EXPECT_EQ(Scaled.Class, Base.Class)
          << "seed " << Seed << " scale " << C;
      EXPECT_EQ(Scaled.SteadyStart, Base.SteadyStart)
          << "seed " << Seed << " scale " << C;
      EXPECT_EQ(Scaled.Seg.Changepoints, Base.Seg.Changepoints)
          << "seed " << Seed << " scale " << C;
    }
  }
}

//===----------------------------------------------------------------------===//
// Bootstrap confidence intervals
//===----------------------------------------------------------------------===//

TEST(Bootstrap, DeterministicForFixedSeed) {
  std::vector<double> V = blockSeries({{25, 7.0}}, 0.5, 71);
  ConfidenceInterval A = bootstrapMeanCI(V);
  ConfidenceInterval B = bootstrapMeanCI(V);
  EXPECT_DOUBLE_EQ(A.Lo, B.Lo);
  EXPECT_DOUBLE_EQ(A.Hi, B.Hi);
  EXPECT_DOUBLE_EQ(A.Mean, B.Mean);

  BootstrapParams P;
  P.Seed = 99;
  ConfidenceInterval C = bootstrapMeanCI(V, P);
  // A different seed resamples differently (the interval is still close,
  // but not bit-identical) -- the fixed default seed is what makes the
  // committed stats blocks reproducible.
  EXPECT_TRUE(C.Lo != A.Lo || C.Hi != A.Hi);
}

TEST(Bootstrap, IntervalBracketsTheMean) {
  std::vector<double> V = blockSeries({{30, 12.0}}, 1.0, 73);
  ConfidenceInterval CI = bootstrapMeanCI(V);
  EXPECT_LE(CI.Lo, CI.Mean);
  EXPECT_GE(CI.Hi, CI.Mean);
  EXPECT_NEAR(CI.Mean, 12.0, 0.5);
  EXPECT_GT(CI.Hi - CI.Lo, 0.0);
}

TEST(Bootstrap, DegenerateInputs) {
  ConfidenceInterval Empty = bootstrapMeanCI({});
  EXPECT_DOUBLE_EQ(Empty.Lo, 0.0);
  EXPECT_DOUBLE_EQ(Empty.Hi, 0.0);
  ConfidenceInterval Single = bootstrapMeanCI({4.5});
  EXPECT_DOUBLE_EQ(Single.Lo, 4.5);
  EXPECT_DOUBLE_EQ(Single.Hi, 4.5);
  ConfidenceInterval Constant = bootstrapMeanCI({2.0, 2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(Constant.Lo, 2.0);
  EXPECT_DOUBLE_EQ(Constant.Hi, 2.0);
}

TEST(Bootstrap, DisjointlyWorseGate) {
  ConfidenceInterval Committed{1.0, 2.0, 1.5};
  ConfidenceInterval Worse{2.5, 3.0, 2.75};
  ConfidenceInterval Overlapping{1.8, 2.6, 2.2};
  ConfidenceInterval Better{0.2, 0.6, 0.4};
  // Latency-like: larger is worse.
  EXPECT_TRUE(Worse.disjointlyWorseThan(Committed, /*LowerIsBetter=*/true));
  EXPECT_FALSE(
      Overlapping.disjointlyWorseThan(Committed, /*LowerIsBetter=*/true));
  EXPECT_FALSE(Better.disjointlyWorseThan(Committed, /*LowerIsBetter=*/true));
  // Throughput: smaller is worse.
  EXPECT_TRUE(Better.disjointlyWorseThan(Committed, /*LowerIsBetter=*/false));
  EXPECT_FALSE(Worse.disjointlyWorseThan(Committed, /*LowerIsBetter=*/false));
}

//===----------------------------------------------------------------------===//
// Multi-seed aggregation
//===----------------------------------------------------------------------===//

TEST(AnalyzeRuns, TallyAndWorstClass) {
  std::vector<std::pair<uint64_t, std::vector<double>>> Seeds;
  Seeds.push_back({0, blockSeries({{40, 5.0}}, 0.1, 81)});
  Seeds.push_back({1, blockSeries({{10, 20.0}, {30, 5.0}}, 0.1, 83)});
  Seeds.push_back({2, blockSeries({{40, 5.0}}, 0.1, 87)});
  StatsSummary S = analyzeRuns(Seeds);
  EXPECT_EQ(S.Tally[static_cast<size_t>(WarmupClass::Flat)], 2u);
  EXPECT_EQ(S.Tally[static_cast<size_t>(WarmupClass::Warmup)], 1u);
  EXPECT_EQ(S.WorstClass, WarmupClass::Warmup);
  ASSERT_EQ(S.Runs.size(), 3u);
  EXPECT_EQ(S.Runs[1].Seed, 1u);
  // Every steady mean is ~5, so the CI over them brackets 5.
  EXPECT_GT(S.SteadyCI.Lo, 4.5);
  EXPECT_LT(S.SteadyCI.Hi, 5.5);
}

TEST(AnalyzeRuns, ByteDeterministic) {
  std::vector<std::pair<uint64_t, std::vector<double>>> Seeds;
  for (uint64_t I = 0; I < 5; ++I)
    Seeds.push_back(
        {I, blockSeries({{12, 9.0}, {24, 3.0}}, 0.2, 91 + I)});
  StatsSummary A = analyzeRuns(Seeds);
  StatsSummary B = analyzeRuns(Seeds);
  EXPECT_EQ(A.WorstClass, B.WorstClass);
  EXPECT_DOUBLE_EQ(A.SteadyCI.Lo, B.SteadyCI.Lo);
  EXPECT_DOUBLE_EQ(A.SteadyCI.Hi, B.SteadyCI.Hi);
  EXPECT_DOUBLE_EQ(A.SteadyStartMean, B.SteadyStartMean);
  ASSERT_EQ(A.Runs.size(), B.Runs.size());
  for (size_t I = 0; I < A.Runs.size(); ++I) {
    EXPECT_EQ(A.Runs[I].C.Class, B.Runs[I].C.Class);
    EXPECT_EQ(A.Runs[I].C.SteadyStart, B.Runs[I].C.SteadyStart);
    EXPECT_DOUBLE_EQ(A.Runs[I].C.SteadyMean, B.Runs[I].C.SteadyMean);
  }
}
