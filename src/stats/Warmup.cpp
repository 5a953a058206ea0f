//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "stats/Warmup.h"

#include "support/Random.h"

#include <algorithm>
#include <cmath>

using namespace jumpstart;
using namespace jumpstart::stats;

namespace {
/// The final segment must cover at least this fraction of iterations to
/// count as a steady state; otherwise the run is inconsistent.
constexpr double kMinSteadyFraction = 0.1;
/// Bootstrap resamples per interval, and the interval's coverage.
constexpr uint32_t kBootstrapResamples = 1000;
constexpr double kBootstrapConfidence = 0.95;
} // namespace

const char *jumpstart::stats::warmupClassName(WarmupClass C) {
  switch (C) {
  case WarmupClass::Flat:
    return "flat";
  case WarmupClass::Warmup:
    return "warmup";
  case WarmupClass::Slowdown:
    return "slowdown";
  case WarmupClass::Inconsistent:
    return "inconsistent";
  }
  return "inconsistent";
}

Classification jumpstart::stats::classifySeries(
    const std::vector<double> &Values, const ClassifyParams &P) {
  Classification R;
  if (Values.empty())
    return R; // inconsistent: nothing to call steady

  const std::vector<double> Series =
      P.MaskOutliers ? maskOutliers(Values) : Values;
  R.Seg = detectChangepoints(Series, P.Changepoints);
  const std::vector<Segment> &Segs = R.Seg.Segments;

  const Segment &Steady = Segs.back();
  R.SteadyMean = Steady.Mean;
  R.SteadyStart = Steady.Begin;

  // No steady state at all: the run was still moving when it ended.
  size_t MinSteadyLen = static_cast<size_t>(
      std::ceil(kMinSteadyFraction * static_cast<double>(Series.size())));
  if (Steady.length() < std::max<size_t>(1, MinSteadyLen)) {
    R.Class = WarmupClass::Inconsistent;
    return R;
  }

  auto Equivalent = [&](double Mean) {
    double Scale = std::max(std::fabs(Mean), std::fabs(R.SteadyMean));
    return std::fabs(Mean - R.SteadyMean) <= P.RelTolerance * Scale;
  };
  // Worse = larger for latency-like metrics, smaller for throughput.
  auto Worse = [&](double Mean) {
    return P.LowerIsBetter ? Mean > R.SteadyMean : Mean < R.SteadyMean;
  };

  bool AnyWorse = false, AnyBetter = false;
  for (size_t I = 0; I + 1 < Segs.size(); ++I) {
    if (Equivalent(Segs[I].Mean))
      continue;
    (Worse(Segs[I].Mean) ? AnyWorse : AnyBetter) = true;
  }

  if (!AnyWorse && !AnyBetter)
    R.Class = WarmupClass::Flat;
  else if (AnyWorse && !AnyBetter)
    R.Class = WarmupClass::Warmup;
  else if (!AnyWorse && AnyBetter)
    R.Class = WarmupClass::Slowdown;
  else
    R.Class = WarmupClass::Inconsistent;

  // Steady state begins at the earliest segment from which every later
  // segment already sits at the steady mean (Barrett et al.'s "time to
  // reach steady state").
  if (R.Class == WarmupClass::Flat) {
    R.SteadyStart = 0;
  } else if (R.Class != WarmupClass::Inconsistent) {
    size_t Start = Steady.Begin;
    for (size_t I = Segs.size(); I-- > 0;) {
      if (!Equivalent(Segs[I].Mean))
        break;
      Start = Segs[I].Begin;
    }
    R.SteadyStart = Start;
  }
  return R;
}

ConfidenceInterval jumpstart::stats::bootstrapMeanCI(
    const std::vector<double> &Values, const BootstrapParams &P) {
  ConfidenceInterval CI;
  if (Values.empty())
    return CI;
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  CI.Mean = Sum / static_cast<double>(Values.size());
  if (Values.size() == 1) {
    CI.Lo = CI.Hi = CI.Mean;
    return CI;
  }

  Rng R(P.Seed);
  std::vector<double> Means;
  Means.reserve(kBootstrapResamples);
  for (uint32_t B = 0; B < kBootstrapResamples; ++B) {
    double S = 0;
    for (size_t I = 0; I < Values.size(); ++I)
      S += Values[R.nextBelow(Values.size())];
    Means.push_back(S / static_cast<double>(Values.size()));
  }
  std::sort(Means.begin(), Means.end());
  double Alpha = (1.0 - kBootstrapConfidence) / 2.0;
  auto At = [&](double Q) {
    double Pos = Q * static_cast<double>(Means.size() - 1);
    size_t Lo = static_cast<size_t>(Pos);
    size_t Hi = std::min(Lo + 1, Means.size() - 1);
    double Frac = Pos - static_cast<double>(Lo);
    return Means[Lo] * (1 - Frac) + Means[Hi] * Frac;
  };
  CI.Lo = At(Alpha);
  CI.Hi = At(1.0 - Alpha);
  return CI;
}

StatsSummary jumpstart::stats::analyzeRuns(
    const std::vector<std::pair<uint64_t, std::vector<double>>> &SeedSeries,
    const ClassifyParams &CP, const BootstrapParams &BP) {
  StatsSummary S;
  std::vector<double> SteadyMeans;
  double StartSum = 0;
  for (const auto &[Seed, Series] : SeedSeries) {
    RunAnalysis Run;
    Run.Seed = Seed;
    Run.C = classifySeries(Series, CP);
    ++S.Tally[static_cast<size_t>(Run.C.Class)];
    if (warmupClassRank(Run.C.Class) > warmupClassRank(S.WorstClass))
      S.WorstClass = Run.C.Class;
    SteadyMeans.push_back(Run.C.SteadyMean);
    StartSum += static_cast<double>(Run.C.SteadyStart);
    S.Runs.push_back(std::move(Run));
  }
  if (!S.Runs.empty())
    S.SteadyStartMean = StartSum / static_cast<double>(S.Runs.size());
  S.SteadyCI = bootstrapMeanCI(SteadyMeans, BP);
  return S;
}
