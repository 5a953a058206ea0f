//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "stats/Changepoint.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace jumpstart;
using namespace jumpstart::stats;

namespace {

/// Minimum points per segment.  Keeps single-sample outliers from
/// becoming their own segments.
constexpr size_t kMinSegmentLength = 3;

/// Linear-interpolated quantile of an already-sorted vector.
double sortedQuantile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] * (1 - Frac) + Sorted[Hi] * Frac;
}

} // namespace

double jumpstart::stats::robustNoiseVariance(
    const std::vector<double> &Values) {
  if (Values.size() < 2)
    return 0;
  std::vector<double> AbsDiffs;
  AbsDiffs.reserve(Values.size() - 1);
  for (size_t I = 1; I < Values.size(); ++I)
    AbsDiffs.push_back(std::fabs(Values[I] - Values[I - 1]));
  std::sort(AbsDiffs.begin(), AbsDiffs.end());
  double Mad = sortedQuantile(AbsDiffs, 0.5);
  // |X - Y| for independent N(0, sigma^2) has median
  // sigma * sqrt(2) * probit(0.75) = sigma * 0.9539; invert it.
  double Sigma = Mad / 0.9539;
  return Sigma * Sigma;
}

std::vector<double>
jumpstart::stats::maskOutliers(const std::vector<double> &Values, double K) {
  if (Values.size() < 4)
    return Values;
  std::vector<double> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  double Q1 = sortedQuantile(Sorted, 0.25);
  double Q3 = sortedQuantile(Sorted, 0.75);
  double Iqr = Q3 - Q1;
  double Lo = Q1 - K * Iqr;
  double Hi = Q3 + K * Iqr;
  std::vector<double> Masked = Values;
  for (double &V : Masked)
    V = std::min(std::max(V, Lo), Hi);
  return Masked;
}

Segmentation jumpstart::stats::detectChangepoints(
    const std::vector<double> &Values, const ChangepointParams &P) {
  Segmentation Result;
  const size_t N = Values.size();

  // Prefix sums for O(1) segment SSE: SSE[a, b) = S2 - S1^2 / n.
  std::vector<double> Sum1(N + 1, 0), Sum2(N + 1, 0);
  for (size_t I = 0; I < N; ++I) {
    Sum1[I + 1] = Sum1[I] + Values[I];
    Sum2[I + 1] = Sum2[I] + Values[I] * Values[I];
  }
  auto SegCost = [&](size_t A, size_t B) {
    double S1 = Sum1[B] - Sum1[A];
    double S2 = Sum2[B] - Sum2[A];
    double Len = static_cast<double>(B - A);
    // Clamp tiny negative residue from cancellation.
    return std::max(0.0, S2 - S1 * S1 / Len);
  };
  auto SegMean = [&](size_t A, size_t B) {
    return (Sum1[B] - Sum1[A]) / static_cast<double>(B - A);
  };

  double Penalty = P.Penalty;
  if (Penalty < 0) {
    double Var = robustNoiseVariance(Values);
    if (Var <= 0) {
      // Noise-free series: any positive penalty below the smallest real
      // level shift's SSE works; derive one from the value spread so the
      // detector stays scale-equivariant (and pure steps are still
      // split, since a missed step costs O(n * shift^2)).
      double MinV = N ? *std::min_element(Values.begin(), Values.end()) : 0;
      double MaxV = N ? *std::max_element(Values.begin(), Values.end()) : 0;
      double Spread = MaxV - MinV;
      Penalty = Spread > 0 ? 1e-4 * Spread * Spread : 1.0;
    } else {
      Penalty = 2.0 * Var * std::log(std::max<double>(2.0, N));
    }
  }
  Result.PenaltyUsed = Penalty;

  if (N == 0)
    return Result;
  if (N < 2 * kMinSegmentLength) {
    Result.Segments.push_back({0, N, SegMean(0, N)});
    Result.Cost = SegCost(0, N);
    return Result;
  }

  // PELT: F[t] = optimal cost of Values[0, t) (penalty charged per
  // changepoint, i.e. per segment after the first); Prev[t] = the start
  // of the last segment in that optimum.  Candidate pruning keeps the
  // scan near-linear; with SSE cost, a candidate whose partial cost
  // already exceeds F[t] can never win again (K = 0).
  constexpr double Inf = std::numeric_limits<double>::infinity();
  std::vector<double> F(N + 1, Inf);
  std::vector<size_t> Prev(N + 1, 0);
  F[0] = -Penalty;
  std::vector<size_t> Candidates{0};
  std::vector<size_t> Keep;

  for (size_t T = kMinSegmentLength; T <= N; ++T) {
    double Best = Inf;
    size_t BestS = 0;
    for (size_t S : Candidates) {
      if (T - S < kMinSegmentLength)
        continue;
      double Cost = F[S] + SegCost(S, T) + Penalty;
      // Strict < keeps the earliest admissible split on exact ties.
      if (Cost < Best) {
        Best = Cost;
        BestS = S;
      }
    }
    F[T] = Best;
    Prev[T] = BestS;

    Keep.clear();
    for (size_t S : Candidates)
      // Not-yet-admissible candidates must survive pruning: their cost
      // term is not defined at T.
      if (T - S < kMinSegmentLength || F[S] + SegCost(S, T) <= F[T])
        Keep.push_back(S);
    Candidates.swap(Keep);
    // T becomes a candidate last segment start for future T'.
    Candidates.push_back(T);
  }

  // Backtrack the optimal segment starts.
  std::vector<size_t> Starts;
  for (size_t T = N; T > 0; T = Prev[T])
    Starts.push_back(Prev[T]);
  std::reverse(Starts.begin(), Starts.end());

  for (size_t I = 0; I < Starts.size(); ++I) {
    size_t Begin = Starts[I];
    size_t End = I + 1 < Starts.size() ? Starts[I + 1] : N;
    Result.Segments.push_back({Begin, End, SegMean(Begin, End)});
    Result.Cost += SegCost(Begin, End);
    if (Begin != 0)
      Result.Changepoints.push_back(Begin);
  }
  return Result;
}
