//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact changepoint detection over per-iteration metric series.
///
/// The detector is the foundation of the repository's warmup-curve
/// analysis (following Barrett et al., "Virtual Machine Warmup Blows Hot
/// and Cold"): it segments a series of per-iteration measurements into
/// mean-stable pieces by exactly minimizing
///
///     sum over segments of SSE(segment)  +  Penalty * (#changepoints)
///
/// via the PELT dynamic program (Killick et al. 2012) with a minimum
/// segment length.  "Exact" matters for CI: the optimum is unique up to
/// deterministic tie-breaking (earliest split wins), the algorithm uses
/// no randomness, and the same series always yields the same
/// segmentation -- so the `stats` blocks in BENCH_*.json are
/// byte-reproducible and the tier-1 snapshot checks can demand them
/// verbatim.
///
/// The default penalty is data-derived (a BIC-style 2*sigma^2*log n with
/// sigma estimated robustly from successive differences), which makes the
/// segmentation equivariant under positive scaling of the metric: the
/// detected boundaries for c*y are those for y, for any c > 0.  The
/// classifier's property tests rely on this.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_STATS_CHANGEPOINT_H
#define JUMPSTART_STATS_CHANGEPOINT_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jumpstart::stats {

/// Detection knobs.
struct ChangepointParams {
  /// Cost charged per changepoint.  Negative (the default) derives a
  /// BIC-style penalty from the data itself: 2 * sigma^2 * log(n), with
  /// sigma^2 estimated from the median absolute successive difference
  /// (robust to the very level shifts being detected).  An explicit
  /// value is used as-is -- tests with known noise pass one.
  double Penalty = -1;
};

/// One mean-stable segment [Begin, End) of the input series.
struct Segment {
  size_t Begin = 0;
  size_t End = 0;
  double Mean = 0;

  size_t length() const { return End - Begin; }
};

/// An exact segmentation of a series.
struct Segmentation {
  /// Segment start indices, excluding 0: Changepoints[i] is the first
  /// index of segment i+1.  Empty means the series is one segment.
  std::vector<size_t> Changepoints;
  /// The segments in order; covers [0, n) exactly.  Empty only for an
  /// empty input series.
  std::vector<Segment> Segments;
  /// Total within-segment SSE of the optimal segmentation.
  double Cost = 0;
  /// The penalty actually charged per changepoint (data-derived when
  /// ChangepointParams::Penalty was negative).
  double PenaltyUsed = 0;
};

/// Robust noise-variance estimate for \p Values: the squared, scaled
/// median absolute successive difference.  Level shifts contribute only
/// a few of the n-1 differences, so the median sees mostly noise.
/// \returns 0 for series with fewer than 2 points or no noise.
double robustNoiseVariance(const std::vector<double> &Values);

/// Winsorizes \p Values to the Tukey fences [Q1 - K*IQR, Q3 + K*IQR]
/// computed over the whole series -- the outlier treatment Barrett et
/// al. apply before changepoint analysis, so that a periodic GC-style
/// spike is not mistaken for a level shift.  Quartiles are order
/// statistics, so the masking commutes with positive scaling.
std::vector<double> maskOutliers(const std::vector<double> &Values,
                                 double K = 3.0);

/// Exactly segments \p Values.  Deterministic: no RNG, and cost ties
/// break toward the earliest admissible split.
Segmentation detectChangepoints(const std::vector<double> &Values,
                                const ChangepointParams &P = {});

} // namespace jumpstart::stats

#endif // JUMPSTART_STATS_CHANGEPOINT_H
