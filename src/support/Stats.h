//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A time-series recorder for the performance-over-uptime curves the
/// simulators and benchmark harnesses produce (Figures 1, 2 and 4).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SUPPORT_STATS_H
#define JUMPSTART_SUPPORT_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace jumpstart {

/// One point of a metric-over-time curve.
struct TimePoint {
  double TimeSec;
  double Value;
};

/// Records a metric sampled against a virtual clock and renders it as the
/// rows of a figure (time, value).  Also integrates the area under / above
/// the curve, which is how the paper defines served capacity and capacity
/// loss (Figure 2).
class TimeSeries {
public:
  explicit TimeSeries(std::string Name) : Name(std::move(Name)) {}

  void record(double TimeSec, double Value);

  const std::string &name() const { return Name; }
  const std::vector<TimePoint> &points() const { return Points; }
  bool empty() const { return Points.empty(); }

  /// Trapezoidal integral of the curve between \p FromSec and \p ToSec.
  /// The curve is treated as piecewise-linear between recorded points and
  /// flat beyond the last point.
  double integrate(double FromSec, double ToSec) const;

  /// Area between the horizontal line \p Ceiling and the curve over
  /// [FromSec, ToSec]: the paper's "capacity loss" when the curve is
  /// normalized RPS and Ceiling is 1.0.
  double areaAbove(double Ceiling, double FromSec, double ToSec) const;

  /// Linear interpolation of the curve value at \p TimeSec.
  double valueAt(double TimeSec) const;

  /// Downsamples to at most \p MaxPoints evenly spaced points (for
  /// printing figure rows without flooding the terminal).
  std::vector<TimePoint> resample(size_t MaxPoints) const;

  /// The recorded values in recording order, timestamps dropped: the
  /// per-iteration vector the stats/ changepoint analyses consume.
  std::vector<double> values() const;

private:
  std::string Name;
  std::vector<TimePoint> Points;
};

} // namespace jumpstart

#endif // JUMPSTART_SUPPORT_STATS_H
