//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include "support/Assert.h"

#include <algorithm>
#include <cmath>

using namespace jumpstart;

void TimeSeries::record(double TimeSec, double Value) {
  assert((Points.empty() || TimeSec >= Points.back().TimeSec) &&
         "time series must be recorded in nondecreasing time order");
  Points.push_back({TimeSec, Value});
}

double TimeSeries::valueAt(double TimeSec) const {
  if (Points.empty())
    return 0;
  if (TimeSec <= Points.front().TimeSec)
    return Points.front().Value;
  if (TimeSec >= Points.back().TimeSec)
    return Points.back().Value;
  // Binary search for the segment containing TimeSec.
  auto It = std::lower_bound(
      Points.begin(), Points.end(), TimeSec,
      [](const TimePoint &Pt, double T) { return Pt.TimeSec < T; });
  const TimePoint &Hi = *It;
  const TimePoint &Lo = *(It - 1);
  double Span = Hi.TimeSec - Lo.TimeSec;
  if (Span <= 0)
    return Hi.Value;
  double Frac = (TimeSec - Lo.TimeSec) / Span;
  return Lo.Value * (1 - Frac) + Hi.Value * Frac;
}

double TimeSeries::integrate(double FromSec, double ToSec) const {
  if (Points.empty() || ToSec <= FromSec)
    return 0;
  double Area = 0;
  double PrevT = FromSec;
  double PrevV = valueAt(FromSec);
  for (const TimePoint &Pt : Points) {
    if (Pt.TimeSec <= FromSec)
      continue;
    double T = std::min(Pt.TimeSec, ToSec);
    double V = valueAt(T);
    Area += 0.5 * (PrevV + V) * (T - PrevT);
    PrevT = T;
    PrevV = V;
    if (Pt.TimeSec >= ToSec)
      break;
  }
  if (PrevT < ToSec)
    Area += valueAt(ToSec) * (ToSec - PrevT);
  return Area;
}

double TimeSeries::areaAbove(double Ceiling, double FromSec,
                             double ToSec) const {
  double Full = Ceiling * (ToSec - FromSec);
  return Full - integrate(FromSec, ToSec);
}

std::vector<TimePoint> TimeSeries::resample(size_t MaxPoints) const {
  if (Points.size() <= MaxPoints || MaxPoints < 2)
    return Points;
  std::vector<TimePoint> Result;
  Result.reserve(MaxPoints);
  double T0 = Points.front().TimeSec;
  double T1 = Points.back().TimeSec;
  for (size_t I = 0; I < MaxPoints; ++I) {
    double T = T0 + (T1 - T0) * static_cast<double>(I) /
                        static_cast<double>(MaxPoints - 1);
    Result.push_back({T, valueAt(T)});
  }
  return Result;
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> Result;
  Result.reserve(Points.size());
  for (const TimePoint &P : Points)
    Result.push_back(P.Value);
  return Result;
}
