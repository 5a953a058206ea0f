//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability context: one clock, one metrics registry, one tracer.
///
/// Components take an `Observability *` (null means "don't record") and
/// thread it downward; harnesses that want a shared sink for several
/// servers (the figure binaries, the fleet simulator) create one and pass
/// it everywhere.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_OBS_OBSERVABILITY_H
#define JUMPSTART_OBS_OBSERVABILITY_H

#include "obs/Clock.h"
#include "obs/MetricsRegistry.h"
#include "obs/Tracer.h"

namespace jumpstart::obs {

struct Observability {
  VirtualClock Clock;
  MetricsRegistry Metrics;
  Tracer Trace{Clock};
};

} // namespace jumpstart::obs

#endif // JUMPSTART_OBS_OBSERVABILITY_H
