//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staleness-under-drift sweep (paper section VI-B: "profile data
/// collected on one release is used to Jump-Start the next").
///
/// The sweep grows one seeder package on release 0 of the drifting
/// synthetic site, then for each package age A it:
///   1. generates release A (fleet::generateDriftedWorkload -- renames,
///      splits, additions, hotness rotation accumulate per release);
///   2. rebases the release-0 package onto release A by symbol name
///      (profile::rebasePackage), counting the mapping attrition;
///   3. publishes it through core::PackageManager -- the base release as
///      a full package, every later age as a delta against the previous
///      age's bytes -- and reconstructs it back, verifying the round
///      trip;
///   4. boots a consumer against the shelf (install must go through the
///      standard lint + fingerprint gate) and runs the warmup simulation
///      with and without the rebased package.
///
/// The per-age result quantifies how much Jump-Start benefit survives N
/// releases of code drift: the paper's answer ("substantial, and decays
/// gracefully") is the reproduction's acceptance target.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_CORE_DRIFTSWEEP_H
#define JUMPSTART_CORE_DRIFTSWEEP_H

#include "core/PackageManager.h"
#include "fleet/ServerSim.h"
#include "fleet/WarmupStats.h"
#include "fleet/WorkloadGen.h"
#include "profile/PackageRebase.h"
#include "support/Status.h"
#include "vm/Server.h"

#include <string>
#include <vector>

namespace jumpstart::core {

/// Drift-sweep knobs.  Defaults are sized for the committed
/// BENCH_package.json run; `package_lifecycle --quick` shrinks the site
/// and the age range.
struct DriftSweepParams {
  fleet::WorkloadParams Site;
  /// Ages to evaluate: 0 (fresh) .. MaxAge releases of drift.
  uint32_t MaxAge = 4;
  /// Requests the release-0 seeder serves before package extraction.
  uint32_t SeederRequests = 1200;
  /// Warmup-simulation window per (age, arm).
  double WarmupSeconds = 240;
  double OfferedRps = 340;
  uint64_t Seed = 12;
  vm::ServerConfig Config;
  obs::Observability *Obs = nullptr;
};

/// One age's measurement.
struct DriftAgePoint {
  /// Releases between profile collection and the code it boots.
  uint32_t Age = 0;
  /// Did the consumer accept the rebased package (lint + fingerprint)?
  bool ConsumerUsedJumpStart = false;
  uint32_t ConsumerAttempts = 0;
  /// Rebase attrition bookkeeping for this age.
  profile::RebaseStats Rebase;
  /// Functions profiled in the rebased package.
  size_t ProfiledFuncs = 0;
  /// Serialized size of the rebased package.
  size_t PackageBytes = 0;
  /// Wire bytes actually shipped: delta size for ages published as
  /// deltas, full size otherwise.
  size_t WireBytes = 0;
  /// Warmup capacity loss with / without the rebased package.
  double CapacityLossWith = 0;
  double CapacityLossWithout = 0;
  /// 1 - With/Without: the surviving Jump-Start benefit.
  double BenefitFraction = 0;
  /// Changepoint classification of the virtual-time normalized-RPS
  /// curves (fleet::classifyWarmupThroughput): the cold boot should
  /// read `warmup`, the Jump-Start boot `flat` -- or at least reach
  /// steady state earlier.
  stats::Classification ColdClass;
  stats::Classification WarmClass;
};

/// Sweep outcome.  Result is non-ok if any lifecycle step failed
/// (publish, reconstruct mismatch, rebase with zero surviving
/// functions); Points holds whatever ages completed.
struct DriftSweepResult {
  std::vector<DriftAgePoint> Points;
  support::Status Result = support::Status::okStatus();
  std::vector<std::string> Log;
};

/// Runs the sweep.
DriftSweepResult runDriftSweep(const DriftSweepParams &P);

} // namespace jumpstart::core

#endif // JUMPSTART_CORE_DRIFTSWEEP_H
