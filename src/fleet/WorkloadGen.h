//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthetic-website generator: the reproduction's stand-in for the
/// Facebook website workload (see DESIGN.md substitution table).
///
/// The generator emits mini-Hack *source code* -- many units, a long tail
/// of helper functions with a very flat hotness profile, class hierarchies
/// with virtual dispatch, and endpoint functions partitioned into semantic
/// buckets -- then compiles it through the offline compiler into a
/// bytecode repo, exactly as production deployment would.
///
/// Properties engineered to match the paper's workload description
/// (section II-B/II-C):
///  - flat profile: no function dominates; a long tail executes;
///  - per-(region, bucket) endpoint mixes differ, but within a pair the
///    traffic is homogeneous;
///  - type polymorphism: some helpers receive different argument types
///    from different endpoints, so type specialization and its guards
///    matter;
///  - data-dependent branching: request ids steer conditions, so block
///    and call-target profiles carry real information.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_FLEET_WORKLOADGEN_H
#define JUMPSTART_FLEET_WORKLOADGEN_H

#include "bytecode/Repo.h"
#include "support/Random.h"

#include <memory>
#include <string>
#include <vector>

namespace jumpstart::fleet {

/// Generator knobs.  Defaults produce a site big enough to exhibit the
/// paper's warmup phenomenology while keeping simulations fast.
struct WorkloadParams {
  uint64_t Seed = 2021;
  uint32_t NumUnits = 60;
  uint32_t NumEndpoints = 48;
  uint32_t NumHelpers = 900;
  uint32_t NumClasses = 90;
  /// Semantic partitions (the paper's load balancers use 10).
  uint32_t NumPartitions = 10;
};

/// Code-drift knobs: how the synthetic site mutates across releases
/// (ROADMAP item 4, "staleness under drift").  Release 0 is byte-for-byte
/// the undrifted site; each later release cumulatively renames endpoints
/// (same body, new name -- profile anchors break by name), splits
/// endpoints (half the helper calls move into a new tail function --
/// function bodies shrink and block structures change), adds brand-new
/// endpoints (never profiled), and rotates which helper slice each
/// partition hammers (hotness shift).  The per-release counts are
/// constants in WorkloadGen.cpp.  The drift plan draws from its own RNG,
/// so the surviving code of release N is textually identical to release
/// 0 -- exactly the "mostly the same site" a real weekly push produces.
struct DriftParams {
  /// Releases of drift to apply (0 = pristine site).
  uint32_t Release = 0;
  uint64_t DriftSeed = 77;
};

/// The generated application.
struct Workload {
  bc::Repo Repo;
  /// Endpoint functions, index = endpoint id.
  std::vector<bc::FuncId> Endpoints;
  /// Endpoint function names, index = endpoint id (drift can rename
  /// them, so "endpoint_<id>" is not always the name).
  std::vector<std::string> EndpointNames;
  /// Semantic partition of each endpoint.
  std::vector<uint32_t> EndpointPartition;
  uint32_t NumPartitions = 0;
  /// The generated source (kept for the examples and debugging).
  std::vector<std::pair<std::string, std::string>> Sources;
};

/// Generates and compiles a workload.  Aborts (alwaysAssert) on generator
/// bugs -- generated code must always compile and verify.
std::unique_ptr<Workload> generateWorkload(const WorkloadParams &P);

/// Generates release \p D.Release of the drifting site.  With
/// D.Release == 0 the result is byte-identical to generateWorkload(P).
std::unique_ptr<Workload> generateDriftedWorkload(const WorkloadParams &P,
                                                  const DriftParams &D);

} // namespace jumpstart::fleet

#endif // JUMPSTART_FLEET_WORKLOADGEN_H
