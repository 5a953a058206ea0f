//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Traffic modelling: per-(region, semantic-bucket) request mixes and the
/// semantic-routing load balancer (paper section II-C).
///
/// Endpoints are partitioned into a fixed number of semantic partitions;
/// web servers are partitioned into matching buckets; the load balancer
/// preferentially routes an endpoint's requests to servers of its bucket,
/// spilling over only under imbalance.  Within one (region, bucket) pair
/// the mix is homogeneous -- the property that makes profile sharing
/// across that pair's servers sound.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_FLEET_TRAFFIC_H
#define JUMPSTART_FLEET_TRAFFIC_H

#include "fleet/WorkloadGen.h"
#include "runtime/Value.h"
#include "support/Random.h"

#include <vector>

namespace jumpstart::fleet {

/// Traffic knobs.
struct TrafficParams {
  uint32_t NumRegions = 3;
  /// Fraction of a bucket's requests that hit its own partition's
  /// endpoints (the remainder is spillover routed from overloaded
  /// buckets).
  double BucketAffinity = 0.9;
  /// Zipf exponent of the endpoint mix within a partition; regions skew
  /// this differently.
  double BaseSkew = 0.7;
};

/// Samples endpoints for one (region, bucket).
class TrafficModel {
public:
  TrafficModel(const Workload &W, TrafficParams P, uint64_t Seed);

  /// Samples an endpoint id for a request arriving at a server of
  /// (\p Region, \p Bucket).
  uint32_t sampleEndpoint(uint32_t Region, uint32_t Bucket, Rng &R) const;

  /// Builds the argument vector for a request (a request id the endpoint
  /// code branches on).
  static std::vector<runtime::Value> makeArgs(Rng &R) {
    return {runtime::Value::integer(
        static_cast<int64_t>(R.nextBelow(1u << 20)))};
  }

private:
  const Workload &W;
  TrafficParams P;
  /// Per-region, per-partition endpoint permutation (regions have
  /// different hot endpoints within the same partition).
  std::vector<std::vector<std::vector<uint32_t>>> RegionMix;
};

} // namespace jumpstart::fleet

#endif // JUMPSTART_FLEET_TRAFFIC_H
