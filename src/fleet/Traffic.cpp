//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "fleet/Traffic.h"

#include "support/Assert.h"

using namespace jumpstart;
using namespace jumpstart::fleet;

namespace {
/// Regions the model serves.
constexpr uint32_t kNumRegions = 3;
/// Zipf exponent of the endpoint mix within a partition; regions skew
/// this differently.
constexpr double kBaseSkew = 0.7;
} // namespace

TrafficModel::TrafficModel(const Workload &W, TrafficParams P, uint64_t Seed)
    : W(W), P(P) {
  // Group endpoints by partition.
  std::vector<std::vector<uint32_t>> ByPartition(W.NumPartitions);
  for (uint32_t E = 0; E < W.Endpoints.size(); ++E)
    ByPartition[W.EndpointPartition[E]].push_back(E);
  for (const auto &Part : ByPartition)
    alwaysAssert(!Part.empty(), "a semantic partition has no endpoints");

  // Per region: shuffle each partition's endpoints so the Zipf head lands
  // on different endpoints in different regions ("the web traffic driven
  // to each region varies greatly").
  Rng R(Seed);
  RegionMix.resize(kNumRegions);
  for (uint32_t Region = 0; Region < kNumRegions; ++Region) {
    RegionMix[Region] = ByPartition;
    for (auto &Part : RegionMix[Region])
      R.shuffle(Part);
  }
}

uint32_t TrafficModel::sampleEndpoint(uint32_t Region, uint32_t Bucket,
                                      Rng &R) const {
  assert(Region < kNumRegions && "region out of range");
  assert(Bucket < W.NumPartitions && "bucket out of range");
  uint32_t Partition = Bucket;
  if (!R.nextBool(P.BucketAffinity)) {
    // Spillover: a request for some other partition landed here.
    Partition = static_cast<uint32_t>(R.nextBelow(W.NumPartitions));
  }
  const std::vector<uint32_t> &Mix = RegionMix[Region][Partition];
  ZipfDistribution Dist(Mix.size(), kBaseSkew);
  return Mix[Dist.sample(R)];
}
