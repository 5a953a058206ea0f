//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic pseudo-random number generation.
///
/// All stochastic components of the simulators (workload generation, request
/// arrival, package selection) draw from these generators so that every
/// experiment in the repository is exactly reproducible from a seed.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SUPPORT_RANDOM_H
#define JUMPSTART_SUPPORT_RANDOM_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace jumpstart {

/// SplitMix64: a tiny, high-quality 64-bit generator.  Used both directly
/// and to seed Xoshiro256**.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

private:
  uint64_t State;
};

/// Xoshiro256**: the repository-wide deterministic RNG.
///
/// Provides uniform integers, doubles in [0, 1), and a handful of
/// distributions the simulators need (exponential inter-arrival times and
/// Zipf-like hotness with a configurable flatness, matching the paper's
/// description of the Facebook website's "very flat execution profile").
class Rng {
public:
  explicit Rng(uint64_t Seed);

  /// \returns the next raw 64-bit value.
  uint64_t next();

  /// \returns a uniform integer in [0, Bound).  \p Bound must be > 0.
  uint64_t nextBelow(uint64_t Bound);

  /// \returns a uniform integer in [Lo, Hi] inclusive.
  int64_t nextInRange(int64_t Lo, int64_t Hi);

  /// \returns a uniform double in [0, 1).
  double nextDouble();

  /// \returns true with probability \p P.
  bool nextBool(double P);

  /// Fisher-Yates shuffles \p Values in place.
  template <typename T> void shuffle(std::vector<T> &Values) {
    for (size_t I = Values.size(); I > 1; --I) {
      size_t J = nextBelow(I);
      std::swap(Values[I - 1], Values[J]);
    }
  }

private:
  uint64_t State[4];
};

/// A discrete distribution over N items with Zipf(s) weights.  Small \p S
/// produces the flat, long-tailed profile described in the paper; larger
/// \p S concentrates probability on the head.
///
/// Sampling is O(log N) via binary search of the cumulative weights.
class ZipfDistribution {
public:
  ZipfDistribution(size_t N, double S);

  /// \returns an index in [0, size()).
  size_t sample(Rng &R) const;

  /// \returns the probability mass of item \p I.
  double probability(size_t I) const;

  size_t size() const { return Cdf.size(); }

private:
  std::vector<double> Cdf;
};

} // namespace jumpstart

#endif // JUMPSTART_SUPPORT_RANDOM_H
