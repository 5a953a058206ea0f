//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "support/Random.h"

#include "support/Assert.h"

#include <algorithm>
#include <cmath>

using namespace jumpstart;

static uint64_t rotl(uint64_t X, int K) {
  return (X << K) | (X >> (64 - K));
}

Rng::Rng(uint64_t Seed) {
  SplitMix64 Seeder(Seed);
  for (uint64_t &S : State)
    S = Seeder.next();
}

uint64_t Rng::next() {
  uint64_t Result = rotl(State[1] * 5, 7) * 9;
  uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

uint64_t Rng::nextBelow(uint64_t Bound) {
  assert(Bound > 0 && "nextBelow() requires a positive bound");
  // Rejection sampling to avoid modulo bias.
  uint64_t Threshold = -Bound % Bound;
  for (;;) {
    uint64_t R = next();
    if (R >= Threshold)
      return R % Bound;
  }
}

int64_t Rng::nextInRange(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "nextInRange() requires Lo <= Hi");
  return Lo + static_cast<int64_t>(
                  nextBelow(static_cast<uint64_t>(Hi - Lo) + 1));
}

double Rng::nextDouble() {
  // 53 bits of randomness mapped to [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::nextBool(double P) { return nextDouble() < P; }

ZipfDistribution::ZipfDistribution(size_t N, double S) {
  alwaysAssert(N > 0, "ZipfDistribution requires at least one item");
  Cdf.resize(N);
  double Sum = 0;
  for (size_t I = 0; I < N; ++I) {
    Sum += 1.0 / std::pow(static_cast<double>(I + 1), S);
    Cdf[I] = Sum;
  }
  for (double &C : Cdf)
    C /= Sum;
  // Force exact closure so sample() can never fall off the end.
  Cdf.back() = 1.0;
}

size_t ZipfDistribution::sample(Rng &R) const {
  double U = R.nextDouble();
  auto It = std::lower_bound(Cdf.begin(), Cdf.end(), U);
  if (It == Cdf.end())
    return Cdf.size() - 1;
  return static_cast<size_t>(It - Cdf.begin());
}

double ZipfDistribution::probability(size_t I) const {
  assert(I < Cdf.size() && "probability() index out of range");
  if (I == 0)
    return Cdf[0];
  return Cdf[I] - Cdf[I - 1];
}
