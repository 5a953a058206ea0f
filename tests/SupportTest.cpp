//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the support library: RNG, blob serde, time series.
///
//===----------------------------------------------------------------------===//

#include "support/Blob.h"
#include "support/Hashing.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace jumpstart;

TEST(Rng, DeterministicFromSeed) {
  Rng A(42);
  Rng B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1);
  Rng B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 3);
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 10ull, 1000ull}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(7);
  std::set<int64_t> Seen;
  for (int I = 0; I < 500; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u) << "all values in a small range should appear";
}

TEST(Rng, DoublesInUnitInterval) {
  Rng R(99);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, ShuffleKeepsAllElements) {
  Rng R(3);
  std::vector<int> V{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::multiset<int> A(V.begin(), V.end());
  std::multiset<int> B(Orig.begin(), Orig.end());
  EXPECT_EQ(A, B);
}

TEST(Zipf, ProbabilitiesSumToOne) {
  ZipfDistribution Z(100, 0.8);
  double Sum = 0;
  for (size_t I = 0; I < Z.size(); ++I)
    Sum += Z.probability(I);
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

TEST(Zipf, HeadIsHotterThanTail) {
  ZipfDistribution Z(1000, 1.0);
  EXPECT_GT(Z.probability(0), Z.probability(999) * 10);
}

TEST(Zipf, FlatParameterFlattens) {
  ZipfDistribution Flat(100, 0.1);
  ZipfDistribution Skewed(100, 1.5);
  double FlatRatio = Flat.probability(0) / Flat.probability(99);
  double SkewRatio = Skewed.probability(0) / Skewed.probability(99);
  EXPECT_LT(FlatRatio, SkewRatio);
}

TEST(Zipf, SamplesCoverSupport) {
  Rng R(11);
  ZipfDistribution Z(10, 0.5);
  std::set<size_t> Seen;
  for (int I = 0; I < 5000; ++I)
    Seen.insert(Z.sample(R));
  EXPECT_EQ(Seen.size(), 10u);
}

TEST(Blob, VarintRoundTrip) {
  BlobEncoder E;
  std::vector<uint64_t> Values{0, 1, 127, 128, 300, 1ull << 20, 1ull << 40,
                               ~0ull};
  for (uint64_t V : Values)
    E.writeVarint(V);
  BlobDecoder D(E.bytes());
  for (uint64_t V : Values)
    EXPECT_EQ(D.readVarint(), V);
  EXPECT_TRUE(D.atEnd());
}

TEST(Blob, SignedVarintRoundTrip) {
  BlobEncoder E;
  std::vector<int64_t> Values{0, 1, -1, 63, -64, 1000, -1000,
                              INT64_MAX, INT64_MIN};
  for (int64_t V : Values)
    E.writeSignedVarint(V);
  BlobDecoder D(E.bytes());
  for (int64_t V : Values)
    EXPECT_EQ(D.readSignedVarint(), V);
  EXPECT_TRUE(D.atEnd());
}

TEST(Blob, StringAndDoubleRoundTrip) {
  BlobEncoder E;
  E.writeString("hello");
  E.writeString("");
  E.writeString(std::string("with\0nul", 8));
  E.writeDouble(3.14159);
  E.writeDouble(-0.0);
  BlobDecoder D(E.bytes());
  EXPECT_EQ(D.readString(), "hello");
  EXPECT_EQ(D.readString(), "");
  EXPECT_EQ(D.readString(), std::string("with\0nul", 8));
  EXPECT_DOUBLE_EQ(D.readDouble(), 3.14159);
  EXPECT_DOUBLE_EQ(D.readDouble(), -0.0);
  EXPECT_TRUE(D.atEnd());
}

TEST(Blob, VectorAndMapRoundTrip) {
  BlobEncoder E;
  std::vector<uint64_t> U{5, 10, 15};
  E.writeU64Vector(U);
  std::unordered_map<std::string, uint64_t> M{{"a", 1}, {"b", 2}};
  E.writeStringU64Map(M);
  BlobDecoder D(E.bytes());
  EXPECT_EQ(D.readU64Vector(), U);
  EXPECT_EQ(D.readStringU64Map(), M);
  EXPECT_TRUE(D.atEnd());
}

TEST(Blob, TruncatedInputSetsError) {
  BlobEncoder E;
  E.writeString("a fairly long string that will be cut off");
  std::vector<uint8_t> Bytes = E.bytes();
  Bytes.resize(Bytes.size() / 2);
  BlobDecoder D(Bytes);
  (void)D.readString();
  EXPECT_FALSE(D.ok());
}

TEST(Blob, HostileLengthPrefixRejected) {
  BlobEncoder E;
  E.writeVarint(~0ull); // claims ~2^64 elements
  BlobDecoder D(E.bytes());
  std::vector<uint64_t> V = D.readU64Vector();
  EXPECT_FALSE(D.ok());
  EXPECT_TRUE(V.empty());
}

TEST(Blob, ReadPastEndSetsErrorNotCrash) {
  BlobDecoder D(nullptr, 0);
  EXPECT_EQ(D.readVarint(), 0u);
  EXPECT_EQ(D.readByte(), 0u);
  EXPECT_EQ(D.readFixed64(), 0u);
  EXPECT_FALSE(D.ok());
}

TEST(Blob, DeterministicMapEncoding) {
  std::unordered_map<std::string, uint64_t> M{
      {"z", 1}, {"a", 2}, {"m", 3}, {"q", 4}};
  BlobEncoder E1;
  E1.writeStringU64Map(M);
  // Rebuild the map with a different insertion order.
  std::unordered_map<std::string, uint64_t> M2;
  M2.emplace("a", 2);
  M2.emplace("q", 4);
  M2.emplace("z", 1);
  M2.emplace("m", 3);
  BlobEncoder E2;
  E2.writeStringU64Map(M2);
  EXPECT_EQ(E1.bytes(), E2.bytes());
}

TEST(Hashing, FnvIsStable) {
  EXPECT_EQ(hashString("abc"), hashString("abc"));
  EXPECT_NE(hashString("abc"), hashString("abd"));
  EXPECT_NE(hashString(""), hashString(std::string_view("\0", 1)));
}

TEST(TimeSeries, ValueAtInterpolates) {
  TimeSeries T("t");
  T.record(0, 0);
  T.record(10, 100);
  EXPECT_DOUBLE_EQ(T.valueAt(5), 50);
  EXPECT_DOUBLE_EQ(T.valueAt(-1), 0);
  EXPECT_DOUBLE_EQ(T.valueAt(99), 100);
}

TEST(TimeSeries, IntegrateTrapezoid) {
  TimeSeries T("t");
  T.record(0, 0);
  T.record(10, 10);
  // Triangle area = 50.
  EXPECT_NEAR(T.integrate(0, 10), 50, 1e-9);
  // Beyond the last point the curve holds its final value.
  EXPECT_NEAR(T.integrate(0, 20), 150, 1e-9);
}

TEST(TimeSeries, AreaAboveIsCapacityLoss) {
  TimeSeries Rps("rps");
  Rps.record(0, 0);
  Rps.record(10, 1.0); // ramps linearly to full capacity
  // Served = 5, ideal = 10, loss = 5.
  EXPECT_NEAR(Rps.areaAbove(1.0, 0, 10), 5.0, 1e-9);
}

TEST(TimeSeries, ResampleBounds) {
  TimeSeries T("t");
  for (int I = 0; I <= 1000; ++I)
    T.record(I, I * 2);
  auto Pts = T.resample(11);
  ASSERT_EQ(Pts.size(), 11u);
  EXPECT_DOUBLE_EQ(Pts.front().TimeSec, 0);
  EXPECT_DOUBLE_EQ(Pts.back().TimeSec, 1000);
  EXPECT_DOUBLE_EQ(Pts[5].Value, 1000);
}

TEST(StringUtil, Format) {
  EXPECT_EQ(strFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strFormat("%s", ""), "");
}

TEST(StringUtil, Split) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
}

TEST(StringUtil, FormatBytes) {
  EXPECT_EQ(formatBytes(512), "512 B");
  EXPECT_EQ(formatBytes(1536), "1.5 KB");
  EXPECT_EQ(formatBytes(3ull << 20), "3.0 MB");
}
