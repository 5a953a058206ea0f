//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for the profile-data package: serialization
/// round trips, corruption rejection, coverage validation, and type
/// observations.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "profile/ProfilePackage.h"
#include "profile/ProfileStore.h"
#include "profile/PackageIo.h"
#include "profile/Validation.h"
#include "support/Hashing.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <map>

using namespace jumpstart;
using namespace jumpstart::profile;

namespace {

/// Builds a representative package exercising all four categories.
ProfilePackage makeSamplePackage() {
  ProfilePackage Pkg;
  Pkg.RepoFingerprint = 0xdeadbeef;
  Pkg.Region = 2;
  Pkg.Bucket = 7;
  Pkg.SeederId = 42;
  Pkg.Preload.Units = {3, 1, 4};
  Pkg.Preload.Strings = {10, 20};
  Pkg.Preload.Classes = {5};

  FuncProfile F;
  F.Func = 17;
  F.EntryCount = 900;
  F.BlockCounts = {900, 850, 50, 0};
  F.CallTargets[3][21] = 800;
  F.CallTargets[3][22] = 100;
  F.ParamTypes.resize(2);
  F.ParamTypes[0].observe(runtime::Type::Int);
  F.ParamTypes[0].observe(runtime::Type::Int);
  F.ParamTypes[1].observe(runtime::Type::Str);
  F.LoadTypes[5].observe(runtime::Type::Obj);
  Pkg.Funcs.push_back(F);

  Pkg.Opt.VasmBlockCounts[17] = {1000, 900, 100, 2};
  Pkg.Opt.CallArcs[{17, 21}] = 750;
  Pkg.Opt.PropAccessCounts["Point::x"] = 5000;
  Pkg.Opt.PropAccessCounts["Point::y"] = 100;
  Pkg.Intermediate.FuncOrder = {17, 21, 22};
  return Pkg;
}

ProfilePackage roundTrip(const ProfilePackage &In, bool *Ok = nullptr) {
  std::vector<uint8_t> Blob = In.serialize();
  ProfilePackage Out;
  bool Success = ProfilePackage::deserialize(Blob, Out);
  if (Ok)
    *Ok = Success;
  else
    EXPECT_TRUE(Success);
  return Out;
}

} // namespace

TEST(ProfilePackage, RoundTripPreservesEverything) {
  ProfilePackage In = makeSamplePackage();
  ProfilePackage Out = roundTrip(In);

  EXPECT_EQ(Out.RepoFingerprint, In.RepoFingerprint);
  EXPECT_EQ(Out.Region, In.Region);
  EXPECT_EQ(Out.Bucket, In.Bucket);
  EXPECT_EQ(Out.SeederId, In.SeederId);
  EXPECT_EQ(Out.Preload.Units, In.Preload.Units);
  EXPECT_EQ(Out.Preload.Strings, In.Preload.Strings);
  EXPECT_EQ(Out.Preload.Classes, In.Preload.Classes);
  ASSERT_EQ(Out.Funcs.size(), 1u);
  const FuncProfile &F = Out.Funcs[0];
  EXPECT_EQ(F.Func, 17u);
  EXPECT_EQ(F.EntryCount, 900u);
  EXPECT_EQ(F.BlockCounts, In.Funcs[0].BlockCounts);
  EXPECT_EQ(F.CallTargets, In.Funcs[0].CallTargets);
  ASSERT_EQ(F.ParamTypes.size(), 2u);
  EXPECT_EQ(F.ParamTypes[0].dominant(), runtime::Type::Int);
  EXPECT_EQ(F.ParamTypes[1].dominant(), runtime::Type::Str);
  ASSERT_EQ(F.LoadTypes.count(5), 1u);
  EXPECT_EQ(F.LoadTypes.at(5).dominant(), runtime::Type::Obj);
  EXPECT_EQ(Out.Opt.VasmBlockCounts, In.Opt.VasmBlockCounts);
  EXPECT_EQ(Out.Opt.CallArcs, In.Opt.CallArcs);
  EXPECT_EQ(Out.Opt.PropAccessCounts, In.Opt.PropAccessCounts);
  EXPECT_EQ(Out.Intermediate.FuncOrder, In.Intermediate.FuncOrder);
}

TEST(ProfilePackage, EmptyPackageRoundTrips) {
  ProfilePackage In;
  ProfilePackage Out = roundTrip(In);
  EXPECT_EQ(Out.Funcs.size(), 0u);
  EXPECT_EQ(Out.totalSamples(), 0u);
}

TEST(ProfilePackage, SerializationIsDeterministic) {
  ProfilePackage A = makeSamplePackage();
  ProfilePackage B = makeSamplePackage();
  EXPECT_EQ(A.serialize(), B.serialize());
}

TEST(ProfilePackage, RejectsBadMagic) {
  std::vector<uint8_t> Blob = makeSamplePackage().serialize();
  Blob[0] ^= 0xff;
  ProfilePackage Out;
  EXPECT_FALSE(ProfilePackage::deserialize(Blob, Out));
}

TEST(ProfilePackage, RejectsTruncation) {
  std::vector<uint8_t> Blob = makeSamplePackage().serialize();
  for (size_t Cut : {Blob.size() - 1, Blob.size() / 2, size_t(9)}) {
    std::vector<uint8_t> Short(Blob.begin(), Blob.begin() + Cut);
    ProfilePackage Out;
    EXPECT_FALSE(ProfilePackage::deserialize(Short, Out))
        << "truncated to " << Cut << " bytes";
  }
}

TEST(ProfilePackage, RejectsBitFlipsAnywhere) {
  // Property test: a checksum-protected package must reject any
  // single-bit corruption of the payload (bit flips in the trailing
  // checksum itself are also rejected, by mismatch).
  std::vector<uint8_t> Blob = makeSamplePackage().serialize();
  Rng R(77);
  int Rejected = 0;
  const int Trials = 60;
  for (int T = 0; T < Trials; ++T) {
    std::vector<uint8_t> Bad = Blob;
    size_t At = R.nextBelow(Bad.size());
    Bad[At] ^= static_cast<uint8_t>(1u << R.nextBelow(8));
    ProfilePackage Out;
    if (!ProfilePackage::deserialize(Bad, Out))
      ++Rejected;
  }
  EXPECT_EQ(Rejected, Trials);
}

TEST(ProfilePackage, RejectsWrongVersion) {
  // Hand-craft an envelope with a bumped version.
  BlobEncoder E;
  E.writeFixed64(ProfilePackage::kMagic);
  E.writeVarint(ProfilePackage::kFormatVersion + 1);
  E.writeVarint(0);
  E.writeFixed64(fnv1a(nullptr, 0));
  ProfilePackage Out;
  EXPECT_FALSE(ProfilePackage::deserialize(E.bytes(), Out));
}

TEST(ProfilePackage, SampleCounting) {
  ProfilePackage Pkg = makeSamplePackage();
  EXPECT_EQ(Pkg.totalSamples(), 900u + 850 + 50);
  EXPECT_EQ(Pkg.numProfiledFuncs(), 1u);
  EXPECT_NE(Pkg.findFunc(17), nullptr);
  EXPECT_EQ(Pkg.findFunc(99), nullptr);
}

TEST(TypeObservationTest, DominantAndMonomorphism) {
  TypeObservation T;
  EXPECT_FALSE(T.isMonomorphic());
  for (int I = 0; I < 99; ++I)
    T.observe(runtime::Type::Int);
  T.observe(runtime::Type::Dbl);
  EXPECT_EQ(T.dominant(), runtime::Type::Int);
  EXPECT_TRUE(T.isMonomorphic(0.95));
  EXPECT_FALSE(T.isMonomorphic(0.999));
  EXPECT_EQ(T.total(), 100u);
}

TEST(TypeObservationTest, Merge) {
  TypeObservation A;
  TypeObservation B;
  A.observe(runtime::Type::Int);
  B.observe(runtime::Type::Str);
  B.observe(runtime::Type::Str);
  A.merge(B);
  EXPECT_EQ(A.total(), 3u);
  EXPECT_EQ(A.dominant(), runtime::Type::Str);
}

TEST(DenseCounters, MatchStringKeyedMaps) {
  // Dense property counters (by declared slot, affinity in a triangular
  // array), rendered, equal string-keyed maps counted the way the
  // reference recorder keys them: classes of 0, 1, 2 and ten
  // properties, and a child class under which its own and inherited
  // properties count apart from the parent's.  Arc counters with
  // repeated arcs equal an ordered map of (caller, callee) pairs.
  jumpstart::testing::TestVm Vm(
      "class None { method m() { return 0; } }"
      "class One { prop $a; }"
      "class Two { prop $b; prop $a; }"
      "class Ten { prop $p0; prop $p1; prop $p2; prop $p3; prop $p4;"
      "  prop $p5; prop $p6; prop $p7; prop $p8; prop $p9; }"
      "class Kid extends Two { prop $k; }"
      "function main() { return 0; }");
  const bc::Repo &R = Vm.Repo;
  std::vector<std::pair<bc::ClassId, std::vector<bc::StringId>>> Shapes;
  for (const char *Name : {"None", "One", "Two", "Ten", "Kid"}) {
    bc::ClassId Cls = R.findClass(Name);
    ASSERT_TRUE(Cls.valid()) << Name;
    std::vector<bc::StringId> Props;
    for (bc::ClassId K = Cls; K.valid(); K = R.cls(K).Parent) {
      const std::vector<bc::StringId> &Own = R.cls(K).DeclProps;
      Props.insert(Props.begin(), Own.begin(), Own.end());
    }
    Shapes.push_back({Cls, Props});
  }
  ASSERT_EQ(Shapes[0].second.size(), 0u);
  ASSERT_EQ(Shapes[3].second.size(), 10u);
  ASSERT_EQ(Shapes[4].second.size(), 3u) << "Kid inherits b and a";

  PropCounters Dense(R);
  std::unordered_map<std::string, uint64_t> Access, Affinity;
  SplitMix64 Draws(11);
  uint32_t LastCls = ~0u, LastSlot = ~0u, LastName = ~0u;
  for (uint32_t I = 0; I < 4000; ++I) {
    // Runs of accesses to one class, so that affinity pairs form.
    const auto &[Cls, Props] = Shapes[1 + (I / 7 + Draws.next() % 2) % 4];
    bc::StringId Prop = Props[Draws.next() % Props.size()];
    uint32_t Slot = Dense.count(Cls, Prop);
    ASSERT_EQ(Props[Slot], Prop);
    const std::string &ClassName = R.cls(Cls).Name;
    ++Access[ClassName + "::" + R.str(Prop)];
    if (LastCls == Cls.raw() && LastName != Prop.raw()) {
      Dense.countPair(Cls, LastSlot, Slot);
      const std::string &A = R.str(bc::StringId(LastName));
      const std::string &B = R.str(Prop);
      ++Affinity[ClassName + "::" + (A < B ? A + "::" + B : B + "::" + A)];
    }
    LastCls = Cls.raw();
    LastSlot = Slot;
    LastName = Prop.raw();
  }
  OptProfile Opt;
  Dense.renderInto(Opt);
  EXPECT_EQ(Opt.PropAccessCounts, Access);
  EXPECT_EQ(Opt.PropAffinity, Affinity);
  EXPECT_EQ(Access.size(), 1u + 2 + 10 + 3);
  EXPECT_TRUE(Access.count("Kid::a") && Access.count("Two::a"));
  EXPECT_TRUE(Affinity.count("Ten::p0::p9"));

  OptCounters Arcs;
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> WantArcs;
  for (uint32_t I = 0; I < 3000; ++I) {
    uint32_t Caller = static_cast<uint32_t>(Draws.next() % 9);
    uint32_t Callee = static_cast<uint32_t>(Draws.next() % 5) * 3;
    Arcs.countArc(Caller, Callee);
    ++WantArcs[{Caller, Callee}];
  }
  OptProfile ArcOpt;
  Arcs.renderInto(ArcOpt);
  EXPECT_EQ(ArcOpt.CallArcs, WantArcs);
  EXPECT_EQ(WantArcs.size(), 45u) << "every arc repeats";
}

TEST(ProfileStoreTest, RoundTripThroughPackage) {
  ProfileStore Store;
  FuncProfile &F = Store.getOrCreate(5);
  F.EntryCount = 10;
  F.BlockCounts = {10, 3};
  Store.getOrCreate(2).EntryCount = 4;

  ProfilePackage Pkg;
  Store.exportToPackage(Pkg);
  ASSERT_EQ(Pkg.Funcs.size(), 2u);
  EXPECT_EQ(Pkg.Funcs[0].Func, 2u) << "export is FuncId-sorted";
  EXPECT_EQ(Pkg.Funcs[1].Func, 5u);

  ProfileStore Loaded;
  ASSERT_TRUE(Loaded.loadFromPackage(Pkg).ok());
  ASSERT_NE(Loaded.find(5), nullptr);
  EXPECT_EQ(Loaded.find(5)->EntryCount, 10u);
  EXPECT_EQ(Loaded.find(99), nullptr);
}

TEST(ProfileStoreTest, LoadRejectsDuplicateFunctions) {
  ProfilePackage Pkg;
  Pkg.Funcs.resize(2);
  Pkg.Funcs[0].Func = 7;
  Pkg.Funcs[1].Func = 7;
  ProfileStore Loaded;
  support::Status S = Loaded.loadFromPackage(Pkg);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), support::StatusCode::CorruptData);
}

TEST(Coverage, PassesGoodPackage) {
  ProfilePackage Pkg = makeSamplePackage();
  CoverageThresholds T;
  T.MinProfiledFuncs = 1;
  T.MinTotalSamples = 100;
  T.MinPackageBytes = 10;
  CoverageResult R = checkCoverage(Pkg, 1000, T);
  EXPECT_TRUE(R.ok()) << (R.Problems.empty() ? "" : R.Problems[0]);
  EXPECT_EQ(R.code(), support::StatusCode::Ok);
}

TEST(Coverage, FlagsUnderProfiledSeeder) {
  ProfilePackage Pkg; // empty: the "drained data center" case
  CoverageThresholds T;
  T.MinProfiledFuncs = 10;
  T.MinTotalSamples = 1000;
  CoverageResult R = checkCoverage(Pkg, 50000, T);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.code(), support::StatusCode::CoverageTooLow);
  EXPECT_GE(R.Problems.size(), 2u);
}

TEST(Coverage, FlagsFingerprintMismatch) {
  ProfilePackage Pkg = makeSamplePackage();
  CoverageThresholds T;
  T.MinProfiledFuncs = 0;
  T.MinTotalSamples = 0;
  T.MinPackageBytes = 0;
  T.ExpectedFingerprint = 0x1234;
  CoverageResult R = checkCoverage(Pkg, 1000, T);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.code(), support::StatusCode::FingerprintMismatch);
  ASSERT_EQ(R.Problems.size(), 1u);
  EXPECT_NE(R.Problems[0].find("fingerprint"), std::string::npos);
}

TEST(Coverage, FlagsTinyPackage) {
  ProfilePackage Pkg = makeSamplePackage();
  CoverageThresholds T;
  T.MinProfiledFuncs = 1;
  T.MinTotalSamples = 1;
  T.MinPackageBytes = 1 << 20;
  CoverageResult R = checkCoverage(Pkg, 100, T);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.code(), support::StatusCode::CoverageTooLow);
}

TEST(PackageIo, SaveLoadRoundTrip) {
  ProfilePackage Pkg = makeSamplePackage();
  std::string Path = ::testing::TempDir() + "/jumpstart_pkg_test.bin";
  ASSERT_TRUE(savePackageFile(Pkg, Path).ok());
  ProfilePackage Out;
  ASSERT_TRUE(loadPackageFile(Path, Out).ok());
  EXPECT_EQ(Out.serialize(), Pkg.serialize());
  std::remove(Path.c_str());
}

TEST(PackageIo, MissingFileFails) {
  ProfilePackage Out;
  EXPECT_FALSE(loadPackageFile("/nonexistent/dir/p.bin", Out).ok());
  EXPECT_FALSE(savePackageFile(Out, "/nonexistent/dir/p.bin").ok());
}

TEST(PackageIo, CorruptFileRejected) {
  ProfilePackage Pkg = makeSamplePackage();
  std::string Path = ::testing::TempDir() + "/jumpstart_pkg_corrupt.bin";
  std::vector<uint8_t> Blob = Pkg.serialize();
  Blob[Blob.size() / 3] ^= 0x10;
  ASSERT_TRUE(writeFileBytes(Path, Blob).ok());
  ProfilePackage Out;
  EXPECT_FALSE(loadPackageFile(Path, Out).ok());
  std::remove(Path.c_str());
}
