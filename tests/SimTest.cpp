//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the micro-architecture simulator.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "sim/Branch.h"
#include "sim/Cache.h"
#include "sim/Machine.h"
#include "support/Random.h"
#include "testing/ReferenceCache.h"

#include <gtest/gtest.h>

using namespace jumpstart;
using namespace jumpstart::sim;
using jumpstart::testing::countersString;

TEST(Cache, HitAfterMiss) {
  Cache C(CacheConfig{1024, 64, 2});
  EXPECT_FALSE(C.access(0x1000));
  EXPECT_TRUE(C.access(0x1000));
  EXPECT_TRUE(C.access(0x1038)) << "same 64-byte line";
  EXPECT_EQ(C.misses(), 1u);
  EXPECT_EQ(C.accesses(), 3u);
}

TEST(Cache, DistinctLinesMiss) {
  Cache C(CacheConfig{1024, 64, 2});
  EXPECT_FALSE(C.access(0x1000));
  EXPECT_FALSE(C.access(0x1040));
  EXPECT_EQ(C.misses(), 2u);
}

TEST(Cache, LruEviction) {
  // 2-way, line 64, size 128 bytes -> exactly 1 set of 2 ways.
  Cache C(CacheConfig{128, 64, 2});
  C.access(0x0000);  // A miss
  C.access(0x1000);  // B miss
  C.access(0x0000);  // A hit (B becomes LRU)
  C.access(0x2000);  // C miss, evicts B
  EXPECT_TRUE(C.access(0x0000)) << "A must survive (was MRU)";
  EXPECT_FALSE(C.access(0x1000)) << "B must have been evicted (was LRU)";
}

TEST(Cache, CapacityBehaviour) {
  // Working set fits: second pass all hits.
  Cache C(CacheConfig{32 * 1024, 64, 8});
  for (uint64_t A = 0; A < 16 * 1024; A += 64)
    C.access(A);
  uint64_t MissesAfterFirstPass = C.misses();
  for (uint64_t A = 0; A < 16 * 1024; A += 64)
    C.access(A);
  EXPECT_EQ(C.misses(), MissesAfterFirstPass)
      << "a fitting working set must not miss on re-walk";

  // Working set 2x capacity with LRU streaming: every access misses.
  Cache D(CacheConfig{4 * 1024, 64, 4});
  for (int Pass = 0; Pass < 3; ++Pass)
    for (uint64_t A = 0; A < 8 * 1024; A += 64)
      D.access(A);
  EXPECT_EQ(D.misses(), D.accesses())
      << "streaming over 2x capacity with LRU must always miss";
}

TEST(Cache, ResetClears) {
  Cache C(CacheConfig{1024, 64, 2});
  C.access(0x1000);
  C.reset();
  EXPECT_EQ(C.accesses(), 0u);
  // 0x1000 is also the last line touched: its no-scan shortcut must not
  // survive the reset either.
  EXPECT_FALSE(C.access(0x1000));
  EXPECT_TRUE(C.accessRun(0x1000, 3));
  EXPECT_EQ(C.accesses(), 4u);
  EXPECT_EQ(C.misses(), 1u);
}

TEST(Tlb, PageGranularity) {
  Tlb T(16, 4, 4096);
  EXPECT_FALSE(T.access(0x10000));
  EXPECT_TRUE(T.access(0x10FFF)) << "same 4 KB page";
  EXPECT_FALSE(T.access(0x11000)) << "next page";
}

TEST(BranchPredictor, LearnsStrongBias) {
  BranchPredictor P(256);
  // Always-taken branch: after warmup, all predictions correct.
  for (int I = 0; I < 10; ++I)
    P.predict(0x400, true);
  uint64_t Before = P.mispredicts();
  for (int I = 0; I < 100; ++I)
    P.predict(0x400, true);
  EXPECT_EQ(P.mispredicts(), Before);
}

TEST(BranchPredictor, AlternatingIsHard) {
  BranchPredictor P(256);
  bool Taken = false;
  for (int I = 0; I < 200; ++I) {
    P.predict(0x800, Taken);
    Taken = !Taken;
  }
  // A bimodal predictor cannot learn a perfect alternation.
  EXPECT_GT(P.missRate(), 0.3);
}

TEST(TargetPredictor, MonomorphicTargetPredicts) {
  TargetPredictor P(64);
  P.predict(0x100, 0xAAAA); // cold miss
  for (int I = 0; I < 50; ++I)
    EXPECT_TRUE(P.predict(0x100, 0xAAAA));
}

TEST(TargetPredictor, PolymorphicTargetMisses) {
  TargetPredictor P(64);
  for (int I = 0; I < 100; ++I)
    P.predict(0x100, I % 2 ? 0xAAAA : 0xBBBB);
  EXPECT_GT(P.missRate(), 0.9);
}

TEST(Machine, FetchSpanningLinesTouchesBoth) {
  MachineSim M;
  M.fetch(60, 8); // crosses the 64-byte boundary
  EXPECT_EQ(M.counters().L1IAccesses, 2u);
  EXPECT_EQ(M.counters().Instructions, 1u);
}

TEST(Machine, MissesFlowToLlc) {
  MachineSim M;
  M.fetch(0x100000, 4);
  EXPECT_EQ(M.counters().L1IMisses, 1u);
  EXPECT_EQ(M.counters().LlcAccesses, 1u);
  EXPECT_EQ(M.counters().LlcMisses, 1u);
  // Second fetch of the same line: L1 hit, no LLC traffic.
  M.fetch(0x100000, 4);
  EXPECT_EQ(M.counters().LlcAccesses, 1u);
}

TEST(Machine, CyclesGrowWithMisses) {
  MachineSim Tight;
  for (int I = 0; I < 1000; ++I)
    Tight.fetch(0x1000 + (I % 4) * 64, 4); // tiny loop, all hits
  MachineSim Scattered;
  for (int I = 0; I < 1000; ++I)
    Scattered.fetch(0x1000 + I * 4096, 4); // a page per instruction
  EXPECT_LT(Tight.cycles(), Scattered.cycles());
  EXPECT_GT(Tight.ipc(), Scattered.ipc());
}

TEST(Machine, DataAndInstructionStreamsAreSeparate) {
  MachineSim M;
  M.dataAccess(0x5000, false);
  EXPECT_EQ(M.counters().L1DAccesses, 1u);
  EXPECT_EQ(M.counters().L1IAccesses, 0u);
  EXPECT_EQ(M.counters().DTlbAccesses, 1u);
  EXPECT_EQ(M.counters().ITlbAccesses, 0u);
}

TEST(Machine, SummaryMentionsKeyRates) {
  MachineSim M;
  M.fetch(0, 4);
  std::string S = M.summary();
  EXPECT_NE(S.find("instr="), std::string::npos);
  EXPECT_NE(S.find("itlbMR="), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Run-length accesses are exact: differential tests against one access
// (or one fetch) at a time.
//===----------------------------------------------------------------------===//

namespace {

/// Drives \p Runs with accessRun and \p Single with repeated access over
/// the same random stream of runs, then feeds both one random stream of
/// single accesses: every result and count must agree throughout.
template <typename CacheT>
void expectRunsMatchSingles(CacheT &Runs, CacheT &Single, uint64_t Footprint,
                            uint64_t Seed) {
  Rng R(Seed);
  for (int I = 0; I < 20000; ++I) {
    uint64_t Addr = R.nextBelow(Footprint);
    uint32_t Count = 1 + static_cast<uint32_t>(R.nextBelow(16));
    bool FirstHit = Single.access(Addr);
    for (uint32_t K = 1; K < Count; ++K)
      ASSERT_TRUE(Single.access(Addr)) << "a repeat access must hit";
    ASSERT_EQ(Runs.accessRun(Addr, Count), FirstHit) << "run " << I;
    ASSERT_EQ(Runs.accesses(), Single.accesses());
    ASSERT_EQ(Runs.misses(), Single.misses());
  }
  for (int I = 0; I < 20000; ++I) {
    uint64_t Addr = R.nextBelow(Footprint);
    ASSERT_EQ(Runs.access(Addr), Single.access(Addr)) << "access " << I;
  }
  EXPECT_EQ(Runs.accesses(), Single.accesses());
  EXPECT_EQ(Runs.misses(), Single.misses());
  EXPECT_GT(Single.misses(), 0u);
  EXPECT_LT(Single.misses(), Single.accesses());
}

/// Appends one access to \p Runs, extending its last run when that run
/// is the same line or page.
void addAccess(std::vector<FetchRun> &Runs, uint64_t Addr) {
  if (!Runs.empty() && Runs.back().Addr == Addr)
    ++Runs.back().Count;
  else
    Runs.push_back({Addr, 1});
}

} // namespace

TEST(Cache, AccessRunMatchesRepeatedAccess) {
  // A 4 KB cache over a 16 KB footprint: capacity and conflict misses in
  // every geometry, from 64 direct-mapped sets to 4 sets of 16 ways.
  for (uint32_t Ways : {1u, 2u, 8u, 16u}) {
    SCOPED_TRACE(Ways);
    CacheConfig Config{4 * 1024, 64, Ways};
    Cache Runs(Config);
    Cache Single(Config);
    expectRunsMatchSingles(Runs, Single, 16 * 1024, Ways);
  }
}

TEST(Tlb, AccessRunMatchesRepeatedAccess) {
  Tlb Runs(8, 4, 4096);
  Tlb Single(8, 4, 4096);
  expectRunsMatchSingles(Runs, Single, 32 * 4096, 5);
}

TEST(Machine, FetchBlockMatchesPerInstructionFetch) {
  // Small caches and TLBs so random blocks miss and evict in every
  // structure; data accesses between blocks share the LLC with fetches.
  MachineConfig Config;
  Config.L1I = CacheConfig{2048, 64, 4};
  Config.L1D = CacheConfig{2048, 64, 4};
  Config.Llc = CacheConfig{16 * 1024, 64, 8};
  Config.ITlbEntries = 4;
  Config.ITlbWays = 2;
  Config.DTlbEntries = 4;
  Config.DTlbWays = 2;
  MachineSim Blocks(Config);
  MachineSim Singles(Config);
  Rng R(17);
  uint64_t Straddles = 0;
  for (int Block = 0; Block < 5000; ++Block) {
    // Blocks start anywhere in 32 pages, often just before a page end.
    uint64_t Page = R.nextBelow(32) * Config.PageBytes;
    uint64_t Start = R.nextBool(0.5)
                         ? Page + Config.PageBytes - 1 - R.nextBelow(48)
                         : Page + R.nextBelow(Config.PageBytes);
    std::vector<FetchRun> Lines, Pages;
    uint64_t Addr = Start;
    for (uint64_t I = 0, N = 1 + R.nextBelow(24); I < N; ++I) {
      uint32_t Size = 1 + static_cast<uint32_t>(R.nextBelow(15));
      Singles.fetch(Addr, Size);
      for (uint64_t Line = Addr / 64; Line <= (Addr + Size - 1) / 64; ++Line)
        addAccess(Lines, Line * 64);
      addAccess(Pages, Addr / Config.PageBytes * Config.PageBytes);
      Addr += Size;
    }
    Straddles += Pages.size() > 1;
    Blocks.fetchBlock(Lines, Pages);
    ASSERT_EQ(countersString(Blocks.counters()),
              countersString(Singles.counters()))
        << "block " << Block;

    uint64_t Data = 0x40000000 + R.nextBelow(64 * 1024);
    Blocks.dataAccess(Data, false);
    Singles.dataAccess(Data, false);
  }
  EXPECT_EQ(countersString(Blocks.counters()),
            countersString(Singles.counters()));
  EXPECT_DOUBLE_EQ(Blocks.cycles(), Singles.cycles());
  EXPECT_GT(Straddles, 100u) << "blocks must cross page boundaries";
  EXPECT_GT(Singles.counters().ITlbMisses, 0u);
  EXPECT_GT(Singles.counters().LlcMisses, 0u);
}

//===----------------------------------------------------------------------===//
// Way hints are exact: differential tests against the scan-only cache
// (testing::ReferenceCache) on every geometry the harnesses use.
//===----------------------------------------------------------------------===//

namespace {

/// Replays \p Streams seeded streams of \p Length operations through
/// sim::Cache and the reference, which must agree on every access.
void expectTwinsAgree(const CacheConfig &Config, uint64_t Seed, int Streams,
                      size_t Length) {
  Rng R(Seed);
  for (int S = 0; S < Streams; ++S) {
    std::vector<jumpstart::testing::CacheOp> Ops =
        jumpstart::testing::randomCacheStream(R, Config, Length);
    ASSERT_EQ(jumpstart::testing::diffCacheStream(Config, Ops), "")
        << "stream " << S;
  }
}

} // namespace

TEST(CacheTwin, DirectMapped) {
  expectTwinsAgree(CacheConfig{64 * 64, 64, 1}, 1, 60, 4000);
}

TEST(CacheTwin, ScaledTlb) {
  // 8 entries of 4 ways over 4 KB pages: 2 sets, as in the scaled I-TLB
  // and D-TLB of the steady-state figures.
  expectTwinsAgree(CacheConfig{8 * 4096, 4096, 4}, 2, 60, 4000);
}

TEST(CacheTwin, ScaledL1) {
  expectTwinsAgree(CacheConfig{16 * 1024, 64, 8}, 3, 60, 4000);
}

TEST(CacheTwin, DefaultL1) {
  expectTwinsAgree(CacheConfig{32 * 1024, 64, 8}, 4, 60, 4000);
}

TEST(CacheTwin, ScaledLlc) {
  expectTwinsAgree(CacheConfig{256 * 1024, 64, 16}, 5, 40, 6000);
}

TEST(CacheTwin, ResetLeavesNoStaleHit) {
  // After reset() every slot holds tag 0 with stamp 0, and the hints
  // still point at the ways lines 0.. were found in: only the stamp
  // check keeps those lines from hitting.
  CacheConfig Config{16 * 1024, 64, 8};
  Cache Fast(Config);
  jumpstart::testing::ReferenceCache Ref(Config);
  for (int Pass = 0; Pass < 3; ++Pass) {
    for (uint64_t Addr = 0; Addr < 64 * 1024; Addr += 64)
      ASSERT_EQ(Fast.access(Addr), Ref.access(Addr)) << Addr;
    Fast.reset();
    Ref.reset();
    for (uint64_t Addr = 0; Addr < 4 * 1024; Addr += 64) {
      ASSERT_FALSE(Ref.accessRun(Addr, 2));
      ASSERT_FALSE(Fast.accessRun(Addr, 2)) << "stale hit at " << Addr;
    }
  }
}
