//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential conformance harness tests (src/testing): the generator
/// emits compilable programs, the oracle finds no mismatch between
/// execution tiers on correct builds, the sweep digest is reproducible,
/// and -- the harness's own acceptance test -- an injected interpreter
/// divergence is caught and shrunk to a minimal reproducer.
///
//===----------------------------------------------------------------------===//

#include "testing/DiffRunner.h"
#include "testing/ProgramGen.h"
#include "testing/Shrinker.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

using namespace jumpstart;
namespace jstest = jumpstart::testing;

//===----------------------------------------------------------------------===//
// Program generator.
//===----------------------------------------------------------------------===//

TEST(ProgramGenTest, DeterministicForAFixedSeed) {
  jstest::GenParams P;
  P.Seed = 99;
  EXPECT_EQ(jstest::generateProgram(P).render(),
            jstest::generateProgram(P).render());
}

TEST(ProgramGenTest, SeedsProduceDistinctPrograms) {
  jstest::GenParams A, B;
  A.Seed = 1;
  B.Seed = 2;
  EXPECT_NE(jstest::generateProgram(A).render(),
            jstest::generateProgram(B).render());
}

TEST(ProgramGenTest, ShapeKnobsAreRespected) {
  jstest::GenParams P;
  P.Seed = 5;
  P.NumEndpoints = 4;
  P.NumClasses = 3;
  jstest::GenProgram Prog = jstest::generateProgram(P);
  EXPECT_EQ(Prog.endpointNames().size(), 4u);
  EXPECT_EQ(Prog.Classes.size(), 3u);
}

TEST(ProgramGenTest, GeneratorAlwaysCompiles) {
  // The sweeps depend on this: a generator emitting uncompilable
  // programs would poison every differential result.  Vary the shape
  // knobs with the seed to cover the generator's whole surface.
  for (uint64_t Seed = 1; Seed <= 80; ++Seed) {
    jstest::GenParams P;
    P.Seed = Seed;
    P.MaxHelpers = 1 + static_cast<uint32_t>(Seed % 6);
    P.MinHelpers = P.MaxHelpers > 2 ? 2 : 1;
    P.NumEndpoints = 1 + static_cast<uint32_t>(Seed % 3);
    P.NumClasses = static_cast<uint32_t>(Seed % 4);
    P.MaxStmts = 2 + static_cast<uint32_t>(Seed % 5);
    P.MaxExprDepth = 1 + static_cast<uint32_t>(Seed % 4);
    jstest::GenProgram Prog = jstest::generateProgram(P);
    fleet::Workload W;
    support::Status S =
        jstest::DiffRunner::compileProgram(Prog.render(), W);
    ASSERT_TRUE(S.ok()) << "seed " << Seed << ": " << S.message() << "\n"
                        << Prog.render();
    EXPECT_EQ(W.Endpoints.size(), P.NumEndpoints) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Shrinker.
//===----------------------------------------------------------------------===//

TEST(ShrinkerTest, RemovesEverythingIrrelevant) {
  // Textual predicate: "still contains the magic print".  Everything
  // else -- other functions, other statements, the return expression --
  // must be stripped.
  jstest::GenParams P;
  P.Seed = 3;
  P.MaxHelpers = 4;
  P.NumEndpoints = 2;
  jstest::GenProgram Prog = jstest::generateProgram(P);
  Prog.Funcs[1].Stmts.push_back("print(\"needle\");");

  jstest::ShrinkStats Stats;
  jstest::GenProgram Min = jstest::shrinkProgram(
      Prog,
      [](const jstest::GenProgram &Cand) {
        return Cand.render().find("needle") != std::string::npos;
      },
      600, &Stats);

  EXPECT_NE(Min.render().find("needle"), std::string::npos);
  EXPECT_EQ(Min.Funcs.size(), 1u) << "only the needle function survives";
  EXPECT_EQ(Min.Funcs[0].Stmts.size(), 1u)
      << "only the needle statement survives";
  EXPECT_EQ(Min.Classes.size(), 0u);
  EXPECT_EQ(Min.Funcs[0].ReturnExpr, "0");
  EXPECT_GT(Stats.Removals, 0u);
}

TEST(ShrinkerTest, BoundsPredicateCalls) {
  jstest::GenParams P;
  P.Seed = 4;
  jstest::GenProgram Prog = jstest::generateProgram(P);
  jstest::ShrinkStats Stats;
  jstest::shrinkProgram(
      Prog, [](const jstest::GenProgram &) { return true; }, 10, &Stats);
  EXPECT_LE(Stats.PredicateCalls, 10u);
}

//===----------------------------------------------------------------------===//
// Differential oracle.
//===----------------------------------------------------------------------===//

TEST(DiffRunnerTest, SmokeSweepFindsNoMismatches) {
  jstest::DiffParams P;
  P.Seed = 11;
  P.NumPrograms = 30;
  jstest::DiffRunner Runner(P);
  jstest::DiffStats Stats = Runner.run();

  for (const jstest::Mismatch &M : Stats.Mismatches)
    ADD_FAILURE() << "seed " << M.ProgramSeed << " " << M.ConfigA
                  << " vs " << M.ConfigB << ": " << M.What << "\n"
                  << M.Shrunk;
  EXPECT_EQ(Stats.Programs, 30u);
  // 7 matrix cells: interp, reference, profile, jit, jit-proven,
  // jumpstart, jumpstart-threads4.
  EXPECT_EQ(Stats.Runs, 30u * 7);
  EXPECT_GT(Stats.JumpStartBoots, 0u)
      << "the jumpstart matrix cells never actually booted from a "
         "package -- the sweep silently lost its main coverage";
  EXPECT_GT(Stats.DigestComparisons, 0u)
      << "no determinism digests were compared";
}

TEST(DiffRunnerTest, SweepDigestIsReproducible) {
  jstest::DiffParams P;
  P.Seed = 17;
  P.NumPrograms = 6;
  jstest::DiffStats A = jstest::DiffRunner(P).run();
  jstest::DiffStats B = jstest::DiffRunner(P).run();
  ASSERT_EQ(A.Mismatches.size(), 0u);
  EXPECT_EQ(A.SweepDigest, B.SweepDigest)
      << "same seed, same sweep -- the digest covers every observable "
         "and must be bit-for-bit stable";
  EXPECT_NE(A.SweepDigest, 0u);

  jstest::DiffParams Q = P;
  Q.Seed = 18;
  EXPECT_NE(jstest::DiffRunner(Q).run().SweepDigest, A.SweepDigest)
      << "a different seed must visit different programs";
}

TEST(DiffRunnerTest, InjectedDivergenceIsCaughtAndShrunk) {
  // The harness's own acceptance test: a +1 skew on every integer Add in
  // one config must surface as a mismatch, and the shrinker must cut the
  // reproducer down to a handful of lines.
  std::string ReproDir =
      (std::filesystem::temp_directory_path() / "jumpstart-diff-repro")
          .string();
  std::filesystem::remove_all(ReproDir);

  jstest::DiffParams P;
  P.Seed = 7;
  P.NumPrograms = 10;
  P.Matrix = {jstest::smokeMatrix().front(), jstest::skewConfig()};
  P.ReproDir = ReproDir;
  jstest::DiffRunner Runner(P);
  jstest::DiffStats Stats = Runner.run();

  ASSERT_GT(Stats.Mismatches.size(), 0u)
      << "the oracle missed an injected single-opcode divergence";
  for (const jstest::Mismatch &M : Stats.Mismatches) {
    EXPECT_LE(M.ShrunkLines, 20u)
        << "reproducer not minimal:\n" << M.Shrunk;
    EXPECT_FALSE(M.What.empty());
    ASSERT_FALSE(M.ArtifactPath.empty());
    EXPECT_TRUE(std::filesystem::exists(M.ArtifactPath))
        << M.ArtifactPath;

    // The shrunk program must still reproduce the divergence on its own.
    fleet::Workload W;
    ASSERT_TRUE(jstest::DiffRunner::compileProgram(M.Shrunk, W).ok());
    jstest::RunTrace Ref = Runner.runConfig(W, Runner.matrix()[0]);
    jstest::RunTrace Skewed = Runner.runConfig(W, Runner.matrix()[1]);
    EXPECT_FALSE(jstest::DiffRunner::compareTraces(Ref, Skewed).empty())
        << "shrunk reproducer no longer reproduces:\n" << M.Shrunk;
  }
  std::filesystem::remove_all(ReproDir);
}

TEST(DiffRunnerTest, FullMatrixCoversEveryAxis) {
  std::vector<jstest::ExecConfig> M = jstest::fullMatrix();
  bool SawInterp = false, SawJumpStart = false, SawThreads = false,
       SawLayoutOff = false, SawReference = false;
  for (const jstest::ExecConfig &C : M) {
    SawInterp |= C.Mode == jstest::ExecConfig::Tier::InterpOnly;
    SawJumpStart |= C.JumpStart;
    SawThreads |= C.HostThreads > 1;
    SawReference |= C.Mode == jstest::ExecConfig::Tier::Reference;
    SawLayoutOff |= !C.UseExtTsp || !C.SplitHotCold || !C.UseFunctionSort ||
                    !C.ReorderProperties;
    EXPECT_EQ(C.IntAddSkew, 0) << C.Name
                               << ": skew is for self-tests only";
  }
  EXPECT_TRUE(SawInterp);
  EXPECT_TRUE(SawJumpStart);
  EXPECT_TRUE(SawThreads);
  EXPECT_TRUE(SawLayoutOff);
  EXPECT_TRUE(SawReference);
}

TEST(DiffRunnerTest, ElisionAblationPreservesObservables) {
  // The proven-guard-elision ablation: run the same programs through the
  // full-JIT cell with elision off and again with it on.  The
  // observables digest folds sources, return values, outputs and fault
  // counts -- and nothing placement-level -- so equality says elision
  // never changed a single observable, while the guard counter says the
  // analysis actually did something.
  jstest::ExecConfig Off;
  Off.Name = "jit";
  jstest::ExecConfig On = Off;
  On.Name = "jit";
  On.ProvenGuardElision = true;

  jstest::DiffParams P;
  P.Seed = 29;
  P.NumPrograms = 30;
  P.Matrix = {Off};
  jstest::DiffStats A = jstest::DiffRunner(P).run();
  P.Matrix = {On};
  jstest::DiffStats B = jstest::DiffRunner(P).run();

  ASSERT_EQ(A.Mismatches.size(), 0u);
  ASSERT_EQ(B.Mismatches.size(), 0u);
  EXPECT_NE(A.ObsDigest, 0u);
  EXPECT_EQ(A.ObsDigest, B.ObsDigest)
      << "guard elision changed an observable";
}
