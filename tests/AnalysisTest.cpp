//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the static-analysis subsystem: the abstract-value lattice,
/// the dataflow passes over hand-assembled defect fixtures, the JIT
/// region/translation cross-checks, the deep package lint, and a
/// zero-false-positive sweep over a whole generated workload.
///
//===----------------------------------------------------------------------===//

#include "analysis/AbstractType.h"
#include "analysis/Linter.h"
#include "analysis/WholeProgram.h"
#include "bytecode/FuncBuilder.h"
#include "core/Consumer.h"
#include "core/Seeder.h"
#include "jit/TransDb.h"
#include "fleet/Traffic.h"
#include "fleet/WorkloadGen.h"
#include "runtime/Builtins.h"

#include <gtest/gtest.h>

using namespace jumpstart;
using namespace jumpstart::analysis;
using bc::FuncBuilder;
using bc::Op;
using runtime::Type;

namespace {

uint32_t numBuiltins() {
  return static_cast<uint32_t>(runtime::BuiltinTable::standard().size());
}

/// A repo with one class K (property "p", method "m") and one function
/// assembled by the test.
struct AnalysisFixture {
  bc::Repo R;
  bc::ClassId K;
  bc::StringId PropP;
  bc::StringId NameM;
  bc::FuncId MethodM;
  bc::FuncId F;

  template <typename Fn>
  explicit AnalysisFixture(Fn Assemble, uint32_t NumParams = 0,
                           uint32_t NumLocals = 0) {
    bc::Unit &U = R.createUnit("test");

    bc::Class &Cls = R.createClass(U, "K");
    K = Cls.Id;
    PropP = R.internString("p");
    NameM = R.internString("m");
    R.clsMutable(K).DeclProps.push_back(PropP);
    bc::Function &M = R.createFunction(U, "K::m");
    M.Cls = K;
    M.NumParams = 0;
    M.Code = {bc::Instr(Op::Null), bc::Instr(Op::RetC)};
    MethodM = M.Id;
    R.clsMutable(K).Methods.emplace(NameM.raw(), MethodM);

    bc::Function &Func = R.createFunction(U, "f");
    Func.NumParams = NumParams;
    Func.NumLocals = NumLocals;
    FuncBuilder B(Func);
    Assemble(R, Func, B);
    B.finish();
    F = Func.Id;
  }

  std::vector<Diagnostic> lint() {
    Linter L(R, numBuiltins());
    return L.lintFunction(F);
  }
};

size_t countKind(const std::vector<Diagnostic> &Diags, DiagKind Kind) {
  size_t N = 0;
  for (const Diagnostic &D : Diags)
    N += D.Kind == Kind;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// The AbstractValue lattice.
//===----------------------------------------------------------------------===//

TEST(AbstractValue, BottomAndTop) {
  AbstractValue B;
  EXPECT_TRUE(B.isBottom());
  EXPECT_FALSE(B.mayBe(Type::Int));
  EXPECT_FALSE(B.subsetOf(AbstractValue::kAllBits));
  EXPECT_TRUE(AbstractValue::top().isTop());
  EXPECT_TRUE(AbstractValue::top().mayBe(Type::Obj));
}

TEST(AbstractValue, JoinIsLub) {
  AbstractValue V = AbstractValue::ofType(Type::Int);
  EXPECT_FALSE(V.join(AbstractValue::ofType(Type::Int))) << "join is idempotent";
  EXPECT_TRUE(V.join(AbstractValue::ofType(Type::Str)));
  EXPECT_TRUE(V.mayBe(Type::Int));
  EXPECT_TRUE(V.mayBe(Type::Str));
  EXPECT_FALSE(V.mayBe(Type::Null));
  EXPECT_FALSE(V.definitely(Type::Int));
  EXPECT_EQ(V.str(), "{int|string}");

  // Joining with bottom changes nothing; joining bottom with V copies V.
  AbstractValue Copy = V;
  EXPECT_FALSE(V.join(AbstractValue::bottom()));
  AbstractValue B;
  EXPECT_TRUE(B.join(Copy));
  EXPECT_EQ(B, Copy);
}

TEST(AbstractValue, JoinCollapsesRefinements) {
  AbstractValue K0 = AbstractValue::obj(bc::ClassId(0));
  AbstractValue K1 = AbstractValue::obj(bc::ClassId(1));
  EXPECT_EQ(K0.exactClass().raw(), 0u);
  AbstractValue Same = K0;
  EXPECT_FALSE(Same.join(K0));
  EXPECT_TRUE(Same.exactClass().valid()) << "same class survives the join";
  EXPECT_TRUE(K0.join(K1));
  EXPECT_FALSE(K0.exactClass().valid()) << "disagreeing classes collapse";
  EXPECT_TRUE(K0.definitely(Type::Obj)) << "the type mask is unaffected";

  AbstractValue T = AbstractValue::boolConst(true);
  EXPECT_EQ(T.truthiness(), Tribool::True);
  EXPECT_TRUE(T.join(AbstractValue::boolConst(false)));
  EXPECT_EQ(T.truthiness(), Tribool::Unknown);
  EXPECT_TRUE(T.definitely(Type::Bool));
}

TEST(AbstractValue, Truthiness) {
  EXPECT_EQ(AbstractValue::ofType(Type::Null).truthiness(), Tribool::False);
  EXPECT_EQ(AbstractValue::obj(bc::ClassId(3)).truthiness(), Tribool::True);
  EXPECT_EQ(AbstractValue::boolConst(false).truthiness(), Tribool::False);
  EXPECT_EQ(AbstractValue::ofType(Type::Int).truthiness(), Tribool::Unknown);
  EXPECT_EQ(AbstractValue::top().truthiness(), Tribool::Unknown);
}

TEST(AbstractValue, WideningJumpsToTop) {
  AbstractValue Old = AbstractValue::ofType(Type::Int);
  // No growth: widening is a no-op (modulo refinements).
  EXPECT_EQ(AbstractValue::widen(Old, Old), Old);
  // Any growth jumps straight to Top.
  AbstractValue Grown = AbstractValue::widen(Old, AbstractValue::ofType(Type::Str));
  EXPECT_TRUE(Grown.isTop());
  // Widening from bottom adopts the new value.
  EXPECT_EQ(AbstractValue::widen(AbstractValue::bottom(), Old), Old);
}

//===----------------------------------------------------------------------===//
// Defect fixtures: each seeded defect must be caught, with the right kind.
//===----------------------------------------------------------------------===//

TEST(TypeFlow, UnreachableBlockBehindConstantBranch) {
  AnalysisFixture Fix([](bc::Repo &, bc::Function &, FuncBuilder &B) {
    auto End = B.newLabel();
    B.emit(Op::True);           // 0
    B.emitJump(Op::JmpNZ, End); // 1: always taken
    B.emit(Op::Int, 42);        // 2: dead, and not compiler plumbing
    B.emit(Op::PopC);           // 3
    B.bind(End);
    B.emit(Op::Null);           // 4
    B.emit(Op::RetC);           // 5
  });
  std::vector<Diagnostic> Diags = Fix.lint();
  EXPECT_TRUE(hasKind(Diags, DiagKind::UnreachableBlock));
  EXPECT_TRUE(hasKind(Diags, DiagKind::DeadGuard));
  EXPECT_EQ(countErrors(Diags), 0u) << "dead code is legal, so warnings only";
}

TEST(TypeFlow, DeadGuardOnConstantCondition) {
  AnalysisFixture Fix([](bc::Repo &, bc::Function &, FuncBuilder &B) {
    auto End = B.newLabel();
    B.emit(Op::True);          // 0
    B.emitJump(Op::JmpZ, End); // 1: never taken
    B.emit(Op::Int, 1);        // 2
    B.emit(Op::PopC);          // 3
    B.bind(End);
    B.emit(Op::Null);          // 4
    B.emit(Op::RetC);          // 5
  });
  std::vector<Diagnostic> Diags = Fix.lint();
  ASSERT_TRUE(hasKind(Diags, DiagKind::DeadGuard));
  for (const Diagnostic &D : Diags) {
    if (D.Kind == DiagKind::DeadGuard) {
      EXPECT_EQ(D.Instr, 1u);
    }
  }
}

TEST(TypeFlow, UseBeforeAssign) {
  AnalysisFixture Fix(
      [](bc::Repo &, bc::Function &, FuncBuilder &B) {
        B.emit(Op::GetL, 0); // 0: local 0 is never assigned
        B.emit(Op::RetC);    // 1
      },
      /*NumParams=*/0, /*NumLocals=*/1);
  std::vector<Diagnostic> Diags = Fix.lint();
  ASSERT_TRUE(hasKind(Diags, DiagKind::UseBeforeAssign));
  EXPECT_EQ(countErrors(Diags), 0u) << "reading null is legal -> warning";
}

TEST(TypeFlow, ParamsAreNotUseBeforeAssign) {
  AnalysisFixture Fix(
      [](bc::Repo &, bc::Function &, FuncBuilder &B) {
        B.emit(Op::GetL, 0); // parameter: assigned by the caller
        B.emit(Op::RetC);
      },
      /*NumParams=*/1, /*NumLocals=*/1);
  EXPECT_TRUE(Fix.lint().empty());
}

TEST(TypeFlow, SameBlockDeadStore) {
  AnalysisFixture Fix(
      [](bc::Repo &, bc::Function &, FuncBuilder &B) {
        B.emit(Op::Int, 1);  // 0
        B.emit(Op::SetL, 0); // 1: dead -- overwritten at 3, never read
        B.emit(Op::Int, 2);  // 2
        B.emit(Op::SetL, 0); // 3
        B.emit(Op::GetL, 0); // 4
        B.emit(Op::RetC);    // 5
      },
      /*NumParams=*/0, /*NumLocals=*/1);
  std::vector<Diagnostic> Diags = Fix.lint();
  ASSERT_EQ(countKind(Diags, DiagKind::DeadStore), 1u);
  for (const Diagnostic &D : Diags) {
    if (D.Kind == DiagKind::DeadStore) {
      EXPECT_EQ(D.Instr, 1u) << "the dead store is the *earlier* SetL";
    }
  }
}

TEST(TypeFlow, StoreReadBeforeOverwriteIsNotDead) {
  AnalysisFixture Fix(
      [](bc::Repo &, bc::Function &, FuncBuilder &B) {
        B.emit(Op::Int, 1);  // 0
        B.emit(Op::SetL, 0); // 1
        B.emit(Op::GetL, 0); // 2: reads it
        B.emit(Op::PopC);    // 3
        B.emit(Op::Int, 2);  // 4
        B.emit(Op::SetL, 0); // 5
        B.emit(Op::GetL, 0); // 6
        B.emit(Op::RetC);    // 7
      },
      /*NumParams=*/0, /*NumLocals=*/1);
  EXPECT_FALSE(hasKind(Fix.lint(), DiagKind::DeadStore));
}

TEST(TypeFlow, GuaranteedArithTypeError) {
  AnalysisFixture Fix([](bc::Repo &R, bc::Function &, FuncBuilder &B) {
    B.emit(Op::Str, R.internString("s").raw()); // 0
    B.emit(Op::Int, 1);                         // 1
    B.emit(Op::Add);                            // 2: str + int always faults
    B.emit(Op::RetC);                           // 3
  });
  std::vector<Diagnostic> Diags = Fix.lint();
  ASSERT_TRUE(hasKind(Diags, DiagKind::TypeError));
  EXPECT_GT(countErrors(Diags), 0u);
}

TEST(TypeFlow, IntArithIsClean) {
  AnalysisFixture Fix([](bc::Repo &, bc::Function &, FuncBuilder &B) {
    B.emit(Op::Int, 2);
    B.emit(Op::Int, 3);
    B.emit(Op::Add);
    B.emit(Op::RetC);
  });
  EXPECT_TRUE(Fix.lint().empty());
}

TEST(TypeFlow, GetPropOnNonObject) {
  AnalysisFixture Fix([](bc::Repo &R, bc::Function &, FuncBuilder &B) {
    B.emit(Op::Int, 3);                           // 0
    B.emit(Op::GetProp, R.internString("p").raw()); // 1: receiver is int
    B.emit(Op::RetC);                             // 2
  });
  EXPECT_TRUE(hasKind(Fix.lint(), DiagKind::TypeError));
}

TEST(TypeFlow, MissingMethodOnExactClass) {
  AnalysisFixture Fix([](bc::Repo &R, bc::Function &Func, FuncBuilder &B) {
    (void)Func;
    B.emit(Op::NewObj, R.findClass("K").raw());                // 0
    B.emit(Op::FCallObj, R.internString("nope").raw(), 0);     // 1
    B.emit(Op::RetC);                                          // 2
  });
  EXPECT_TRUE(hasKind(Fix.lint(), DiagKind::TypeError));
}

TEST(TypeFlow, MissingPropertyOnExactClass) {
  AnalysisFixture Fix([](bc::Repo &R, bc::Function &, FuncBuilder &B) {
    B.emit(Op::NewObj, R.findClass("K").raw());                 // 0
    B.emit(Op::GetProp, R.internString("absent").raw());        // 1
    B.emit(Op::RetC);                                           // 2
  });
  EXPECT_TRUE(hasKind(Fix.lint(), DiagKind::TypeError));
}

TEST(TypeFlow, CleanDiamondJoin) {
  // A value that is int on one path and str on the other; using it in
  // arithmetic afterwards *may* fault but is not guaranteed to -> clean.
  AnalysisFixture Fix(
      [](bc::Repo &R, bc::Function &, FuncBuilder &B) {
        auto Else = B.newLabel();
        auto End = B.newLabel();
        B.emit(Op::GetL, 0);                         // 0
        B.emitJump(Op::JmpZ, Else);                  // 1
        B.emit(Op::Int, 1);                          // 2
        B.emit(Op::SetL, 1);                         // 3
        B.emitJump(Op::Jmp, End);                    // 4
        B.bind(Else);
        B.emit(Op::Str, R.internString("x").raw());  // 5
        B.emit(Op::SetL, 1);                         // 6
        B.bind(End);
        B.emit(Op::GetL, 1);                         // 7
        B.emit(Op::Int, 1);                          // 8
        B.emit(Op::Add);                             // 9
        B.emit(Op::RetC);                            // 10
      },
      /*NumParams=*/1, /*NumLocals=*/2);
  EXPECT_TRUE(Fix.lint().empty());
}

TEST(Linter, PassZeroCatchesStructuralBreakage) {
  // Falls off the end of the function: a structural error, reported as
  // DiagKind::Structural, and the dataflow passes must not run (their
  // preconditions do not hold).
  AnalysisFixture Fix([](bc::Repo &, bc::Function &, FuncBuilder &B) {
    B.emit(Op::Int, 1);
    B.emit(Op::PopC);
  });
  std::vector<Diagnostic> Diags = Fix.lint();
  ASSERT_FALSE(Diags.empty());
  for (const Diagnostic &D : Diags) {
    EXPECT_EQ(D.Kind, DiagKind::Structural);
    EXPECT_EQ(D.Sev, Severity::Error);
  }
}

//===----------------------------------------------------------------------===//
// Region cross-validation.
//===----------------------------------------------------------------------===//

namespace {

/// Receiver in local 0 (a parameter), two devirtualized FCallObj sites on
/// it: the second guard is implied by the first.
AnalysisFixture twoGuardFixture() {
  return AnalysisFixture(
      [](bc::Repo &R, bc::Function &, FuncBuilder &B) {
        int64_t M = R.internString("m").raw();
        B.emit(Op::GetL, 0);       // 0
        B.emit(Op::FCallObj, M, 0); // 1: first guard
        B.emit(Op::PopC);          // 2
        B.emit(Op::GetL, 0);       // 3
        B.emit(Op::FCallObj, M, 0); // 4: implied by the guard at 1
        B.emit(Op::RetC);          // 5
      },
      /*NumParams=*/1, /*NumLocals=*/1);
}

} // namespace

TEST(RegionCheck, RedundantGuardViaDominatingGuard) {
  AnalysisFixture Fix = twoGuardFixture();
  jit::RegionDescriptor Region;
  Region.Func = Fix.F;
  Region.DevirtualizedCalls[jit::RegionDescriptor::siteKey(Fix.F, 1)] =
      Fix.MethodM;
  Region.DevirtualizedCalls[jit::RegionDescriptor::siteKey(Fix.F, 4)] =
      Fix.MethodM;

  Linter L(Fix.R, numBuiltins());
  std::vector<Diagnostic> Diags = L.lintRegion(Region);
  ASSERT_EQ(countKind(Diags, DiagKind::RedundantGuard), 1u);
  for (const Diagnostic &D : Diags) {
    if (D.Kind == DiagKind::RedundantGuard) {
      EXPECT_EQ(D.Instr, 4u) << "the *second* guard is the redundant one";
    }
  }
  EXPECT_FALSE(hasKind(Diags, DiagKind::GuardNeverPasses));
  EXPECT_EQ(countErrors(Diags), 0u);
}

TEST(RegionCheck, RedundantGuardViaStaticReceiverType) {
  AnalysisFixture Fix(
      [](bc::Repo &R, bc::Function &, FuncBuilder &B) {
        B.emit(Op::NewObj, R.findClass("K").raw());        // 0
        B.emit(Op::SetL, 0);                               // 1
        B.emit(Op::GetL, 0);                               // 2
        B.emit(Op::FCallObj, R.internString("m").raw(), 0); // 3
        B.emit(Op::RetC);                                  // 4
      },
      /*NumParams=*/0, /*NumLocals=*/1);
  jit::RegionDescriptor Region;
  Region.Func = Fix.F;
  Region.DevirtualizedCalls[jit::RegionDescriptor::siteKey(Fix.F, 3)] =
      Fix.MethodM;

  Linter L(Fix.R, numBuiltins());
  std::vector<Diagnostic> Diags = L.lintRegion(Region);
  ASSERT_TRUE(hasKind(Diags, DiagKind::RedundantGuard));
  EXPECT_EQ(countErrors(Diags), 0u);
}

TEST(RegionCheck, GuardOnNonObjectNeverPasses) {
  AnalysisFixture Fix(
      [](bc::Repo &R, bc::Function &, FuncBuilder &B) {
        B.emit(Op::Int, 7);                                // 0
        B.emit(Op::SetL, 0);                               // 1
        B.emit(Op::GetL, 0);                               // 2
        B.emit(Op::FCallObj, R.internString("m").raw(), 0); // 3
        B.emit(Op::RetC);                                  // 4
      },
      /*NumParams=*/0, /*NumLocals=*/1);
  jit::RegionDescriptor Region;
  Region.Func = Fix.F;
  Region.DevirtualizedCalls[jit::RegionDescriptor::siteKey(Fix.F, 3)] =
      Fix.MethodM;

  Linter L(Fix.R, numBuiltins());
  std::vector<Diagnostic> Diags = L.lintRegion(Region);
  ASSERT_TRUE(hasKind(Diags, DiagKind::GuardNeverPasses));
  EXPECT_GT(countErrors(Diags), 0u);
}

TEST(RegionCheck, StructurallyBadSites) {
  AnalysisFixture Fix([](bc::Repo &, bc::Function &, FuncBuilder &B) {
    B.emit(Op::Nop);  // 0
    B.emit(Op::Null); // 1
    B.emit(Op::RetC); // 2
  });
  jit::RegionDescriptor Region;
  Region.Func = Fix.F;
  // Site 0 is a Nop, not a call; and a site in a function that does not
  // exist.
  Region.DevirtualizedCalls[jit::RegionDescriptor::siteKey(Fix.F, 0)] =
      Fix.MethodM;
  Region.InlinedCalls[jit::RegionDescriptor::siteKey(bc::FuncId(999), 0)] =
      Fix.MethodM;

  Linter L(Fix.R, numBuiltins());
  std::vector<Diagnostic> Diags = L.lintRegion(Region);
  EXPECT_GE(countKind(Diags, DiagKind::RegionInconsistent), 2u);
}

TEST(RegionCheck, RealTranslationsAreConsistent) {
  // Boot a real server over a generated workload, let the JIT go through
  // profile -> optimize, then cross-check every translation it made.
  fleet::WorkloadParams P;
  P.NumHelpers = 80;
  P.NumClasses = 16;
  P.NumEndpoints = 8;
  P.NumUnits = 8;
  auto W = fleet::generateWorkload(P);

  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 15;
  vm::Server Server(W->Repo, Config, /*Seed=*/7);
  Server.startup();
  Rng R(11);
  for (uint32_t I = 0; I < 60; ++I) {
    uint32_t E = R.nextBelow(static_cast<uint32_t>(W->Endpoints.size()));
    Server.executeRequest(W->Endpoints[E], fleet::TrafficModel::makeArgs(R));
    Server.grantJitTime(0.5);
  }
  while (Server.theJit().hasPendingWork())
    Server.grantJitTime(1.0);
  ASSERT_GT(Server.theJit().transDb().all().size(), 0u);

  Linter L(W->Repo, numBuiltins());
  std::vector<Diagnostic> Diags =
      L.lintTranslations(Server.theJit().transDb());
  EXPECT_TRUE(Diags.empty())
      << "first inconsistency: " << Diags.front().str(&W->Repo);
}

//===----------------------------------------------------------------------===//
// Profile-package lint.
//===----------------------------------------------------------------------===//

namespace {

/// A fixture repo for package linting (class K with property "p").
struct PackageFixture {
  AnalysisFixture Fix;
  Linter L;

  PackageFixture()
      : Fix([](bc::Repo &, bc::Function &, FuncBuilder &B) {
          B.emit(Op::Null);  // 0
          B.emit(Op::RetC);  // 1
        }),
        L(Fix.R, numBuiltins()) {}

  std::vector<Diagnostic> lint(const profile::ProfilePackage &Pkg) {
    return L.lintPackage(Pkg);
  }
};

} // namespace

TEST(PackageLint, CleanEmptyPackage) {
  PackageFixture Fx;
  profile::ProfilePackage Pkg;
  EXPECT_TRUE(Fx.lint(Pkg).empty());
}

TEST(PackageLint, FunctionIdOutOfRange) {
  PackageFixture Fx;
  profile::ProfilePackage Pkg;
  profile::FuncProfile FP;
  FP.Func = 1000;
  Pkg.Funcs.push_back(FP);
  EXPECT_TRUE(hasKind(Fx.lint(Pkg), DiagKind::PackageStructure));
}

TEST(PackageLint, DuplicateFunctionProfile) {
  PackageFixture Fx;
  profile::ProfilePackage Pkg;
  profile::FuncProfile FP;
  FP.Func = 0;
  Pkg.Funcs.push_back(FP);
  Pkg.Funcs.push_back(FP);
  EXPECT_TRUE(hasKind(Fx.lint(Pkg), DiagKind::PackageStructure));
}

TEST(PackageLint, OversizedBlockCounters) {
  PackageFixture Fx;
  profile::ProfilePackage Pkg;
  profile::FuncProfile FP;
  FP.Func = Fx.Fix.F.raw();
  FP.BlockCounts.assign(50, 1); // "f" has a single block
  Pkg.Funcs.push_back(FP);
  EXPECT_TRUE(hasKind(Fx.lint(Pkg), DiagKind::PackageStructure));
}

TEST(PackageLint, CallTargetsAtNonVirtualSite) {
  PackageFixture Fx;
  profile::ProfilePackage Pkg;
  profile::FuncProfile FP;
  FP.Func = Fx.Fix.F.raw();
  FP.CallTargets[0][Fx.Fix.MethodM.raw()] = 10; // instr 0 is Null
  Pkg.Funcs.push_back(FP);
  EXPECT_TRUE(hasKind(Fx.lint(Pkg), DiagKind::PackageSemantics));
}

TEST(PackageLint, TypeObservationAtNonObservingSite) {
  PackageFixture Fx;
  profile::ProfilePackage Pkg;
  profile::FuncProfile FP;
  FP.Func = Fx.Fix.F.raw();
  FP.LoadTypes[1].observe(Type::Int); // instr 1 is RetC
  Pkg.Funcs.push_back(FP);
  EXPECT_TRUE(hasKind(Fx.lint(Pkg), DiagKind::PackageSemantics));
}

TEST(PackageLint, ImplausibleParamArity) {
  PackageFixture Fx;
  profile::ProfilePackage Pkg;
  profile::FuncProfile FP;
  FP.Func = Fx.Fix.F.raw();
  FP.ParamTypes.resize(bc::kMaxCallArgs + 1);
  Pkg.Funcs.push_back(FP);
  EXPECT_TRUE(hasKind(Fx.lint(Pkg), DiagKind::PackageStructure));
}

TEST(PackageLint, PreloadDuplicatesAndRanges) {
  PackageFixture Fx;
  profile::ProfilePackage Pkg;
  Pkg.Preload.Strings = {0, 0}; // duplicate
  EXPECT_TRUE(hasKind(Fx.lint(Pkg), DiagKind::PackageStructure));

  profile::ProfilePackage Pkg2;
  Pkg2.Preload.Classes = {12345}; // out of range
  EXPECT_TRUE(hasKind(Fx.lint(Pkg2), DiagKind::PackageStructure));
}

TEST(PackageLint, PropertyCounterKeys) {
  PackageFixture Fx;

  profile::ProfilePackage Good;
  Good.Opt.PropAccessCounts["K::p"] = 5;
  EXPECT_TRUE(Fx.lint(Good).empty());

  profile::ProfilePackage BadProp;
  BadProp.Opt.PropAccessCounts["K::nope"] = 5;
  EXPECT_TRUE(hasKind(Fx.lint(BadProp), DiagKind::PackageSemantics));

  profile::ProfilePackage BadClass;
  BadClass.Opt.PropAccessCounts["Ghost::p"] = 5;
  EXPECT_TRUE(hasKind(Fx.lint(BadClass), DiagKind::PackageSemantics));

  profile::ProfilePackage Malformed;
  Malformed.Opt.PropAccessCounts["K"] = 5;
  EXPECT_TRUE(hasKind(Fx.lint(Malformed), DiagKind::PackageStructure));
}

TEST(PackageLint, AffinityKeysMustBeCanonical) {
  PackageFixture Fx;
  // "K" declares only "p", so use two synthetic names on the class.
  Fx.Fix.R.clsMutable(Fx.Fix.K).DeclProps.push_back(
      Fx.Fix.R.internString("q"));

  profile::ProfilePackage Good;
  Good.Opt.PropAffinity["K::p::q"] = 3;
  EXPECT_TRUE(Fx.lint(Good).empty());

  profile::ProfilePackage Reversed;
  Reversed.Opt.PropAffinity["K::q::p"] = 3;
  EXPECT_TRUE(hasKind(Fx.lint(Reversed), DiagKind::PackageStructure));
}

TEST(PackageLint, IntermediateResultIds) {
  PackageFixture Fx;
  profile::ProfilePackage Pkg;
  Pkg.Intermediate.FuncOrder = {0, 1, 0}; // duplicate
  EXPECT_TRUE(hasKind(Fx.lint(Pkg), DiagKind::PackageStructure));

  profile::ProfilePackage Pkg2;
  Pkg2.Intermediate.LiveFuncs = {4444}; // out of range
  EXPECT_TRUE(hasKind(Fx.lint(Pkg2), DiagKind::PackageStructure));
}

//===----------------------------------------------------------------------===//
// StrictPackageLint in the consumer accept path.
//===----------------------------------------------------------------------===//

namespace {

class StrictLintFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    fleet::WorkloadParams P;
    P.NumHelpers = 120;
    P.NumClasses = 24;
    P.NumEndpoints = 12;
    P.NumUnits = 12;
    W = fleet::generateWorkload(P).release();
    Traffic = new fleet::TrafficModel(*W, fleet::TrafficParams(), 42);
  }
  static void TearDownTestSuite() {
    delete Traffic;
    delete W;
  }

  static vm::ServerConfig baseConfig() {
    vm::ServerConfig C;
    C.Jit.ProfileRequestTarget = 20;
    return C;
  }

  static core::JumpStartOptions lenientOpts() {
    core::JumpStartOptions O;
    O.Coverage.MinProfiledFuncs = 3;
    O.Coverage.MinTotalSamples = 50;
    O.Coverage.MinPackageBytes = 64;
    O.ValidationRequests = 10;
    return O;
  }

  static fleet::Workload *W;
  static fleet::TrafficModel *Traffic;
};

fleet::Workload *StrictLintFixture::W = nullptr;
fleet::TrafficModel *StrictLintFixture::Traffic = nullptr;

} // namespace

TEST_F(StrictLintFixture, SeederPublishesCleanPackage) {
  core::PackageManager Store;
  core::SeederParams SP;
  SP.Requests = 120;
  SP.Seed = 5;
  core::SeederOutcome Out = core::runSeederWorkflow(
      *W, *Traffic, baseConfig(), lenientOpts(), Store, SP);
  ASSERT_TRUE(Out.Published)
      << (Out.Problems.empty() ? "" : Out.Problems.front());

  // The published package really is lint-clean.
  Linter L(W->Repo, numBuiltins());
  EXPECT_TRUE(L.lintPackage(Out.Package).empty());
}

TEST_F(StrictLintFixture, ConsumerRejectsCorruptPackageBeforeUse) {
  // Produce a genuine package, then corrupt it *semantically*: the blob
  // stays checksum-clean and fingerprint-correct, so only the strict lint
  // can catch it -- at accept time, before it steers any compilation.
  core::PackageManager CleanStore;
  core::SeederParams SP;
  SP.Requests = 120;
  SP.Seed = 5;
  core::SeederOutcome Seeded = core::runSeederWorkflow(
      *W, *Traffic, baseConfig(), lenientOpts(), CleanStore, SP);
  ASSERT_TRUE(Seeded.Published);

  profile::ProfilePackage Corrupt = Seeded.Package;
  if (Corrupt.Preload.Strings.empty())
    Corrupt.Preload.Strings.push_back(0);
  Corrupt.Preload.Strings.push_back(Corrupt.Preload.Strings.front());

  core::PackageManager Store;
  ASSERT_TRUE(Store.publish(0, 0, Corrupt.serialize()).ok());

  core::ConsumerOutcome Out = core::startConsumer(
      *W, baseConfig(), lenientOpts(), Store, core::ConsumerParams());
  EXPECT_FALSE(Out.UsedJumpStart);
  ASSERT_NE(Out.Server, nullptr) << "fallback must still boot the server";
  bool SawLintRejection = false;
  for (const std::string &Line : Out.Log)
    if (Line.find("strict lint") != std::string::npos)
      SawLintRejection = true;
  EXPECT_TRUE(SawLintRejection);

  // Control: with strict linting off, the same package is accepted (the
  // duplicate preload entry is operationally harmless).
  core::JumpStartOptions Lax = lenientOpts();
  Lax.StrictPackageLint = false;
  core::ConsumerOutcome Out2 = core::startConsumer(
      *W, baseConfig(), Lax, Store, core::ConsumerParams());
  EXPECT_TRUE(Out2.UsedJumpStart);
}

//===----------------------------------------------------------------------===//
// Zero false positives over a whole generated application.
//===----------------------------------------------------------------------===//

TEST(ZeroFalsePositives, GeneratedWorkloadIsClean) {
  fleet::WorkloadParams P;
  P.NumHelpers = 150;
  P.NumClasses = 30;
  P.NumEndpoints = 15;
  P.NumUnits = 15;
  auto W = fleet::generateWorkload(P);

  Linter L(W->Repo, numBuiltins());
  std::vector<Diagnostic> Diags = L.lintRepo();
  EXPECT_TRUE(Diags.empty())
      << "first diagnostic: " << Diags.front().str(&W->Repo);
}

//===----------------------------------------------------------------------===//
// Interprocedural analysis: call graph, summaries, whole-program facts.
//===----------------------------------------------------------------------===//

namespace {

/// A seven-function repo exercising every call-graph shape: a leaf, a
/// direct caller of it, a mutually recursive pair with a base case, a
/// heap-writing function, and a devirtualizable virtual call on a fresh
/// exact-class receiver.
struct InterproceduralFixture {
  bc::Repo R;
  bc::ClassId K;
  bc::StringId NameM, PropP;
  bc::FuncId MethodM, Leaf, Caller, RecA, RecB, Writer, Virt;
  /// Instruction index of the FCallObj inside virt().
  uint32_t VirtCallPc = 1;

  InterproceduralFixture() {
    bc::Unit &U = R.createUnit("inter");
    bc::Class &Cls = R.createClass(U, "K");
    K = Cls.Id;
    NameM = R.internString("m");
    PropP = R.internString("p");
    R.clsMutable(K).DeclProps.push_back(PropP);

    // Create every function up front: Repo stores functions in a vector,
    // so references from createFunction go stale as more are added.
    MethodM = R.createFunction(U, "K::m").Id;
    Leaf = R.createFunction(U, "leaf").Id;
    Caller = R.createFunction(U, "caller").Id;
    RecA = R.createFunction(U, "recA").Id;
    RecB = R.createFunction(U, "recB").Id;
    Writer = R.createFunction(U, "writer").Id;
    Virt = R.createFunction(U, "virt").Id;

    R.funcMutable(MethodM).Cls = K;
    R.clsMutable(K).Methods.emplace(NameM.raw(), MethodM);

    build(MethodM, 0, 0, [&](FuncBuilder &B) {
      B.emit(Op::Int, 7);
      B.emit(Op::RetC);
    });
    build(Leaf, 0, 0, [&](FuncBuilder &B) {
      B.emit(Op::Int, 1);
      B.emit(Op::RetC);
    });
    build(Caller, 0, 0, [&](FuncBuilder &B) {
      B.emit(Op::FCall, Leaf.raw(), 0);
      B.emit(Op::RetC);
    });
    auto Recur = [&](bc::FuncId Other) {
      return [&, Other](FuncBuilder &B) {
        auto Base = B.newLabel();
        B.emit(Op::GetL, 0);        // 0
        B.emitJump(Op::JmpZ, Base); // 1
        B.emit(Op::GetL, 0);        // 2
        B.emit(Op::FCall, Other.raw(), 1); // 3
        B.emit(Op::RetC);           // 4
        B.bind(Base);
        B.emit(Op::Int, 0);         // 5
        B.emit(Op::RetC);           // 6
      };
    };
    build(RecA, 1, 1, Recur(RecB));
    build(RecB, 1, 1, Recur(RecA));
    build(Writer, 0, 0, [&](FuncBuilder &B) {
      B.emit(Op::NewObj, K.raw()); // 0
      B.emit(Op::Int, 1);          // 1
      B.emit(Op::SetProp, PropP.raw()); // 2
      B.emit(Op::Null);            // 3
      B.emit(Op::RetC);            // 4
    });
    build(Virt, 0, 0, [&](FuncBuilder &B) {
      B.emit(Op::NewObj, K.raw());          // 0
      B.emit(Op::FCallObj, NameM.raw(), 0); // 1
      B.emit(Op::RetC);                     // 2
    });
  }

  template <typename Fn>
  void build(bc::FuncId F, uint32_t NumParams, uint32_t NumLocals, Fn Body) {
    bc::Function &Func = R.funcMutable(F);
    Func.NumParams = NumParams;
    Func.NumLocals = NumLocals;
    FuncBuilder B(Func);
    Body(B);
    B.finish();
  }

  /// Index of the component containing \p F in bottom-up order.
  static size_t componentIndex(const CallGraph &CG, bc::FuncId F) {
    const auto &Comps = CG.components();
    for (size_t I = 0; I < Comps.size(); ++I)
      for (bc::FuncId G : Comps[I])
        if (G == F)
          return I;
    ADD_FAILURE() << "function " << F.raw() << " is in no component";
    return 0;
  }
};

} // namespace

TEST(CallGraphTest, DirectAndChaEdges) {
  InterproceduralFixture Fx;
  CallGraph CG(Fx.R);

  EXPECT_TRUE(CG.hasEdge(Fx.Caller, Fx.Leaf));
  EXPECT_FALSE(CG.hasEdge(Fx.Leaf, Fx.Caller));
  EXPECT_TRUE(CG.hasEdge(Fx.Virt, Fx.MethodM))
      << "virtual sites contribute class-hierarchy edges";
  // caller->leaf, recA->recB, recB->recA, virt->K::m.
  EXPECT_EQ(CG.numEdges(), 4u);

  ASSERT_EQ(CG.sites(Fx.Virt).size(), 1u);
  const CallSite &S = CG.sites(Fx.Virt).front();
  EXPECT_TRUE(S.Virtual);
  EXPECT_EQ(S.Pc, Fx.VirtCallPc);
  ASSERT_EQ(S.Targets.size(), 1u);
  EXPECT_EQ(S.Targets.front(), Fx.MethodM);

  EXPECT_EQ(CG.uniqueResolution(Fx.NameM), Fx.MethodM);
  EXPECT_TRUE(CG.allClassesResolve(Fx.NameM));
  ASSERT_EQ(CG.resolutions(Fx.NameM).size(), 1u);
}

TEST(CallGraphTest, SccCondensationIsBottomUp) {
  InterproceduralFixture Fx;
  CallGraph CG(Fx.R);

  EXPECT_EQ(CG.sccOf(Fx.RecA), CG.sccOf(Fx.RecB))
      << "mutual recursion collapses into one component";
  EXPECT_NE(CG.sccOf(Fx.Leaf), CG.sccOf(Fx.Caller));
  EXPECT_TRUE(CG.recursive(Fx.RecA));
  EXPECT_TRUE(CG.recursive(Fx.RecB));
  EXPECT_FALSE(CG.recursive(Fx.Caller));
  EXPECT_FALSE(CG.recursive(Fx.Leaf));

  // 7 functions, RecA+RecB merged: 6 components, callees first.
  EXPECT_EQ(CG.components().size(), 6u);
  EXPECT_LT(InterproceduralFixture::componentIndex(CG, Fx.Leaf),
            InterproceduralFixture::componentIndex(CG, Fx.Caller));
  EXPECT_LT(InterproceduralFixture::componentIndex(CG, Fx.MethodM),
            InterproceduralFixture::componentIndex(CG, Fx.Virt));
}

TEST(SummariesTest, ReturnLatticePurityAndRecursiveFixpoint) {
  InterproceduralFixture Fx;
  WholeProgram WP(Fx.R);

  EXPECT_TRUE(WP.summary(Fx.Leaf).Ret.definitely(Type::Int));
  EXPECT_TRUE(WP.summary(Fx.Caller).Ret.definitely(Type::Int))
      << "the callee's return summary must flow into the caller's";
  EXPECT_TRUE(WP.summary(Fx.RecA).Ret.definitely(Type::Int))
      << "the recursive component must converge to int, not widen to top";
  EXPECT_TRUE(WP.summary(Fx.RecB).Ret.definitely(Type::Int));
  EXPECT_GE(WP.summaries().maxRounds(), 2u)
      << "a recursive component cannot stabilize in a single round";

  EXPECT_TRUE(WP.summary(Fx.Leaf).pure());
  EXPECT_TRUE(WP.summary(Fx.Caller).pure())
      << "purity is transitive through pure callees";
  EXPECT_TRUE(WP.summary(Fx.Writer).WritesHeap);
  EXPECT_FALSE(WP.summary(Fx.Writer).pure());
}

TEST(WholeProgramTest, ProvenDevirtAndStats) {
  InterproceduralFixture Fx;
  WholeProgram WP(Fx.R);
  std::shared_ptr<const jit::ProvenFacts> Facts = WP.jitFacts();
  ASSERT_NE(Facts, nullptr);

  auto It = Facts->ProvenCalls.find(
      jit::ProvenFacts::siteKey(Fx.Virt.raw(), Fx.VirtCallPc));
  ASSERT_NE(It, Facts->ProvenCalls.end())
      << "a virtual call on a freshly allocated receiver must be proven";
  EXPECT_EQ(It->second.Target, Fx.MethodM.raw());
  EXPECT_EQ(It->second.Proof, jit::GuardProof::ExactRecv);
  EXPECT_EQ(It->second.RecvCls, Fx.K.raw());

  bool SawCallSeed = false;
  for (const jit::ProvenFacts::ICSeed &S : Facts->ICSeeds)
    SawCallSeed |= S.Func == Fx.Virt.raw() && S.Pc == Fx.VirtCallPc &&
                   S.Cls == Fx.K.raw() &&
                   S.K == jit::ProvenFacts::ICSeed::Kind::Call;
  EXPECT_TRUE(SawCallSeed) << "the proven monomorphic site must seed its IC";

  WholeProgram::Stats S = WP.stats();
  EXPECT_EQ(S.Functions, Fx.R.numFuncs());
  EXPECT_EQ(S.Edges, 4u);
  EXPECT_EQ(S.Components, 6u);
  EXPECT_EQ(S.RecursiveComponents, 1u);
  EXPECT_GE(S.MaxRounds, 2u);
  EXPECT_GE(S.ProvenCalls, 1u);
  EXPECT_GE(S.ICSeeds, 1u);
}

TEST(RegionCheck, ElisionReproofCatchesBogusClaims) {
  InterproceduralFixture Fx;
  jit::TransDb Db;
  auto MakeUnit = [&](uint8_t Proof, uint32_t Target, uint32_t Cls) {
    auto U = std::make_unique<jit::VasmUnit>();
    U->Func = Fx.Virt;
    jit::VasmUnit::ElidedGuard EG;
    EG.SiteKey = jit::ProvenFacts::siteKey(Fx.Virt.raw(), Fx.VirtCallPc);
    EG.ProofKind = Proof;
    EG.ClsOrMask = Cls;
    EG.Target = Target;
    U->ElidedGuards.push_back(EG);
    return U;
  };
  uint8_t Exact = static_cast<uint8_t>(jit::GuardProof::ExactRecv);
  // Sound claim: the analysis proves exactly this elision.
  Db.create(jit::TransKind::Optimized,
            MakeUnit(Exact, Fx.MethodM.raw(), Fx.K.raw()));
  // Wrong target: claims the site dispatches somewhere it cannot.
  Db.create(jit::TransKind::Optimized,
            MakeUnit(Exact, Fx.Leaf.raw(), Fx.K.raw()));
  // Wrong receiver class for an otherwise-correct target.
  Db.create(jit::TransKind::Optimized,
            MakeUnit(Exact, Fx.MethodM.raw(), Fx.K.raw() + 17));
  EXPECT_EQ(Db.guardsElided(), 3u);

  Linter L(Fx.R, numBuiltins());
  std::vector<Diagnostic> Diags = L.lintTranslations(Db);
  EXPECT_EQ(countKind(Diags, DiagKind::ElisionUnproven), 2u)
      << "exactly the two bogus claims must fail re-proof";
  for (const Diagnostic &D : Diags) {
    if (D.Kind == DiagKind::ElisionUnproven) {
      EXPECT_EQ(D.Sev, Severity::Error);
    }
  }
}

TEST(PackageLint, CallGraphContradictions) {
  InterproceduralFixture Fx;
  Linter L(Fx.R, numBuiltins());

  // A profiled dynamic target that is not a CHA resolution of the site's
  // method name contradicts the static over-approximation.
  profile::ProfilePackage Bad;
  profile::FuncProfile FP;
  FP.Func = Fx.Virt.raw();
  FP.CallTargets[Fx.VirtCallPc][Fx.Leaf.raw()] = 10;
  Bad.Funcs.push_back(FP);
  EXPECT_TRUE(hasKind(L.lintPackage(Bad, /*CrossCheckCallGraph=*/true),
                      DiagKind::SummaryContradiction));
  EXPECT_FALSE(hasKind(L.lintPackage(Bad, /*CrossCheckCallGraph=*/false),
                       DiagKind::SummaryContradiction))
      << "the cross-check is opt-in";

  // The genuine resolution is consistent.
  profile::ProfilePackage Good;
  profile::FuncProfile GP;
  GP.Func = Fx.Virt.raw();
  GP.CallTargets[Fx.VirtCallPc][Fx.MethodM.raw()] = 10;
  Good.Funcs.push_back(GP);
  EXPECT_FALSE(hasKind(L.lintPackage(Good, /*CrossCheckCallGraph=*/true),
                       DiagKind::SummaryContradiction));

  // A profiled call arc with no static call path is impossible (leaf
  // calls nothing, so leaf -> caller cannot be explained by inlining).
  profile::ProfilePackage BadArc;
  BadArc.Opt.CallArcs[{Fx.Leaf.raw(), Fx.Caller.raw()}] = 3;
  EXPECT_TRUE(hasKind(L.lintPackage(BadArc, /*CrossCheckCallGraph=*/true),
                      DiagKind::SummaryContradiction));

  profile::ProfilePackage GoodArc;
  GoodArc.Opt.CallArcs[{Fx.Caller.raw(), Fx.Leaf.raw()}] = 3;
  EXPECT_FALSE(hasKind(L.lintPackage(GoodArc, /*CrossCheckCallGraph=*/true),
                       DiagKind::SummaryContradiction));

  // Arcs record *physical* callers, so inlining collapses semantic
  // frames: a recA -> recA self-arc (recB inlined away) is a path, not
  // an edge, and must be accepted.
  profile::ProfilePackage InlinedArc;
  InlinedArc.Opt.CallArcs[{Fx.RecA.raw(), Fx.RecA.raw()}] = 3;
  EXPECT_FALSE(hasKind(L.lintPackage(InlinedArc, /*CrossCheckCallGraph=*/true),
                       DiagKind::SummaryContradiction))
      << "a transitive (inlined) arc is not a contradiction";
}
