//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end language semantics: source -> bytecode -> interpreter.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

using namespace jumpstart;
using jumpstart::testing::TestVm;

TEST(Interpreter, ArithmeticAndLocals) {
  TestVm Vm("function main() { $x = 3; $y = 4; return $x * $y + 2; }");
  EXPECT_EQ(Vm.runInt("main"), 14);
}

TEST(Interpreter, IntegerDivisionStaysExact) {
  TestVm Vm("function main() { return 12 / 4; }");
  EXPECT_EQ(Vm.runInt("main"), 3);
}

TEST(Interpreter, InexactDivisionPromotesToDouble) {
  TestVm Vm("function main() { return 7 / 2; }");
  interp::InterpResult R = Vm.run("main");
  ASSERT_EQ(R.Ret.T, runtime::Type::Dbl);
  EXPECT_DOUBLE_EQ(R.Ret.D, 3.5);
}

TEST(Interpreter, DivisionByZeroFaultsToNull) {
  TestVm Vm("function main() { return 1 / 0; }");
  interp::InterpResult R = Vm.run("main");
  EXPECT_TRUE(R.Ret.isNull());
  EXPECT_GE(R.Faults, 1u);
}

TEST(Interpreter, ModuloAndPrecedence) {
  TestVm Vm("function main() { return 2 + 3 * 4 % 5; }");
  EXPECT_EQ(Vm.runInt("main"), 4); // 3*4 % 5 = 2; 2+2
}

TEST(Interpreter, WhileLoopSumsRange) {
  TestVm Vm("function main($n) {"
            "  $sum = 0; $i = 1;"
            "  while ($i <= $n) { $sum = $sum + $i; $i = $i + 1; }"
            "  return $sum;"
            "}");
  EXPECT_EQ(Vm.runInt("main", {100}), 5050);
}

TEST(Interpreter, BreakAndContinue) {
  TestVm Vm("function main() {"
            "  $sum = 0; $i = 0;"
            "  while (true) {"
            "    $i = $i + 1;"
            "    if ($i > 10) { break; }"
            "    if ($i % 2 == 0) { continue; }"
            "    $sum = $sum + $i;"
            "  }"
            "  return $sum;" // 1+3+5+7+9
            "}");
  EXPECT_EQ(Vm.runInt("main"), 25);
}

TEST(Interpreter, IfElseChains) {
  TestVm Vm("function classify($x) {"
            "  if ($x < 0) { return 0 - 1; }"
            "  else if ($x == 0) { return 0; }"
            "  else { return 1; }"
            "}");
  EXPECT_EQ(Vm.runInt("classify", {-5}), -1);
  EXPECT_EQ(Vm.runInt("classify", {0}), 0);
  EXPECT_EQ(Vm.runInt("classify", {7}), 1);
}

TEST(Interpreter, ShortCircuitAndOr) {
  TestVm Vm("function boom() { return 1 / 0; }"
            "function andFalse() { return false && boom(); }"
            "function orTrue() { return true || boom(); }");
  interp::InterpResult RAnd = Vm.run("andFalse");
  EXPECT_EQ(RAnd.Ret.T, runtime::Type::Bool);
  EXPECT_FALSE(RAnd.Ret.B);
  EXPECT_EQ(RAnd.Faults, 0u) << "short-circuit must not evaluate rhs";
  interp::InterpResult ROr = Vm.run("orTrue");
  EXPECT_EQ(ROr.Ret.T, runtime::Type::Bool);
  EXPECT_TRUE(ROr.Ret.B);
  EXPECT_EQ(ROr.Faults, 0u);
}

TEST(Interpreter, DirectCallsAndRecursion) {
  TestVm Vm("function fib($n) {"
            "  if ($n < 2) { return $n; }"
            "  return fib($n - 1) + fib($n - 2);"
            "}");
  EXPECT_EQ(Vm.runInt("fib", {15}), 610);
}

TEST(Interpreter, StringConcatAndCompare) {
  TestVm Vm("function main() {"
            "  $a = \"foo\" . \"bar\";"
            "  if ($a == \"foobar\") { return 1; }"
            "  return 0;"
            "}");
  EXPECT_EQ(Vm.runInt("main"), 1);
}

TEST(Interpreter, ConcatCoercesNumbers) {
  TestVm Vm("function main() { print(\"n=\" . 42); return 0; }");
  EXPECT_EQ(Vm.runForOutput("main"), "n=42");
}

TEST(Interpreter, VecLiteralIndexAndAppend) {
  TestVm Vm("function main() {"
            "  $v = vec[10, 20, 30];"
            "  $v[3] = 40;"          // append at size
            "  $v[0] = $v[0] + 1;"   // in-place update
            "  return $v[0] + $v[3];"
            "}");
  EXPECT_EQ(Vm.runInt("main"), 51);
}

TEST(Interpreter, VecOutOfBoundsFaults) {
  TestVm Vm("function main() { $v = vec[1]; return $v[5]; }");
  interp::InterpResult R = Vm.run("main");
  EXPECT_TRUE(R.Ret.isNull());
  EXPECT_GE(R.Faults, 1u);
}

TEST(Interpreter, DictLiteralLookupInsertOverwrite) {
  TestVm Vm("function main() {"
            "  $d = dict[\"a\" => 1, \"b\" => 2];"
            "  $d[\"c\"] = 3;"
            "  $d[\"a\"] = 10;"
            "  return $d[\"a\"] + $d[\"b\"] + $d[\"c\"];"
            "}");
  EXPECT_EQ(Vm.runInt("main"), 15);
}

TEST(Interpreter, DictMissingKeyIsNull) {
  TestVm Vm("function main() {"
            "  $d = dict[\"a\" => 1];"
            "  if ($d[\"zzz\"] == null) { return 1; }"
            "  return 0;"
            "}");
  EXPECT_EQ(Vm.runInt("main"), 1);
}

TEST(Interpreter, DictIntegerKeys) {
  TestVm Vm("function main() {"
            "  $d = dict[7 => \"seven\"];"
            "  $d[8] = \"eight\";"
            "  print($d[7] . \",\" . $d[8]);"
            "  return 0;"
            "}");
  EXPECT_EQ(Vm.runForOutput("main"), "seven,eight");
}

TEST(Interpreter, ObjectsPropsAndMethods) {
  TestVm Vm("class Point {"
            "  prop $x; prop $y;"
            "  method init($x, $y) { $this->x = $x; $this->y = $y; return $this; }"
            "  method norm2() { return $this->x * $this->x + $this->y * $this->y; }"
            "}"
            "function main() {"
            "  $p = new Point()->init(3, 4);"
            "  return $p->norm2();"
            "}");
  EXPECT_EQ(Vm.runInt("main"), 25);
}

TEST(Interpreter, InheritanceAndOverride) {
  TestVm Vm("class Base {"
            "  prop $v;"
            "  method get() { return 1; }"
            "  method both() { return $this->get() + 10; }"
            "}"
            "class Derived extends Base {"
            "  method get() { return 2; }"
            "}"
            "function main() {"
            "  $b = new Base(); $d = new Derived();"
            "  return $b->both() * 100 + $d->both();"
            "}");
  // Base: 1+10=11; Derived: 2+10=12 (virtual dispatch through $this).
  EXPECT_EQ(Vm.runInt("main"), 1112);
}

TEST(Interpreter, InheritedPropertiesAccessible) {
  TestVm Vm("class A { prop $a; }"
            "class B extends A { prop $b; }"
            "function main() {"
            "  $o = new B();"
            "  $o->a = 5; $o->b = 7;"
            "  return $o->a + $o->b;"
            "}");
  EXPECT_EQ(Vm.runInt("main"), 12);
}

TEST(Interpreter, MethodOnNonObjectFaults) {
  TestVm Vm("function main() { $x = 3; return $x->foo(); }");
  interp::InterpResult R = Vm.run("main");
  EXPECT_TRUE(R.Ret.isNull());
  EXPECT_GE(R.Faults, 1u);
}

TEST(Interpreter, UnknownMethodFaults) {
  TestVm Vm("class C { prop $p; }"
            "function main() { $c = new C(); return $c->nope(); }");
  interp::InterpResult R = Vm.run("main");
  EXPECT_TRUE(R.Ret.isNull());
  EXPECT_GE(R.Faults, 1u);
}

TEST(Interpreter, BuiltinsWork) {
  TestVm Vm("function main() {"
            "  $s = \"hello\";"
            "  return strlen($s) + abs(0 - 3) + max(2, 9) + min(2, 9)"
            "       + floor(2.9) + ord(\"A\");"
            "}");
  EXPECT_EQ(Vm.runInt("main"), 5 + 3 + 9 + 2 + 2 + 65);
}

TEST(Interpreter, SubstrAndRepeat) {
  TestVm Vm("function main() {"
            "  print(substr(\"abcdef\", 1, 3));"
            "  print(str_repeat(\"xy\", 2));"
            "  return 0;"
            "}");
  EXPECT_EQ(Vm.runForOutput("main"), "bcdxyxy");
}

TEST(Interpreter, CompoundAssignments) {
  TestVm Vm("function main() {"
            "  $x = 10; $x += 5; $x -= 3;"
            "  $s = \"a\"; $s .= \"b\";"
            "  if ($s == \"ab\") { return $x; }"
            "  return 0;"
            "}");
  EXPECT_EQ(Vm.runInt("main"), 12);
}

TEST(Interpreter, PropertyIndexAssignment) {
  TestVm Vm("class Box { prop $items; }"
            "function main() {"
            "  $b = new Box();"
            "  $b->items = vec[1, 2];"
            "  $b->items[2] = 3;"
            "  return $b->items[0] + $b->items[1] + $b->items[2];"
            "}");
  EXPECT_EQ(Vm.runInt("main"), 6);
}

TEST(Interpreter, StepBudgetAbortsInfiniteLoop) {
  TestVm Vm("function main() { while (true) { $x = 1; } return 0; }");
  interp::InterpOptions Opts;
  Opts.StepBudget = 10'000;
  interp::Interpreter Interp(Vm.Repo, Vm.Classes, Vm.Heap, Vm.Builtins, Opts);
  interp::InterpResult R = Interp.call(Vm.Repo.findFunction("main"), {});
  EXPECT_FALSE(R.Ok);
}

TEST(Interpreter, DeepRecursionAborts) {
  TestVm Vm("function down($n) { return down($n + 1); }"
            "function main() { return down(0); }");
  interp::InterpResult R = Vm.run("main");
  EXPECT_FALSE(R.Ok);
}

TEST(Interpreter, UninitializedLocalIsNull) {
  TestVm Vm("function main() { if ($never == null) { return 1; } return 0; }");
  EXPECT_EQ(Vm.runInt("main"), 1);
}

TEST(Interpreter, LenBuiltinViaOpcode) {
  TestVm Vm("function main() {"
            "  $v = vec[1,2,3];"
            "  $d = dict[\"k\" => 1];"
            "  $n = keys($d);"
            "  return strlen(\"abc\") + $v[2] + $n[0] == \"k\";"
            "}");
  interp::InterpResult R = Vm.run("main");
  EXPECT_TRUE(R.Ok);
}

TEST(Interpreter, InstrCountsAccumulatePerFunction) {
  TestVm Vm("function helper() { return 1; }"
            "function main() { $s = 0; $i = 0;"
            "  while ($i < 10) { $s = $s + helper(); $i = $i + 1; }"
            "  return $s; }");
  interp::InstrCounts IC;
  Vm.Interp->setInstrCounts(&IC);
  EXPECT_EQ(Vm.runInt("main"), 10);
  bc::FuncId Helper = Vm.Repo.findFunction("helper");
  bc::FuncId Main = Vm.Repo.findFunction("main");
  const std::vector<uint64_t> &Counts = IC.Counts;
  ASSERT_GE(Counts.size(), Vm.Repo.numFuncs());
  EXPECT_GT(Counts[Helper.raw()], 0u);
  EXPECT_GT(Counts[Main.raw()], Counts[Helper.raw()]);
  // Touched lists each counted function once, in first-exit order, and
  // clear() zeroes exactly those entries.
  EXPECT_EQ(IC.Touched, (std::vector<uint32_t>{Helper.raw(), Main.raw()}));
  IC.clear();
  EXPECT_TRUE(IC.Touched.empty());
  EXPECT_EQ(Counts, std::vector<uint64_t>(Counts.size(), 0));
}
