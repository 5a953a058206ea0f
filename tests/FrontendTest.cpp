//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Frontend tests: lexer tokens, parser diagnostics, compiler-level
/// semantic errors, and cross-unit compilation.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"
#include "frontend/Compiler.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "runtime/Builtins.h"

#include <gtest/gtest.h>

#include <bit>
#include <limits>

using namespace jumpstart;
using namespace jumpstart::frontend;

namespace {

std::vector<Token> lexAll(std::string_view Src) {
  Lexer L(Src);
  std::vector<Token> Tokens;
  for (;;) {
    Token T = L.next();
    Tokens.push_back(T);
    if (T.Kind == TokKind::Eof || T.Kind == TokKind::Error)
      break;
  }
  return Tokens;
}

std::vector<std::string> compileErrors(const std::string &Src) {
  bc::Repo R;
  return compileUnit(R, runtime::BuiltinTable::standard(), "t.hack", Src);
}

bool anyErrorContains(const std::vector<std::string> &Errors,
                      const std::string &Needle) {
  for (const std::string &E : Errors)
    if (E.find(Needle) != std::string::npos)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lexer.
//===----------------------------------------------------------------------===//

TEST(Lexer, TokenKinds) {
  auto Tokens = lexAll("function f($x) { return $x + 1.5 >= \"s\"; }");
  std::vector<TokKind> Kinds;
  for (const Token &T : Tokens)
    Kinds.push_back(T.Kind);
  std::vector<TokKind> Expected{
      TokKind::KwFunction, TokKind::Ident,  TokKind::LParen,
      TokKind::Variable,   TokKind::RParen, TokKind::LBrace,
      TokKind::KwReturn,   TokKind::Variable, TokKind::Plus,
      TokKind::DblLit,     TokKind::Ge,     TokKind::StrLit,
      TokKind::Semi,       TokKind::RBrace, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, NumbersAndValues) {
  auto Tokens = lexAll("42 3.25");
  ASSERT_GE(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0].Kind, TokKind::IntLit);
  EXPECT_EQ(Tokens[0].IntValue, 42);
  EXPECT_EQ(Tokens[1].Kind, TokKind::DblLit);
  EXPECT_DOUBLE_EQ(Tokens[1].DblValue, 3.25);
}

TEST(Lexer, StringEscapes) {
  auto Tokens = lexAll(R"("a\nb\t\"c\\")");
  ASSERT_EQ(Tokens[0].Kind, TokKind::StrLit);
  EXPECT_EQ(Tokens[0].Text, "a\nb\t\"c\\");
}

TEST(Lexer, CommentsAreSkipped) {
  auto Tokens = lexAll("1 // line comment\n /* block\ncomment */ 2");
  ASSERT_GE(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].IntValue, 1);
  EXPECT_EQ(Tokens[1].IntValue, 2);
  EXPECT_EQ(Tokens[2].Kind, TokKind::Eof);
}

TEST(Lexer, ThisIsKeyword) {
  auto Tokens = lexAll("$this $thisx");
  EXPECT_EQ(Tokens[0].Kind, TokKind::KwThis);
  EXPECT_EQ(Tokens[1].Kind, TokKind::Variable);
  EXPECT_EQ(Tokens[1].Text, "thisx");
}

TEST(Lexer, ErrorsAreTokens) {
  auto Tokens = lexAll("\"unterminated");
  EXPECT_EQ(Tokens.back().Kind, TokKind::Error);
  auto Tokens2 = lexAll("a @ b");
  bool SawError = false;
  for (const Token &T : Tokens2)
    if (T.Kind == TokKind::Error)
      SawError = true;
  EXPECT_TRUE(SawError);
}

TEST(Lexer, OutOfRangeIntLiteralIsError) {
  // std::strtoll saturates past INT64_MAX; the lexer rejects the literal.
  auto Tokens = lexAll("9223372036854775807 9223372036854775808");
  ASSERT_EQ(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0].Kind, TokKind::IntLit);
  EXPECT_EQ(Tokens[0].IntValue, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Tokens[1].Kind, TokKind::Error);
  EXPECT_EQ(Tokens[1].Text, "integer literal out of range");
  // The lexer's error is the only diagnostic, not the second one after
  // "expected an expression, found error".
  EXPECT_EQ(
      compileErrors("function main() { return 99999999999999999999999; }"),
      std::vector<std::string>{"t.hack:line 1: integer literal out of range"});
}

TEST(Lexer, OutOfRangeFloatLiteralIsError) {
  // std::strtod returns HUGE_VAL past DBL_MAX; the lexer rejects the
  // literal.  It sets ERANGE for an underflow too, but that value stands.
  std::string Big = "1" + std::string(308, '0') + ".5";
  std::string Huge = "1" + std::string(309, '0') + ".5";
  std::string Tiny = "0." + std::string(400, '0') + "1";
  auto Tokens = lexAll(Big + " " + Tiny + " " + Huge);
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Kind, TokKind::DblLit);
  EXPECT_EQ(Tokens[0].DblValue, 1e308);
  EXPECT_EQ(Tokens[1].Kind, TokKind::DblLit);
  EXPECT_EQ(Tokens[1].DblValue, 0.0);
  EXPECT_EQ(Tokens[2].Kind, TokKind::Error);
  EXPECT_EQ(Tokens[2].Text, "float literal out of range");
  EXPECT_EQ(
      compileErrors("function main() { return " + Huge + "; }"),
      std::vector<std::string>{"t.hack:line 1: float literal out of range"});
  EXPECT_TRUE(
      compileErrors("function main() { return " + Tiny + "; }").empty());
}

TEST(Lexer, LexerErrorInsideAnExpressionIsTheOnlyError) {
  // A lone '&' or '|' ends the expression before it; the parser skips the
  // rest of the statement instead of parsing `2` as a statement of its
  // own that lacks its ';'.
  EXPECT_EQ(compileErrors("function main() { return 1 & 2; }"),
            std::vector<std::string>{"t.hack:line 1: expected '&&'"});
  EXPECT_EQ(compileErrors("function main() { return 1 | 2; }"),
            std::vector<std::string>{"t.hack:line 1: expected '||'"});
}

TEST(Lexer, LineTracking) {
  Lexer L("a\nb\n\nc");
  EXPECT_EQ(L.next().Line, 1u);
  EXPECT_EQ(L.next().Line, 2u);
  EXPECT_EQ(L.next().Line, 4u);
}

//===----------------------------------------------------------------------===//
// Parser diagnostics.
//===----------------------------------------------------------------------===//

TEST(ParserTest, ReportsMissingSemicolon) {
  Parser P("function f() { return 1 }");
  P.parseProgram();
  ASSERT_FALSE(P.errors().empty());
  EXPECT_NE(P.errors()[0].find("';'"), std::string::npos);
}

TEST(ParserTest, ReportsBadAssignTarget) {
  Parser P("function f() { 1 + 2 = 3; }");
  P.parseProgram();
  ASSERT_FALSE(P.errors().empty());
  EXPECT_NE(P.errors()[0].find("not assignable"), std::string::npos);
}

TEST(ParserTest, RecoversAcrossDeclarations) {
  Parser P("function broken( { }\nfunction ok() { return 1; }");
  Program Prog = P.parseProgram();
  EXPECT_FALSE(P.errors().empty());
  // The second function still parses.
  bool FoundOk = false;
  for (const FuncDecl &F : Prog.Funcs)
    if (F.Name == "ok")
      FoundOk = true;
  EXPECT_TRUE(FoundOk);
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  Parser P("function f() {\n\n  return @;\n}");
  P.parseProgram();
  ASSERT_FALSE(P.errors().empty());
  EXPECT_NE(P.errors()[0].find("line 3"), std::string::npos);
}

TEST(ParserTest, ElseIfChains) {
  Parser P("function f($x) {"
           "  if ($x == 1) { return 1; }"
           "  else if ($x == 2) { return 2; }"
           "  else { return 3; }"
           "}");
  Program Prog = P.parseProgram();
  EXPECT_TRUE(P.errors().empty());
  ASSERT_EQ(Prog.Funcs.size(), 1u);
}

TEST(ParserTest, ErrorCascadeIsBounded) {
  // A pathological input must not produce unbounded diagnostics.
  std::string Bad = "function f() {";
  for (int I = 0; I < 500; ++I)
    Bad += " @ ";
  Bad += "}";
  Parser P(Bad);
  P.parseProgram();
  EXPECT_LE(P.errors().size(), 50u);
}

namespace {

/// "function main() { return 1 + 1 + ... ; }" with \p Terms terms.
std::string chainSource(size_t Terms) {
  std::string Src = "function main() { return 1";
  for (size_t I = 1; I < Terms; ++I)
    Src += " + 1";
  return Src + "; }";
}

} // namespace

TEST(ParserTest, DeepParenthesesAreAParseError) {
  std::string Src = "function main() { return " + std::string(10000, '(') +
                    "1" + std::string(10000, ')') + "; }";
  Parser P(Src);
  P.parseProgram();
  ASSERT_EQ(P.errors().size(), 1u);
  EXPECT_NE(P.errors()[0].find("nesting deeper than 256 levels"),
            std::string::npos)
      << P.errors()[0];
  EXPECT_TRUE(anyErrorContains(compileErrors(Src), "nesting deeper"));
}

TEST(ParserTest, LongOperatorChainIsAParseError) {
  // The parser builds a left-deep chain in a loop, but the tree it
  // builds is as tall as the chain is long.
  std::string Src = chainSource(100000);
  Parser P(Src);
  P.parseProgram();
  ASSERT_EQ(P.errors().size(), 1u);
  EXPECT_NE(P.errors()[0].find("nesting deeper than"), std::string::npos);
  EXPECT_TRUE(anyErrorContains(compileErrors(Src), "nesting deeper"));
  EXPECT_TRUE(anyErrorContains(compileErrors(chainSource(Parser::kMaxDepth +
                                                         1)),
                               "nesting deeper"));
}

TEST(ParserTest, ChainAtTheNestingCapCompiles) {
  std::string Src = chainSource(Parser::kMaxDepth);
  Parser P(Src);
  Program Prog = P.parseProgram();
  EXPECT_TRUE(P.errors().empty());
  ASSERT_EQ(Prog.Funcs.size(), 1u);
  EXPECT_TRUE(compileErrors(Src).empty());
}

//===----------------------------------------------------------------------===//
// Compiler semantic diagnostics.
//===----------------------------------------------------------------------===//

TEST(CompilerTest, UnknownFunction) {
  auto Errors = compileErrors("function f() { return nope(); }");
  EXPECT_TRUE(anyErrorContains(Errors, "unknown function 'nope'"));
}

TEST(CompilerTest, UnknownClass) {
  auto Errors = compileErrors("function f() { return new Nope(); }");
  EXPECT_TRUE(anyErrorContains(Errors, "unknown class 'Nope'"));
}

TEST(CompilerTest, ArityMismatch) {
  auto Errors = compileErrors("function g($a, $b) { return $a; }"
                              "function f() { return g(1); }");
  EXPECT_TRUE(anyErrorContains(Errors, "expects 2"));
}

TEST(CompilerTest, BuiltinArityMismatch) {
  auto Errors = compileErrors("function f() { return strlen(); }");
  EXPECT_TRUE(anyErrorContains(Errors, "takes 1 args"));
}

TEST(CompilerTest, ThisOutsideMethod) {
  auto Errors = compileErrors("function f() { return $this; }");
  EXPECT_TRUE(anyErrorContains(Errors, "'$this' outside"));
}

TEST(CompilerTest, BreakOutsideLoop) {
  auto Errors = compileErrors("function f() { break; return 1; }");
  EXPECT_TRUE(anyErrorContains(Errors, "'break' outside"));
}

TEST(CompilerTest, DuplicateFunction) {
  auto Errors = compileErrors("function f() { return 1; }"
                              "function f() { return 2; }");
  EXPECT_TRUE(anyErrorContains(Errors, "duplicate function"));
}

TEST(CompilerTest, DuplicateClass) {
  auto Errors = compileErrors("class C { prop $p; } class C { prop $q; }");
  EXPECT_TRUE(anyErrorContains(Errors, "duplicate class"));
}

TEST(CompilerTest, UnknownParent) {
  auto Errors = compileErrors("class C extends Nope { prop $p; }");
  EXPECT_TRUE(anyErrorContains(Errors, "unknown parent"));
}

TEST(CompilerTest, InheritanceCycleDetected) {
  auto Errors = compileErrors("class A extends B { prop $a; }"
                              "class B extends A { prop $b; }");
  EXPECT_TRUE(anyErrorContains(Errors, "cycle"));
}

TEST(CompilerTest, CrossUnitReferencesResolve) {
  bc::Repo R;
  std::vector<SourceFile> Files{
      {"a.hack", "function fa() { return fb() + 1; }"},
      {"b.hack", "function fb() { return new K()->m(); }"},
      {"k.hack", "class K { prop $p; method m() { return 41; } }"},
  };
  auto Errors =
      compileProgram(R, runtime::BuiltinTable::standard(), Files);
  EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors[0]);
  EXPECT_EQ(R.numUnits(), 3u);
  // Everything verifier-clean.
  auto VErrors =
      bc::verifyRepo(R, runtime::BuiltinTable::standard().size());
  EXPECT_TRUE(VErrors.empty()) << (VErrors.empty() ? "" : VErrors[0]);
}

TEST(CompilerTest, NegatedNumberLiteralsFold) {
  // Unary minus on an int or float literal, or on such a negation,
  // compiles to the one Int or Dbl holding what `0 - v` computes at run
  // time: the same value and faults as the subtraction through a local.
  struct Case {
    const char *Folded;
    const char *Unfolded;
  };
  const Case Cases[] = {
      {"-0", "$v = 0; return 0 - $v;"},
      {"-0.0", "$v = 0.0; return 0 - $v;"},
      {"-5", "$v = 5; return 0 - $v;"},
      {"-2.5", "$v = 2.5; return 0 - $v;"},
      {"-9223372036854775807", "$v = 9223372036854775807; return 0 - $v;"},
      {"- -5", "$v = 5; $w = 0 - $v; return 0 - $w;"},
  };
  const runtime::BuiltinTable &Builtins = runtime::BuiltinTable::standard();
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Folded);
    bc::Repo R;
    ASSERT_TRUE(compileUnit(R, Builtins, "t.hack",
                            std::string("function folded() { return ") +
                                C.Folded + "; } function unfolded() { " +
                                C.Unfolded + " }")
                    .empty());
    const bc::Function &F = R.func(R.findFunction("folded"));
    ASSERT_GE(F.Code.size(), 2u);
    EXPECT_TRUE(F.Code[0].Opcode == bc::Op::Int ||
                F.Code[0].Opcode == bc::Op::Dbl);
    EXPECT_EQ(F.Code[1].Opcode, bc::Op::RetC);

    runtime::ClassTable Classes(R);
    runtime::Heap Heap;
    interp::Interpreter Interp(R, Classes, Heap, Builtins);
    interp::InterpResult Folded = Interp.call(R.findFunction("folded"), {});
    interp::InterpResult Unfolded =
        Interp.call(R.findFunction("unfolded"), {});
    ASSERT_EQ(Folded.Ret.T, Unfolded.Ret.T);
    if (Folded.Ret.isInt())
      EXPECT_EQ(Folded.Ret.I, Unfolded.Ret.I);
    else
      EXPECT_EQ(std::bit_cast<uint64_t>(Folded.Ret.D),
                std::bit_cast<uint64_t>(Unfolded.Ret.D));
    EXPECT_EQ(Folded.Faults, Unfolded.Faults);
  }
  // Any other operand keeps `Int 0; operand; Sub`.
  for (const char *E : {"-$x", "-\"s\"", "-true"}) {
    SCOPED_TRACE(E);
    bc::Repo R;
    ASSERT_TRUE(compileUnit(R, Builtins, "t.hack",
                            std::string("function f($x) { return ") + E +
                                "; }")
                    .empty());
    const bc::Function &F = R.func(R.findFunction("f"));
    ASSERT_GE(F.Code.size(), 3u);
    EXPECT_EQ(F.Code[0].Opcode, bc::Op::Int);
    EXPECT_EQ(F.Code[0].ImmA, 0);
    EXPECT_EQ(F.Code[2].Opcode, bc::Op::Sub);
  }
}

TEST(CompilerTest, GeneratedBytecodeAlwaysVerifies) {
  // Property: anything the compiler accepts must pass the verifier.
  const char *Programs[] = {
      "function f($a) { $x = vec[1,2]; $x[0] = $a; return $x[0]; }",
      "function f($a) { while ($a > 0) { $a -= 1; if ($a == 3) { break; } }"
      " return $a; }",
      "function f($a) { return ($a && true) || !($a == 2); }",
      "class C { prop $v; method m($x) { $this->v = $x; return $this; } }"
      "function f($a) { return new C()->m($a)->v; }",
      "function f($a) { $d = dict[\"k\" => $a]; $d[\"j\"] = $a * 2;"
      " return keys($d); }",
  };
  for (const char *Src : Programs) {
    bc::Repo R;
    auto Errors =
        compileUnit(R, runtime::BuiltinTable::standard(), "p.hack", Src);
    ASSERT_TRUE(Errors.empty()) << Src << ": " << Errors[0];
    auto VErrors =
        bc::verifyRepo(R, runtime::BuiltinTable::standard().size());
    EXPECT_TRUE(VErrors.empty())
        << Src << ": " << (VErrors.empty() ? "" : VErrors[0]);
  }
}
