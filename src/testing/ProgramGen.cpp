//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "testing/ProgramGen.h"

#include "support/Assert.h"
#include "support/Random.h"
#include "support/StringUtil.h"

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::testing;

namespace {

/// Fewest statements per function body.
constexpr uint32_t kMinStmts = 1;
/// Upper bound for while-loop trip counts (loops are always bounded by
/// construction; runaway execution is the step budget's job).
constexpr uint32_t kMaxLoopBound = 5;

/// Per-program generation state: the rng, the shape knobs, and how many
/// helpers/classes exist (for generating calls and `new` expressions).
class Generator {
public:
  Generator(const GenParams &P) : P(P), R(P.Seed) {}

  GenProgram run() {
    GenProgram Prog;
    uint32_t NumHelpers =
        P.MinHelpers +
        static_cast<uint32_t>(R.nextBelow(P.MaxHelpers - P.MinHelpers + 1));
    for (uint32_t C = 0; C < P.NumClasses; ++C)
      Prog.Classes.push_back(genClass(C));
    NumClasses = P.NumClasses;
    for (uint32_t F = 0; F < NumHelpers; ++F) {
      // Helper F may call helpers [0, F): acyclic by construction.
      Callable = F;
      Prog.Funcs.push_back(genFunction(strFormat("f%u", F), false));
    }
    Callable = NumHelpers;
    for (uint32_t E = 0; E < std::max(1u, P.NumEndpoints); ++E)
      Prog.Funcs.push_back(
          genFunction(strFormat("endpoint%u", E), true));
    return Prog;
  }

private:
  std::string genClass(uint32_t Index) {
    // Fixed skeleton, generated arithmetic: props behave like the
    // workload generator's data classes, and `get` mixes int and string
    // ops so property reordering has observable-but-equal behaviour.
    int64_t A = 1 + static_cast<int64_t>(R.nextBelow(9));
    int64_t B = 2 + static_cast<int64_t>(R.nextBelow(7));
    const char *Mix = R.nextBool(0.5) ? "+" : "*";
    return strFormat("class K%u {\n"
                     "  prop $a; prop $b; prop $c;\n"
                     "  method set($v) { $this->a = ($v %s %lld); "
                     "$this->b = ($v * %lld); $this->c = $v; "
                     "return $this; }\n"
                     "  method get() { return (($this->a + $this->b) %s "
                     "$this->c); }\n"
                     "}",
                     Index, Mix, static_cast<long long>(A),
                     static_cast<long long>(B),
                     R.nextBool(0.5) ? "+" : "-");
  }

  std::string randVar() {
    // A small fixed pool: reads of a never-assigned variable are legal
    // (null), which is what keeps statement removal by the shrinker from
    // producing uncompilable programs.
    return strFormat("$v%u", static_cast<uint32_t>(R.nextBelow(5)));
  }

  std::string genLeaf() {
    switch (R.nextBelow(7)) {
    case 0:
      return strFormat("%d", static_cast<int>(R.nextBelow(100)));
    case 1:
      return strFormat("%d.5", static_cast<int>(R.nextBelow(9)));
    case 2:
      return strFormat("\"s%u\"", static_cast<uint32_t>(R.nextBelow(10)));
    case 3:
      return R.nextBool(0.5) ? "true" : "false";
    case 4:
      return "null";
    case 5:
      return "$x";
    default:
      return randVar();
    }
  }

  std::string genExpr(uint32_t Depth) {
    if (Depth == 0 || R.nextBool(0.3))
      return genLeaf();
    switch (R.nextBelow(10)) {
    case 0: {
      static const char *Ops[] = {"+", "-",  "*",  "/", "%", ".",
                                  "==", "!=", "<", "<=", ">", ">="};
      return strFormat("(%s %s %s)", genExpr(Depth - 1).c_str(),
                       Ops[R.nextBelow(12)], genExpr(Depth - 1).c_str());
    }
    case 1:
      return strFormat("(%s %s %s)", genExpr(Depth - 1).c_str(),
                       R.nextBool(0.5) ? "&&" : "||",
                       genExpr(Depth - 1).c_str());
    case 2:
      return strFormat("(!%s)", genExpr(Depth - 1).c_str());
    case 3:
      return strFormat("vec[%s, %s]", genExpr(Depth - 1).c_str(),
                       genExpr(Depth - 1).c_str());
    case 4:
      return strFormat("dict[\"k\" => %s]", genExpr(Depth - 1).c_str());
    case 5:
      return strFormat("%s[%s]", genExpr(Depth - 1).c_str(),
                       genExpr(Depth - 1).c_str());
    case 6: {
      // String/int builtins; all total, all deterministic.
      switch (R.nextBelow(5)) {
      case 0:
        return strFormat("abs(%s)", genExpr(Depth - 1).c_str());
      case 1:
        return strFormat("min(%s, %s)", genExpr(Depth - 1).c_str(),
                         genExpr(Depth - 1).c_str());
      case 2:
        return strFormat("max(%s, %s)", genExpr(Depth - 1).c_str(),
                         genExpr(Depth - 1).c_str());
      case 3:
        return strFormat("strlen(to_str(%s))",
                         genExpr(Depth - 1).c_str());
      default:
        return strFormat("str_repeat(\"r%u\", %u)",
                         static_cast<uint32_t>(R.nextBelow(4)),
                         static_cast<uint32_t>(1 + R.nextBelow(3)));
      }
    }
    case 7:
      if (Callable > 0)
        return strFormat("f%u(%s)",
                         static_cast<uint32_t>(R.nextBelow(Callable)),
                         genExpr(Depth - 1).c_str());
      return strFormat("abs(%s)", genExpr(Depth - 1).c_str());
    case 8:
      if (NumClasses > 0)
        return strFormat("new K%u()->set(%s)->get()",
                         static_cast<uint32_t>(R.nextBelow(NumClasses)),
                         genExpr(Depth - 1).c_str());
      return genLeaf();
    default:
      return strFormat("(%s . to_str(%s))", genExpr(Depth - 1).c_str(),
                       genExpr(Depth - 1).c_str());
    }
  }

  /// A one-line simple statement usable inside if/while bodies.
  std::string genSimpleStmt() {
    if (R.nextBool(0.6))
      return strFormat("%s = %s;", randVar().c_str(),
                       genExpr(1).c_str());
    return strFormat("print(to_str(%s));", genExpr(1).c_str());
  }

  /// A self-contained single-line statement.
  std::string genStmt(uint32_t LoopIndex) {
    switch (R.nextBelow(6)) {
    case 0:
    case 1:
      return strFormat("%s = %s;", randVar().c_str(),
                       genExpr(P.MaxExprDepth).c_str());
    case 2:
      return strFormat("print(to_str(%s));", genExpr(2).c_str());
    case 3:
      return strFormat("if (%s) { %s } else { %s }",
                       genExpr(1).c_str(), genSimpleStmt().c_str(),
                       genSimpleStmt().c_str());
    case 4: {
      // Init + bounded loop on one line so the whole loop is a single
      // removable unit.
      std::string I = strFormat("$i%u", LoopIndex);
      return strFormat("%s = 0; while (%s < %u) { %s %s = (%s + 1); }",
                       I.c_str(), I.c_str(),
                       static_cast<uint32_t>(1 + R.nextBelow(kMaxLoopBound)),
                       genSimpleStmt().c_str(), I.c_str(), I.c_str());
    }
    default:
      return strFormat("if (%s) { return %s; }", genExpr(1).c_str(),
                       genExpr(2).c_str());
    }
  }

  GenFunc genFunction(std::string Name, bool IsEndpoint) {
    GenFunc F;
    F.Name = std::move(Name);
    F.IsEndpoint = IsEndpoint;
    uint32_t Stmts =
        kMinStmts +
        static_cast<uint32_t>(R.nextBelow(P.MaxStmts - kMinStmts + 1));
    for (uint32_t S = 0; S < Stmts; ++S)
      F.Stmts.push_back(genStmt(S));
    F.ReturnExpr = genExpr(P.MaxExprDepth);
    return F;
  }

  const GenParams &P;
  Rng R;
  uint32_t Callable = 0;
  uint32_t NumClasses = 0;
};

} // namespace

std::vector<std::string> GenProgram::endpointNames() const {
  std::vector<std::string> Names;
  for (const GenFunc &F : Funcs)
    if (F.IsEndpoint)
      Names.push_back(F.Name);
  return Names;
}

std::string GenProgram::render() const {
  std::string Out;
  for (const std::string &C : Classes) {
    Out += C;
    Out += "\n";
  }
  for (const GenFunc &F : Funcs) {
    Out += strFormat("function %s($x) {\n", F.Name.c_str());
    for (const std::string &S : F.Stmts) {
      Out += "  ";
      Out += S;
      Out += "\n";
    }
    Out += strFormat("  return %s;\n}\n", F.ReturnExpr.c_str());
  }
  return Out;
}

size_t GenProgram::sourceLines() const {
  std::string Src = render();
  return static_cast<size_t>(std::count(Src.begin(), Src.end(), '\n'));
}

GenProgram jumpstart::testing::generateProgram(const GenParams &P) {
  alwaysAssert(P.MaxHelpers >= P.MinHelpers && P.MaxStmts >= kMinStmts,
               "inverted GenParams range");
  return Generator(P).run();
}
