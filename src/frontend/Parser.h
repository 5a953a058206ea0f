//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the mini-Hack source language.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_FRONTEND_PARSER_H
#define JUMPSTART_FRONTEND_PARSER_H

#include "frontend/Ast.h"
#include "frontend/Lexer.h"

#include <string>
#include <vector>

namespace jumpstart::frontend {

/// Parses one source file.  Errors are collected (with line numbers) and
/// parsing continues at the next declaration where possible.
class Parser {
public:
  /// Deepest nesting accepted: parser recursion levels (parentheses,
  /// unary operators, blocks, else-if chains) and the height of any
  /// expression tree, left-deep operator chains included.  It bounds the
  /// recursion of the parser, of the AST's destructor and of code
  /// generation, so hostile source cannot overflow the stack.  Deeper
  /// input is a parse error, after which the parser skips to the end.
  static constexpr uint32_t kMaxDepth = 256;

  explicit Parser(std::string_view Source);

  /// Parses the whole buffer.  Check errors() before using the result.
  Program parseProgram();

  const std::vector<std::string> &errors() const { return Errors; }

private:
  // Token stream management.
  /// Reads the next token into Cur, reporting it if it is a lexer error.
  void readToken();
  void bump();
  bool check(TokKind K) const { return Cur.Kind == K; }
  bool accept(TokKind K);
  bool expect(TokKind K, const char *Context);
  /// Reports a parse error at the current token, unless that token is a
  /// lexer error, which readToken() has reported already.
  void error(const std::string &Msg);
  /// Records \p Msg at the current line (up to kMaxErrors).
  void report(const std::string &Msg);
  void synchronizeToDecl();

  // Declarations.
  FuncDecl parseFunction();
  ClassDecl parseClass();
  std::vector<std::string> parseParamList();

  // Statements.
  std::vector<StmtPtr> parseBlock();
  StmtPtr parseStatement();
  StmtPtr parseIf();
  StmtPtr parseWhile();
  StmtPtr parseReturn();
  StmtPtr parseExprOrAssign();

  // Expressions (precedence climbing).
  ExprPtr parseExpr();
  ExprPtr parseOr();
  ExprPtr parseAnd();
  ExprPtr parseEquality();
  ExprPtr parseComparison();
  ExprPtr parseAdditive();
  ExprPtr parseMultiplicative();
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();
  std::vector<ExprPtr> parseArgs();

  ExprPtr makeExpr(Expr::Kind K);
  /// Sets \p E's height from its children; too tall is a depth error.
  ExprPtr sealed(ExprPtr E);

  /// One parser recursion level, held while parsing a nested construct.
  /// ok() is false past kMaxDepth: the caller must not recurse further.
  class Nesting {
  public:
    explicit Nesting(Parser &P);
    ~Nesting() { --P.Depth; }
    bool ok() const { return P.Depth <= kMaxDepth; }

  private:
    Parser &P;
  };
  /// Reports the depth error once and skips the rest of the input, so
  /// every enclosing parse returns promptly.
  void tooDeep();

  Lexer Lex;
  Token Cur;
  std::vector<std::string> Errors;
  uint32_t Depth = 0;
  bool TooDeep = false;
  /// Prevents error cascades from emitting thousands of messages.
  static constexpr size_t kMaxErrors = 50;
};

} // namespace jumpstart::frontend

#endif // JUMPSTART_FRONTEND_PARSER_H
