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
  explicit Parser(std::string_view Source);

  /// Parses the whole buffer.  Check errors() before using the result.
  Program parseProgram();

  const std::vector<std::string> &errors() const { return Errors; }

private:
  // Token stream management.
  void bump();
  bool check(TokKind K) const { return Cur.Kind == K; }
  bool accept(TokKind K);
  bool expect(TokKind K, const char *Context);
  void error(const std::string &Msg);
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

  Lexer Lex;
  Token Cur;
  std::vector<std::string> Errors;
  /// Prevents error cascades from emitting thousands of messages.
  static constexpr size_t kMaxErrors = 50;
};

} // namespace jumpstart::frontend

#endif // JUMPSTART_FRONTEND_PARSER_H
