//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <functional>

using namespace jumpstart;
using namespace jumpstart::frontend;

Parser::Parser(std::string_view Source) : Lex(Source) { readToken(); }

void Parser::readToken() {
  Cur = Lex.next();
  // A lexer error is reported once, where it is read, so it comes before
  // anything the parser makes of it; error() drops those follow-ups.
  if (Cur.Kind == TokKind::Error)
    report(Cur.Text);
}

void Parser::bump() {
  if (Cur.Kind != TokKind::Eof)
    readToken();
}

bool Parser::accept(TokKind K) {
  if (!check(K))
    return false;
  bump();
  return true;
}

bool Parser::expect(TokKind K, const char *Context) {
  if (accept(K))
    return true;
  error(strFormat("expected %s %s, found %s", tokKindName(K), Context,
                  tokKindName(Cur.Kind)));
  return false;
}

void Parser::error(const std::string &Msg) {
  // On a lexer error token, any parse error ("expected an expression,
  // found error") names a symptom of the error readToken() reported.
  if (Cur.Kind != TokKind::Error)
    report(Msg);
}

void Parser::report(const std::string &Msg) {
  if (Errors.size() >= kMaxErrors || TooDeep)
    return;
  Errors.push_back(strFormat("line %u: %s", Cur.Line, Msg.c_str()));
}

Parser::Nesting::Nesting(Parser &P) : P(P) {
  if (++P.Depth > kMaxDepth)
    P.tooDeep();
}

void Parser::tooDeep() {
  if (TooDeep)
    return;
  error(strFormat("nesting deeper than %u levels", kMaxDepth));
  TooDeep = true;
  while (Cur.Kind != TokKind::Eof)
    Cur = Lex.next();
}

ExprPtr Parser::sealed(ExprPtr E) {
  uint32_t Below = 0;
  if (E->L)
    Below = std::max(Below, E->L->Height);
  if (E->R)
    Below = std::max(Below, E->R->Height);
  for (const ExprPtr &A : E->Args)
    Below = std::max(Below, A->Height);
  E->Height = Below + 1;
  if (E->Height > kMaxDepth)
    tooDeep();
  return E;
}

void Parser::synchronizeToDecl() {
  while (!check(TokKind::Eof) && !check(TokKind::KwFunction) &&
         !check(TokKind::KwClass))
    bump();
}

Program Parser::parseProgram() {
  Program P;
  while (!check(TokKind::Eof)) {
    if (check(TokKind::KwFunction)) {
      P.Funcs.push_back(parseFunction());
      continue;
    }
    if (check(TokKind::KwClass)) {
      P.Classes.push_back(parseClass());
      continue;
    }
    error(strFormat("expected a declaration, found %s",
                    tokKindName(Cur.Kind)));
    bump();
    synchronizeToDecl();
  }
  return P;
}

std::vector<std::string> Parser::parseParamList() {
  std::vector<std::string> Params;
  expect(TokKind::LParen, "before parameter list");
  if (!check(TokKind::RParen)) {
    do {
      if (check(TokKind::Variable)) {
        Params.push_back(Cur.Text);
        bump();
      } else {
        error("expected a parameter variable");
        break;
      }
    } while (accept(TokKind::Comma));
  }
  expect(TokKind::RParen, "after parameter list");
  return Params;
}

FuncDecl Parser::parseFunction() {
  FuncDecl F;
  F.Line = Cur.Line;
  expect(TokKind::KwFunction, "to start a function");
  if (check(TokKind::Ident)) {
    F.Name = Cur.Text;
    bump();
  } else {
    error("expected a function name");
  }
  F.Params = parseParamList();
  F.Body = parseBlock();
  return F;
}

ClassDecl Parser::parseClass() {
  ClassDecl C;
  C.Line = Cur.Line;
  expect(TokKind::KwClass, "to start a class");
  if (check(TokKind::Ident)) {
    C.Name = Cur.Text;
    bump();
  } else {
    error("expected a class name");
  }
  if (accept(TokKind::KwExtends)) {
    if (check(TokKind::Ident)) {
      C.ParentName = Cur.Text;
      bump();
    } else {
      error("expected a parent class name after 'extends'");
    }
  }
  expect(TokKind::LBrace, "to open the class body");
  while (!check(TokKind::RBrace) && !check(TokKind::Eof)) {
    if (accept(TokKind::KwProp)) {
      if (check(TokKind::Variable)) {
        C.Props.push_back(Cur.Text);
        bump();
      } else {
        error("expected a property variable after 'prop'");
      }
      expect(TokKind::Semi, "after property declaration");
      continue;
    }
    if (check(TokKind::KwMethod)) {
      FuncDecl M;
      M.Line = Cur.Line;
      bump();
      if (check(TokKind::Ident)) {
        M.Name = Cur.Text;
        bump();
      } else {
        error("expected a method name");
      }
      M.Params = parseParamList();
      M.Body = parseBlock();
      C.Methods.push_back(std::move(M));
      continue;
    }
    error(strFormat("expected 'prop' or 'method' in class body, found %s",
                    tokKindName(Cur.Kind)));
    bump();
  }
  expect(TokKind::RBrace, "to close the class body");
  return C;
}

std::vector<StmtPtr> Parser::parseBlock() {
  std::vector<StmtPtr> Stmts;
  expect(TokKind::LBrace, "to open a block");
  while (!check(TokKind::RBrace) && !check(TokKind::Eof)) {
    if (Errors.size() >= kMaxErrors)
      break;
    Stmts.push_back(parseStatement());
  }
  expect(TokKind::RBrace, "to close a block");
  return Stmts;
}

StmtPtr Parser::parseStatement() {
  Nesting Level(*this);
  if (!Level.ok())
    return std::make_unique<Stmt>(Stmt::Kind::Block);
  switch (Cur.Kind) {
  case TokKind::KwIf:
    return parseIf();
  case TokKind::KwWhile:
    return parseWhile();
  case TokKind::KwReturn:
    return parseReturn();
  case TokKind::KwBreak: {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Break);
    S->Line = Cur.Line;
    bump();
    expect(TokKind::Semi, "after 'break'");
    return S;
  }
  case TokKind::KwContinue: {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Continue);
    S->Line = Cur.Line;
    bump();
    expect(TokKind::Semi, "after 'continue'");
    return S;
  }
  case TokKind::LBrace: {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Block);
    S->Line = Cur.Line;
    S->Body = parseBlock();
    return S;
  }
  case TokKind::Error: {
    // A lexer error, reported when it was read, that ended the previous
    // statement early (`1 & 2` stops before the `&`) or starts this one:
    // skip the rest of the statement rather than parse what follows the
    // error as a statement the source never wrote.
    auto S = std::make_unique<Stmt>(Stmt::Kind::Block);
    S->Line = Cur.Line;
    while (!check(TokKind::Semi) && !check(TokKind::RBrace) &&
           !check(TokKind::Eof))
      bump();
    accept(TokKind::Semi);
    return S;
  }
  default:
    return parseExprOrAssign();
  }
}

StmtPtr Parser::parseIf() {
  Nesting Level(*this);
  auto S = std::make_unique<Stmt>(Stmt::Kind::If);
  if (!Level.ok())
    return S;
  S->Line = Cur.Line;
  expect(TokKind::KwIf, "to start an if statement");
  expect(TokKind::LParen, "before the condition");
  S->C = parseExpr();
  expect(TokKind::RParen, "after the condition");
  S->Body = parseBlock();
  if (accept(TokKind::KwElse)) {
    if (check(TokKind::KwIf)) {
      // 'else if' chains: wrap the nested if as a one-statement else-arm.
      S->ElseBody.push_back(parseIf());
    } else {
      S->ElseBody = parseBlock();
    }
  }
  return S;
}

StmtPtr Parser::parseWhile() {
  auto S = std::make_unique<Stmt>(Stmt::Kind::While);
  S->Line = Cur.Line;
  expect(TokKind::KwWhile, "to start a while statement");
  expect(TokKind::LParen, "before the loop condition");
  S->C = parseExpr();
  expect(TokKind::RParen, "after the loop condition");
  S->Body = parseBlock();
  return S;
}

StmtPtr Parser::parseReturn() {
  auto S = std::make_unique<Stmt>(Stmt::Kind::Return);
  S->Line = Cur.Line;
  expect(TokKind::KwReturn, "to start a return statement");
  if (!check(TokKind::Semi))
    S->E = parseExpr();
  expect(TokKind::Semi, "after return");
  return S;
}

StmtPtr Parser::parseExprOrAssign() {
  uint32_t Line = Cur.Line;
  ExprPtr E = parseExpr();

  auto MakeAssign = [&](ExprPtr Target, ExprPtr Value) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Assign);
    S->Line = Line;
    S->Target = std::move(Target);
    S->E = std::move(Value);
    return S;
  };

  auto IsAssignable = [](const Expr &Target) {
    return Target.K == Expr::Kind::Var || Target.K == Expr::Kind::PropGet ||
           Target.K == Expr::Kind::Index;
  };

  if (check(TokKind::Assign) || check(TokKind::PlusAssign) ||
      check(TokKind::MinusAssign) || check(TokKind::DotAssign)) {
    TokKind AssignKind = Cur.Kind;
    bump();
    ExprPtr Value = parseExpr();
    if (!E || !IsAssignable(*E)) {
      error("left-hand side is not assignable");
      expect(TokKind::Semi, "after statement");
      auto S = std::make_unique<Stmt>(Stmt::Kind::ExprStmt);
      S->Line = Line;
      S->E = std::move(Value);
      return S;
    }
    // Desugar compound assignment: clone the target as the LHS operand.
    if (AssignKind != TokKind::Assign) {
      // Desugaring deep-clones the target as the binary LHS.  For property
      // or index targets this re-evaluates the base expression, which the
      // language's value semantics tolerate.
      std::function<ExprPtr(const Expr &)> Clone =
          [&](const Expr &Node) -> ExprPtr {
        auto Copy = std::make_unique<Expr>(Node.K);
        Copy->Line = Node.Line;
        Copy->IntValue = Node.IntValue;
        Copy->DblValue = Node.DblValue;
        Copy->Name = Node.Name;
        Copy->Op = Node.Op;
        Copy->IsNot = Node.IsNot;
        Copy->Height = Node.Height;
        if (Node.L)
          Copy->L = Clone(*Node.L);
        if (Node.R)
          Copy->R = Clone(*Node.R);
        for (const ExprPtr &A : Node.Args)
          Copy->Args.push_back(Clone(*A));
        return Copy;
      };
      auto Bin = std::make_unique<Expr>(Expr::Kind::Binary);
      Bin->Line = Line;
      Bin->Op = AssignKind == TokKind::PlusAssign    ? BinOp::Add
                : AssignKind == TokKind::MinusAssign ? BinOp::Sub
                                                     : BinOp::Concat;
      Bin->L = Clone(*E);
      Bin->R = std::move(Value);
      Value = sealed(std::move(Bin));
    }
    expect(TokKind::Semi, "after assignment");
    return MakeAssign(std::move(E), std::move(Value));
  }

  expect(TokKind::Semi, "after expression statement");
  auto S = std::make_unique<Stmt>(Stmt::Kind::ExprStmt);
  S->Line = Line;
  S->E = std::move(E);
  return S;
}

ExprPtr Parser::makeExpr(Expr::Kind K) {
  auto E = std::make_unique<Expr>(K);
  E->Line = Cur.Line;
  return E;
}

ExprPtr Parser::parseExpr() {
  Nesting Level(*this);
  if (!Level.ok())
    return makeExpr(Expr::Kind::NullLit);
  return parseOr();
}

ExprPtr Parser::parseOr() {
  ExprPtr L = parseAnd();
  while (check(TokKind::OrOr)) {
    bump();
    auto E = makeExpr(Expr::Kind::Binary);
    E->Op = BinOp::Or;
    E->L = std::move(L);
    E->R = parseAnd();
    L = sealed(std::move(E));
  }
  return L;
}

ExprPtr Parser::parseAnd() {
  ExprPtr L = parseEquality();
  while (check(TokKind::AndAnd)) {
    bump();
    auto E = makeExpr(Expr::Kind::Binary);
    E->Op = BinOp::And;
    E->L = std::move(L);
    E->R = parseEquality();
    L = sealed(std::move(E));
  }
  return L;
}

ExprPtr Parser::parseEquality() {
  ExprPtr L = parseComparison();
  while (check(TokKind::EqEq) || check(TokKind::NotEq)) {
    BinOp Op = check(TokKind::EqEq) ? BinOp::Eq : BinOp::Ne;
    bump();
    auto E = makeExpr(Expr::Kind::Binary);
    E->Op = Op;
    E->L = std::move(L);
    E->R = parseComparison();
    L = sealed(std::move(E));
  }
  return L;
}

ExprPtr Parser::parseComparison() {
  ExprPtr L = parseAdditive();
  while (check(TokKind::Lt) || check(TokKind::Le) || check(TokKind::Gt) ||
         check(TokKind::Ge)) {
    BinOp Op = check(TokKind::Lt)   ? BinOp::Lt
               : check(TokKind::Le) ? BinOp::Le
               : check(TokKind::Gt) ? BinOp::Gt
                                    : BinOp::Ge;
    bump();
    auto E = makeExpr(Expr::Kind::Binary);
    E->Op = Op;
    E->L = std::move(L);
    E->R = parseAdditive();
    L = sealed(std::move(E));
  }
  return L;
}

ExprPtr Parser::parseAdditive() {
  ExprPtr L = parseMultiplicative();
  while (check(TokKind::Plus) || check(TokKind::Minus) ||
         check(TokKind::Dot)) {
    BinOp Op = check(TokKind::Plus)    ? BinOp::Add
               : check(TokKind::Minus) ? BinOp::Sub
                                       : BinOp::Concat;
    bump();
    auto E = makeExpr(Expr::Kind::Binary);
    E->Op = Op;
    E->L = std::move(L);
    E->R = parseMultiplicative();
    L = sealed(std::move(E));
  }
  return L;
}

ExprPtr Parser::parseMultiplicative() {
  ExprPtr L = parseUnary();
  while (check(TokKind::Star) || check(TokKind::Slash) ||
         check(TokKind::Percent)) {
    BinOp Op = check(TokKind::Star)    ? BinOp::Mul
               : check(TokKind::Slash) ? BinOp::Div
                                       : BinOp::Mod;
    bump();
    auto E = makeExpr(Expr::Kind::Binary);
    E->Op = Op;
    E->L = std::move(L);
    E->R = parseUnary();
    L = sealed(std::move(E));
  }
  return L;
}

ExprPtr Parser::parseUnary() {
  if (check(TokKind::Not) || check(TokKind::Minus)) {
    Nesting Level(*this);
    auto E = makeExpr(Expr::Kind::Unary);
    if (!Level.ok())
      return E;
    E->IsNot = check(TokKind::Not);
    bump();
    E->L = parseUnary();
    return sealed(std::move(E));
  }
  return parsePostfix();
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  for (;;) {
    if (check(TokKind::Arrow)) {
      bump();
      if (!check(TokKind::Ident)) {
        error("expected a member name after '->'");
        return E;
      }
      std::string Member = Cur.Text;
      uint32_t Line = Cur.Line;
      bump();
      if (check(TokKind::LParen)) {
        auto M = std::make_unique<Expr>(Expr::Kind::Method);
        M->Line = Line;
        M->Name = std::move(Member);
        M->L = std::move(E);
        M->Args = parseArgs();
        E = sealed(std::move(M));
      } else {
        auto P = std::make_unique<Expr>(Expr::Kind::PropGet);
        P->Line = Line;
        P->Name = std::move(Member);
        P->L = std::move(E);
        E = sealed(std::move(P));
      }
      continue;
    }
    if (check(TokKind::LBracket)) {
      bump();
      auto I = makeExpr(Expr::Kind::Index);
      I->L = std::move(E);
      I->R = parseExpr();
      expect(TokKind::RBracket, "after index expression");
      E = sealed(std::move(I));
      continue;
    }
    return E;
  }
}

std::vector<ExprPtr> Parser::parseArgs() {
  std::vector<ExprPtr> Args;
  expect(TokKind::LParen, "before arguments");
  if (!check(TokKind::RParen)) {
    do {
      Args.push_back(parseExpr());
    } while (accept(TokKind::Comma));
  }
  expect(TokKind::RParen, "after arguments");
  return Args;
}

ExprPtr Parser::parsePrimary() {
  switch (Cur.Kind) {
  case TokKind::IntLit: {
    auto E = makeExpr(Expr::Kind::IntLit);
    E->IntValue = Cur.IntValue;
    bump();
    return E;
  }
  case TokKind::DblLit: {
    auto E = makeExpr(Expr::Kind::DblLit);
    E->DblValue = Cur.DblValue;
    bump();
    return E;
  }
  case TokKind::StrLit: {
    auto E = makeExpr(Expr::Kind::StrLit);
    E->Name = Cur.Text;
    bump();
    return E;
  }
  case TokKind::KwTrue: {
    auto E = makeExpr(Expr::Kind::BoolLit);
    E->IntValue = 1;
    bump();
    return E;
  }
  case TokKind::KwFalse: {
    auto E = makeExpr(Expr::Kind::BoolLit);
    E->IntValue = 0;
    bump();
    return E;
  }
  case TokKind::KwNull: {
    auto E = makeExpr(Expr::Kind::NullLit);
    bump();
    return E;
  }
  case TokKind::KwThis: {
    auto E = makeExpr(Expr::Kind::This);
    bump();
    return E;
  }
  case TokKind::Variable: {
    auto E = makeExpr(Expr::Kind::Var);
    E->Name = Cur.Text;
    bump();
    return E;
  }
  case TokKind::KwNew: {
    auto E = makeExpr(Expr::Kind::New);
    bump();
    if (check(TokKind::Ident)) {
      E->Name = Cur.Text;
      bump();
    } else {
      error("expected a class name after 'new'");
    }
    expect(TokKind::LParen, "after class name");
    expect(TokKind::RParen, "after class name");
    return E;
  }
  case TokKind::KwVec: {
    auto E = makeExpr(Expr::Kind::VecLit);
    bump();
    expect(TokKind::LBracket, "after 'vec'");
    if (!check(TokKind::RBracket)) {
      do {
        E->Args.push_back(parseExpr());
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RBracket, "to close the vec literal");
    return sealed(std::move(E));
  }
  case TokKind::KwDict: {
    auto E = makeExpr(Expr::Kind::DictLit);
    bump();
    expect(TokKind::LBracket, "after 'dict'");
    if (!check(TokKind::RBracket)) {
      do {
        E->Args.push_back(parseExpr());
        expect(TokKind::FatArrow, "between dict key and value");
        E->Args.push_back(parseExpr());
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RBracket, "to close the dict literal");
    return sealed(std::move(E));
  }
  case TokKind::Ident: {
    auto E = makeExpr(Expr::Kind::Call);
    E->Name = Cur.Text;
    bump();
    E->Args = parseArgs();
    return sealed(std::move(E));
  }
  case TokKind::LParen: {
    bump();
    ExprPtr E = parseExpr();
    expect(TokKind::RParen, "to close the parenthesized expression");
    return E;
  }
  default:
    error(strFormat("expected an expression, found %s",
                    tokKindName(Cur.Kind)));
    bump();
    return makeExpr(Expr::Kind::NullLit);
  }
}
