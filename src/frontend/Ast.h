//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax tree for the mini-Hack source language.
///
/// Nodes are tagged structs (one fat struct per category) rather than a
/// class hierarchy; the language is small and the codegen dispatches on a
/// Kind enum.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_FRONTEND_AST_H
#define JUMPSTART_FRONTEND_AST_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace jumpstart::frontend {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Binary operators at the AST level.
enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Concat,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And, ///< short-circuit &&
  Or,  ///< short-circuit ||
};

/// An expression node.
struct Expr {
  enum class Kind : uint8_t {
    IntLit,
    DblLit,
    StrLit,
    BoolLit,
    NullLit,
    Var,     ///< $name              (Name)
    This,    ///< $this
    Binary,  ///< L op R
    Unary,   ///< !E or -E           (Op reused: Not encoded via NotFlag)
    Call,    ///< name(args)         (Name, Args)
    Method,  ///< obj->name(args)    (L = receiver, Name, Args)
    PropGet, ///< obj->name          (L = receiver, Name)
    Index,   ///< base[index]        (L = base, R = index)
    New,     ///< new Name()
    VecLit,  ///< vec[e, e, ...]     (Args)
    DictLit, ///< dict[k => v, ...]  (Args holds k0,v0,k1,v1,...)
  };

  Kind K;
  uint32_t Line = 0;
  int64_t IntValue = 0;
  double DblValue = 0;
  std::string Name; ///< identifier / string literal payload
  BinOp Op = BinOp::Add;
  bool IsNot = false; ///< for Unary: true = '!', false = unary '-'
  ExprPtr L;
  ExprPtr R;
  std::vector<ExprPtr> Args;
  /// Levels in this subtree (1 for a leaf); the parser bounds it.
  uint32_t Height = 1;

  explicit Expr(Kind K) : K(K) {}
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// A statement node.
struct Stmt {
  enum class Kind : uint8_t {
    ExprStmt, ///< E;                         (E)
    Assign,   ///< target = E;                (Target, E)
    If,       ///< if (C) Then else Else      (C, Then, Else)
    While,    ///< while (C) Body             (C, Then=Body)
    Return,   ///< return E?;                 (E may be null)
    Break,
    Continue,
    Block, ///< { stmts }                     (Body)
  };

  Kind K;
  uint32_t Line = 0;
  ExprPtr Target; ///< Assign: a Var, PropGet or Index expression.
  ExprPtr E;
  ExprPtr C;
  std::vector<StmtPtr> Body; ///< Block statements / loop body / then-arm.
  std::vector<StmtPtr> ElseBody;

  explicit Stmt(Kind K) : K(K) {}
};

/// A function or method declaration.
struct FuncDecl {
  std::string Name;
  std::vector<std::string> Params;
  std::vector<StmtPtr> Body;
  uint32_t Line = 0;
};

/// A class declaration.
struct ClassDecl {
  std::string Name;
  std::string ParentName; ///< empty = no parent
  std::vector<std::string> Props;
  std::vector<FuncDecl> Methods;
  uint32_t Line = 0;
};

/// One parsed source file.
struct Program {
  std::vector<FuncDecl> Funcs;
  std::vector<ClassDecl> Classes;
};

} // namespace jumpstart::frontend

#endif // JUMPSTART_FRONTEND_AST_H
