//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"

#include "bytecode/FuncBuilder.h"
#include "frontend/Parser.h"
#include "runtime/ValueOps.h"
#include "support/StringUtil.h"

#include <cstring>
#include <optional>
#include <unordered_map>

using namespace jumpstart;
using namespace jumpstart::frontend;
using bc::FuncBuilder;
using bc::Op;

namespace {

/// Shared state for one whole-program compilation.
struct ProgramContext {
  bc::Repo &R;
  const runtime::BuiltinTable &Builtins;
  std::vector<std::string> Errors;

  void error(const std::string &Unit, uint32_t Line, const std::string &Msg) {
    Errors.push_back(
        strFormat("%s:%u: %s", Unit.c_str(), Line, Msg.c_str()));
  }
};

/// Generates bytecode for one function or method body.
class FuncCodegen {
public:
  FuncCodegen(ProgramContext &Ctx, const std::string &UnitName,
              bc::Function &F, const FuncDecl &Decl, bool IsMethod)
      : Ctx(Ctx), UnitName(UnitName), F(F), Decl(Decl), IsMethod(IsMethod),
        B(F) {}

  void run() {
    for (const std::string &Param : Decl.Params)
      localSlot(Param);
    F.NumParams = static_cast<uint32_t>(Decl.Params.size());
    genBlock(Decl.Body);
    // Guarantee a return: fall-off-the-end yields null, as in PHP.
    B.emit(Op::Null);
    B.emit(Op::RetC);
    B.finish();
  }

private:
  void error(uint32_t Line, const std::string &Msg) {
    Ctx.error(UnitName, Line ? Line : Decl.Line, Msg);
  }

  uint32_t localSlot(const std::string &Name) {
    auto It = Locals.find(Name);
    if (It != Locals.end())
      return It->second;
    uint32_t Slot = B.newLocal();
    Locals.emplace(Name, Slot);
    return Slot;
  }

  bc::StringId intern(const std::string &S) { return Ctx.R.internString(S); }

  //===------------------------------------------------------------------===
  // Statements.
  //===------------------------------------------------------------------===

  void genBlock(const std::vector<StmtPtr> &Stmts) {
    for (const StmtPtr &S : Stmts)
      genStmt(*S);
  }

  void genStmt(const Stmt &S) {
    switch (S.K) {
    case Stmt::Kind::ExprStmt:
      genExpr(*S.E);
      B.emit(Op::PopC);
      return;
    case Stmt::Kind::Assign:
      genAssign(S);
      return;
    case Stmt::Kind::If: {
      auto ElseL = B.newLabel();
      auto EndL = B.newLabel();
      genExpr(*S.C);
      B.emitJump(Op::JmpZ, ElseL);
      genBlock(S.Body);
      B.emitJump(Op::Jmp, EndL);
      B.bind(ElseL);
      genBlock(S.ElseBody);
      B.bind(EndL);
      return;
    }
    case Stmt::Kind::While: {
      auto CondL = B.newLabel();
      auto EndL = B.newLabel();
      B.bind(CondL);
      genExpr(*S.C);
      B.emitJump(Op::JmpZ, EndL);
      LoopStack.push_back({CondL, EndL});
      genBlock(S.Body);
      LoopStack.pop_back();
      B.emitJump(Op::Jmp, CondL);
      B.bind(EndL);
      return;
    }
    case Stmt::Kind::Return:
      if (S.E)
        genExpr(*S.E);
      else
        B.emit(Op::Null);
      B.emit(Op::RetC);
      return;
    case Stmt::Kind::Break:
      if (LoopStack.empty()) {
        error(S.Line, "'break' outside of a loop");
        return;
      }
      B.emitJump(Op::Jmp, LoopStack.back().BreakL);
      return;
    case Stmt::Kind::Continue:
      if (LoopStack.empty()) {
        error(S.Line, "'continue' outside of a loop");
        return;
      }
      B.emitJump(Op::Jmp, LoopStack.back().ContinueL);
      return;
    case Stmt::Kind::Block:
      genBlock(S.Body);
      return;
    }
  }

  void genAssign(const Stmt &S) {
    const Expr &Target = *S.Target;
    switch (Target.K) {
    case Expr::Kind::Var:
      genExpr(*S.E);
      B.emit(Op::SetL, localSlot(Target.Name));
      return;
    case Expr::Kind::PropGet:
      genExpr(*Target.L);
      genExpr(*S.E);
      B.emit(Op::SetProp, intern(Target.Name).raw());
      return;
    case Expr::Kind::Index: {
      const Expr &Base = *Target.L;
      if (Base.K == Expr::Kind::Var) {
        // $a[i] = v  =>  a' = SetElem(a, i, v); a = a'
        uint32_t Slot = localSlot(Base.Name);
        B.emit(Op::GetL, Slot);
        genExpr(*Target.R);
        genExpr(*S.E);
        B.emit(Op::SetElem);
        B.emit(Op::SetL, Slot);
        return;
      }
      if (Base.K == Expr::Kind::PropGet) {
        // $o->p[i] = v  =>  o; dup; o.p; i; v; SetElem; SetProp p
        genExpr(*Base.L);
        B.emit(Op::Dup);
        B.emit(Op::GetProp, intern(Base.Name).raw());
        genExpr(*Target.R);
        genExpr(*S.E);
        B.emit(Op::SetElem);
        B.emit(Op::SetProp, intern(Base.Name).raw());
        return;
      }
      error(S.Line, "unsupported index-assignment base (use a variable or "
                    "property)");
      return;
    }
    default:
      error(S.Line, "invalid assignment target");
      return;
    }
  }

  //===------------------------------------------------------------------===
  // Expressions.
  //===------------------------------------------------------------------===

  /// The value of \p E when it is an int or float literal, or a unary
  /// minus of such a value: `0 - v`, computed as the Sub the unfolded
  /// code would run (so `-0.0` is +0.0).  nullopt for anything else.
  static std::optional<runtime::Value> numericConstant(const Expr &E) {
    switch (E.K) {
    case Expr::Kind::IntLit:
      return runtime::Value::integer(E.IntValue);
    case Expr::Kind::DblLit:
      return runtime::Value::dbl(E.DblValue);
    case Expr::Kind::Unary:
      if (!E.IsNot)
        if (std::optional<runtime::Value> V = numericConstant(*E.L))
          return runtime::arith(runtime::ArithOp::Sub,
                                runtime::Value::integer(0), *V);
      return std::nullopt;
    default:
      return std::nullopt;
    }
  }

  /// Emits the one Int or Dbl that pushes the int or double \p V.
  void emitNumber(const runtime::Value &V) {
    if (V.isInt()) {
      B.emit(Op::Int, V.I);
      return;
    }
    int64_t Bits;
    std::memcpy(&Bits, &V.D, sizeof(Bits));
    B.emit(Op::Dbl, Bits);
  }

  void genExpr(const Expr &E) {
    switch (E.K) {
    case Expr::Kind::IntLit:
    case Expr::Kind::DblLit:
      emitNumber(*numericConstant(E));
      return;
    case Expr::Kind::StrLit:
      B.emit(Op::Str, intern(E.Name).raw());
      return;
    case Expr::Kind::BoolLit:
      B.emit(E.IntValue ? Op::True : Op::False);
      return;
    case Expr::Kind::NullLit:
      B.emit(Op::Null);
      return;
    case Expr::Kind::Var:
      B.emit(Op::GetL, localSlot(E.Name));
      return;
    case Expr::Kind::This:
      if (!IsMethod)
        error(E.Line, "'$this' outside of a method");
      B.emit(Op::GetThis);
      return;
    case Expr::Kind::Binary:
      genBinary(E);
      return;
    case Expr::Kind::Unary:
      if (E.IsNot) {
        genExpr(*E.L);
        B.emit(Op::Not);
      } else if (std::optional<runtime::Value> C = numericConstant(E)) {
        emitNumber(*C);
      } else {
        B.emit(Op::Int, 0);
        genExpr(*E.L);
        B.emit(Op::Sub);
      }
      return;
    case Expr::Kind::Call:
      genCall(E);
      return;
    case Expr::Kind::Method:
      genExpr(*E.L);
      for (const ExprPtr &A : E.Args)
        genExpr(*A);
      B.emit(Op::FCallObj, intern(E.Name).raw(),
             static_cast<int64_t>(E.Args.size()));
      return;
    case Expr::Kind::PropGet:
      genExpr(*E.L);
      B.emit(Op::GetProp, intern(E.Name).raw());
      return;
    case Expr::Kind::Index:
      genExpr(*E.L);
      genExpr(*E.R);
      B.emit(Op::GetElem);
      return;
    case Expr::Kind::New: {
      bc::ClassId Cls = Ctx.R.findClass(E.Name);
      if (!Cls.valid()) {
        error(E.Line, strFormat("unknown class '%s'", E.Name.c_str()));
        B.emit(Op::Null);
        return;
      }
      B.emit(Op::NewObj, Cls.raw());
      return;
    }
    case Expr::Kind::VecLit:
      B.emit(Op::NewVec);
      for (const ExprPtr &A : E.Args) {
        genExpr(*A);
        B.emit(Op::AddElem);
      }
      return;
    case Expr::Kind::DictLit:
      B.emit(Op::NewDict);
      for (size_t I = 0; I + 1 < E.Args.size(); I += 2) {
        genExpr(*E.Args[I]);
        genExpr(*E.Args[I + 1]);
        B.emit(Op::AddKeyElem);
      }
      return;
    }
  }

  void genBinary(const Expr &E) {
    // Short-circuit forms produce a Bool on both paths.
    if (E.Op == BinOp::And) {
      auto FalseL = B.newLabel();
      auto EndL = B.newLabel();
      genExpr(*E.L);
      B.emitJump(Op::JmpZ, FalseL);
      genExpr(*E.R);
      B.emit(Op::Not);
      B.emit(Op::Not);
      B.emitJump(Op::Jmp, EndL);
      B.bind(FalseL);
      B.emit(Op::False);
      B.bind(EndL);
      return;
    }
    if (E.Op == BinOp::Or) {
      auto TrueL = B.newLabel();
      auto EndL = B.newLabel();
      genExpr(*E.L);
      B.emitJump(Op::JmpNZ, TrueL);
      genExpr(*E.R);
      B.emit(Op::Not);
      B.emit(Op::Not);
      B.emitJump(Op::Jmp, EndL);
      B.bind(TrueL);
      B.emit(Op::True);
      B.bind(EndL);
      return;
    }

    genExpr(*E.L);
    genExpr(*E.R);
    switch (E.Op) {
    case BinOp::Add:
      B.emit(Op::Add);
      return;
    case BinOp::Sub:
      B.emit(Op::Sub);
      return;
    case BinOp::Mul:
      B.emit(Op::Mul);
      return;
    case BinOp::Div:
      B.emit(Op::Div);
      return;
    case BinOp::Mod:
      B.emit(Op::Mod);
      return;
    case BinOp::Concat:
      B.emit(Op::Concat);
      return;
    case BinOp::Eq:
      B.emit(Op::CmpEq);
      return;
    case BinOp::Ne:
      B.emit(Op::CmpNe);
      return;
    case BinOp::Lt:
      B.emit(Op::CmpLt);
      return;
    case BinOp::Le:
      B.emit(Op::CmpLe);
      return;
    case BinOp::Gt:
      B.emit(Op::CmpGt);
      return;
    case BinOp::Ge:
      B.emit(Op::CmpGe);
      return;
    case BinOp::And:
    case BinOp::Or:
      return; // handled above
    }
  }

  void genCall(const Expr &E) {
    for (const ExprPtr &A : E.Args)
      genExpr(*A);

    // User functions shadow builtins, as in PHP.
    bc::FuncId Callee = Ctx.R.findFunction(E.Name);
    if (Callee.valid()) {
      const bc::Function &CalleeFunc = Ctx.R.func(Callee);
      if (CalleeFunc.NumParams != E.Args.size()) {
        error(E.Line, strFormat("call to '%s' passes %zu args, expects %u",
                                E.Name.c_str(), E.Args.size(),
                                CalleeFunc.NumParams));
      }
      B.emit(Op::FCall, Callee.raw(), static_cast<int64_t>(E.Args.size()));
      return;
    }

    uint32_t BuiltinId = Ctx.Builtins.find(E.Name);
    if (BuiltinId != runtime::BuiltinTable::kNotFound) {
      const runtime::Builtin &Native = Ctx.Builtins.builtin(BuiltinId);
      if (Native.Arity != E.Args.size())
        error(E.Line, strFormat("builtin '%s' takes %u args, got %zu",
                                E.Name.c_str(), Native.Arity, E.Args.size()));
      B.emit(Op::NativeCall, BuiltinId, static_cast<int64_t>(E.Args.size()));
      return;
    }

    error(E.Line, strFormat("unknown function '%s'", E.Name.c_str()));
    B.emit(Op::Null);
  }

  struct LoopLabels {
    FuncBuilder::Label ContinueL;
    FuncBuilder::Label BreakL;
  };

  ProgramContext &Ctx;
  const std::string &UnitName;
  bc::Function &F;
  const FuncDecl &Decl;
  bool IsMethod;
  FuncBuilder B;
  std::unordered_map<std::string, uint32_t> Locals;
  std::vector<LoopLabels> LoopStack;
};

/// Mangles a method name for the global function table.
std::string methodFuncName(const std::string &Cls, const std::string &M) {
  return Cls + "::" + M;
}

} // namespace

std::vector<std::string>
jumpstart::frontend::compileProgram(bc::Repo &R,
                                    const runtime::BuiltinTable &Builtins,
                                    const std::vector<SourceFile> &Files) {
  ProgramContext Ctx{R, Builtins, {}};

  // Parse everything first.
  struct ParsedFile {
    const SourceFile *Src;
    Program Prog;
    bc::UnitId Unit;
  };
  std::vector<ParsedFile> Parsed;
  Parsed.reserve(Files.size());
  for (const SourceFile &File : Files) {
    Parser P(File.Source);
    Program Prog = P.parseProgram();
    for (const std::string &E : P.errors())
      Ctx.Errors.push_back(File.Name + ":" + E);
    Parsed.push_back(ParsedFile{&File, std::move(Prog), bc::UnitId()});
  }
  if (!Ctx.Errors.empty())
    return std::move(Ctx.Errors);

  // Declare pass: create all units, classes (without parents yet),
  // functions and methods, so bodies can reference anything.
  for (ParsedFile &PF : Parsed) {
    bc::Unit &U = R.createUnit(PF.Src->Name);
    PF.Unit = U.Id;
    for (const FuncDecl &FD : PF.Prog.Funcs) {
      if (R.findFunction(FD.Name).valid()) {
        Ctx.error(PF.Src->Name, FD.Line,
                  strFormat("duplicate function '%s'", FD.Name.c_str()));
        continue;
      }
      bc::Function &F = R.createFunction(U, FD.Name);
      F.NumParams = static_cast<uint32_t>(FD.Params.size());
    }
    for (const ClassDecl &CD : PF.Prog.Classes) {
      if (R.findClass(CD.Name).valid()) {
        Ctx.error(PF.Src->Name, CD.Line,
                  strFormat("duplicate class '%s'", CD.Name.c_str()));
        continue;
      }
      bc::Class &K = R.createClass(U, CD.Name);
      for (const std::string &Prop : CD.Props)
        K.DeclProps.push_back(R.internString(Prop));
      bc::ClassId KId = K.Id;
      for (const FuncDecl &MD : CD.Methods) {
        std::string FullName = methodFuncName(CD.Name, MD.Name);
        if (R.findFunction(FullName).valid()) {
          Ctx.error(PF.Src->Name, MD.Line,
                    strFormat("duplicate method '%s'", FullName.c_str()));
          continue;
        }
        // createFunction invalidates class references; re-fetch.
        bc::Unit &UnitRef =
            const_cast<bc::Unit &>(R.unit(PF.Unit));
        bc::Function &M = R.createFunction(UnitRef, FullName);
        M.NumParams = static_cast<uint32_t>(MD.Params.size());
        M.Cls = KId;
        R.clsMutable(KId).Methods.emplace(R.internString(MD.Name).raw(),
                                          M.Id);
      }
    }
  }

  // Resolve class parents (may be declared in any unit).
  for (ParsedFile &PF : Parsed) {
    for (const ClassDecl &CD : PF.Prog.Classes) {
      if (CD.ParentName.empty())
        continue;
      bc::ClassId Child = R.findClass(CD.Name);
      bc::ClassId Parent = R.findClass(CD.ParentName);
      if (!Parent.valid()) {
        Ctx.error(PF.Src->Name, CD.Line,
                  strFormat("unknown parent class '%s'",
                            CD.ParentName.c_str()));
        continue;
      }
      if (Child.valid())
        R.clsMutable(Child).Parent = Parent;
    }
  }

  // Detect inheritance cycles before anything walks parent chains.
  for (const bc::Class &K : R.classes()) {
    bc::ClassId Slow = K.Id;
    bc::ClassId Fast = K.Parent;
    while (Fast.valid() && R.cls(Fast).Parent.valid()) {
      if (Fast == Slow) {
        Ctx.Errors.push_back(
            strFormat("inheritance cycle involving class '%s'",
                      K.Name.c_str()));
        break;
      }
      Slow = R.cls(Slow).Parent;
      Fast = R.cls(R.cls(Fast).Parent).Parent;
    }
  }
  if (!Ctx.Errors.empty())
    return std::move(Ctx.Errors);

  // Emit pass: generate bytecode for every body.
  for (ParsedFile &PF : Parsed) {
    for (const FuncDecl &FD : PF.Prog.Funcs) {
      bc::FuncId Id = R.findFunction(FD.Name);
      if (!Id.valid())
        continue;
      FuncCodegen Gen(Ctx, PF.Src->Name, R.funcMutable(Id), FD,
                      /*IsMethod=*/false);
      Gen.run();
    }
    for (const ClassDecl &CD : PF.Prog.Classes) {
      for (const FuncDecl &MD : CD.Methods) {
        bc::FuncId Id = R.findFunction(methodFuncName(CD.Name, MD.Name));
        if (!Id.valid())
          continue;
        FuncCodegen Gen(Ctx, PF.Src->Name, R.funcMutable(Id), MD,
                        /*IsMethod=*/true);
        Gen.run();
      }
    }
  }

  return std::move(Ctx.Errors);
}

std::vector<std::string>
jumpstart::frontend::compileUnit(bc::Repo &R,
                                 const runtime::BuiltinTable &Builtins,
                                 std::string_view UnitName,
                                 std::string_view Source) {
  std::vector<SourceFile> Files;
  Files.push_back(SourceFile{std::string(UnitName), std::string(Source)});
  return compileProgram(R, Builtins, Files);
}
