//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode repository: the output of offline compilation.
///
/// Like HHVM's repo-authoritative mode, all source code is compiled ahead
/// of deployment into a single immutable repository holding interned
/// literal strings, units, classes and functions.  At runtime, servers
/// share one const Repo; per-server mutable state (loaded-unit tracking,
/// runtime class layouts, JIT state) lives elsewhere.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_BYTECODE_REPO_H
#define JUMPSTART_BYTECODE_REPO_H

#include "bytecode/Class.h"
#include "bytecode/Function.h"
#include "bytecode/Unit.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace jumpstart::bc {

/// The immutable program image produced by offline compilation.
class Repo {
public:
  //===--------------------------------------------------------------------===
  // Construction (used by the frontend's codegen).
  //===--------------------------------------------------------------------===

  /// Interns \p S, returning its id; repeated calls return the same id.
  StringId internString(std::string_view S);

  /// Creates an empty unit named \p Name and returns it.
  Unit &createUnit(std::string_view Name);

  /// Creates a function in \p U; the function's Unit field and Id are
  /// filled in.
  Function &createFunction(Unit &U, std::string_view Name);

  /// Creates a class in \p U.
  Class &createClass(Unit &U, std::string_view Name);

  //===--------------------------------------------------------------------===
  // Lookup.
  //===--------------------------------------------------------------------===

  const std::string &str(StringId Id) const;
  const Unit &unit(UnitId Id) const;
  const Function &func(FuncId Id) const;
  const Class &cls(ClassId Id) const;

  /// Mutable access for the frontend while a unit is under construction.
  Function &funcMutable(FuncId Id);
  Class &clsMutable(ClassId Id);

  /// Looks up an interned string; \returns an invalid id when absent.
  StringId findString(std::string_view S) const;

  /// Looks up a free function by name; \returns an invalid id when absent.
  FuncId findFunction(std::string_view Name) const;

  /// Looks up a class by name; \returns an invalid id when absent.
  ClassId findClass(std::string_view Name) const;

  /// Resolves a method named \p Name on \p C, walking up the inheritance
  /// chain; \returns an invalid id when no ancestor declares it.
  FuncId resolveMethod(ClassId C, StringId Name) const;

  //===--------------------------------------------------------------------===
  // Whole-program method resolution (class-hierarchy analysis).
  //===--------------------------------------------------------------------===

  /// Every distinct function some class of the repo resolves \p Name to
  /// (deduplicated, ascending FuncId order).  Classes that do not resolve
  /// \p Name contribute nothing.
  std::vector<FuncId> allMethodResolutions(StringId Name) const;

  /// True when *every* class of the repo resolves \p Name (so a method
  /// call on any object receiver cannot take the missing-method fault
  /// path).  False for a repo with no classes.
  bool allClassesResolve(StringId Name) const;

  size_t numStrings() const { return Strings.size(); }
  size_t numUnits() const { return Units.size(); }
  size_t numFuncs() const { return Funcs.size(); }
  size_t numClasses() const { return Classes.size(); }

  const std::vector<Function> &funcs() const { return Funcs; }
  const std::vector<Class> &classes() const { return Classes; }
  const std::vector<Unit> &units() const { return Units; }

  /// Total bytecode instructions across all functions (a proxy for the
  /// "100 million lines of code" scale axis in the paper).
  size_t totalBytecode() const;

private:
  std::vector<std::string> Strings;
  std::unordered_map<std::string, uint32_t> StringIndex;
  std::vector<Unit> Units;
  std::vector<Function> Funcs;
  std::vector<Class> Classes;
  std::unordered_map<std::string, uint32_t> FuncIndex;
  std::unordered_map<std::string, uint32_t> ClassIndex;
};

} // namespace jumpstart::bc

#endif // JUMPSTART_BYTECODE_REPO_H
