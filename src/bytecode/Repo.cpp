//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "bytecode/Repo.h"

#include "support/Assert.h"

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::bc;

StringId Repo::internString(std::string_view S) {
  auto It = StringIndex.find(std::string(S));
  if (It != StringIndex.end())
    return StringId(It->second);
  uint32_t Id = static_cast<uint32_t>(Strings.size());
  Strings.emplace_back(S);
  StringIndex.emplace(Strings.back(), Id);
  return StringId(Id);
}

Unit &Repo::createUnit(std::string_view Name) {
  Unit U;
  U.Id = UnitId(static_cast<uint32_t>(Units.size()));
  U.Name = std::string(Name);
  Units.push_back(std::move(U));
  return Units.back();
}

Function &Repo::createFunction(Unit &U, std::string_view Name) {
  Function F;
  F.Id = FuncId(static_cast<uint32_t>(Funcs.size()));
  F.Name = std::string(Name);
  F.Unit = U.Id;
  U.Funcs.push_back(F.Id);
  FuncIndex.emplace(F.Name, F.Id.raw());
  Funcs.push_back(std::move(F));
  return Funcs.back();
}

Class &Repo::createClass(Unit &U, std::string_view Name) {
  Class C;
  C.Id = ClassId(static_cast<uint32_t>(Classes.size()));
  C.Name = std::string(Name);
  C.Unit = U.Id;
  U.Classes.push_back(C.Id);
  ClassIndex.emplace(C.Name, C.Id.raw());
  Classes.push_back(std::move(C));
  return Classes.back();
}

const std::string &Repo::str(StringId Id) const {
  assert(Id.raw() < Strings.size() && "invalid StringId");
  return Strings[Id.raw()];
}

const Unit &Repo::unit(UnitId Id) const {
  assert(Id.raw() < Units.size() && "invalid UnitId");
  return Units[Id.raw()];
}

const Function &Repo::func(FuncId Id) const {
  assert(Id.raw() < Funcs.size() && "invalid FuncId");
  return Funcs[Id.raw()];
}

const Class &Repo::cls(ClassId Id) const {
  assert(Id.raw() < Classes.size() && "invalid ClassId");
  return Classes[Id.raw()];
}

Function &Repo::funcMutable(FuncId Id) {
  assert(Id.raw() < Funcs.size() && "invalid FuncId");
  return Funcs[Id.raw()];
}

Class &Repo::clsMutable(ClassId Id) {
  assert(Id.raw() < Classes.size() && "invalid ClassId");
  return Classes[Id.raw()];
}

StringId Repo::findString(std::string_view S) const {
  auto It = StringIndex.find(std::string(S));
  if (It == StringIndex.end())
    return StringId();
  return StringId(It->second);
}

FuncId Repo::findFunction(std::string_view Name) const {
  auto It = FuncIndex.find(std::string(Name));
  if (It == FuncIndex.end())
    return FuncId();
  return FuncId(It->second);
}

ClassId Repo::findClass(std::string_view Name) const {
  auto It = ClassIndex.find(std::string(Name));
  if (It == ClassIndex.end())
    return ClassId();
  return ClassId(It->second);
}

FuncId Repo::resolveMethod(ClassId C, StringId Name) const {
  while (C.valid()) {
    const Class &K = cls(C);
    FuncId M = K.findDeclMethod(Name);
    if (M.valid())
      return M;
    C = K.Parent;
  }
  return FuncId();
}

std::vector<FuncId> Repo::allMethodResolutions(StringId Name) const {
  std::vector<FuncId> Out;
  for (const Class &K : Classes) {
    FuncId M = resolveMethod(K.Id, Name);
    if (M.valid())
      Out.push_back(M);
  }
  std::sort(Out.begin(), Out.end(),
            [](FuncId A, FuncId B) { return A.raw() < B.raw(); });
  Out.erase(std::unique(Out.begin(), Out.end(),
                        [](FuncId A, FuncId B) { return A.raw() == B.raw(); }),
            Out.end());
  return Out;
}

bool Repo::allClassesResolve(StringId Name) const {
  if (Classes.empty())
    return false;
  for (const Class &K : Classes)
    if (!resolveMethod(K.Id, Name).valid())
      return false;
  return true;
}

size_t Repo::totalBytecode() const {
  size_t Total = 0;
  for (const Function &F : Funcs)
    Total += F.Code.size();
  return Total;
}
