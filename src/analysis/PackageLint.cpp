//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "analysis/PackageLint.h"

#include "analysis/CallGraph.h"
#include "analysis/TypeFlow.h"
#include "support/StringUtil.h"

#include <algorithm>

#include <set>
#include <string_view>

using namespace jumpstart;
using namespace jumpstart::analysis;

namespace {

class PackageSink {
public:
  explicit PackageSink(std::vector<Diagnostic> &Diags) : Diags(Diags) {}

  __attribute__((format(printf, 3, 4))) void
  structure(bc::FuncId Func, const char *Fmt, ...) {
    va_list Ap;
    va_start(Ap, Fmt);
    add(DiagKind::PackageStructure, Func, strFormatV(Fmt, Ap));
    va_end(Ap);
  }

  __attribute__((format(printf, 3, 4))) void
  semantics(bc::FuncId Func, const char *Fmt, ...) {
    va_list Ap;
    va_start(Ap, Fmt);
    add(DiagKind::PackageSemantics, Func, strFormatV(Fmt, Ap));
    va_end(Ap);
  }

  __attribute__((format(printf, 3, 4))) void
  contradiction(bc::FuncId Func, const char *Fmt, ...) {
    va_list Ap;
    va_start(Ap, Fmt);
    add(DiagKind::SummaryContradiction, Func, strFormatV(Fmt, Ap));
    va_end(Ap);
  }

private:
  void add(DiagKind Kind, bc::FuncId Func, std::string Message) {
    Diagnostic D;
    D.Sev = Severity::Error;
    D.Kind = Kind;
    D.Func = Func;
    D.Message = std::move(Message);
    Diags.push_back(std::move(D));
  }

  std::vector<Diagnostic> &Diags;
};

/// Checks each raw id in \p Ids against \p Limit and rejects duplicates.
void checkIdList(PackageSink &Sink, const std::vector<uint32_t> &Ids,
                 size_t Limit, const char *What) {
  std::set<uint32_t> Seen;
  for (uint32_t Id : Ids) {
    if (Id >= Limit)
      Sink.structure(bc::FuncId(), "%s entry #%u out of range (limit %zu)",
                     What, Id, Limit);
    else if (!Seen.insert(Id).second)
      Sink.structure(bc::FuncId(), "%s lists #%u twice", What, Id);
  }
}

/// Splits a "Class::a" or "Class::a::b" key on "::".  \returns the parts,
/// empty on malformed keys (too few/many separators or empty components).
std::vector<std::string_view> splitPropKey(std::string_view Key,
                                           size_t WantParts) {
  std::vector<std::string_view> Parts;
  size_t Pos = 0;
  while (true) {
    size_t Sep = Key.find("::", Pos);
    if (Sep == std::string_view::npos) {
      Parts.push_back(Key.substr(Pos));
      break;
    }
    Parts.push_back(Key.substr(Pos, Sep - Pos));
    Pos = Sep + 2;
  }
  if (Parts.size() != WantParts)
    return {};
  for (std::string_view P : Parts)
    if (P.empty())
      return {};
  return Parts;
}

void lintFuncProfile(const bc::Repo &R, bc::BlockCache &Blocks,
                     const profile::FuncProfile &FP, const CallGraph *CG,
                     PackageSink &Sink) {
  bc::FuncId Func(FP.Func);
  const bc::Function &F = R.func(Func);

  size_t NumBlocks = Blocks.blocks(Func).numBlocks();
  if (FP.BlockCounts.size() > NumBlocks)
    Sink.structure(Func, "%zu block counters for a function with %zu blocks",
                   FP.BlockCounts.size(), NumBlocks);

  if (FP.ParamTypes.size() > bc::kMaxCallArgs)
    Sink.structure(Func, "%zu parameter-type observations (max arity is %u)",
                   FP.ParamTypes.size(), bc::kMaxCallArgs);

  for (const auto &[Pc, Targets] : FP.CallTargets) {
    if (Pc >= F.Code.size()) {
      Sink.structure(Func, "call-target profile at instr %u, past the end",
                     Pc);
      continue;
    }
    if (F.Code[Pc].Opcode != bc::Op::FCallObj) {
      Sink.semantics(Func,
                     "call-target profile at instr %u, but that is a %s, "
                     "not a virtual call",
                     Pc, bc::opName(F.Code[Pc].Opcode));
      continue;
    }
    for (const auto &[Target, Count] : Targets) {
      (void)Count;
      if (Target >= R.numFuncs()) {
        Sink.structure(Func,
                       "call-target profile at instr %u names function "
                       "#%u, out of range",
                       Pc, Target);
        continue;
      }
      // CHA cross-check: a dynamically-observed callee must be one of
      // the method name's class-hierarchy resolutions.
      if (CG) {
        const std::vector<bc::FuncId> &Res =
            CG->resolutions(F.Code[Pc].strImm());
        if (!std::binary_search(Res.begin(), Res.end(), bc::FuncId(Target)))
          Sink.contradiction(
              Func,
              "call-target profile at instr %u claims callee %s, which no "
              "class resolves \"%s\" to",
              Pc, R.func(bc::FuncId(Target)).Name.c_str(),
              R.str(F.Code[Pc].strImm()).c_str());
      }
    }
  }

  for (const auto &[Pc, Obs] : FP.LoadTypes) {
    (void)Obs;
    if (Pc >= F.Code.size())
      Sink.structure(Func, "type observation at instr %u, past the end", Pc);
    else if (!bc::opObservesTypes(F.Code[Pc].Opcode))
      Sink.semantics(Func,
                     "type observation at instr %u, but %s never observes "
                     "types",
                     Pc, bc::opName(F.Code[Pc].Opcode));
  }
}

void lintOptProfile(const bc::Repo &R, const profile::OptProfile &Opt,
                    const CallGraph *CG, PackageSink &Sink) {
  for (const auto &[FuncRaw, Counts] : Opt.VasmBlockCounts) {
    (void)Counts;
    if (FuncRaw >= R.numFuncs())
      Sink.structure(bc::FuncId(),
                     "vasm block counters for function #%u, out of range",
                     FuncRaw);
  }
  for (const auto &[Arc, Count] : Opt.CallArcs) {
    (void)Count;
    if (Arc.first >= R.numFuncs() || Arc.second >= R.numFuncs()) {
      Sink.structure(bc::FuncId(), "call arc %u->%u out of range", Arc.first,
                     Arc.second);
      continue;
    }
    // Every dynamically-profiled arc must correspond to a call *path* in
    // the static graph (which over-approximates dispatch).  Not an edge:
    // the tier-2 profiler attributes calls to the physical caller, so
    // inlining legitimately collapses A -> B -> C into an A -> C arc.  No
    // path at all means the profile records a call the bytecode cannot
    // make.
    if (CG && !CG->reaches(bc::FuncId(Arc.first), bc::FuncId(Arc.second)))
      Sink.contradiction(bc::FuncId(Arc.first),
                         "profiled call arc %s -> %s has no static "
                         "call path",
                         R.func(bc::FuncId(Arc.first)).Name.c_str(),
                         R.func(bc::FuncId(Arc.second)).Name.c_str());
  }

  auto CheckProp = [&](std::string_view ClsName, std::string_view PropName,
                       const std::string &Key) {
    bc::ClassId C = R.findClass(ClsName);
    if (!C.valid()) {
      Sink.semantics(bc::FuncId(),
                     "property counter \"%s\" names unknown class",
                     Key.c_str());
      return;
    }
    bc::StringId Prop = R.findString(PropName);
    if (!Prop.valid() || !classHasProp(R, C, Prop))
      Sink.semantics(bc::FuncId(),
                     "property counter \"%s\" names a property %s does not "
                     "declare",
                     Key.c_str(), R.cls(C).Name.c_str());
  };

  for (const auto &[Key, Count] : Opt.PropAccessCounts) {
    (void)Count;
    std::vector<std::string_view> Parts = splitPropKey(Key, 2);
    if (Parts.empty()) {
      Sink.structure(bc::FuncId(), "malformed property counter key \"%s\"",
                     Key.c_str());
      continue;
    }
    CheckProp(Parts[0], Parts[1], Key);
  }

  for (const auto &[Key, Count] : Opt.PropAffinity) {
    (void)Count;
    std::vector<std::string_view> Parts = splitPropKey(Key, 3);
    if (Parts.empty()) {
      Sink.structure(bc::FuncId(), "malformed property-affinity key \"%s\"",
                     Key.c_str());
      continue;
    }
    if (Parts[2] < Parts[1]) {
      Sink.structure(bc::FuncId(),
                     "property-affinity key \"%s\" is not in canonical "
                     "(lexicographic) order",
                     Key.c_str());
      continue;
    }
    CheckProp(Parts[0], Parts[1], Key);
    CheckProp(Parts[0], Parts[2], Key);
  }
}

} // namespace

std::vector<Diagnostic>
jumpstart::analysis::lintPackage(const bc::Repo &R, bc::BlockCache &Blocks,
                                 const profile::ProfilePackage &Pkg,
                                 const CallGraph *CG) {
  std::vector<Diagnostic> Diags;
  PackageSink Sink(Diags);

  checkIdList(Sink, Pkg.Preload.Units, R.numUnits(), "unit preload list");
  checkIdList(Sink, Pkg.Preload.Strings, R.numStrings(),
              "string preload list");
  checkIdList(Sink, Pkg.Preload.Classes, R.numClasses(),
              "class preload list");

  std::set<uint32_t> SeenFuncs;
  for (const profile::FuncProfile &FP : Pkg.Funcs) {
    if (FP.Func >= R.numFuncs()) {
      Sink.structure(bc::FuncId(), "profile for function #%u, out of range",
                     FP.Func);
      continue;
    }
    if (!SeenFuncs.insert(FP.Func).second) {
      Sink.structure(bc::FuncId(FP.Func),
                     "duplicate profile for function #%u", FP.Func);
      continue;
    }
    lintFuncProfile(R, Blocks, FP, CG, Sink);
  }

  lintOptProfile(R, Pkg.Opt, CG, Sink);

  checkIdList(Sink, Pkg.Intermediate.FuncOrder, R.numFuncs(),
              "function order");
  checkIdList(Sink, Pkg.Intermediate.LiveFuncs, R.numFuncs(),
              "live-function list");
  return Diags;
}
