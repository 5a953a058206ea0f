//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileStore.h"

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::profile;
using support::Status;
using support::StatusCode;

ProfileSlab::ProfileSlab(uint32_t Func, const bc::Function &F,
                         uint32_t NumBlocks)
    : Func(Func), BlockCounts(NumBlocks, 0),
      SiteOfPc(F.Code.size(), kNoSite) {
  for (uint32_t Pc = 0; Pc < F.Code.size(); ++Pc) {
    bc::Op O = F.Code[Pc].Opcode;
    if (bc::opObservesTypes(O)) {
      SiteOfPc[Pc] = static_cast<uint32_t>(Types.size());
      Types.emplace_back();
      TypePcs.push_back(Pc);
    } else if (O == bc::Op::FCallObj) {
      SiteOfPc[Pc] = static_cast<uint32_t>(Calls.size());
      Calls.push_back({Pc, {}});
    }
  }
}

void ProfileSlab::countCallTarget(uint32_t Pc, uint32_t Callee) {
  std::vector<std::pair<uint32_t, uint64_t>> &Targets =
      Calls[SiteOfPc[Pc]].Targets;
  for (auto &[Target, Count] : Targets)
    if (Target == Callee) {
      ++Count;
      return;
    }
  Targets.push_back({Callee, 1});
}

void OptCounters::renderInto(OptProfile &Opt) const {
  for (uint32_t Func = 0; Func < Rows.size(); ++Func) {
    const std::vector<uint64_t> &Row = Rows[Func];
    if (std::all_of(Row.begin(), Row.end(), [](uint64_t C) { return !C; }))
      continue;
    std::vector<uint64_t> &Counts = Opt.VasmBlockCounts[Func];
    if (Counts.size() < Row.size())
      Counts.resize(Row.size(), 0);
    for (size_t B = 0; B < Row.size(); ++B)
      Counts[B] += Row[B];
  }
  for (uint32_t Callee = 0; Callee < ArcsInto.size(); ++Callee)
    for (const auto &[Caller, Count] : ArcsInto[Callee])
      Opt.CallArcs[{Caller, Callee}] += Count;
}

void PropCounters::layOut(bc::ClassId Cls, ClassCounts &C) const {
  std::vector<bc::ClassId> Chain;
  for (bc::ClassId K = Cls; K.valid(); K = R.cls(K).Parent)
    Chain.push_back(K);
  for (auto It = Chain.rbegin(); It != Chain.rend(); ++It)
    for (bc::StringId Prop : R.cls(*It).DeclProps)
      C.Props.push_back(Prop.raw());
  const size_t N = C.Props.size();
  C.Access.assign(N, 0);
  C.Affinity.assign(N * (N ? N - 1 : 0) / 2, 0);
}

void PropCounters::renderInto(OptProfile &Opt) const {
  for (uint32_t Cls = 0; Cls < Classes.size(); ++Cls) {
    const ClassCounts &C = Classes[Cls];
    const std::string &ClassName = R.cls(bc::ClassId(Cls)).Name;
    auto PropName = [&](uint32_t Slot) -> const std::string & {
      return R.str(bc::StringId(C.Props[Slot]));
    };
    for (uint32_t Slot = 0; Slot < C.Access.size(); ++Slot)
      if (C.Access[Slot])
        Opt.PropAccessCounts[ClassName + "::" + PropName(Slot)] +=
            C.Access[Slot];
    for (uint32_t Hi = 1; Hi < C.Props.size(); ++Hi)
      for (uint32_t Lo = 0; Lo < Hi; ++Lo)
        if (uint64_t Count = C.Affinity[pairIndex(Lo, Hi)]) {
          const std::string &A = PropName(Lo);
          const std::string &B = PropName(Hi);
          Opt.PropAffinity[ClassName + "::" +
                           (A < B ? A + "::" + B : B + "::" + A)] += Count;
        }
  }
}

ProfileSlab &ProfileStore::createSlab(uint32_t Func, const bc::Function &F,
                                      uint32_t NumBlocks) {
  if (Func >= Slabs.size())
    Slabs.resize(Func + 1);
  Slabs[Func] = std::make_unique<ProfileSlab>(Func, F, NumBlocks);
  getOrCreate(Func);
  return *Slabs[Func];
}

void ProfileStore::render() const {
  for (ProfileSlab *S : Dirty) {
    FuncProfile &P = Profiles.at(S->Func);
    P.EntryCount += S->EntryCount;
    S->EntryCount = 0;

    if (P.ParamTypes.size() < S->ParamTypes.size())
      P.ParamTypes.resize(S->ParamTypes.size());
    for (size_t I = 0; I < S->ParamTypes.size(); ++I) {
      P.ParamTypes[I].merge(S->ParamTypes[I]);
      S->ParamTypes[I] = TypeObservation();
    }

    // A function's block counters exist once any block was entered.
    if (std::any_of(S->BlockCounts.begin(), S->BlockCounts.end(),
                    [](uint64_t C) { return C != 0; })) {
      if (P.BlockCounts.size() < S->BlockCounts.size())
        P.BlockCounts.resize(S->BlockCounts.size(), 0);
      for (size_t B = 0; B < S->BlockCounts.size(); ++B) {
        P.BlockCounts[B] += S->BlockCounts[B];
        S->BlockCounts[B] = 0;
      }
    }

    for (ProfileSlab::CallSite &C : S->Calls) {
      for (const auto &[Callee, Count] : C.Targets)
        P.CallTargets[C.Pc][Callee] += Count;
      C.Targets.clear();
    }

    for (size_t I = 0; I < S->Types.size(); ++I) {
      if (S->Types[I].total() == 0)
        continue;
      P.LoadTypes[S->TypePcs[I]].merge(S->Types[I]);
      S->Types[I] = TypeObservation();
    }
    S->Dirty = false;
  }
  Dirty.clear();
}

Status ProfileStore::loadFromPackage(const ProfilePackage &Pkg) {
  Profiles.clear();
  Slabs.clear();
  Dirty.clear();
  for (const FuncProfile &F : Pkg.Funcs)
    if (!Profiles.emplace(F.Func, F).second)
      return support::errorStatus(StatusCode::CorruptData,
                                  "package profiles function %u twice",
                                  F.Func);
  return Status::okStatus();
}

void ProfileStore::exportToPackage(ProfilePackage &Pkg) const {
  assert(Dirty.empty() && "export of an unrendered profile store");
  Pkg.Funcs.clear();
  Pkg.Funcs.reserve(Profiles.size());
  for (const auto &[Func, Profile] : Profiles) {
    (void)Func;
    Pkg.Funcs.push_back(Profile);
  }
  std::sort(Pkg.Funcs.begin(), Pkg.Funcs.end(),
            [](const FuncProfile &A, const FuncProfile &B) {
              return A.Func < B.Func;
            });
}
