//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "analysis/RegionCheck.h"

#include "analysis/TypeFlow.h"
#include "analysis/WholeProgram.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <memory>

using namespace jumpstart;
using namespace jumpstart::analysis;

namespace {

void reportRegion(std::vector<Diagnostic> &Diags, bc::FuncId Func,
                  uint32_t Instr, std::string Message) {
  Diagnostic D;
  D.Sev = Severity::Error;
  D.Kind = DiagKind::RegionInconsistent;
  D.Func = Func;
  D.Instr = Instr;
  D.Message = std::move(Message);
  Diags.push_back(D);
}

/// Decodes a RegionDescriptor site key into (function, instruction).
std::pair<bc::FuncId, uint32_t> decodeSite(uint64_t Key) {
  return {bc::FuncId(static_cast<uint32_t>(Key >> 32)),
          static_cast<uint32_t>(Key)};
}

/// Checks that site (F, Pc) names instruction of kind \p Expected inside
/// the repo; reports otherwise.  \returns true when structurally valid.
bool checkSite(const bc::Repo &R, bc::FuncId F, uint32_t Pc,
               const char *What, std::vector<Diagnostic> &Diags) {
  if (!F.valid() || F.raw() >= R.numFuncs()) {
    reportRegion(Diags, bc::FuncId(), Diagnostic::kNone,
                 strFormat("%s site names function #%u, out of range", What,
                           F.raw()));
    return false;
  }
  const bc::Function &Func = R.func(F);
  if (Pc >= Func.Code.size()) {
    reportRegion(Diags, F, Pc,
                 strFormat("%s site at instr %u is past the end of %s", What,
                           Pc, Func.Name.c_str()));
    return false;
  }
  if (!hasFlag(bc::opInfo(Func.Code[Pc].Opcode).Flags, bc::OpFlags::Call)) {
    reportRegion(Diags, F, Pc,
                 strFormat("%s site at instr %u is a %s, not a call", What,
                           Pc, bc::opName(Func.Code[Pc].Opcode)));
    return false;
  }
  return true;
}

} // namespace

std::vector<Diagnostic>
jumpstart::analysis::lintRegion(const bc::Repo &R, bc::BlockCache &Blocks,
                                const jit::RegionDescriptor &Region) {
  std::vector<Diagnostic> Diags;
  if (!Region.Func.valid() || Region.Func.raw() >= R.numFuncs()) {
    reportRegion(Diags, bc::FuncId(), Diagnostic::kNone,
                 strFormat("region root function #%u out of range",
                           Region.Func.raw()));
    return Diags;
  }

  auto InRegion = [&](bc::FuncId F) {
    return F == Region.Func ||
           std::find(Region.InlinedFuncs.begin(), Region.InlinedFuncs.end(),
                     F) != Region.InlinedFuncs.end();
  };

  for (const auto &[Key, Callee] : Region.InlinedCalls) {
    auto [F, Pc] = decodeSite(Key);
    if (!checkSite(R, F, Pc, "inlined-call", Diags))
      continue;
    if (!InRegion(F))
      reportRegion(Diags, F, Pc,
                   "inlined-call site's enclosing function is not part of "
                   "the region");
    if (!Callee.valid() || Callee.raw() >= R.numFuncs())
      reportRegion(Diags, F, Pc,
                   strFormat("inlined callee #%u out of range", Callee.raw()));
  }

  DevirtSites RootSites;
  for (const auto &[Key, Target] : Region.DevirtualizedCalls) {
    auto [F, Pc] = decodeSite(Key);
    if (!checkSite(R, F, Pc, "devirtualized-call", Diags))
      continue;
    const bc::Function &Func = R.func(F);
    if (Func.Code[Pc].Opcode != bc::Op::FCallObj) {
      reportRegion(Diags, F, Pc,
                   strFormat("devirtualized site at instr %u is a %s, not a "
                             "virtual call",
                             Pc, bc::opName(Func.Code[Pc].Opcode)));
      continue;
    }
    if (!Target.valid() || Target.raw() >= R.numFuncs()) {
      reportRegion(Diags, F, Pc,
                   strFormat("devirtualization target #%u out of range",
                             Target.raw()));
      continue;
    }
    if (F == Region.Func)
      RootSites.TargetAt[Pc] = Target.raw();
  }

  // Guard analysis over the root function's dataflow fixpoint.  Only the
  // guard-related kinds belong to the region report; the plain function
  // diagnostics are the type-flow passes' business (Linter::lintFunction).
  if (!RootSites.TargetAt.empty()) {
    const bc::Function &Root = R.func(Region.Func);
    for (Diagnostic &D :
         analyzeFunction(R, Root, Blocks.blocks(Region.Func), &RootSites))
      if (D.Kind == DiagKind::RedundantGuard ||
          D.Kind == DiagKind::GuardNeverPasses)
        Diags.push_back(std::move(D));
  }
  return Diags;
}

std::vector<Diagnostic>
jumpstart::analysis::lintTranslations(const bc::Repo &R,
                                      bc::BlockCache &Blocks,
                                      const jit::TransDb &Db,
                                      const WholeProgram *WP) {
  std::vector<Diagnostic> Diags;
  // The facts store is only needed (and only built) when a translation
  // actually elided a guard; the caller may share a pre-built one.
  std::unique_ptr<WholeProgram> OwnedWP;
  auto Facts = [&]() -> const jit::ProvenFacts & {
    if (!WP) {
      OwnedWP = std::make_unique<WholeProgram>(R);
      WP = OwnedWP.get();
    }
    return *WP->jitFacts();
  };
  auto Report = [&](const jit::Translation &T, std::string Message) {
    Diagnostic D;
    D.Sev = Severity::Error;
    D.Kind = DiagKind::TranslationInconsistent;
    D.Func = T.Unit ? T.Unit->Func : bc::FuncId();
    D.Message = strFormat("translation #%u (%s): %s", T.Id,
                          transKindName(T.Kind), Message.c_str());
    Diags.push_back(D);
  };

  for (const std::unique_ptr<jit::Translation> &TP : Db.all()) {
    const jit::Translation &T = *TP;
    const jit::VasmUnit &Unit = *T.Unit;
    size_t NumVBlocks = Unit.Blocks.size();

    if (!Unit.Func.valid() || Unit.Func.raw() >= R.numFuncs()) {
      Report(T, strFormat("function #%u out of range", Unit.Func.raw()));
      continue;
    }

    for (size_t B = 0; B < NumVBlocks; ++B) {
      const jit::VBlock &VB = Unit.Blocks[B];
      if (VB.Taken != jit::VBlock::kNoSucc && VB.Taken >= NumVBlocks)
        Report(T, strFormat("vasm block %zu taken-successor %u out of range",
                            B, VB.Taken));
      if (VB.Fallthru != jit::VBlock::kNoSucc && VB.Fallthru >= NumVBlocks)
        Report(T,
               strFormat("vasm block %zu fallthrough-successor %u out of "
                         "range",
                         B, VB.Fallthru));
    }

    // Every bytecode block of the function and of each inlined callee must
    // lower to a Vasm block (Lower.cpp maps them unconditionally); a hole
    // would strand the shadow tracer mid-translation.
    auto CheckMapped = [&](bc::FuncId F) {
      const bc::BlockList &BL = Blocks.blocks(F);
      for (uint32_t B = 0; B < BL.numBlocks(); ++B) {
        uint32_t VB = Unit.findBlock(F, B);
        if (VB == jit::VasmUnit::kNoBlock)
          Report(T, strFormat("bytecode block %u of %s has no vasm block", B,
                              R.func(F).Name.c_str()));
        else if (VB >= NumVBlocks)
          Report(T,
                 strFormat("bytecode block %u of %s maps to vasm block %u, "
                           "out of range",
                           B, R.func(F).Name.c_str(), VB));
      }
    };
    CheckMapped(Unit.Func);
    for (const jit::BlockRange &Inlined : Unit.inlined()) {
      if (!Inlined.Func.valid() || Inlined.Func.raw() >= R.numFuncs()) {
        Report(T, strFormat("inlined function #%u out of range",
                            Inlined.Func.raw()));
        continue;
      }
      CheckMapped(Inlined.Func);
    }

    for (const jit::VasmUnit::CallEdge &E : Unit.CallEdges)
      if (E.Src >= NumVBlocks || E.Dst >= NumVBlocks)
        Report(T, strFormat("call edge %u->%u out of range", E.Src, E.Dst));

    // Re-prove every elided guard.  The lowering recorded what it skipped
    // and why (ElidedGuard); an independent analysis run must reach the
    // same conclusion or the elision was unsound.
    for (const jit::VasmUnit::ElidedGuard &EG : Unit.ElidedGuards) {
      auto ReportElision = [&](std::string Message) {
        Diagnostic D;
        D.Sev = Severity::Error;
        D.Kind = DiagKind::ElisionUnproven;
        D.Func = bc::FuncId(static_cast<uint32_t>(EG.SiteKey >> 32));
        D.Instr = static_cast<uint32_t>(EG.SiteKey);
        D.Message = strFormat("translation #%u: %s", T.Id, Message.c_str());
        Diags.push_back(D);
      };
      uint32_t FRaw = static_cast<uint32_t>(EG.SiteKey >> 32);
      uint32_t Pc = static_cast<uint32_t>(EG.SiteKey);
      if (FRaw >= R.numFuncs() ||
          Pc >= R.func(bc::FuncId(FRaw)).Code.size()) {
        ReportElision(strFormat("elided guard site func#%u:i%u out of range",
                                FRaw, Pc));
        continue;
      }
      if (EG.ProofKind >
          static_cast<uint8_t>(jit::GuardProof::TypeProven)) {
        ReportElision(strFormat("elided guard carries unknown proof kind %u",
                                EG.ProofKind));
        continue;
      }
      auto Proof = static_cast<jit::GuardProof>(EG.ProofKind);
      const jit::ProvenFacts &PF = Facts();
      if (Proof == jit::GuardProof::TypeProven) {
        auto It = PF.ProvenMasks.find(EG.SiteKey);
        if (It == PF.ProvenMasks.end())
          ReportElision(strFormat(
              "type guard elided but the analysis proves no mask at i%u",
              Pc));
        else if (It->second == 0 || (It->second & ~EG.Target) != 0)
          ReportElision(strFormat(
              "type guard elided with checked set 0x%02x but the analysis "
              "proves mask 0x%02x",
              EG.Target, It->second));
      } else {
        auto It = PF.ProvenCalls.find(EG.SiteKey);
        if (It == PF.ProvenCalls.end())
          ReportElision(strFormat(
              "%s class guard elided but the site has no proven-call fact",
              guardProofName(Proof)));
        else if (It->second.Target != EG.Target)
          ReportElision(strFormat(
              "%s class guard elided for target #%u but the analysis "
              "proves target #%u",
              guardProofName(Proof), EG.Target, It->second.Target));
        else if (Proof == jit::GuardProof::ExactRecv &&
                 It->second.RecvCls != EG.ClsOrMask)
          ReportElision(strFormat(
              "exact-receiver guard elided for class #%u but the analysis "
              "proves class #%u",
              EG.ClsOrMask, It->second.RecvCls));
      }
    }

    if (T.Placed) {
      if (T.BlockAddrs.size() != NumVBlocks)
        Report(T, strFormat("placed with %zu block addresses for %zu blocks",
                            T.BlockAddrs.size(), NumVBlocks));
      if (T.JumpElided.size() != NumVBlocks)
        Report(T, strFormat("placed with %zu jump-elision flags for %zu "
                            "blocks",
                            T.JumpElided.size(), NumVBlocks));
    }
  }
  return Diags;
}
