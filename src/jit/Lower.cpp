//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/Lower.h"

#include "support/Assert.h"
#include "support/Hashing.h"

#include <algorithm>
#include <unordered_map>

using namespace jumpstart;
using namespace jumpstart::jit;
using bc::Op;

namespace {

/// A site specializes when its dominant observed type covers this
/// fraction of its type profile.
constexpr double kTypeMonoThreshold = 0.95;

/// The lossy bytecode-to-Vasm weight transfer (see file header of
/// Lower.h): counts quantize to powers of two and pick up a
/// deterministic per-block distortion factor in [1/4, 4], standing in for
/// the cumulative weight-scaling errors of the lowering and optimization
/// passes the paper describes in section V-A.  Zero stays zero: lowering
/// never invents execution.
uint64_t distortWeight(uint64_t W, uint32_t FuncRaw, uint32_t BlockId) {
  if (W == 0)
    return 0;
  uint64_t Q = 1;
  while (Q <= W / 2)
    Q <<= 1;
  uint64_t H = hashCombine(FuncRaw * 0x9e3779b9ull, BlockId);
  switch (H % 7) {
  case 0:
    Q = std::max<uint64_t>(1, Q / 16);
    break;
  case 1:
    Q = std::max<uint64_t>(1, Q / 4);
    break;
  case 2:
    Q = std::max<uint64_t>(1, Q / 2);
    break;
  case 3:
    break;
  case 4:
    Q *= 2;
    break;
  case 5:
    Q *= 4;
    break;
  case 6:
    Q *= 16;
    break;
  }
  return Q;
}

/// The analysis-side lattice bit for one runtime type (matches
/// analysis::typeBit; ProvenFacts masks use this encoding).
constexpr uint8_t typeMaskBit(runtime::Type T) {
  return static_cast<uint8_t>(1u << static_cast<unsigned>(T));
}

/// An inlined call site awaiting callee emission.
struct PendingInline {
  uint32_t CallBlock;   ///< Vasm block containing the call site.
  bc::FuncId Callee;
  uint32_t CallBcBlock; ///< Bytecode block of the call site (for scaling).
};

/// Per-function lowering state.
class FuncLowering {
public:
  FuncLowering(const bc::Repo &R, bc::BlockCache &Blocks,
               const profile::ProfileStore *Store,
               const RegionDescriptor *Region, const LowerOptions &Opts,
               VasmUnit &Unit)
      : R(R), Blocks(Blocks), Store(Store), Region(Region), Opts(Opts),
        Unit(Unit) {}

  /// Emits all blocks of \p F into the unit.  \p InlineScale scales the
  /// tier-1 block weights (1.0 for the root function; call-site frequency
  /// estimate for inlined bodies).
  void emitFunction(bc::FuncId F, double InlineScale);

private:
  bool optimized() const { return Opts.Kind == TransKind::Optimized; }

  /// True when the dominant observed type at (F, Pc) covers the
  /// monomorphy threshold and equals \p Want (or \p Want is Null meaning
  /// "any dominant type").
  bool siteIsMono(bc::FuncId F, uint32_t Pc, runtime::Type Want) const;

  /// The statically-proven operand mask at (F, Pc), or 0 when unknown.
  uint8_t provenMask(bc::FuncId F, uint32_t Pc) const {
    if (!optimized() || !Opts.Facts)
      return 0;
    auto It =
        Opts.Facts->ProvenMasks.find(ProvenFacts::siteKey(F.raw(), Pc));
    return It == Opts.Facts->ProvenMasks.end() ? 0 : It->second;
  }

  /// True when the proven mask at (F, Pc) is non-empty and inside
  /// \p Bits: a type guard checking \p Bits could never fail, so the
  /// specialized lowering needs no guard at all.
  bool provenWithin(bc::FuncId F, uint32_t Pc, uint8_t Bits) const {
    uint8_t M = provenMask(F, Pc);
    return M != 0 && (M & ~Bits) == 0;
  }

  void recordTypeElision(bc::FuncId F, uint32_t Pc, uint8_t CheckedBits) {
    Unit.ElidedGuards.push_back(
        {ProvenFacts::siteKey(F.raw(), Pc),
         static_cast<uint8_t>(GuardProof::TypeProven), provenMask(F, Pc),
         CheckedBits});
  }

  /// The proven-call fact at (F, Pc) when it devirtualizes to exactly
  /// \p Target (the class guard protecting that direct call or inline
  /// body can never fail); nullptr otherwise.
  const ProvenFacts::CallFact *provenCall(bc::FuncId F, uint32_t Pc,
                                          bc::FuncId Target) const {
    if (!optimized() || !Opts.Facts)
      return nullptr;
    auto It =
        Opts.Facts->ProvenCalls.find(ProvenFacts::siteKey(F.raw(), Pc));
    if (It == Opts.Facts->ProvenCalls.end() ||
        It->second.Target != Target.raw())
      return nullptr;
    return &It->second;
  }

  void recordCallElision(bc::FuncId F, uint32_t Pc,
                         const ProvenFacts::CallFact &Fact) {
    Unit.ElidedGuards.push_back({ProvenFacts::siteKey(F.raw(), Pc),
                                 static_cast<uint8_t>(Fact.Proof),
                                 Fact.RecvCls, Fact.Target});
  }

  void lowerInstr(bc::FuncId F, uint32_t Pc, const bc::Instr &In,
                  VBlock &B);

  void emit(VBlock &B, VKind K, uint8_t Size) {
    B.Instrs.push_back(VInstr{K, Size});
  }

  const bc::Repo &R;
  bc::BlockCache &Blocks;
  const profile::ProfileStore *Store;
  const RegionDescriptor *Region;
  const LowerOptions &Opts;
  VasmUnit &Unit;
  std::vector<PendingInline> PendingInlines;
};

bool FuncLowering::siteIsMono(bc::FuncId F, uint32_t Pc,
                              runtime::Type Want) const {
  if (!optimized() || !Store)
    return false;
  const profile::FuncProfile *Prof = Store->find(F.raw());
  if (!Prof)
    return false;
  auto It = Prof->LoadTypes.find(Pc);
  if (It == Prof->LoadTypes.end())
    return false;
  if (!It->second.isMonomorphic(kTypeMonoThreshold))
    return false;
  if (Want == runtime::Type::Null)
    return true;
  return It->second.dominant() == Want;
}

void FuncLowering::lowerInstr(bc::FuncId F, uint32_t Pc, const bc::Instr &In,
                              VBlock &B) {
  switch (In.Opcode) {
  case Op::Nop:
    return;
  case Op::Int:
  case Op::Dbl:
  case Op::True:
  case Op::False:
  case Op::Null:
    emit(B, VKind::Generic, 5);
    return;
  case Op::Str:
    if (Opts.SharedCodeConstraints) {
      // No absolute string address: load it from the indirection table.
      emit(B, VKind::Load, 4);
      emit(B, VKind::Call, 5);
      emit(B, VKind::Generic, 3);
      return;
    }
    emit(B, VKind::Call, 5);
    emit(B, VKind::Generic, 3);
    return;
  case Op::NewVec:
  case Op::NewDict:
    emit(B, VKind::Call, 5);
    emit(B, VKind::Generic, 3);
    return;
  case Op::NewObj:
    if (Opts.SharedCodeConstraints)
      emit(B, VKind::Load, 4); // class pointer via indirection table
    emit(B, VKind::Call, 5);
    emit(B, VKind::Generic, 3);
    return;
  case Op::AddElem:
    emit(B, VKind::Call, 5);
    emit(B, VKind::Store, 4);
    return;
  case Op::AddKeyElem:
    emit(B, VKind::Call, 5);
    emit(B, VKind::Store, 4);
    emit(B, VKind::Generic, 3);
    return;
  case Op::GetElem:
    if (provenWithin(F, Pc, typeMaskBit(runtime::Type::Vec))) {
      recordTypeElision(F, Pc, typeMaskBit(runtime::Type::Vec));
      emit(B, VKind::Generic, 3); // bounds check
      emit(B, VKind::Load, 4);
      return;
    }
    if (siteIsMono(F, Pc, runtime::Type::Vec)) {
      emit(B, VKind::Guard, 4);
      emit(B, VKind::Generic, 3); // bounds check
      emit(B, VKind::Load, 4);
      return;
    }
    emit(B, VKind::Call, 5);
    emit(B, VKind::Load, 4);
    emit(B, VKind::Generic, 3);
    return;
  case Op::SetElem:
    if (provenWithin(F, Pc, typeMaskBit(runtime::Type::Vec))) {
      recordTypeElision(F, Pc, typeMaskBit(runtime::Type::Vec));
      emit(B, VKind::Generic, 3);
      emit(B, VKind::Store, 4);
      return;
    }
    if (siteIsMono(F, Pc, runtime::Type::Vec)) {
      emit(B, VKind::Guard, 4);
      emit(B, VKind::Generic, 3);
      emit(B, VKind::Store, 4);
      return;
    }
    emit(B, VKind::Call, 5);
    emit(B, VKind::Store, 4);
    emit(B, VKind::Generic, 3);
    return;
  case Op::Len:
    emit(B, VKind::Call, 5);
    emit(B, VKind::Load, 4);
    return;
  case Op::PopC:
    emit(B, VKind::Generic, 2);
    return;
  case Op::Dup:
    emit(B, VKind::Generic, 3);
    return;
  case Op::GetL:
    if (optimized()) {
      emit(B, VKind::Generic, 3); // register-allocated
      return;
    }
    emit(B, VKind::Load, 4);
    return;
  case Op::SetL:
    if (optimized()) {
      emit(B, VKind::Generic, 3);
      return;
    }
    emit(B, VKind::Store, 4);
    return;
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::CmpEq:
  case Op::CmpNe:
  case Op::CmpLt:
  case Op::CmpLe:
  case Op::CmpGt:
  case Op::CmpGe: {
    constexpr uint8_t NumBits = typeMaskBit(runtime::Type::Int) |
                                typeMaskBit(runtime::Type::Dbl);
    if (provenWithin(F, Pc, NumBits)) {
      recordTypeElision(F, Pc, NumBits);
      emit(B, VKind::Generic, 3);
      return;
    }
    if (siteIsMono(F, Pc, runtime::Type::Int) ||
        siteIsMono(F, Pc, runtime::Type::Dbl)) {
      emit(B, VKind::Guard, 3);
      emit(B, VKind::Generic, 3);
      return;
    }
    emit(B, VKind::Call, 5);
    emit(B, VKind::Generic, 3);
    emit(B, VKind::Generic, 3);
    return;
  }
  case Op::Div:
  case Op::Mod:
    if (provenWithin(F, Pc, typeMaskBit(runtime::Type::Int))) {
      recordTypeElision(F, Pc, typeMaskBit(runtime::Type::Int));
      emit(B, VKind::Generic, 3); // zero check
      emit(B, VKind::Generic, 3);
      return;
    }
    if (siteIsMono(F, Pc, runtime::Type::Int)) {
      emit(B, VKind::Guard, 3);
      emit(B, VKind::Generic, 3); // zero check
      emit(B, VKind::Generic, 3);
      return;
    }
    emit(B, VKind::Call, 5);
    emit(B, VKind::Generic, 3);
    emit(B, VKind::Generic, 3);
    return;
  case Op::Concat:
    emit(B, VKind::Call, 5);
    emit(B, VKind::Generic, 3);
    return;
  case Op::Not:
    emit(B, VKind::Generic, 3);
    return;
  case Op::Jmp:
    emit(B, VKind::Jump, 5);
    return;
  case Op::JmpZ:
  case Op::JmpNZ:
    if (optimized()) {
      emit(B, VKind::Generic, 2);
      emit(B, VKind::CondBranch, 6);
      return;
    }
    emit(B, VKind::Call, 5); // toBool helper
    emit(B, VKind::CondBranch, 6);
    return;
  case Op::FCall: {
    if (Region && Region->inlinedCallee(F, Pc).valid()) {
      emit(B, VKind::Generic, 2); // frame elision marker
      return;
    }
    if (Opts.SharedCodeConstraints) {
      // The callee's address cannot be embedded; go through the
      // shared-code dispatch table.
      emit(B, VKind::Generic, 3);
      emit(B, VKind::Load, 4);
      emit(B, VKind::IndCall, 3);
      return;
    }
    emit(B, VKind::Generic, 3); // arg setup
    emit(B, VKind::Call, 5);
    return;
  }
  case Op::FCallObj: {
    if (Region && Region->inlinedCallee(F, Pc).valid()) {
      if (const ProvenFacts::CallFact *Fact =
              provenCall(F, Pc, Region->inlinedCallee(F, Pc))) {
        recordCallElision(F, Pc, *Fact);
        emit(B, VKind::Generic, 2);
        return;
      }
      emit(B, VKind::Guard, 4); // class guard protecting the inline
      emit(B, VKind::Generic, 2);
      return;
    }
    if (Region && Region->devirtTarget(F, Pc).valid()) {
      if (const ProvenFacts::CallFact *Fact =
              provenCall(F, Pc, Region->devirtTarget(F, Pc))) {
        recordCallElision(F, Pc, *Fact);
        emit(B, VKind::Call, 5);
        return;
      }
      emit(B, VKind::Guard, 4);
      emit(B, VKind::Call, 5);
      return;
    }
    emit(B, VKind::Load, 4); // class pointer
    emit(B, VKind::Load, 4); // method table entry
    emit(B, VKind::IndCall, 3);
    return;
  }
  case Op::NativeCall:
    emit(B, VKind::Generic, 3);
    emit(B, VKind::Call, 5);
    return;
  case Op::GetProp:
    if (siteIsMono(F, Pc, runtime::Type::Null)) { // any mono result type
      emit(B, VKind::Guard, 4);
      emit(B, VKind::Load, 4);
      return;
    }
    emit(B, VKind::Call, 5);
    emit(B, VKind::Load, 4);
    emit(B, VKind::Generic, 3);
    return;
  case Op::SetProp:
    if (optimized()) {
      emit(B, VKind::Guard, 4);
      emit(B, VKind::Store, 4);
      return;
    }
    emit(B, VKind::Call, 5);
    emit(B, VKind::Store, 4);
    emit(B, VKind::Generic, 3);
    return;
  case Op::GetThis:
    emit(B, VKind::Generic, 3);
    return;
  case Op::RetC:
    emit(B, VKind::Ret, 2);
    return;
  }
}

void FuncLowering::emitFunction(bc::FuncId F, double InlineScale) {
  const bc::Function &Func = R.func(F);
  const bc::BlockList &BL = Blocks.blocks(F);
  const profile::FuncProfile *Prof = Store ? Store->find(F.raw()) : nullptr;

  uint32_t Base = static_cast<uint32_t>(Unit.Blocks.size());
  bool HaveCounts = optimized() && Prof &&
                    Prof->BlockCounts.size() == BL.numBlocks();
  Unit.Ranges.push_back({F, Base, static_cast<uint32_t>(BL.numBlocks())});

  for (uint32_t BId = 0; BId < BL.numBlocks(); ++BId) {
    const bc::BcBlock &BcB = BL.block(BId);
    Unit.Blocks.emplace_back();
    VBlock &VB = Unit.Blocks.back();

    // Instrumentation counters head the block: tier-1 translations always,
    // optimized translations only on seeders (paper section V-A).
    if (Opts.Kind == TransKind::Profile || Opts.SeederInstrumentation)
      emit(VB, VKind::Counter, 8);
    // Seeder-side function-entry counter for the tier-2 call graph
    // (paper section V-B): one extra counter in the entry block.
    if (Opts.SeederInstrumentation && BId == 0)
      emit(VB, VKind::Counter, 8);

    for (uint32_t Pc = BcB.Start; Pc < BcB.End; ++Pc) {
      lowerInstr(F, Pc, Func.Code[Pc], VB);
      // Profile translations are unoptimized: no register allocation, so
      // every bytecode spills around it (HHVM's tier-1 code is several
      // times larger than tier-2 output for the same bytecode).
      if (Opts.Kind == TransKind::Profile)
        emit(VB, VKind::Generic, 6);
    }
    // A block must have at least one instruction so it occupies space.
    if (VB.Instrs.empty())
      emit(VB, VKind::Generic, 2);

    if (BcB.hasTaken())
      VB.Taken = Base + BcB.Taken;
    if (BcB.hasFallthru())
      VB.Fallthru = Base + BcB.Fallthru;

    // Tier-1-derived weight, distorted and scaled (lossy on purpose).
    if (HaveCounts) {
      double Scaled =
          static_cast<double>(Prof->BlockCounts[BId]) * InlineScale;
      VB.Weight = distortWeight(static_cast<uint64_t>(Scaled), F.raw(),
                                Base + BId);
    }

    // Inlined call sites: record layout edges and recurse later (the
    // caller of emitFunction drives recursion via the region plan).
    if (Region) {
      for (uint32_t Pc = BcB.Start; Pc < BcB.End; ++Pc) {
        bc::FuncId Callee = Region->inlinedCallee(F, Pc);
        if (Callee.valid())
          PendingInlines.push_back({Base + BId, Callee, BId});
      }
    }
  }

  // Shared guard-exit stub for this function: a cold block guards side-exit
  // to.  Weight is a fixed guess (the tier-1 profile cannot see guard
  // failures; accurate Vasm counters replace this on consumers).
  if (optimized()) {
    Unit.Blocks.emplace_back();
    VBlock &Stub = Unit.Blocks.back();
    emit(Stub, VKind::Generic, 4);
    emit(Stub, VKind::Jump, 5);
    uint64_t EntryW = HaveCounts && !Prof->BlockCounts.empty()
                          ? Prof->BlockCounts[0]
                          : 0;
    Stub.Weight = EntryW / 10; // ~10% guessed side-exit rate
  }

  // Recurse into inlined callees now that this function's blocks exist.
  std::vector<PendingInline> Pending = std::move(PendingInlines);
  PendingInlines.clear();
  for (const PendingInline &PI : Pending) {
    uint32_t CalleeEntry = static_cast<uint32_t>(Unit.Blocks.size());
    Unit.CallEdges.push_back({PI.CallBlock, CalleeEntry});
    // Scale: fraction of callee entries attributable to this site.
    double Scale = InlineScale;
    const profile::FuncProfile *CalleeProf =
        Store ? Store->find(PI.Callee.raw()) : nullptr;
    const profile::FuncProfile *CallerProf =
        Store ? Store->find(F.raw()) : nullptr;
    if (CalleeProf && CallerProf && CalleeProf->EntryCount > 0 &&
        CallerProf->BlockCounts.size() == BL.numBlocks()) {
      double SiteCount =
          static_cast<double>(CallerProf->BlockCounts[PI.CallBcBlock]);
      Scale = SiteCount / static_cast<double>(CalleeProf->EntryCount);
      if (Scale > 1.0)
        Scale = 1.0;
    }
    emitFunction(PI.Callee, Scale);
  }
}

} // namespace

std::unique_ptr<VasmUnit>
jumpstart::jit::lowerFunction(const bc::Repo &R, bc::BlockCache &Blocks,
                              bc::FuncId Func,
                              const profile::ProfileStore *Store,
                              const RegionDescriptor *Region,
                              const LowerOptions &Opts) {
  auto Unit = std::make_unique<VasmUnit>();
  Unit->Func = Func;
  uint32_t Total = static_cast<uint32_t>(R.func(Func).Code.size());
  if (Region)
    for (bc::FuncId F : Region->InlinedFuncs)
      Total += static_cast<uint32_t>(R.func(F).Code.size());
  Unit->BytecodeCount = Total;
  FuncLowering Lowering(R, Blocks, Store, Region, Opts, *Unit);
  Lowering.emitFunction(Func, /*InlineScale=*/1.0);
  return Unit;
}
