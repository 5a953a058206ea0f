//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vasm: the JIT's lowest-level IR (named after HHVM's), the representation
/// on which basic-block layout and hot/cold splitting run (paper section
/// V-A).
///
/// In this reproduction Vasm instructions are *abstract machine
/// instructions with concrete byte sizes*.  They are never encoded to real
/// x86: executing a translation means interpreting the region's bytecode
/// semantically while a shadow tracer walks the corresponding laid-out
/// Vasm blocks, emitting instruction-fetch addresses, branch outcomes and
/// data addresses into the machine simulator.  Everything the paper's
/// layout optimizations act on -- instruction bytes, block boundaries,
/// placement -- is faithfully represented.
///
/// A unit lowers its own function and the callees region selection
/// inlined, each at most once, one after the other: bytecode block B of
/// each function lowers to Vasm block Base + B of that function's
/// BlockRange.  Mapping a block is one compare and one add, for the
/// seeder's Vasm counters and the shadow tracer alike.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_VASM_H
#define JUMPSTART_JIT_VASM_H

#include "bytecode/Ids.h"

#include <cstdint>
#include <span>
#include <vector>

namespace jumpstart::jit {

/// Kinds of Vasm instructions.  The kind determines what the shadow
/// tracer emits when the instruction "executes".
enum class VKind : uint8_t {
  Generic,    ///< ALU / moves; fetch only.
  Guard,      ///< Type or class check; fetch only (side exit is a block).
  Load,       ///< Heap load; fetch + data access.
  Store,      ///< Heap store; fetch + data access.
  CondBranch, ///< Block-ending conditional branch.
  Jump,       ///< Block-ending unconditional jump.
  Call,       ///< Direct call to another translation or helper.
  IndCall,    ///< Indirect call (virtual dispatch).
  Ret,        ///< Return.
  Counter,    ///< Seeder instrumentation: bump a profile counter.
};

/// One Vasm instruction: a kind and its encoded size in bytes.
struct VInstr {
  VKind Kind;
  uint8_t SizeBytes;
};

/// One Vasm basic block.
struct VBlock {
  std::vector<VInstr> Instrs;
  static constexpr uint32_t kNoSucc = ~0u;
  uint32_t Taken = kNoSucc;
  uint32_t Fallthru = kNoSucc;
  /// Execution weight used by the layout optimizations.  Filled either
  /// from tier-1 counts mapped down (inaccurate) or from the Jump-Start
  /// package's Vasm counters (accurate; paper section V-A).
  uint64_t Weight = 0;

  uint32_t sizeBytes() const {
    uint32_t Total = 0;
    for (const VInstr &I : Instrs)
      Total += I.SizeBytes;
    return Total;
  }
};

/// The Vasm blocks one function occupies in a unit: bytecode block B of
/// Func lowers to Vasm block Base + B, for B < NumBlocks.
struct BlockRange {
  bc::FuncId Func;
  uint32_t Base = 0;
  uint32_t NumBlocks = 0;
};

/// A compiled unit: the Vasm CFG of one translation, plus the block range
/// of each function it lowers (inlined callees appear under their own
/// FuncId).
class VasmUnit {
public:
  bc::FuncId Func;
  std::vector<VBlock> Blocks;

  /// One range per function lowered here: Func's first, then each
  /// inlined callee's, in lowering order.
  std::vector<BlockRange> Ranges;

  /// The ranges of the functions inlined into this unit (Func excluded).
  std::span<const BlockRange> inlined() const {
    return Ranges.empty() ? std::span<const BlockRange>()
                          : std::span<const BlockRange>(Ranges).subspan(1);
  }

  /// \returns \p F's range when \p F is inlined into this unit, else null.
  const BlockRange *inlinedRange(bc::FuncId F) const {
    for (const BlockRange &R : inlined())
      if (R.Func == F)
        return &R;
    return nullptr;
  }

  bool isInlined(bc::FuncId F) const { return inlinedRange(F) != nullptr; }

  /// \returns the Vasm block implementing (F, BcBlock), or kNoBlock.
  static constexpr uint32_t kNoBlock = ~0u;
  uint32_t findBlock(bc::FuncId F, uint32_t BcBlock) const {
    for (const BlockRange &R : Ranges)
      if (R.Func == F)
        return BcBlock < R.NumBlocks ? R.Base + BcBlock : kNoBlock;
    return kNoBlock;
  }

  /// Layout-only edges from an inlining call site's block to the inlined
  /// callee's entry block (these are not control-flow successors -- the
  /// callee body is reached by falling into the embedded region -- but the
  /// block-layout pass should keep callee bodies near their call sites).
  struct CallEdge {
    uint32_t Src;
    uint32_t Dst;
  };
  std::vector<CallEdge> CallEdges;

  /// Total encoded bytes across all blocks.
  uint32_t sizeBytes() const {
    uint32_t Total = 0;
    for (const VBlock &B : Blocks)
      Total += B.sizeBytes();
    return Total;
  }

  /// Total instruction count (the unit of the execution cost model).
  uint64_t numInstrs() const {
    uint64_t Total = 0;
    for (const VBlock &B : Blocks)
      Total += B.Instrs.size();
    return Total;
  }

  /// Number of bytecode instructions this unit covers (region size).
  uint32_t BytecodeCount = 0;

  /// One guard lowering chose not to emit because the whole-program
  /// analysis proved it could never fail.  Each entry is an auditable
  /// claim: analysis::RegionCheck re-derives every one from scratch, and
  /// the DiffRunner ablation matrix checks behavior with elision off.
  struct ElidedGuard {
    /// (FuncId.raw() << 32) | bytecode instruction index -- the site the
    /// guard would have protected (function, not region: inlined callee
    /// sites carry the callee's id).
    uint64_t SiteKey = 0;
    /// jit::GuardProof, widened for storage.
    uint8_t ProofKind = 0;
    /// ExactRecv: the proven receiver ClassId.  TypeProven: the proven
    /// operand mask (analysis bit encoding).  UniqueMethod: ~0u.
    uint32_t ClsOrMask = ~0u;
    /// Call proofs: raw FuncId of the guarded target.  TypeProven: the
    /// mask the elided guard would have checked.
    uint32_t Target = 0;
  };
  std::vector<ElidedGuard> ElidedGuards;
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_VASM_H
