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
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_VASM_H
#define JUMPSTART_JIT_VASM_H

#include "bytecode/Ids.h"

#include <cstdint>
#include <unordered_map>
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

/// A compiled unit: the Vasm CFG of one translation, plus the mapping the
/// shadow tracer needs from (function, bytecode block) to the Vasm block
/// implementing it (inlined callees appear under their own FuncId).
class VasmUnit {
public:
  bc::FuncId Func;
  std::vector<VBlock> Blocks;

  /// Registers that bytecode block \p BcBlock of \p F lowers to Vasm
  /// block \p VBlock (inlined callees pass their own FuncId).
  void mapBlock(bc::FuncId F, uint32_t BcBlock, uint32_t VBlockId) {
    BlockMap[key(F, BcBlock)] = VBlockId;
  }

  /// \returns the Vasm block implementing (F, BcBlock), or kNoBlock.
  static constexpr uint32_t kNoBlock = ~0u;
  uint32_t findBlock(bc::FuncId F, uint32_t BcBlock) const {
    auto It = BlockMap.find(key(F, BcBlock));
    return It == BlockMap.end() ? kNoBlock : It->second;
  }

  /// findBlock for every bytecode block of \p F at once: entry B is the
  /// Vasm block implementing (F, B), or kNoBlock; blocks past the end are
  /// unmapped too.
  std::vector<uint32_t> blockTable(bc::FuncId F) const {
    std::vector<uint32_t> Table;
    for (const auto &[Key, VBlockId] : BlockMap) {
      if (Key >> 32 != F.raw())
        continue;
      uint32_t BcBlock = static_cast<uint32_t>(Key);
      if (BcBlock >= Table.size())
        Table.resize(BcBlock + 1, kNoBlock);
      Table[BcBlock] = VBlockId;
    }
    return Table;
  }

  /// Functions inlined into this unit (not including Func itself).
  std::vector<bc::FuncId> Inlined;

  /// Layout-only edges from an inlining call site's block to the inlined
  /// callee's entry block (these are not control-flow successors -- the
  /// callee body is reached by falling into the embedded region -- but the
  /// block-layout pass should keep callee bodies near their call sites).
  struct CallEdge {
    uint32_t Src;
    uint32_t Dst;
  };
  std::vector<CallEdge> CallEdges;

  bool isInlined(bc::FuncId F) const {
    for (bc::FuncId I : Inlined)
      if (I == F)
        return true;
    return false;
  }

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

private:
  static uint64_t key(bc::FuncId F, uint32_t BcBlock) {
    return (static_cast<uint64_t>(F.raw()) << 32) | BcBlock;
  }
  std::unordered_map<uint64_t, uint32_t> BlockMap;
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_VASM_H
