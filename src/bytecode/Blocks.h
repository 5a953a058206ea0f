//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bytecode-level basic blocks.
///
/// The tier-1 JIT's instrumentation counters are inserted at bytecode-level
/// basic blocks (paper section V-A), so block identification is shared
/// infrastructure between the profiling translator, the region selector and
/// the verifier.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_BYTECODE_BLOCKS_H
#define JUMPSTART_BYTECODE_BLOCKS_H

#include "bytecode/Function.h"

#include <cstdint>
#include <vector>

namespace jumpstart::bc {

/// One bytecode basic block: the half-open instruction range [Start, End)
/// plus successor block ids.  For conditional branches, Taken is the branch
/// target's block and Fallthru the next block; unconditional branches set
/// only Taken; returns set neither.
struct BcBlock {
  uint32_t Start = 0;
  uint32_t End = 0;
  static constexpr uint32_t kNoSucc = ~0u;
  uint32_t Taken = kNoSucc;
  uint32_t Fallthru = kNoSucc;

  uint32_t size() const { return End - Start; }
  bool hasTaken() const { return Taken != kNoSucc; }
  bool hasFallthru() const { return Fallthru != kNoSucc; }
};

/// Marks the block leaders of \p F, one byte per instruction: the entry,
/// every branch target and every instruction after a block-ender.  This
/// is the one definition of a leader: BlockList::compute builds its
/// blocks from it, and the interpreter's quickener keeps each
/// superinstruction's sequence inside one block.  \p F must be verified
/// (all branch targets in range).
std::vector<uint8_t> blockLeaders(const Function &F);

/// The basic blocks of one function, in bytecode order (block 0 is the
/// entry).  Also maps instruction indices back to block ids.
class BlockList {
public:
  /// Computes the basic blocks of \p F.  \p F must be verified (all
  /// branch targets in range).
  static BlockList compute(const Function &F);

  size_t numBlocks() const { return Blocks.size(); }
  const BcBlock &block(uint32_t Id) const { return Blocks[Id]; }
  const std::vector<BcBlock> &blocks() const { return Blocks; }

  /// \returns the block containing instruction \p InstrIndex.
  uint32_t blockOf(uint32_t InstrIndex) const {
    return InstrToBlock[InstrIndex];
  }

  /// Raw Pc -> block-id table (one entry per instruction).  The
  /// interpreter's dispatch loop keeps a borrowed pointer to this so
  /// block-entry profiling is a single indexed load with no indirection
  /// through the BlockList.
  const uint32_t *instrToBlockData() const { return InstrToBlock.data(); }

private:
  std::vector<BcBlock> Blocks;
  std::vector<uint32_t> InstrToBlock;
};

} // namespace jumpstart::bc

#endif // JUMPSTART_BYTECODE_BLOCKS_H
