//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "bytecode/Blocks.h"

#include "bytecode/BlockCache.h"

#include "support/Assert.h"

using namespace jumpstart;
using namespace jumpstart::bc;

std::vector<uint8_t> jumpstart::bc::blockLeaders(const Function &F) {
  std::vector<uint8_t> Leader(F.Code.size(), 0);
  if (F.Code.empty())
    return Leader;
  Leader[0] = 1;
  for (uint32_t I = 0; I < F.Code.size(); ++I) {
    const Instr &In = F.Code[I];
    const OpInfo &Info = opInfo(In.Opcode);
    if (hasFlag(Info.Flags, OpFlags::Branch) ||
        hasFlag(Info.Flags, OpFlags::CondBranch)) {
      alwaysAssert(In.targetImm() < F.Code.size(),
                   "branch target out of range in block computation");
      Leader[In.targetImm()] = 1;
    }
    if (opEndsBlock(In.Opcode) && I + 1 < F.Code.size())
      Leader[I + 1] = 1;
  }
  return Leader;
}

BlockList BlockList::compute(const Function &F) {
  BlockList Result;
  if (F.Code.empty())
    return Result;

  // Blocks run from each leader to the next.
  const std::vector<uint8_t> Leader = blockLeaders(F);
  const uint32_t N = static_cast<uint32_t>(F.Code.size());
  Result.InstrToBlock.resize(N);
  for (uint32_t I = 0; I < N; ++I) {
    if (Leader[I]) {
      if (I > 0)
        Result.Blocks.back().End = I;
      BcBlock B;
      B.Start = I;
      Result.Blocks.push_back(B);
    }
    Result.InstrToBlock[I] = static_cast<uint32_t>(Result.Blocks.size() - 1);
  }
  Result.Blocks.back().End = N;

  // Then wire successors.
  for (size_t L = 0; L < Result.Blocks.size(); ++L) {
    BcBlock &B = Result.Blocks[L];
    const Instr &Last = F.Code[B.End - 1];
    const OpInfo &Info = opInfo(Last.Opcode);
    if (hasFlag(Info.Flags, OpFlags::Terminal))
      continue;
    if (hasFlag(Info.Flags, OpFlags::Branch)) {
      B.Taken = Result.InstrToBlock[Last.targetImm()];
      continue;
    }
    if (hasFlag(Info.Flags, OpFlags::CondBranch)) {
      B.Taken = Result.InstrToBlock[Last.targetImm()];
      if (B.End < F.Code.size())
        B.Fallthru = static_cast<uint32_t>(L + 1);
      continue;
    }
    // Plain fallthrough into the next block.
    if (B.End < F.Code.size())
      B.Fallthru = static_cast<uint32_t>(L + 1);
  }
  return Result;
}

const BlockList &BlockCache::build(FuncId F) {
  if (Cache.size() < R.numFuncs())
    Cache.resize(R.numFuncs());
  auto &Slot = Cache[F.raw()];
  Slot = std::make_unique<BlockList>(BlockList::compute(R.func(F)));
  return *Slot;
}
