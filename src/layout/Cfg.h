//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A weighted control-flow graph over which the code-layout optimizations
/// run.  Block ids are dense; block 0 is the entry.  Weights are execution
/// counts (block weights) and transition counts (edge weights), which in
/// the full system come from the Vasm block counters the Jump-Start
/// seeders collect (paper section V-A).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_LAYOUT_CFG_H
#define JUMPSTART_LAYOUT_CFG_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jumpstart::layout {

/// One block of a layout CFG.
struct CfgBlock {
  uint32_t SizeBytes = 0;
  uint64_t Weight = 0;
};

/// One directed edge (jump or fallthrough possibility) with its taken
/// count.
struct CfgEdge {
  uint32_t Src = 0;
  uint32_t Dst = 0;
  uint64_t Weight = 0;
};

/// The CFG container.  Construction order defines the "original" layout
/// (the order the compiler emitted blocks in).
class Cfg {
public:
  /// Adds a block; \returns its id.
  uint32_t addBlock(uint32_t SizeBytes, uint64_t Weight = 0) {
    Blocks.push_back(CfgBlock{SizeBytes, Weight});
    return static_cast<uint32_t>(Blocks.size() - 1);
  }

  /// Adds (or accumulates onto an existing) edge Src -> Dst.
  void addEdge(uint32_t Src, uint32_t Dst, uint64_t Weight);

  size_t numBlocks() const { return Blocks.size(); }
  const CfgBlock &block(uint32_t Id) const { return Blocks[Id]; }
  const std::vector<CfgEdge> &edges() const { return Edges; }

private:
  std::vector<CfgBlock> Blocks;
  std::vector<CfgEdge> Edges;
};

} // namespace jumpstart::layout

#endif // JUMPSTART_LAYOUT_CFG_H
