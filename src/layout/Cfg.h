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
    FirstOut.push_back(kNoEdge);
    return static_cast<uint32_t>(Blocks.size() - 1);
  }

  /// Adds (or accumulates onto an existing) edge Src -> Dst.  Edges keep
  /// the order in which each (Src, Dst) pair was first added.
  void addEdge(uint32_t Src, uint32_t Dst, uint64_t Weight);

  size_t numBlocks() const { return Blocks.size(); }
  const CfgBlock &block(uint32_t Id) const { return Blocks[Id]; }
  const std::vector<CfgEdge> &edges() const { return Edges; }

private:
  static constexpr uint32_t kNoEdge = ~0u;

  std::vector<CfgBlock> Blocks;
  std::vector<CfgEdge> Edges;
  /// Each block's out-edges as a list through Edges, newest first: the
  /// index of the block's last-added out-edge, and per edge the index of
  /// the one its source added before it.  addEdge finds a repeated pair
  /// in the source's out-degree.
  std::vector<uint32_t> FirstOut;
  std::vector<uint32_t> NextOut;
};

} // namespace jumpstart::layout

#endif // JUMPSTART_LAYOUT_CFG_H
