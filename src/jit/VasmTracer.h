//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Vasm shadow tracer: "executes" the laid-out machine code.
///
/// While the interpreter runs a request semantically, the tracer follows
/// the placed Vasm blocks of the translations each function executes in,
/// feeding the machine simulator: instruction fetches at the blocks'
/// placed addresses, conditional-branch outcomes (resolved by observing
/// which block executes next), indirect-call targets for virtual dispatch,
/// and the actual data addresses of property and container accesses.
///
/// This is how every layout decision -- Ext-TSP block order, hot/cold
/// placement, the function order in the code cache, property slot
/// assignment -- becomes visible to the caches, TLBs and branch predictors
/// of Figure 5.
///
/// Placement never changes once a translation is placed, so the tracer
/// precomputes each block's fetch stream the first time a translation is
/// entered (a fetch plan: run-length line and page accesses, terminator
/// and end addresses) and replays it with one MachineSim::fetchBlock per
/// executed block.  See DESIGN.md, "Shadow tracing and the machine
/// simulator", for why this is exact.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_VASMTRACER_H
#define JUMPSTART_JIT_VASMTRACER_H

#include "interp/ExecCallbacks.h"
#include "jit/Jit.h"
#include "sim/Machine.h"

#include <memory>
#include <span>
#include <vector>

namespace jumpstart::jit {

/// Attach to the interpreter during steady-state measurement runs.
class VasmTracer : public interp::ExecCallbacks {
public:
  VasmTracer(Jit &J, sim::MachineSim &Machine);

  void onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                   const runtime::Value *Args, uint32_t NumArgs) override;
  void onFuncExit(bc::FuncId F) override;
  void onBlockEnter(bc::FuncId F, uint32_t Block) override;
  bool wantsInstrTrace(bc::FuncId F) override;
  void onInstr(bc::FuncId F, uint32_t InstrIndex, uint32_t Depth) override;
  void onVirtualCall(bc::FuncId Caller, uint32_t InstrIndex,
                     bc::FuncId Callee) override;
  void onPropAccess(bc::ClassId Cls, bc::StringId Prop, bool IsWrite,
                    uint64_t Addr) override;
  void onDataAccess(uint64_t Addr, bool IsWrite) override;

private:
  /// One Vasm block of a fetch plan.
  struct BlockPlan {
    /// Placed address.
    uint64_t Addr = 0;
    /// Address of the last instruction: the pc of its branch or call.
    uint64_t TermAddr = 0;
    /// Addr plus the block's full encoded size: where a conditional
    /// branch falls through to.
    uint64_t EndAddr = 0;
    /// The block's line runs, then its page runs, in TransPlan::Runs.
    uint32_t FirstRun = 0;
    uint32_t NumLines = 0;
    uint32_t NumPages = 0;
    bool EndsInCondBranch = false;
  };

  /// What tracing needs from one placed translation, built once.
  struct TransPlan {
    const VasmUnit *Unit = nullptr;
    /// By Vasm block id.
    std::vector<BlockPlan> Blocks;
    std::vector<sim::FetchRun> Runs;
    /// Bytecode block -> Vasm block (VasmUnit::blockTable) for the unit's
    /// own function, then for each function of Unit->Inlined in order.
    std::vector<std::vector<uint32_t>> BlockTables;

    std::span<const sim::FetchRun> lines(const BlockPlan &B) const {
      return {Runs.data() + B.FirstRun, B.NumLines};
    }
    std::span<const sim::FetchRun> pages(const BlockPlan &B) const {
      return {Runs.data() + B.FirstRun + B.NumLines, B.NumPages};
    }
    /// \returns \p F's block table when this unit inlines \p F, else null.
    const std::vector<uint32_t> *inlinedTable(bc::FuncId F) const {
      for (size_t I = 0; I < Unit->Inlined.size(); ++I)
        if (Unit->Inlined[I] == F)
          return &BlockTables[I + 1];
      return nullptr;
    }
  };

  struct Frame {
    uint32_t Func = 0;
    /// The plan whose blocks this frame traces: its own translation's, or
    /// its caller's when inlined there (null: no machine code to trace).
    const TransPlan *Plan = nullptr;
    /// This function's bytecode-block table within Plan.
    const std::vector<uint32_t> *BlockTable = nullptr;
    /// No placed translation of its own: the interpreter runs it.
    bool Interpreted = false;
    /// Previously traced Vasm block (to resolve branch outcomes).
    uint32_t LastVasmBlock = VasmUnit::kNoBlock;
  };

  Frame *top() { return Frames.empty() ? nullptr : &Frames.back(); }
  const TransPlan &planFor(const Translation &T);
  std::unique_ptr<TransPlan> buildPlan(const Translation &T) const;

  Jit &J;
  sim::MachineSim &Machine;
  std::vector<Frame> Frames;
  /// Fetch plans by Translation::Id, built on first entry.
  std::vector<std::unique_ptr<TransPlan>> Plans;
  /// Round-robin cursor for interpreter-loop fetches.
  uint64_t InterpCursor = 0;
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_VASMTRACER_H
