//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution-callback implementations that model the JIT's
/// instrumentation:
///
///  - JitProfilingHooks: what instrumented translations record.  For
///    functions running tier-1 (profile) translations it collects block
///    counters, call-target profiles, type observations and
///    property-access counts into the profile store's slabs.  When seeder
///    instrumentation is enabled it additionally collects, for functions
///    running instrumented optimized translations, the Vasm block
///    counters and tier-2 call arcs of paper sections V-A and V-B into
///    the JIT's OptCounters.  Each frame resolves where it records once,
///    at entry, so every event is an array bump, and asks the interpreter
///    only for the events it records: an instrumented optimized frame
///    asks for its blocks alone.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_RECORDERS_H
#define JUMPSTART_JIT_RECORDERS_H

#include "interp/ExecCallbacks.h"
#include "jit/Jit.h"

#include <vector>

namespace jumpstart::jit {

/// The VM server attaches one of these while serving requests; it routes
/// each event to the right profile sink based on the executing function's
/// current tier.
class JitProfilingHooks : public interp::ExecCallbacks {
public:
  explicit JitProfilingHooks(Jit &J);

  void onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                   const runtime::Value *Args, uint32_t NumArgs) override;
  void onFuncExit(bc::FuncId F) override;
  /// The events that land in a profile: blocks, types, properties and
  /// virtual calls in tier-1 (profile) frames; under seeder
  /// instrumentation, blocks in instrumented optimized frames, and the
  /// union in a frame that is both (an inlined callee still running its
  /// profile translation).  Every other frame is EntryExit.
  interp::FrameObservation observeFrame(bc::FuncId F) override;
  void onBlockEnter(bc::FuncId F, uint32_t Block) override;
  void onVirtualCall(bc::FuncId Caller, uint32_t InstrIndex,
                     bc::FuncId Callee) override;
  void onTypeObserve(bc::FuncId F, uint32_t InstrIndex,
                     runtime::Type T) override;
  void onPropAccess(bc::ClassId Cls, bc::StringId Prop, bool IsWrite,
                    uint64_t Addr) override;

protected:
  /// onFuncEnter with \p Callee's current translation already resolved
  /// (\p Best == J.currentTranslation(Callee), as Jit::onFuncEntered
  /// returns it), for subclasses that feed the tiering policy too.
  void enterFrame(bc::FuncId Callee, bc::FuncId Caller,
                  const runtime::Value *Args, uint32_t NumArgs,
                  const Translation *Best);

private:
  struct Frame {
    uint32_t Func = 0;
    /// Under seeder instrumentation, the optimized unit whose Vasm
    /// counters this frame bumps (the caller's unit when this function is
    /// inlined there); null in every other frame.
    const VasmUnit *ActiveUnit = nullptr;
    /// ActiveUnit's counter row and this function's range in it:
    /// bytecode block B counts in VasmRow[VasmBase + B], for
    /// B < VasmBlocks.  VasmBlocks is 0 when ActiveUnit is null.
    uint64_t *VasmRow = nullptr;
    uint32_t VasmBase = 0;
    uint32_t VasmBlocks = 0;
    /// Where the frame records when the function runs its profile
    /// translation; null in every other tier.
    profile::ProfileSlab *Slab = nullptr;
  };

  Jit &J;
  /// The innermost frame, kept out of the stack so every event reads it
  /// directly.  Outside any frame it is a default Frame, which records
  /// nothing.
  Frame Top;
  /// The frames Top interrupted, innermost last.
  std::vector<Frame> Callers;
  /// Previous property access (class/prop raw ids) for affinity pairs.
  uint32_t LastPropCls = ~0u;
  uint32_t LastPropName = ~0u;
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_RECORDERS_H
