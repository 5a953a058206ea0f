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
///    property-access counts.  When seeder instrumentation is enabled it
///    additionally collects, for functions running instrumented optimized
///    translations, the Vasm block counters and tier-2 call arcs of paper
///    sections V-A and V-B.
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
  /// Body only for the frames whose events land in a profile: tier-1
  /// (profile) frames and, under seeder instrumentation, instrumented
  /// optimized frames.  Every other frame is EntryExit.
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
    bool IsInstrumentedOpt = false;
    /// Unit whose Vasm counters this frame bumps (the caller's unit when
    /// this function is inlined there).
    const VasmUnit *ActiveUnit = nullptr;
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
