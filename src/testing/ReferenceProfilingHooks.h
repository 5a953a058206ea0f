//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference tier-1 recorder: jit::JitProfilingHooks as it was before
/// profile slabs, kept only so tests have an independent implementation
/// to diff the slab recorder against.
///
/// Every profiled event writes the function's FuncProfile directly:
/// block counters grown on demand, call targets and type observations in
/// ordered maps keyed by instruction index.  Every property access in a
/// tier-1 frame builds its "Class::prop" string key, and every affinity
/// pair its "Class::a::b" key.  It keeps those string-keyed counters
/// itself; the seeder instrumentation of optimized code (Vasm block
/// counters, tier-2 call arcs) goes to the JIT's OptProfile exactly as in
/// production.  It deliberately never gains an optimization.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_TESTING_REFERENCEPROFILINGHOOKS_H
#define JUMPSTART_TESTING_REFERENCEPROFILINGHOOKS_H

#include "interp/ExecCallbacks.h"
#include "jit/Jit.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace jumpstart::testing {

/// Records into \p J's profile store and OptProfile, and into its own
/// property counters, with the pre-slab containers.
class ReferenceProfilingHooks : public interp::ExecCallbacks {
public:
  explicit ReferenceProfilingHooks(jit::Jit &J);

  void onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                   const runtime::Value *Args, uint32_t NumArgs) override;
  void onFuncExit(bc::FuncId F) override;
  interp::FrameObservation observeFrame(bc::FuncId F) override;
  void onBlockEnter(bc::FuncId F, uint32_t Block) override;
  void onVirtualCall(bc::FuncId Caller, uint32_t InstrIndex,
                     bc::FuncId Callee) override;
  void onTypeObserve(bc::FuncId F, uint32_t InstrIndex,
                     runtime::Type T) override;
  void onPropAccess(bc::ClassId Cls, bc::StringId Prop, bool IsWrite,
                    uint64_t Addr) override;

  /// "Class::prop" -> accesses in tier-1 frames.
  const std::unordered_map<std::string, uint64_t> &propCounts() const {
    return PropCounts;
  }
  /// "Class::a::b" (names in lexicographic order) -> consecutive accesses.
  const std::unordered_map<std::string, uint64_t> &propAffinity() const {
    return PropAffinity;
  }

protected:
  /// onFuncEnter with \p Callee's current translation already resolved,
  /// as jit::JitProfilingHooks::enterFrame takes it.
  void enterFrame(bc::FuncId Callee, bc::FuncId Caller,
                  const runtime::Value *Args, uint32_t NumArgs,
                  const jit::Translation *Best);

private:
  struct Frame {
    uint32_t Func = 0;
    bool IsProfileTier = false;
    bool IsInstrumentedOpt = false;
    const jit::VasmUnit *ActiveUnit = nullptr;
    profile::FuncProfile *Prof = nullptr;
  };

  Frame *top() { return Frames.empty() ? nullptr : &Frames.back(); }

  jit::Jit &J;
  std::vector<Frame> Frames;
  uint32_t LastPropCls = ~0u;
  uint32_t LastPropName = ~0u;
  std::unordered_map<std::string, uint64_t> PropCounts;
  std::unordered_map<std::string, uint64_t> PropAffinity;
};

} // namespace jumpstart::testing

#endif // JUMPSTART_TESTING_REFERENCEPROFILINGHOOKS_H
