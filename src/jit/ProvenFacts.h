//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statically-proven facts the JIT may rely on, exported by the
/// whole-program analysis (analysis/WholeProgram.h).
///
/// The dependency arrow points the wrong way for the natural home:
/// js_analysis links js_jit, so the JIT cannot see analysis types.  This
/// header is therefore a plain-old-data drop box: the analysis fills one
/// in, the harness hands it to jit::JitConfig, and Lower/Region consult
/// it without knowing where it came from.  Every consumer must treat the
/// facts as *claims* -- analysis::RegionCheck re-derives each one that a
/// translation acted on (see VasmUnit::ElidedGuards).
///
/// Sites are keyed like jit::RegionDescriptor::siteKey:
/// (FuncId.raw() << 32) | instruction index.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_PROVENFACTS_H
#define JUMPSTART_JIT_PROVENFACTS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace jumpstart::jit {

/// Why a class guard at a devirtualized call site can never fail.
enum class GuardProof : uint8_t {
  /// The receiver's exact class is statically known (NewObj provenance)
  /// and resolves the method to the devirtualized target.
  ExactRecv,
  /// The receiver is provably an object, every class of the repo
  /// resolves the method name, and all resolutions agree on one target.
  UniqueMethod,
  /// An operand's statically-proven type mask is inside the set a
  /// profile-placed type guard would have checked.
  TypeProven,
};

const char *guardProofName(GuardProof P);

struct ProvenFacts {
  /// A devirtualized call site whose class guard provably always passes.
  struct CallFact {
    /// Raw FuncId of the proven (and only possible) callee.
    uint32_t Target = 0;
    GuardProof Proof = GuardProof::ExactRecv;
    /// Raw ClassId of the exact receiver class (ExactRecv only; the
    /// sentinel ~0u otherwise).
    uint32_t RecvCls = ~0u;
  };

  /// A site whose receiver class (and thus dispatch/slot) is statically
  /// monomorphic; the harness may pre-populate the interpreter's inline
  /// cache so the site never takes its miss path.
  struct ICSeed {
    enum class Kind : uint8_t { Call, GetProp, SetProp };
    uint32_t Func = 0;
    uint32_t Pc = 0;
    /// Raw ClassId of the proven receiver class.
    uint32_t Cls = 0;
    Kind K = Kind::Call;
  };

  /// Devirtualized-call guard elisions, keyed by site.
  std::map<uint64_t, CallFact> ProvenCalls;

  /// Proven type masks (analysis::AbstractValue bit encoding) for the
  /// operand a profile type guard would check, keyed by site.  Only
  /// sites with a non-Top proven mask are present.
  std::map<uint64_t, uint8_t> ProvenMasks;

  /// Proven-monomorphic dispatch sites eligible for IC seeding.
  std::vector<ICSeed> ICSeeds;

  static uint64_t siteKey(uint32_t Func, uint32_t Pc) {
    return (static_cast<uint64_t>(Func) << 32) | Pc;
  }
};

inline const char *guardProofName(GuardProof P) {
  switch (P) {
  case GuardProof::ExactRecv:
    return "exact-receiver";
  case GuardProof::UniqueMethod:
    return "unique-method";
  case GuardProof::TypeProven:
    return "type-proven";
  }
  return "?";
}

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_PROVENFACTS_H
