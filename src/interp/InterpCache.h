//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-function execution metadata for the interpreter.
///
/// The interpreter (interp/Interpreter.cpp) relies on five pieces of
/// statically derived information per function, computed once on first
/// execution and cached here:
///
///  - The verifier's verdict.  Only functions bc::verifyFunctionIssues
///    accepts run; any other call returns Null with one fault.  Verified
///    code has in-range immediates, cannot fall off its end, and has a
///    consistent stack depth at every block boundary, which is everything
///    the frame loop assumes.
///
///  - Run lengths for bulk step accounting: a "run" is the straight-line
///    instruction sequence ending at (and including) the next
///    branch/terminal/call.  Charging a whole run against the step budget
///    at its first instruction is exactly equivalent to a per-instruction
///    check: a run, once entered, executes completely, and because calls
///    end runs the global step counter agrees with a per-instruction
///    count at every callee entry and every abort point.
///
///  - The maximum operand-stack depth, as the verifier's dataflow pass
///    reports it.  It lets a frame's locals and stack be carved out of
///    the request FrameArena in one allocation with no per-push growth
///    checks.
///
///  - Inline caches for property and method dispatch sites, keyed by the
///    receiver's ClassLayout.  They live here, outside the immutable
///    bytecode, in a side table indexed by Pc.
///
///  - A quickened copy of the code, which both frame loops run, in which
///    every instruction that starts a superinstruction's sequence carries
///    that superinstruction's opcode byte (JUMPSTART_SUPERINSTRS below).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_INTERP_INTERPCACHE_H
#define JUMPSTART_INTERP_INTERPCACHE_H

#include "bytecode/Repo.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace jumpstart::interp {

/// One monomorphic inline cache.  For GetProp/SetProp sites Key is the
/// receiver's ClassLayout and Payload the physical slot; for FCallObj
/// sites Key is the layout and Payload the resolved raw FuncId.  A null
/// Key means the site has not yet cached a successful lookup; negative
/// lookups are never cached.
struct ICEntry {
  const void *Key = nullptr;
  uint64_t Payload = 0;
};

// X-macro over the superinstructions, in id order: X(Name, First), where
// First is the base opcode the sequence starts with.  A name spells its
// sequence.  The sequences are the dynamic n-grams of the perfbench
// site's requests; each family lists the binops that follow it there:
//   Int;binop                     IntAdd .. IntCmpGt
//   Int;binop;SetL                IntAddSetL .. IntModSetL
//   GetL;Int;binop                GetLIntAdd .. GetLIntMod
//   GetL;binop                    GetLAdd, GetLSub
//   GetL;Int;CmpLt;JmpZ           GetLIntCmpLtJmpZ (loop tests)
//   GetL;Int;Add;SetL;Jmp         GetLIntAddSetLJmp (loop increments and
//                                 their back edges)
//   GetL;Int;Sub;SetL             GetLIntSubSetL
//   SetL;GetL, SetL;Jmp, GetL;Int
#define JUMPSTART_SUPERINSTRS(X)                                               \
  X(IntAdd, Int)                                                               \
  X(IntMul, Int)                                                               \
  X(IntMod, Int)                                                               \
  X(IntCmpEq, Int)                                                             \
  X(IntCmpLt, Int)                                                             \
  X(IntCmpGt, Int)                                                             \
  X(IntAddSetL, Int)                                                           \
  X(IntSubSetL, Int)                                                           \
  X(IntModSetL, Int)                                                           \
  X(GetLIntAdd, GetL)                                                          \
  X(GetLIntMul, GetL)                                                          \
  X(GetLIntMod, GetL)                                                          \
  X(GetLAdd, GetL)                                                             \
  X(GetLSub, GetL)                                                             \
  X(GetLIntCmpLtJmpZ, GetL)                                                    \
  X(GetLIntAddSetLJmp, GetL)                                                   \
  X(GetLIntSubSetL, GetL)                                                      \
  X(SetLGetL, SetL)                                                            \
  X(SetLJmp, SetL)                                                             \
  X(GetLInt, GetL)

/// Superinstruction ids (see JUMPSTART_SUPERINSTRS).
enum class SuperOp : uint8_t {
#define JUMPSTART_SUPER_ENUM(Name, First) Name,
  JUMPSTART_SUPERINSTRS(JUMPSTART_SUPER_ENUM)
#undef JUMPSTART_SUPER_ENUM
};

constexpr unsigned kNumSuperOps = 0
#define JUMPSTART_SUPER_COUNT(Name, First) +1
    JUMPSTART_SUPERINSTRS(JUMPSTART_SUPER_COUNT)
#undef JUMPSTART_SUPER_COUNT
    ;
static_assert(bc::kNumOpcodes + kNumSuperOps <= 256,
              "superinstructions must fit the opcode byte");

/// The opcode byte that stands for \p S in FuncExecInfo::Quick: the ids
/// continue past the base opcodes.
constexpr bc::Op quickOp(SuperOp S) {
  return static_cast<bc::Op>(bc::kNumOpcodes + static_cast<unsigned>(S));
}

/// Static execution metadata for one function (see file comment).
struct FuncExecInfo {
  /// RunLen[I]: instructions from I through the end of I's run,
  /// inclusive.  Empty when !Verified.
  std::vector<uint32_t> RunLen;

  /// The code both frame loops run: a copy of Function::Code in which
  /// each instruction that starts a superinstruction's sequence carries
  /// that superinstruction's quickOp byte, the longest sequence that ends
  /// before the next block leader (bc::blockLeaders) first.  Only opcode
  /// bytes differ, and no sequence spans a leader, so no branch lands
  /// inside a sequence and the observed loop meets each block's first
  /// instruction in a dispatch of its own.  Empty when !Verified.
  std::vector<bc::Instr> Quick;

  /// Inline caches indexed by Pc.  Empty when !Verified or the function
  /// has no cacheable site.
  std::vector<ICEntry> ICs;

  /// Maximum operand-stack depth over all paths.
  uint32_t MaxStack = 0;

  /// The verifier accepted the function.  False makes every call to it
  /// return Null with one fault.
  bool Verified = false;
};

/// Computes FuncExecInfo for \p F from the verifier's verdict on it:
/// \p Verified, and the maximum stack depth \p MaxStack its dataflow
/// pass reported (exposed for tests).
FuncExecInfo computeExecInfo(const bc::Function &F, bool Verified,
                             uint32_t MaxStack);

/// Caches FuncExecInfo per FuncId, plus deterministic inline-cache hit
/// statistics.  One instance per Interpreter; not thread-safe, matching
/// the single-threaded simulated servers.
class InterpCaches {
public:
  /// \p NumBuiltins bounds NativeCall immediates, as for the verifier.
  InterpCaches(const bc::Repo &R, uint32_t NumBuiltins)
      : R(R), NumBuiltins(NumBuiltins) {}

  /// The (lazily computed) execution metadata for \p F.
  FuncExecInfo &info(bc::FuncId F) {
    if (F.raw() < Cache.size() && Cache[F.raw()])
      return *Cache[F.raw()];
    return analyze(F);
  }

  /// Deterministic counters (the bench and CI perf smoke compare them
  /// byte-for-byte across runs).
  uint64_t ICHits = 0;
  uint64_t ICMisses = 0;

private:
  /// Verifies \p F and caches the metadata computed from the verdict
  /// (info() on \p F's first call).
  FuncExecInfo &analyze(bc::FuncId F);

  const bc::Repo &R;
  uint32_t NumBuiltins;
  std::vector<std::unique_ptr<FuncExecInfo>> Cache;
};

} // namespace jumpstart::interp

#endif // JUMPSTART_INTERP_INTERPCACHE_H
