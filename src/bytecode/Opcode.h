//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The untyped bytecode instruction set.
///
/// Like HHVM's HHBC, the bytecode is stack-based and untyped: every value
/// slot holds a dynamically-typed value and operations dispatch on runtime
/// types.  The set below is a compact core sufficient to express the
/// workloads the evaluation generates (arithmetic, string building,
/// containers, objects with virtual dispatch, direct and native calls).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_BYTECODE_OPCODE_H
#define JUMPSTART_BYTECODE_OPCODE_H

#include <cstdint>

namespace jumpstart::bc {

/// Immediate operand kinds.  Each opcode has zero, one or two immediates;
/// their kinds determine how tools (verifier, disassembler) interpret the
/// raw 64-bit immediate slots.
enum class ImmKind : uint8_t {
  None,    ///< No immediate in this slot.
  I64,     ///< A literal signed integer.
  DblBits, ///< IEEE double carried as raw bits.
  Str,     ///< A StringId into the repo string table.
  Local,   ///< A local-variable index within the frame.
  Target,  ///< A branch target (instruction index in this function).
  Func,    ///< A FuncId (direct call target).
  Cls,     ///< A ClassId.
  Builtin, ///< A builtin-function ordinal.
  Count,   ///< A count (argument count, element count).
};

// X-macro: name, immediate kind A, immediate kind B, pops, pushes, flags.
// Pops of -1 mean "variable; determined by a Count immediate" (calls pop
// NumArgs plus any fixed inputs accounted for in the interpreter).
#define JUMPSTART_OPCODES(X)                                                   \
  /*      name        immA              immB          pop push */              \
  X(Nop, ImmKind::None, ImmKind::None, 0, 0, OpFlags::None)                    \
  X(Int, ImmKind::I64, ImmKind::None, 0, 1, OpFlags::None)                     \
  X(Dbl, ImmKind::DblBits, ImmKind::None, 0, 1, OpFlags::None)                 \
  X(True, ImmKind::None, ImmKind::None, 0, 1, OpFlags::None)                   \
  X(False, ImmKind::None, ImmKind::None, 0, 1, OpFlags::None)                  \
  X(Null, ImmKind::None, ImmKind::None, 0, 1, OpFlags::None)                   \
  X(Str, ImmKind::Str, ImmKind::None, 0, 1, OpFlags::None)                     \
  X(NewVec, ImmKind::None, ImmKind::None, 0, 1, OpFlags::None)                 \
  X(NewDict, ImmKind::None, ImmKind::None, 0, 1, OpFlags::None)                \
  X(AddElem, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                \
  X(AddKeyElem, ImmKind::None, ImmKind::None, 3, 1, OpFlags::None)             \
  X(GetElem, ImmKind::None, ImmKind::None, 2, 1, OpFlags::LoadsData)           \
  X(SetElem, ImmKind::None, ImmKind::None, 3, 1, OpFlags::StoresData)          \
  X(Len, ImmKind::None, ImmKind::None, 1, 1, OpFlags::None)                    \
  X(PopC, ImmKind::None, ImmKind::None, 1, 0, OpFlags::None)                   \
  X(Dup, ImmKind::None, ImmKind::None, 1, 2, OpFlags::None)                    \
  X(GetL, ImmKind::Local, ImmKind::None, 0, 1, OpFlags::None)                  \
  X(SetL, ImmKind::Local, ImmKind::None, 1, 0, OpFlags::None)                  \
  X(Add, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                    \
  X(Sub, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                    \
  X(Mul, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                    \
  X(Div, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                    \
  X(Mod, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                    \
  X(Concat, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                 \
  X(Not, ImmKind::None, ImmKind::None, 1, 1, OpFlags::None)                    \
  X(CmpEq, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                  \
  X(CmpNe, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                  \
  X(CmpLt, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                  \
  X(CmpLe, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                  \
  X(CmpGt, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                  \
  X(CmpGe, ImmKind::None, ImmKind::None, 2, 1, OpFlags::None)                  \
  X(Jmp, ImmKind::Target, ImmKind::None, 0, 0, OpFlags::Branch)                \
  X(JmpZ, ImmKind::Target, ImmKind::None, 1, 0, OpFlags::CondBranch)           \
  X(JmpNZ, ImmKind::Target, ImmKind::None, 1, 0, OpFlags::CondBranch)          \
  X(FCall, ImmKind::Func, ImmKind::Count, -1, 1, OpFlags::Call)                \
  X(FCallObj, ImmKind::Str, ImmKind::Count, -1, 1, OpFlags::Call)              \
  X(NativeCall, ImmKind::Builtin, ImmKind::Count, -1, 1, OpFlags::Call)        \
  X(NewObj, ImmKind::Cls, ImmKind::None, 0, 1, OpFlags::None)                  \
  X(GetProp, ImmKind::Str, ImmKind::None, 1, 1, OpFlags::LoadsData)            \
  X(SetProp, ImmKind::Str, ImmKind::None, 2, 0, OpFlags::StoresData)           \
  X(GetThis, ImmKind::None, ImmKind::None, 0, 1, OpFlags::None)                \
  X(RetC, ImmKind::None, ImmKind::None, 1, 0, OpFlags::Terminal)

/// Behavioural flags per opcode, used by block construction, the verifier
/// and the JIT lowering.
enum class OpFlags : uint8_t {
  None = 0,
  Branch = 1 << 0,     ///< Unconditional branch; ends a basic block.
  CondBranch = 1 << 1, ///< Conditional branch; ends a basic block.
  Terminal = 1 << 2,   ///< Ends the function (return); ends a basic block.
  Call = 1 << 3,       ///< Transfers to another function and returns.
  LoadsData = 1 << 4,  ///< Reads heap data (drives D-cache simulation).
  StoresData = 1 << 5, ///< Writes heap data (drives D-cache simulation).
};

inline OpFlags operator|(OpFlags A, OpFlags B) {
  return static_cast<OpFlags>(static_cast<uint8_t>(A) |
                              static_cast<uint8_t>(B));
}

inline bool hasFlag(OpFlags Flags, OpFlags Bit) {
  return (static_cast<uint8_t>(Flags) & static_cast<uint8_t>(Bit)) != 0;
}

enum class Op : uint8_t {
#define JUMPSTART_OP_ENUM(Name, ImmA, ImmB, Pop, Push, Flags) Name,
  JUMPSTART_OPCODES(JUMPSTART_OP_ENUM)
#undef JUMPSTART_OP_ENUM
};

/// Maximum value of a Count immediate (call arity, element count).
constexpr unsigned kMaxCallArgs = 64;

/// Total number of opcodes.
constexpr unsigned kNumOpcodes = 0
#define JUMPSTART_OP_COUNT(Name, ImmA, ImmB, Pop, Push, Flags) +1
    JUMPSTART_OPCODES(JUMPSTART_OP_COUNT)
#undef JUMPSTART_OP_COUNT
    ;

/// Static metadata describing one opcode.
struct OpInfo {
  const char *Name;
  ImmKind ImmA;
  ImmKind ImmB;
  int8_t Pop;  ///< -1 means variable (calls).
  int8_t Push;
  OpFlags Flags;
};

/// \returns the metadata for \p O.
const OpInfo &opInfo(Op O);

/// \returns the printable mnemonic for \p O.
inline const char *opName(Op O) { return opInfo(O).Name; }

/// \returns true if \p O ends a basic block.
inline bool opEndsBlock(Op O) {
  OpFlags F = opInfo(O).Flags;
  return hasFlag(F, OpFlags::Branch) || hasFlag(F, OpFlags::CondBranch) ||
         hasFlag(F, OpFlags::Terminal);
}

struct Instr;

/// Number of operand-stack values popped by \p In, taking variable-arity
/// calls into account (FCall/NativeCall pop NumArgs; FCallObj also pops
/// the receiver).  Used by the verifier's dataflow pass, whose maximum
/// depth also sizes the interpreter's frames.
int instrStackPops(const Instr &In);

/// Net operand-stack effect of \p In (pushes minus pops).
int instrStackDelta(const Instr &In);

} // namespace jumpstart::bc

#endif // JUMPSTART_BYTECODE_OPCODE_H
