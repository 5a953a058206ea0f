//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decoded in-memory form of one bytecode instruction.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_BYTECODE_INSTRUCTION_H
#define JUMPSTART_BYTECODE_INSTRUCTION_H

#include "bytecode/Ids.h"
#include "bytecode/Opcode.h"

#include <cstdint>

namespace jumpstart::bc {

/// One bytecode instruction: an opcode plus up to two raw immediates.
/// Branch targets are instruction indices within the owning function.
struct Instr {
  Op Opcode = Op::Nop;
  /// The id of the basic block (bc::BlockList) the instruction lies in.
  /// Only the interpreter's quickened copy (interp::FuncExecInfo::Quick)
  /// sets it; it fills padding after Opcode, so Instr stays 24 bytes.
  uint32_t Block = 0;
  int64_t ImmA = 0;
  int64_t ImmB = 0;

  Instr() = default;
  Instr(Op O) : Opcode(O) {}
  Instr(Op O, int64_t A) : Opcode(O), ImmA(A) {}
  Instr(Op O, int64_t A, int64_t B) : Opcode(O), ImmA(A), ImmB(B) {}

  StringId strImm() const { return StringId(static_cast<uint32_t>(ImmA)); }
  FuncId funcImm() const { return FuncId(static_cast<uint32_t>(ImmA)); }
  ClassId clsImm() const { return ClassId(static_cast<uint32_t>(ImmA)); }
  uint32_t localImm() const { return static_cast<uint32_t>(ImmA); }
  uint32_t targetImm() const { return static_cast<uint32_t>(ImmA); }
  uint32_t countImm() const { return static_cast<uint32_t>(ImmB); }
  uint32_t builtinImm() const { return static_cast<uint32_t>(ImmA); }
};
static_assert(sizeof(Instr) == 24, "Block must stay in Opcode's padding");

} // namespace jumpstart::bc

#endif // JUMPSTART_BYTECODE_INSTRUCTION_H
