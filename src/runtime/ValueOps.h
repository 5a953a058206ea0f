//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic-language value semantics shared by the interpreter and the JIT
/// lowering: truthiness, coercions, arithmetic, comparison, concatenation.
///
/// Semantics are total: ill-typed operations yield Null (and the caller may
/// count a "notice"), never a crash -- the VM must survive anything the
/// workload generator or a fuzzer produces.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_RUNTIME_VALUEOPS_H
#define JUMPSTART_RUNTIME_VALUEOPS_H

#include "runtime/Heap.h"
#include "runtime/Value.h"

#include <string>

namespace jumpstart::runtime {

/// PHP-style truthiness: null/false/0/0.0/""/empty containers are false.
bool toBool(const Value &V);

/// Numeric coercion for arithmetic; non-numeric types coerce to 0 with
/// \p *Ok set to false.
double toDouble(const Value &V, bool *Ok = nullptr);

/// Integer coercion (truncating); non-numeric types yield 0.
int64_t toInt(const Value &V);

/// Renders \p V as a string.
std::string toString(const Value &V);

/// Appends toString(\p V) to \p Out without a temporary string (used by
/// Concat, to_str and the print builtin).
void appendString(std::string &Out, const Value &V);

/// Arithmetic kinds shared with the JIT lowering.
enum class ArithOp { Add, Sub, Mul, Div, Mod };

/// Int Add, Sub and Mul wrap in two's complement.  They go through
/// uint64_t because signed overflow is undefined behaviour in C++.
inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

/// Int Div's quotient and Mod, for any divisor \p B but 0.  Dividing by
/// -1 wraps as Sub does: INT64_MIN / -1 is INT64_MIN and X % -1 is 0,
/// where the hardware division would trap.
inline int64_t wrapDiv(int64_t A, int64_t B) {
  return B == -1 ? wrapSub(0, A) : A / B;
}
inline int64_t wrapMod(int64_t A, int64_t B) { return B == -1 ? 0 : A % B; }

/// Applies \p O.  Int op Int stays Int (Div yields Dbl unless exact);
/// any Dbl operand promotes to Dbl; division or modulo by zero and
/// non-numeric operands yield Null.
Value arith(ArithOp O, const Value &A, const Value &B);

/// Comparison kinds shared with the JIT lowering.
enum class CmpOp { Eq, Ne, Lt, Le, Gt, Ge };

/// Loose equality: numerics compare numerically, strings byte-wise,
/// objects/containers by identity; mismatched non-numeric types are
/// unequal.
bool valueEquals(const Value &A, const Value &B);

/// Applies \p O, returning a Bool value.  Ordering on mismatched
/// non-numeric types is by type tag (deterministic, total).
Value compare(CmpOp O, const Value &A, const Value &B);

/// String concatenation with coercion; builds the result directly in a
/// string allocated on \p H.
Value concat(Heap &H, const Value &A, const Value &B);

} // namespace jumpstart::runtime

#endif // JUMPSTART_RUNTIME_VALUEOPS_H
