//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "runtime/ValueOps.h"

#include "support/Assert.h"
#include "support/Hashing.h"

#include <charconv>
#include <cmath>
#include <cstdio>

using namespace jumpstart;
using namespace jumpstart::runtime;

const char *jumpstart::runtime::typeName(Type T) {
  switch (T) {
  case Type::Null:
    return "null";
  case Type::Bool:
    return "bool";
  case Type::Int:
    return "int";
  case Type::Dbl:
    return "double";
  case Type::Str:
    return "string";
  case Type::Vec:
    return "vec";
  case Type::Dict:
    return "dict";
  case Type::Obj:
    return "object";
  }
  unreachable("unhandled Type");
}

uint64_t DictKey::hash() const {
  if (IsStr)
    return hashString(StrKey);
  return hashCombine(0x9e3779b97f4a7c15ULL, static_cast<uint64_t>(IntKey));
}

namespace {

// Heterogeneous key equality/hash, each agreeing exactly with
// DictKey::operator== / DictKey::hash for the corresponding key shape.
bool dictKeyEq(const DictKey &E, const DictKey &K) { return E == K; }
bool dictKeyEq(const DictKey &E, std::string_view S) {
  return E.IsStr && E.StrKey == S;
}
bool dictKeyEq(const DictKey &E, int64_t I) {
  return !E.IsStr && E.IntKey == I;
}

uint64_t dictKeyHash(const DictKey &K) { return K.hash(); }
uint64_t dictKeyHash(std::string_view S) { return hashString(S); }
uint64_t dictKeyHash(int64_t I) {
  return hashCombine(0x9e3779b97f4a7c15ULL, static_cast<uint64_t>(I));
}

} // namespace

void VmDict::healIndex() const {
  size_t N = Entries.size();
  // Rebuild when the table is absent, over half full, or (defensively)
  // claims coverage beyond the current entry count.
  if (Index.empty() || N * 2 > Index.size() || IndexedCount > N) {
    size_t Cap = 2 * kIndexThreshold;
    while (Cap < N * 2)
      Cap <<= 1;
    Index.assign(Cap, -1);
    IndexedCount = 0;
  }
  size_t Mask = Index.size() - 1;
  for (; IndexedCount < N; ++IndexedCount) {
    const DictKey &K = Entries[IndexedCount].first;
    size_t Slot = dictKeyHash(K) & Mask;
    while (Index[Slot] >= 0) {
      if (Entries[static_cast<size_t>(Index[Slot])].first == K)
        break; // Duplicate key: keep the earlier entry (first-match wins).
      Slot = (Slot + 1) & Mask;
    }
    if (Index[Slot] < 0)
      Index[Slot] = static_cast<int32_t>(IndexedCount);
  }
}

template <typename KeyT> int64_t VmDict::findImpl(const KeyT &K) const {
  size_t N = Entries.size();
  if (N < kIndexThreshold) {
    for (size_t I = 0; I < N; ++I)
      if (dictKeyEq(Entries[I].first, K))
        return static_cast<int64_t>(I);
    return -1;
  }
  healIndex();
  size_t Mask = Index.size() - 1;
  for (size_t Slot = dictKeyHash(K) & Mask;; Slot = (Slot + 1) & Mask) {
    int32_t At = Index[Slot];
    if (At < 0)
      return -1;
    if (dictKeyEq(Entries[static_cast<size_t>(At)].first, K))
      return At;
  }
}

int64_t VmDict::find(const DictKey &K) const { return findImpl(K); }
int64_t VmDict::find(std::string_view S) const { return findImpl(S); }
int64_t VmDict::find(int64_t I) const { return findImpl(I); }

bool jumpstart::runtime::toBool(const Value &V) {
  switch (V.T) {
  case Type::Null:
    return false;
  case Type::Bool:
    return V.B;
  case Type::Int:
    return V.I != 0;
  case Type::Dbl:
    return V.D != 0.0;
  case Type::Str:
    return !V.S->Data.empty();
  case Type::Vec:
    return !V.V->Elems.empty();
  case Type::Dict:
    return !V.Dt->Entries.empty();
  case Type::Obj:
    return true;
  }
  unreachable("unhandled Type");
}

double jumpstart::runtime::toDouble(const Value &V, bool *Ok) {
  if (Ok)
    *Ok = true;
  switch (V.T) {
  case Type::Bool:
    return V.B ? 1.0 : 0.0;
  case Type::Int:
    return static_cast<double>(V.I);
  case Type::Dbl:
    return V.D;
  default:
    if (Ok)
      *Ok = false;
    return 0.0;
  }
}

int64_t jumpstart::runtime::toInt(const Value &V) {
  switch (V.T) {
  case Type::Bool:
    return V.B ? 1 : 0;
  case Type::Int:
    return V.I;
  case Type::Dbl:
    return static_cast<int64_t>(V.D);
  default:
    return 0;
  }
}

std::string jumpstart::runtime::toString(const Value &V) {
  std::string S;
  appendString(S, V);
  return S;
}

void jumpstart::runtime::appendString(std::string &Out, const Value &V) {
  switch (V.T) {
  case Type::Null:
    return;
  case Type::Bool:
    if (V.B)
      Out += '1';
    return;
  case Type::Int: {
    // std::to_chars writes the same bytes as printf %lld; INT64_MIN
    // takes 20.
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V.I).ptr);
    return;
  }
  case Type::Dbl: {
    // "%g" keeps six significant digits: at most 13 characters.
    char Buf[32];
    int N = std::snprintf(Buf, sizeof(Buf), "%g", V.D);
    Out.append(Buf, static_cast<size_t>(N));
    return;
  }
  case Type::Str:
    Out += V.S->Data;
    return;
  case Type::Vec:
    Out += "vec";
    return;
  case Type::Dict:
    Out += "dict";
    return;
  case Type::Obj:
    Out += "object";
    return;
  }
  unreachable("unhandled Type");
}

Value jumpstart::runtime::arith(ArithOp O, const Value &A, const Value &B) {
  if (!A.isNumeric() && !A.isBool())
    return Value::null();
  if (!B.isNumeric() && !B.isBool())
    return Value::null();

  bool BothInt = (A.isInt() || A.isBool()) && (B.isInt() || B.isBool());
  if (BothInt) {
    int64_t X = toInt(A);
    int64_t Y = toInt(B);
    switch (O) {
    case ArithOp::Add:
      return Value::integer(wrapAdd(X, Y));
    case ArithOp::Sub:
      return Value::integer(wrapSub(X, Y));
    case ArithOp::Mul:
      return Value::integer(wrapMul(X, Y));
    case ArithOp::Div:
      if (Y == 0)
        return Value::null();
      if (wrapMod(X, Y) == 0)
        return Value::integer(wrapDiv(X, Y));
      return Value::dbl(static_cast<double>(X) / static_cast<double>(Y));
    case ArithOp::Mod:
      if (Y == 0)
        return Value::null();
      return Value::integer(wrapMod(X, Y));
    }
    unreachable("unhandled ArithOp");
  }

  double X = toDouble(A);
  double Y = toDouble(B);
  switch (O) {
  case ArithOp::Add:
    return Value::dbl(X + Y);
  case ArithOp::Sub:
    return Value::dbl(X - Y);
  case ArithOp::Mul:
    return Value::dbl(X * Y);
  case ArithOp::Div:
    if (Y == 0.0)
      return Value::null();
    return Value::dbl(X / Y);
  case ArithOp::Mod:
    if (Y == 0.0)
      return Value::null();
    return Value::dbl(std::fmod(X, Y));
  }
  unreachable("unhandled ArithOp");
}

bool jumpstart::runtime::valueEquals(const Value &A, const Value &B) {
  // Numeric (and bool) operands compare numerically, across types.
  bool ANum = A.isNumeric() || A.isBool();
  bool BNum = B.isNumeric() || B.isBool();
  if (ANum && BNum)
    return toDouble(A) == toDouble(B);
  if (A.T != B.T)
    return false;
  switch (A.T) {
  case Type::Null:
    return true;
  case Type::Str:
    return A.S->Data == B.S->Data;
  case Type::Vec:
    return A.V == B.V;
  case Type::Dict:
    return A.Dt == B.Dt;
  case Type::Obj:
    return A.O == B.O;
  default:
    unreachable("numeric types handled above");
  }
}

Value jumpstart::runtime::compare(CmpOp O, const Value &A, const Value &B) {
  if (O == CmpOp::Eq)
    return Value::boolean(valueEquals(A, B));
  if (O == CmpOp::Ne)
    return Value::boolean(!valueEquals(A, B));

  // Ordering: numerics numerically, strings lexicographically, otherwise
  // order by type tag (total and deterministic).
  int Ordering;
  bool ANum = A.isNumeric() || A.isBool();
  bool BNum = B.isNumeric() || B.isBool();
  if (ANum && BNum) {
    double X = toDouble(A);
    double Y = toDouble(B);
    Ordering = (X < Y) ? -1 : (X > Y) ? 1 : 0;
  } else if (A.isStr() && B.isStr()) {
    int C = A.S->Data.compare(B.S->Data);
    Ordering = (C < 0) ? -1 : (C > 0) ? 1 : 0;
  } else {
    int TA = static_cast<int>(A.T);
    int TB = static_cast<int>(B.T);
    Ordering = (TA < TB) ? -1 : (TA > TB) ? 1 : 0;
  }

  switch (O) {
  case CmpOp::Lt:
    return Value::boolean(Ordering < 0);
  case CmpOp::Le:
    return Value::boolean(Ordering <= 0);
  case CmpOp::Gt:
    return Value::boolean(Ordering > 0);
  case CmpOp::Ge:
    return Value::boolean(Ordering >= 0);
  case CmpOp::Eq:
  case CmpOp::Ne:
    break;
  }
  unreachable("Eq/Ne handled above");
}

Value jumpstart::runtime::concat(Heap &H, const Value &A, const Value &B) {
  return Value::str(H.buildString([&](std::string &Out) {
    appendString(Out, A);
    appendString(Out, B);
  }));
}
