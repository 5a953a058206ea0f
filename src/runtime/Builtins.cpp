//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "runtime/Builtins.h"

#include "runtime/ValueOps.h"
#include "support/Assert.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cmath>

using namespace jumpstart;
using namespace jumpstart::runtime;

uint32_t BuiltinTable::add(std::string_view Name, uint32_t Arity,
                           NativeFn Fn) {
  alwaysAssert(Index.find(std::string(Name)) == Index.end(),
               "builtin registered twice");
  uint32_t Id = static_cast<uint32_t>(Builtins.size());
  Builtins.push_back(Builtin{std::string(Name), Arity, Fn});
  Index.emplace(std::string(Name), Id);
  return Id;
}

uint32_t BuiltinTable::find(std::string_view Name) const {
  auto It = Index.find(std::string(Name));
  if (It == Index.end())
    return kNotFound;
  return It->second;
}

const Builtin &BuiltinTable::builtin(uint32_t Id) const {
  assert(Id < Builtins.size() && "invalid builtin id");
  return Builtins[Id];
}

namespace {

Value nativePrint(NativeContext &Ctx, const Value *Args, uint32_t N) {
  assert(N == 1);
  (void)N;
  if (Ctx.Output)
    appendString(*Ctx.Output, Args[0]);
  return Value::null();
}

Value nativeStrlen(NativeContext &, const Value *Args, uint32_t) {
  if (!Args[0].isStr())
    return Value::integer(static_cast<int64_t>(toString(Args[0]).size()));
  return Value::integer(static_cast<int64_t>(Args[0].S->Data.size()));
}

Value nativeSubstr(NativeContext &Ctx, const Value *Args, uint32_t) {
  std::string S = toString(Args[0]);
  int64_t Start = toInt(Args[1]);
  int64_t Len = toInt(Args[2]);
  if (Start < 0)
    Start = std::max<int64_t>(0, static_cast<int64_t>(S.size()) + Start);
  if (Start >= static_cast<int64_t>(S.size()) || Len <= 0)
    return Value::str(Ctx.H.allocString(""));
  size_t Count = std::min<size_t>(static_cast<size_t>(Len),
                                  S.size() - static_cast<size_t>(Start));
  return Value::str(
      Ctx.H.allocString(S.substr(static_cast<size_t>(Start), Count)));
}

Value nativeToStr(NativeContext &Ctx, const Value *Args, uint32_t) {
  return Value::str(Ctx.H.buildString(
      [Args](std::string &Out) { appendString(Out, Args[0]); }));
}

Value nativeAbs(NativeContext &, const Value *Args, uint32_t) {
  if (Args[0].isInt())
    return Value::integer(std::llabs(Args[0].I));
  return Value::dbl(std::fabs(toDouble(Args[0])));
}

Value nativeMin(NativeContext &, const Value *Args, uint32_t) {
  return toBool(compare(CmpOp::Le, Args[0], Args[1])) ? Args[0] : Args[1];
}

Value nativeMax(NativeContext &, const Value *Args, uint32_t) {
  return toBool(compare(CmpOp::Ge, Args[0], Args[1])) ? Args[0] : Args[1];
}

Value nativeSqrt(NativeContext &, const Value *Args, uint32_t) {
  double D = toDouble(Args[0]);
  if (D < 0)
    return Value::null();
  return Value::dbl(std::sqrt(D));
}

Value nativeFloor(NativeContext &, const Value *Args, uint32_t) {
  return Value::integer(
      static_cast<int64_t>(std::floor(toDouble(Args[0]))));
}

Value nativeHash(NativeContext &, const Value *Args, uint32_t) {
  uint64_t H;
  if (Args[0].isStr())
    H = hashString(Args[0].S->Data);
  else
    H = hashCombine(0x1234567, static_cast<uint64_t>(toInt(Args[0])));
  // Keep the result a non-negative int so it can index arrays.
  return Value::integer(static_cast<int64_t>(H >> 1));
}

Value nativeKeys(NativeContext &Ctx, const Value *Args, uint32_t) {
  VmVec *Result = Ctx.H.allocVec();
  if (Args[0].isDict()) {
    for (const auto &[K, V] : Args[0].Dt->Entries) {
      (void)V;
      if (K.IsStr)
        Result->Elems.push_back(Value::str(Ctx.H.allocString(K.StrKey)));
      else
        Result->Elems.push_back(Value::integer(K.IntKey));
    }
  }
  return Value::vec(Result);
}

Value nativeStrRepeat(NativeContext &Ctx, const Value *Args, uint32_t) {
  std::string S = toString(Args[0]);
  int64_t N = std::clamp<int64_t>(toInt(Args[1]), 0, 4096);
  std::string Result;
  Result.reserve(S.size() * static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Result += S;
  return Value::str(Ctx.H.allocString(Result));
}

Value nativeOrd(NativeContext &, const Value *Args, uint32_t) {
  if (!Args[0].isStr() || Args[0].S->Data.empty())
    return Value::integer(0);
  return Value::integer(static_cast<unsigned char>(Args[0].S->Data[0]));
}

} // namespace

const BuiltinTable &BuiltinTable::standard() {
  static const BuiltinTable Table = [] {
    BuiltinTable T;
    T.add("print", 1, nativePrint);
    T.add("strlen", 1, nativeStrlen);
    T.add("substr", 3, nativeSubstr);
    T.add("to_str", 1, nativeToStr);
    T.add("abs", 1, nativeAbs);
    T.add("min", 2, nativeMin);
    T.add("max", 2, nativeMax);
    T.add("sqrt", 1, nativeSqrt);
    T.add("floor", 1, nativeFloor);
    T.add("hash", 1, nativeHash);
    T.add("keys", 1, nativeKeys);
    T.add("str_repeat", 2, nativeStrRepeat);
    T.add("ord", 1, nativeOrd);
    return T;
  }();
  return Table;
}
