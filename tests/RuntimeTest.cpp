//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the runtime: value semantics, the request-local heap,
/// and class layouts with property reordering (paper section V-C).
///
//===----------------------------------------------------------------------===//

#include "runtime/Builtins.h"
#include "runtime/ClassLayout.h"
#include "runtime/Heap.h"
#include "runtime/ValueOps.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <limits>

#if defined(__SANITIZE_ADDRESS__)
#define JS_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define JS_TEST_ASAN 1
#endif
#endif

using namespace jumpstart;
using namespace jumpstart::runtime;

//===----------------------------------------------------------------------===//
// Value semantics.
//===----------------------------------------------------------------------===//

TEST(ValueOps, Truthiness) {
  Heap H;
  EXPECT_FALSE(toBool(Value::null()));
  EXPECT_FALSE(toBool(Value::boolean(false)));
  EXPECT_FALSE(toBool(Value::integer(0)));
  EXPECT_FALSE(toBool(Value::dbl(0.0)));
  EXPECT_FALSE(toBool(Value::str(H.allocString(""))));
  EXPECT_TRUE(toBool(Value::integer(-1)));
  EXPECT_TRUE(toBool(Value::str(H.allocString("0"))))
      << "unlike PHP, any nonempty string is truthy here";
  VmVec *V = H.allocVec();
  EXPECT_FALSE(toBool(Value::vec(V)));
  V->Elems.push_back(Value::integer(1));
  EXPECT_TRUE(toBool(Value::vec(V)));
}

TEST(ValueOps, ArithmeticTypePromotion) {
  Value I = arith(ArithOp::Add, Value::integer(2), Value::integer(3));
  ASSERT_TRUE(I.isInt());
  EXPECT_EQ(I.I, 5);
  Value D = arith(ArithOp::Add, Value::integer(2), Value::dbl(0.5));
  ASSERT_TRUE(D.isDbl());
  EXPECT_DOUBLE_EQ(D.D, 2.5);
  Value B = arith(ArithOp::Mul, Value::boolean(true), Value::integer(7));
  ASSERT_TRUE(B.isInt());
  EXPECT_EQ(B.I, 7);
}

TEST(ValueOps, IllTypedArithmeticIsNull) {
  Heap H;
  Value S = Value::str(H.allocString("x"));
  EXPECT_TRUE(arith(ArithOp::Add, S, Value::integer(1)).isNull());
  EXPECT_TRUE(arith(ArithOp::Div, Value::integer(1), Value::integer(0))
                  .isNull());
  EXPECT_TRUE(arith(ArithOp::Mod, Value::dbl(1), Value::dbl(0)).isNull());
}

TEST(ValueOps, EqualitySemantics) {
  Heap H;
  EXPECT_TRUE(valueEquals(Value::integer(1), Value::dbl(1.0)))
      << "numerics compare across types";
  EXPECT_TRUE(valueEquals(Value::boolean(true), Value::integer(1)));
  EXPECT_TRUE(valueEquals(Value::null(), Value::null()));
  EXPECT_FALSE(valueEquals(Value::null(), Value::integer(0)));
  Value S1 = Value::str(H.allocString("ab"));
  Value S2 = Value::str(H.allocString("ab"));
  EXPECT_TRUE(valueEquals(S1, S2)) << "strings compare by content";
  VmVec *V = H.allocVec();
  EXPECT_TRUE(valueEquals(Value::vec(V), Value::vec(V)));
  EXPECT_FALSE(valueEquals(Value::vec(V), Value::vec(H.allocVec())))
      << "containers compare by identity";
}

TEST(ValueOps, OrderingIsTotal) {
  Heap H;
  Value Vals[] = {Value::null(), Value::integer(3), Value::dbl(2.5),
                  Value::str(H.allocString("a")),
                  Value::vec(H.allocVec())};
  for (const Value &A : Vals) {
    for (const Value &B : Vals) {
      Value Lt = compare(CmpOp::Lt, A, B);
      Value Gt = compare(CmpOp::Gt, A, B);
      Value Eq = compare(CmpOp::Eq, A, B);
      int Count = (Lt.B ? 1 : 0) + (Gt.B ? 1 : 0) + (Eq.B ? 1 : 0);
      // Exactly one of <, >, == holds... except that Eq is stricter than
      // !(< or >) for same-type non-comparable kinds; allow Count >= 1
      // only when comparing a value with itself or numerics.
      EXPECT_LE(Count, 2);
      EXPECT_TRUE(Lt.isBool() && Gt.isBool() && Eq.isBool());
    }
  }
  EXPECT_TRUE(compare(CmpOp::Lt, Value::integer(1), Value::dbl(1.5)).B);
  EXPECT_TRUE(compare(CmpOp::Ge, Value::str(H.allocString("b")),
                      Value::str(H.allocString("a")))
                  .B);
}

TEST(ValueOps, ConcatCoercion) {
  Heap H;
  Value R = concat(H, Value::integer(4), Value::str(H.allocString("x")));
  ASSERT_TRUE(R.isStr());
  EXPECT_EQ(R.S->Data, "4x");
  Value N = concat(H, Value::null(), Value::boolean(true));
  EXPECT_EQ(N.S->Data, "1");
}

TEST(ValueOps, ToStringForms) {
  Heap H;
  EXPECT_EQ(toString(Value::null()), "");
  EXPECT_EQ(toString(Value::boolean(false)), "");
  EXPECT_EQ(toString(Value::boolean(true)), "1");
  EXPECT_EQ(toString(Value::integer(-12)), "-12");
  EXPECT_EQ(toString(Value::dbl(2.5)), "2.5");
}

namespace {

/// A printf-based rendering of every type, independent of appendString:
/// the bytes every coercion must produce.
std::string printfToString(const Value &V) {
  switch (V.T) {
  case Type::Null:
    return "";
  case Type::Bool:
    return V.B ? "1" : "";
  case Type::Int:
    return strFormat("%lld", static_cast<long long>(V.I));
  case Type::Dbl:
    return strFormat("%g", V.D);
  case Type::Str:
    return V.S->Data;
  case Type::Vec:
    return "vec";
  case Type::Dict:
    return "dict";
  case Type::Obj:
    return "object";
  }
  return "?";
}

Value callBuiltin(const char *Name, Heap &H, std::string *Output,
                  const Value &Arg) {
  const BuiltinTable &T = BuiltinTable::standard();
  NativeContext Ctx{H, Output};
  return T.builtin(T.find(Name)).Fn(Ctx, &Arg, 1);
}

} // namespace

TEST(ValueOps, CoercionBytesMatchPrintf) {
  const int64_t Ints[] = {0,
                          1,
                          -1,
                          9,
                          -9,
                          10,
                          -10,
                          99,
                          100,
                          1000000000000000000,
                          -1000000000000000000,
                          std::numeric_limits<int64_t>::max(),
                          std::numeric_limits<int64_t>::min()};
  for (int64_t I : Ints)
    EXPECT_EQ(toString(Value::integer(I)),
              strFormat("%lld", static_cast<long long>(I)));

  // Operands live on their own heap, so H holds only the results.
  Heap Operands;
  std::vector<Value> Vals;
  for (int64_t I : Ints)
    Vals.push_back(Value::integer(I));
  Vals.push_back(Value::null());
  Vals.push_back(Value::boolean(false));
  Vals.push_back(Value::boolean(true));
  for (double D : {0.0, -0.0, 0.1, 2.5, 1e21, 1e-7,
                   std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()})
    Vals.push_back(Value::dbl(D));
  Vals.push_back(Value::str(Operands.allocString("str")));
  Vals.push_back(Value::vec(Operands.allocVec()));
  Vals.push_back(Value::dict(Operands.allocDict()));
  Vals.push_back(Value::obj(Operands.allocObject(nullptr, 2)));

  // Each result must be charged 24 bytes plus its final length, 16-byte
  // aligned, exactly as allocString of the same bytes: then the next
  // allocation lands where it would on a heap that coerced into a
  // temporary and copied the result in.
  constexpr uint64_t kBase = 0x100000000ull;
  Heap H(kBase);
  auto ExpectCharged = [&](const Value &R, uint64_t Before,
                           const std::string &Bytes) {
    ASSERT_TRUE(R.isStr());
    EXPECT_EQ(R.S->Data, Bytes);
    EXPECT_EQ(R.S->Addr, kBase + Before);
    EXPECT_EQ(H.bytesAllocated() - Before, (24 + Bytes.size() + 15) & ~15ull)
        << Bytes;
  };
  for (const Value &A : Vals) {
    std::string SA = printfToString(A);
    EXPECT_EQ(toString(A), SA);

    uint64_t Before = H.bytesAllocated();
    ExpectCharged(callBuiltin("to_str", H, nullptr, A), Before, SA);

    std::string Out = "out:";
    callBuiltin("print", H, &Out, A);
    EXPECT_EQ(Out, "out:" + SA);

    for (const Value &B : Vals) {
      Before = H.bytesAllocated();
      ExpectCharged(concat(H, A, B), Before, toString(A) + toString(B));
    }
  }
  EXPECT_EQ(H.hostAllocs(), Vals.size() + Vals.size() * Vals.size());
}

//===----------------------------------------------------------------------===//
// Heap.
//===----------------------------------------------------------------------===//

TEST(HeapTest, AddressesAreAlignedAndMonotonic) {
  Heap H;
  VmString *A = H.allocString("aaa");
  VmString *B = H.allocString("bbb");
  EXPECT_EQ(A->Addr % 16, 0u);
  EXPECT_EQ(B->Addr % 16, 0u);
  EXPECT_GT(B->Addr, A->Addr);
}

TEST(HeapTest, ResetRewindsAddressSpace) {
  Heap H;
  H.allocString("x");
  uint64_t Used = H.bytesAllocated();
  EXPECT_GT(Used, 0u);
  H.reset();
  EXPECT_EQ(H.bytesAllocated(), 0u);
  VmString *S = H.allocString("y");
  EXPECT_EQ(S->Addr % 16, 0u);
}

TEST(HeapTest, ObjectSlotAddresses) {
  Heap H;
  VmObject *O = H.allocObject(nullptr, 4);
  EXPECT_EQ(O->slotAddr(0), O->Addr + 16);
  EXPECT_EQ(O->slotAddr(3), O->Addr + 16 + 48);
  EXPECT_EQ(O->Slots.size(), 4u);
  EXPECT_TRUE(O->Slots[2].isNull());
}

namespace {

std::string keyName(int I) { return "key" + std::to_string(I); }

/// One request's allocations on \p H, shaped by \p Req (1, 2 or 3):
/// request 1 leaves long strings, filled containers and a built dict
/// index behind; later ones reuse that storage with smaller values.
/// \returns every simulated address in allocation order and counts the
/// alloc*() calls (concat and to_str included) in \p Calls.
std::vector<uint64_t> allocateRequest(Heap &H, int Req, uint64_t &Calls) {
  std::vector<uint64_t> Addrs;
  auto Note = [&](uint64_t Addr) {
    Addrs.push_back(Addr);
    ++Calls;
  };
  VmDict *D = H.allocDict();
  Note(D->Addr);
  int Keys = Req == 1 ? 12 : 2;
  for (int I = 0; I < Keys; ++I)
    D->Entries.push_back({DictKey::fromStr(keyName(I + 100 * Req)),
                          Value::integer(I)});
  D->find(keyName(100 * Req));
  VmVec *V = H.allocVec();
  Note(V->Addr);
  for (int I = 0; I < (Req == 1 ? 5 : Req); ++I)
    V->Elems.push_back(Value::integer(I));
  VmObject *O = H.allocObject(nullptr, Req == 1 ? 8 : 3);
  Note(O->Addr);
  VmString *S = H.allocString(Req == 1 ? std::string(40, 'x') : "abc");
  Note(S->Addr);
  Value C = concat(H, Value::integer(Req), Value::str(S));
  Note(C.S->Addr);
  Value T = callBuiltin("to_str", H, nullptr, Value::integer(-7 * Req));
  Note(T.S->Addr);
  // An intern hit returns the string interned earlier, at its first
  // address, but still bumps the simulated heap like a fresh one.
  H.internString(0, "interned");
  Addrs.push_back(H.bytesAllocated());
  return Addrs;
}

} // namespace

TEST(HeapTest, RecycledStorageComesBackClean) {
  Heap H;
  // Request 1: an indexed dict, a filled vec, an 8-slot object with every
  // slot set and a 40-character string.
  VmDict *D1 = H.allocDict();
  for (int I = 0; I < 12; ++I)
    D1->Entries.push_back({DictKey::fromStr(keyName(I)), Value::integer(I)});
  static_assert(12 > VmDict::kIndexThreshold);
  ASSERT_EQ(D1->find(keyName(11)), 11); // builds the index
  VmVec *V1 = H.allocVec();
  for (int I = 0; I < 5; ++I)
    V1->Elems.push_back(Value::integer(I));
  VmObject *O1 = H.allocObject(nullptr, 8);
  for (Value &Slot : O1->Slots)
    Slot = Value::integer(42);
  VmString *S1 = H.allocString(std::string(40, 'x'));
  VmString *Long1 = H.allocString(std::string(64, 'y'));
  VmString *Long2 = H.allocString(std::string(64, 'z'));

  H.reset();
  EXPECT_EQ(H.numObjects(), 0u);
  EXPECT_EQ(H.bytesAllocated(), 0u);

  // Request 2 gets request 1's storage back, in allocation order.
  uint64_t Before = H.hostAllocs();
  VmDict *D2 = H.allocDict();
  EXPECT_EQ(D2, D1);
  EXPECT_TRUE(D2->Entries.empty());
  D2->Entries.push_back({DictKey::fromStr("a"), Value::integer(1)});
  D2->Entries.push_back({DictKey::fromStr("b"), Value::integer(2)});
  EXPECT_EQ(D2->find("a"), 0);
  EXPECT_EQ(D2->find("b"), 1);
  EXPECT_EQ(D2->find(keyName(3)), -1);
  // Grown to request 1's size with other keys, the dict must index them
  // afresh, not probe request 1's table.
  for (int I = 2; I < 12; ++I)
    D2->Entries.push_back(
        {DictKey::fromStr(keyName(I + 50)), Value::integer(I)});
  for (int I = 2; I < 12; ++I)
    EXPECT_EQ(D2->find(keyName(I + 50)), I);
  EXPECT_EQ(D2->find(keyName(11)), -1);
  EXPECT_EQ(D2->find("a"), 0);

  VmVec *V2 = H.allocVec();
  EXPECT_EQ(V2, V1);
  EXPECT_TRUE(V2->Elems.empty());
  EXPECT_GE(V2->Elems.capacity(), 5u) << "vec storage is kept";

  VmObject *O2 = H.allocObject(nullptr, 3);
  EXPECT_EQ(O2, O1);
  ASSERT_EQ(O2->Slots.size(), 3u);
  for (const Value &Slot : O2->Slots)
    EXPECT_TRUE(Slot.isNull());
  EXPECT_EQ(H.numObjects(), 1u);

  VmString *S2 = H.allocString("abc");
  EXPECT_EQ(S2, S1);
  EXPECT_EQ(S2->Data, "abc");
  // concat and to_str build into recycled slots whose old buffers were
  // longer than the new contents.
  Value C = concat(H, Value::integer(7), Value::str(S2));
  EXPECT_EQ(C.S, Long1);
  EXPECT_EQ(C.S->Data, "7abc");
  Value T = callBuiltin("to_str", H, nullptr, Value::integer(-12));
  EXPECT_EQ(T.S, Long2);
  EXPECT_EQ(T.S->Data, "-12");
  EXPECT_EQ(H.hostAllocs() - Before, 6u);

  // Over three requests a recycled heap hands out exactly the addresses
  // of a fresh heap, and counts one host allocation per alloc*() call
  // plus the intern miss on request 1.
  H.reset();
  for (int Req = 1; Req <= 3; ++Req) {
    Heap Fresh;
    uint64_t Calls = 0, FreshCalls = 0;
    uint64_t AllocsBefore = H.hostAllocs();
    std::vector<uint64_t> Addrs = allocateRequest(H, Req, Calls);
    EXPECT_EQ(Addrs, allocateRequest(Fresh, Req, FreshCalls)) << Req;
    EXPECT_EQ(H.hostAllocs() - AllocsBefore, Calls + (Req == 1 ? 1 : 0))
        << Req;
    EXPECT_EQ(H.numObjects(), 1u);
    H.reset();
    EXPECT_EQ(H.numObjects(), 0u);
  }
}

// Pointers kept across reset() refer to retired, poisoned storage: under
// AddressSanitizer reading through them is use-after-poison, not a silent
// read of the next request's value.
TEST(HeapDeathTest, ReadAfterResetIsUseAfterPoison) {
#ifndef JS_TEST_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  Heap H;
  VmString *S = H.allocString("request one");
  VmVec *V = H.allocVec();
  V->Elems.push_back(Value::integer(1));
  H.reset();
  EXPECT_DEATH(
      {
        volatile size_t N = S->Data.size();
        (void)N;
      },
      "use-after-poison");
  EXPECT_DEATH(
      {
        volatile size_t N = V->Elems.size();
        (void)N;
      },
      "use-after-poison");
#endif
}

//===----------------------------------------------------------------------===//
// Class layout and property reordering (paper section V-C).
//===----------------------------------------------------------------------===//

namespace {

/// Builds: class A { $p0 $p1 $p2 } ; class B extends A { $q0 $q1 }.
struct LayoutFixture {
  bc::Repo R;
  bc::ClassId A;
  bc::ClassId B;

  LayoutFixture() {
    bc::Unit &U = R.createUnit("u");
    bc::Class &CA = R.createClass(U, "A");
    CA.DeclProps = {R.internString("p0"), R.internString("p1"),
                    R.internString("p2")};
    A = CA.Id;
    bc::Class &CB = R.createClass(U, "B");
    CB.DeclProps = {R.internString("q0"), R.internString("q1")};
    B = CB.Id;
    R.clsMutable(B).Parent = A;
  }
};

} // namespace

TEST(ClassLayout, DeclaredOrderWithoutProfile) {
  LayoutFixture Fix;
  ClassTable T(Fix.R);
  const ClassLayout &LB = T.layout(Fix.B);
  ASSERT_EQ(LB.numSlots(), 5u);
  EXPECT_EQ(Fix.R.str(LB.propAtSlot(0)), "p0");
  EXPECT_EQ(Fix.R.str(LB.propAtSlot(3)), "q0");
  // Identity decl -> phys mapping.
  for (uint32_t I = 0; I < 5; ++I)
    EXPECT_EQ(LB.declToPhys()[I], I);
}

TEST(ClassLayout, ReorderingSortsByHotnessWithinLayer) {
  LayoutFixture Fix;
  std::unordered_map<std::string, uint64_t> Counts{
      {"A::p2", 100}, {"A::p0", 10}, {"B::q1", 50},
      // p1, q0 unprofiled (0)
  };
  ClassTable T(Fix.R);
  T.enablePropReordering(&Counts);
  const ClassLayout &LB = T.layout(Fix.B);
  // Parent layer: p2 (100), p0 (10), p1 (0) in slots 0..2.
  EXPECT_EQ(Fix.R.str(LB.propAtSlot(0)), "p2");
  EXPECT_EQ(Fix.R.str(LB.propAtSlot(1)), "p0");
  EXPECT_EQ(Fix.R.str(LB.propAtSlot(2)), "p1");
  // Child layer: q1 (50) before q0 (0), in slots 3..4.
  EXPECT_EQ(Fix.R.str(LB.propAtSlot(3)), "q1");
  EXPECT_EQ(Fix.R.str(LB.propAtSlot(4)), "q0");
}

TEST(ClassLayout, ParentLayoutIsPrefixOfChild) {
  LayoutFixture Fix;
  std::unordered_map<std::string, uint64_t> Counts{{"A::p1", 7},
                                                   {"B::q0", 3}};
  ClassTable T(Fix.R);
  T.enablePropReordering(&Counts);
  const ClassLayout &LA = T.layout(Fix.A);
  const ClassLayout &LB = T.layout(Fix.B);
  ASSERT_LE(LA.numSlots(), LB.numSlots());
  for (uint32_t S = 0; S < LA.numSlots(); ++S)
    EXPECT_EQ(LA.propAtSlot(S), LB.propAtSlot(S))
        << "inherited properties must keep their slots (subtyping)";
}

TEST(ClassLayout, DeclToPhysIsAPermutationAndConsistent) {
  LayoutFixture Fix;
  std::unordered_map<std::string, uint64_t> Counts{
      {"A::p1", 9}, {"A::p2", 5}, {"B::q1", 2}};
  ClassTable T(Fix.R);
  T.enablePropReordering(&Counts);
  const ClassLayout &LB = T.layout(Fix.B);
  const std::vector<uint32_t> &Map = LB.declToPhys();
  ASSERT_EQ(Map.size(), 5u);
  std::vector<bool> Seen(5, false);
  for (uint32_t Phys : Map) {
    ASSERT_LT(Phys, 5u);
    EXPECT_FALSE(Seen[Phys]) << "decl->phys must be a bijection";
    Seen[Phys] = true;
  }
  // Declared order of the full chain is parent-decl then own-decl; check
  // the mapping points at the right names.
  const char *DeclOrder[] = {"p0", "p1", "p2", "q0", "q1"};
  for (uint32_t D = 0; D < 5; ++D)
    EXPECT_EQ(Fix.R.str(LB.propAtSlot(Map[D])), DeclOrder[D]);
}

TEST(ClassLayout, FindSlotAndMethods) {
  LayoutFixture Fix;
  ClassTable T(Fix.R);
  const ClassLayout &LB = T.layout(Fix.B);
  EXPECT_GE(LB.findSlot(Fix.R.findString("p1")), 0);
  EXPECT_EQ(LB.findSlot(Fix.R.internString("absent")), -1);
  EXPECT_TRUE(T.isLoaded(Fix.B));
  EXPECT_TRUE(T.isLoaded(Fix.A)) << "building B forces A";
}

TEST(Builtins, StandardTableLookup) {
  const BuiltinTable &T = BuiltinTable::standard();
  EXPECT_NE(T.find("print"), BuiltinTable::kNotFound);
  EXPECT_NE(T.find("strlen"), BuiltinTable::kNotFound);
  EXPECT_EQ(T.find("no_such_builtin"), BuiltinTable::kNotFound);
  uint32_t Id = T.find("substr");
  EXPECT_EQ(T.builtin(Id).Arity, 3u);
  EXPECT_EQ(T.builtin(Id).Name, "substr");
}
