//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamically-typed value representation (HHVM's "TypedValue").
///
/// A Value is a type tag plus a payload.  Heap payloads (strings, vecs,
/// dicts, objects) are raw pointers owned by the request-local Heap; values
/// never outlive the request that created them, mirroring HHVM's
/// request-local memory model.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_RUNTIME_VALUE_H
#define JUMPSTART_RUNTIME_VALUE_H

#include "bytecode/Ids.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace jumpstart::runtime {

struct VmString;
struct VmVec;
struct VmDict;
struct VmObject;

/// Runtime type tags.  The JIT's type-specialization guards and the profile
/// package's type observations use this same enum.
enum class Type : uint8_t {
  Null,
  Bool,
  Int,
  Dbl,
  Str,
  Vec,
  Dict,
  Obj,
};

/// \returns the printable name of \p T.
const char *typeName(Type T);

/// A dynamically-typed value.
struct Value {
  Type T = Type::Null;
  union {
    bool B;
    int64_t I;
    double D;
    VmString *S;
    VmVec *V;
    VmDict *Dt;
    VmObject *O;
  };

  Value() : I(0) {}

  static Value null() { return Value(); }
  static Value boolean(bool B) {
    Value R;
    R.T = Type::Bool;
    R.B = B;
    return R;
  }
  static Value integer(int64_t I) {
    Value R;
    R.T = Type::Int;
    R.I = I;
    return R;
  }
  static Value dbl(double D) {
    Value R;
    R.T = Type::Dbl;
    R.D = D;
    return R;
  }
  static Value str(VmString *S) {
    Value R;
    R.T = Type::Str;
    R.S = S;
    return R;
  }
  static Value vec(VmVec *V) {
    Value R;
    R.T = Type::Vec;
    R.V = V;
    return R;
  }
  static Value dict(VmDict *D) {
    Value R;
    R.T = Type::Dict;
    R.Dt = D;
    return R;
  }
  static Value obj(VmObject *O) {
    Value R;
    R.T = Type::Obj;
    R.O = O;
    return R;
  }

  bool isNull() const { return T == Type::Null; }
  bool isBool() const { return T == Type::Bool; }
  bool isInt() const { return T == Type::Int; }
  bool isDbl() const { return T == Type::Dbl; }
  bool isStr() const { return T == Type::Str; }
  bool isVec() const { return T == Type::Vec; }
  bool isDict() const { return T == Type::Dict; }
  bool isObj() const { return T == Type::Obj; }
  bool isNumeric() const { return T == Type::Int || T == Type::Dbl; }
};

/// A heap-allocated string.  Addr is the simulated heap address used for
/// data-cache tracing.
struct VmString {
  std::string Data;
  uint64_t Addr = 0;
};

/// A heap-allocated vector (dense array).
struct VmVec {
  std::vector<Value> Elems;
  uint64_t Addr = 0;
};

/// A key in a dict: either an integer or a string (by value; dict keys are
/// small in practice).
struct DictKey {
  bool IsStr = false;
  int64_t IntKey = 0;
  std::string StrKey;

  static DictKey fromInt(int64_t I) {
    DictKey K;
    K.IntKey = I;
    return K;
  }
  static DictKey fromStr(std::string S) {
    DictKey K;
    K.IsStr = true;
    K.StrKey = std::move(S);
    return K;
  }

  bool operator==(const DictKey &O) const {
    if (IsStr != O.IsStr)
      return false;
    return IsStr ? StrKey == O.StrKey : IntKey == O.IntKey;
  }

  uint64_t hash() const;
};

/// A heap-allocated ordered dictionary.  Insertion order is preserved
/// (observable in the source language), lookup is via a side index.
struct VmDict {
  std::vector<std::pair<DictKey, Value>> Entries;
  uint64_t Addr = 0;

  /// Below this entry count a linear scan beats hashing; above it find()
  /// builds and maintains a hash index.
  static constexpr size_t kIndexThreshold = 8;

  /// Lookup returning the entry index or -1.  Small dicts scan linearly;
  /// larger ones probe a lazily built open-addressing index that maps key
  /// hash -> first entry with that key, preserving the linear scan's
  /// first-match semantics.
  int64_t find(const DictKey &K) const;

  /// Allocation-free lookups for the common key shapes: the string
  /// overload avoids materializing a DictKey (and its std::string) per
  /// probe.  Hashes and equality match DictKey's exactly.
  int64_t find(std::string_view S) const;
  int64_t find(int64_t I) const;

  /// Empties the dict, keeping its storage for reuse (Heap recycles
  /// dicts across requests).  The hash index is dropped with the
  /// entries, so a recycled dict never probes a stale index.
  void clear() {
    Entries.clear();
    Index.clear();
    IndexedCount = 0;
  }

private:
  /// Open-addressing table of entry indices (-1 = empty), sized to a
  /// power of two at <= 50% load.  Mutable: it is a cache over Entries,
  /// (re)built inside const find().  IndexedCount is how many leading
  /// entries the table covers; entries appended directly to Entries
  /// since the last probe are absorbed incrementally (self-healing), so
  /// code paths that bypass find() for insertion stay correct.
  mutable std::vector<int32_t> Index;
  mutable size_t IndexedCount = 0;

  void healIndex() const;
  template <typename KeyT> int64_t findImpl(const KeyT &K) const;
};

class ClassLayout;

/// A heap-allocated object: its runtime class layout plus property slots
/// in *physical* order (which Jump-Start's property-reordering optimization
/// may differ from declared order; see runtime/ClassLayout.h).
struct VmObject {
  const ClassLayout *Layout = nullptr;
  std::vector<Value> Slots;
  uint64_t Addr = 0;

  /// Simulated address of property slot \p Slot, used for D-cache tracing.
  /// Slots are 16 bytes (type tag + payload, padded), after a 16-byte
  /// object header.
  uint64_t slotAddr(uint32_t Slot) const { return Addr + 16 + 16ull * Slot; }
};

} // namespace jumpstart::runtime

#endif // JUMPSTART_RUNTIME_VALUE_H
