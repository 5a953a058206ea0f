//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::runtime;

Value *FrameArena::allocSlow(uint32_t N) {
  while (true) {
    if (CurChunk < Chunks.size()) {
      Chunk &C = Chunks[CurChunk];
      if (C.Cap - Used >= N) {
        Value *P = C.Slots.get() + Used;
        Used += N;
        return P;
      }
      // The tail of this chunk is too small; it stays unused until the
      // enclosing mark is rewound.
      ++CurChunk;
      Used = 0;
      continue;
    }
    uint32_t Cap = std::max(kChunkSlots, N);
    Chunks.push_back(Chunk{std::make_unique<Value[]>(Cap), Cap});
  }
}

template <typename T> T &Heap::Pool<T>::next() {
  if (Live == Elems.size())
    Elems.emplace_back();
  T &E = Elems[Live++];
  ASAN_UNPOISON_MEMORY_REGION(&E, sizeof(T));
  return E;
}

template <typename T> void Heap::Pool<T>::retire() {
  // No-op loop outside AddressSanitizer builds.
  for (size_t I = 0; I < Live; ++I)
    ASAN_POISON_MEMORY_REGION(&Elems[I], sizeof(T));
  Live = 0;
}

template <typename T> Heap::Pool<T>::~Pool() {
  for (T &E : Elems)
    ASAN_UNPOISON_MEMORY_REGION(&E, sizeof(T));
}

// Heap.h only declares the pool's members; every pool is instantiated
// here.
template struct Heap::Pool<VmString>;
template struct Heap::Pool<VmVec>;
template struct Heap::Pool<VmDict>;
template struct Heap::Pool<VmObject>;

uint64_t Heap::bump(uint64_t Size) {
  // 16-byte alignment, like a real allocator's size classes.
  uint64_t Addr = NextAddr;
  NextAddr += (Size + 15) & ~15ull;
  return Addr;
}

VmString &Heap::nextString() {
  ++HostAllocs;
  VmString &Str = Strings.next();
  Str.Data.clear();
  return Str;
}

VmString *Heap::allocString(std::string_view S) {
  return buildString([S](std::string &Data) { Data.assign(S); });
}

VmVec *Heap::allocVec() {
  ++HostAllocs;
  VmVec &V = Vecs.next();
  V.Elems.clear();
  V.Addr = bump(48);
  return &V;
}

VmDict *Heap::allocDict() {
  ++HostAllocs;
  VmDict &D = Dicts.next();
  D.clear();
  D.Addr = bump(64);
  return &D;
}

VmObject *Heap::allocObject(const ClassLayout *Layout, uint32_t NumSlots) {
  ++HostAllocs;
  VmObject &O = Objects.next();
  O.Layout = Layout;
  O.Slots.assign(NumSlots, Value::null());
  O.Addr = bump(16 + 16ull * NumSlots);
  return &O;
}

VmString *Heap::internString(uint32_t StringId, std::string_view S) {
  // Bump first, hit or miss: the simulated layout must match a heap that
  // allocates this string afresh.
  uint64_t Addr = bump(24 + S.size());
  if (StringId < InternById.size()) {
    if (VmString *Hit = InternById[StringId])
      return Hit;
  } else {
    InternById.resize(StringId + 1, nullptr);
  }
  ++HostAllocs;
  Interned.emplace_back();
  VmString &Str = Interned.back();
  Str.Data = std::string(S);
  Str.Addr = Addr;
  InternById[StringId] = &Str;
  return &Str;
}

void Heap::reset() {
  Strings.retire();
  Vecs.retire();
  Dicts.retire();
  Objects.retire();
  Frames.clear();
  NextAddr = Base;
}
