//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request-local heap.
///
/// Mirrors HHVM's request-local memory model: all values allocated while
/// serving a request die wholesale when the request ends.  Their host
/// storage is kept for the next request: each value kind lives in a pool
/// whose elements never move, reset() only rewinds the pools, and a
/// recycled element keeps its buffers' capacity.  Under AddressSanitizer
/// reset() poisons every retired element, so a Value held across a reset
/// fails with use-after-poison instead of aliasing the next request's
/// value.  The heap also maintains a *simulated address space* (bump
/// allocation with realistic object sizes) so the micro-architecture
/// simulator can observe the data-locality effects of Jump-Start's
/// object-layout optimization; it never depends on host storage reuse.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_RUNTIME_HEAP_H
#define JUMPSTART_RUNTIME_HEAP_H

#include "runtime/Value.h"

#include <deque>
#include <vector>
#include <memory>
#include <string_view>

namespace jumpstart::runtime {

/// Bump allocator for interpreter frames (locals plus operand stack).
///
/// The interpreter carves each frame out of this arena and rewinds it on
/// return, where a vector-backed frame would pay two std::vector
/// allocations per call.  Frames are strictly LIFO (a callee's frame dies
/// before its caller's), so mark/rewind is sufficient.  Chunks are
/// retained across requests, so steady-state frame setup performs no host
/// allocation.
class FrameArena {
public:
  struct Mark {
    uint32_t Chunk = 0;
    uint32_t Used = 0;
  };

  Mark mark() const { return {CurChunk, Used}; }

  /// Allocates \p N contiguous Value slots.  Contents are unspecified
  /// (recycled frames see stale values); callers initialize what they
  /// read.  The pointer stays valid until the enclosing mark is rewound.
  Value *alloc(uint32_t N) {
    if (CurChunk < Chunks.size()) {
      Chunk &C = Chunks[CurChunk];
      if (C.Cap - Used >= N) {
        Value *P = C.Slots.get() + Used;
        Used += N;
        return P;
      }
    }
    return allocSlow(N);
  }

  /// Frees everything allocated after \p M was taken.
  void rewind(Mark M) {
    CurChunk = M.Chunk;
    Used = M.Used;
  }

  /// Rewinds completely, keeping chunk capacity for the next request.
  void clear() {
    CurChunk = 0;
    Used = 0;
  }

  size_t numChunks() const { return Chunks.size(); }

private:
  struct Chunk {
    std::unique_ptr<Value[]> Slots;
    uint32_t Cap = 0;
  };

  static constexpr uint32_t kChunkSlots = 4096;

  /// alloc() past the current chunk: moves to the next chunk that fits,
  /// adding one when none is left.
  Value *allocSlow(uint32_t N);

  std::vector<Chunk> Chunks;
  uint32_t CurChunk = 0;
  uint32_t Used = 0;
};

/// Arena allocator for one request's values.
class Heap {
public:
  /// \param BaseAddr start of this heap's simulated address range.
  explicit Heap(uint64_t BaseAddr = 0x100000000ull) : Base(BaseAddr) {
    NextAddr = Base;
  }
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  VmString *allocString(std::string_view S);
  VmVec *allocVec();
  VmDict *allocDict();

  /// Allocates an object with \p NumSlots null-initialized property slots.
  VmObject *allocObject(const ClassLayout *Layout, uint32_t NumSlots);

  /// Allocates a string whose contents \p Build appends to an empty
  /// buffer, then charges the simulated heap for the final size, exactly
  /// as allocString() of the same bytes would.  \p Build must not
  /// allocate on this heap.
  template <typename BuildFn> VmString *buildString(BuildFn &&Build) {
    VmString &Str = nextString();
    Build(Str.Data);
    Str.Addr = bump(24 + Str.Data.size());
    return &Str;
  }

  /// Returns the interned VmString for repo string \p StringId, creating
  /// it on first use.  Interned strings persist across reset() (they are
  /// immutable and compared by content, never by identity or address), so
  /// a hot Op::Str costs no host allocation in steady state.  The
  /// *simulated* address space still evolves exactly as if the string
  /// were allocated afresh — later vec/dict/object addresses feed the
  /// D-cache simulation and must not shift — so a hit still bumps.
  VmString *internString(uint32_t StringId, std::string_view S);

  /// Ends the lifetime of everything allocated since construction / the
  /// last reset and rewinds the simulated address space.  Storage is
  /// kept: the next request's alloc*() calls recycle the pooled elements
  /// in order.  Each element keeps at most the capacity of the largest
  /// value it has held, and a pool holds at most as many elements as the
  /// largest request allocated.  Interned strings and frame arena
  /// capacity are retained too.
  void reset();

  /// Total simulated bytes currently allocated.
  uint64_t bytesAllocated() const { return NextAddr - Base; }

  /// Objects allocated since construction / the last reset.
  size_t numObjects() const { return Objects.Live; }

  /// The frame arena for interpreter locals/stacks (see FrameArena).
  FrameArena &frameArena() { return Frames; }

  /// Deterministic model count of the values a program allocates: one
  /// per alloc*() or buildString() call and one per intern miss.  It is
  /// not a count of malloc calls (pooled storage is recycled, so most
  /// alloc*() calls make none); it is the count behind
  /// BENCH_interp.json's allocs_per_request and its `stats` block, which
  /// the tier-1 snapshot check requires verbatim.
  /// Callers that allocate host memory for VM state outside the heap
  /// (e.g. testing::ReferenceInterpreter's per-call frame vectors) charge
  /// it here via noteHostAllocs, so allocs/request is comparable across
  /// interpreters.  Cumulative; never reset.  Not exported to metrics.
  uint64_t hostAllocs() const { return HostAllocs; }
  void noteHostAllocs(uint64_t N) { HostAllocs += N; }

private:
  /// The values of one kind.  Elements never move (std::deque), so
  /// pointers into a pool stay valid until reset().  Elements [0, Live)
  /// belong to the current request; the rest are retired and, under
  /// AddressSanitizer, poisoned.
  template <typename T> struct Pool {
    std::deque<T> Elems;
    size_t Live = 0;

    Pool() = default;
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /// \returns the next retired element (unpoisoned, contents stale),
    /// growing the pool when every element is live.
    T &next();
    /// Retires every live element.
    void retire();
    /// Unpoisons every element so the deque can destroy them.
    ~Pool();
  };

  uint64_t bump(uint64_t Size);
  /// Counts a string allocation and returns an empty pooled string.
  VmString &nextString();

  uint64_t Base;
  uint64_t NextAddr;
  uint64_t HostAllocs = 0;
  Pool<VmString> Strings;
  Pool<VmVec> Vecs;
  Pool<VmDict> Dicts;
  Pool<VmObject> Objects;
  std::deque<VmString> Interned;
  // Dense: repo string ids are small and contiguous, so the intern
  // table is a flat vector -- one bounds check + load per Op::Str.
  std::vector<VmString *> InternById;
  FrameArena Frames;
};

} // namespace jumpstart::runtime

#endif // JUMPSTART_RUNTIME_HEAP_H
