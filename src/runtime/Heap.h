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
/// serving a request are freed wholesale when the request ends.  The heap
/// also maintains a *simulated address space* (bump allocation with
/// realistic object sizes) so the micro-architecture simulator can observe
/// the data-locality effects of Jump-Start's object-layout optimization.
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
  Value *alloc(uint32_t N);

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

  VmString *allocString(std::string_view S);
  VmVec *allocVec();
  VmDict *allocDict();

  /// Allocates an object with \p NumSlots null-initialized property slots.
  VmObject *allocObject(const ClassLayout *Layout, uint32_t NumSlots);

  /// Returns the interned VmString for repo string \p StringId, creating
  /// it on first use.  Interned strings persist across reset() (they are
  /// immutable and compared by content, never by identity or address), so
  /// a hot Op::Str costs no host allocation in steady state.  The
  /// *simulated* address space still evolves exactly as if the string
  /// were allocated afresh — later vec/dict/object addresses feed the
  /// D-cache simulation and must not shift — so a hit still bumps.
  VmString *internString(uint32_t StringId, std::string_view S);

  /// Frees everything allocated since construction / the last reset and
  /// rewinds the simulated address space.  Interned strings and frame
  /// arena capacity are retained.
  void reset();

  /// Total simulated bytes currently allocated.
  uint64_t bytesAllocated() const { return NextAddr - Base; }

  size_t numObjects() const { return Objects.size(); }

  /// The frame arena for interpreter locals/stacks (see FrameArena).
  FrameArena &frameArena() { return Frames; }

  /// Deterministic model-level count of host allocations performed on
  /// behalf of VM values: one per alloc*() call and per intern miss.
  /// Callers that allocate host memory for VM state outside the heap
  /// (e.g. testing::ReferenceInterpreter's per-call frame vectors) charge
  /// it here via noteHostAllocs, so allocs/request is comparable across
  /// interpreters.  Cumulative; never reset.  Not exported to metrics.
  uint64_t hostAllocs() const { return HostAllocs; }
  void noteHostAllocs(uint64_t N) { HostAllocs += N; }

private:
  uint64_t bump(uint64_t Size);

  uint64_t Base;
  uint64_t NextAddr;
  uint64_t HostAllocs = 0;
  std::deque<VmString> Strings;
  std::deque<VmVec> Vecs;
  std::deque<VmDict> Dicts;
  std::deque<VmObject> Objects;
  std::deque<VmString> Interned;
  // Dense: repo string ids are small and contiguous, so the intern
  // table is a flat vector -- one bounds check + load per Op::Str.
  std::vector<VmString *> InternById;
  FrameArena Frames;
};

} // namespace jumpstart::runtime

#endif // JUMPSTART_RUNTIME_HEAP_H
