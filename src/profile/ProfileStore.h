//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server-local store of tier-1 profile data.
///
/// The JIT reads profiles from this store regardless of where they came
/// from -- the server's own profiling translations or a deserialized
/// Jump-Start package.  This uniformity is the "Simplicity" argument of
/// paper section III: once save/reload exists, the rest of the VM runs
/// identically either way.
///
/// Profiling frames do not write FuncProfile's ordered maps.  Each
/// profiled function records into a flat ProfileSlab, and render() folds
/// the slabs into the FuncProfile view only when something is about to
/// read it (DESIGN.md, "Dense serial frame path").  A seeder's
/// instrumented optimized frames record the same way, into OptCounters,
/// which a package build renders into OptProfile's maps.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_PROFILE_PROFILESTORE_H
#define JUMPSTART_PROFILE_PROFILESTORE_H

#include "bytecode/Function.h"
#include "bytecode/Repo.h"
#include "profile/ProfilePackage.h"
#include "support/Status.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace jumpstart::profile {

/// One function's tier-1 recording area, laid out once from its bytecode
/// so that every profiled event is an array index.  It holds the counts
/// recorded since the last ProfileStore::render(), which adds them to the
/// function's FuncProfile and zeroes the slab.
struct ProfileSlab {
  static constexpr uint32_t kNoSite = ~0u;

  ProfileSlab(uint32_t Func, const bc::Function &F, uint32_t NumBlocks);

  /// A frame entered with the \p NumArgs arguments \p Args.
  void countEntry(const runtime::Value *Args, uint32_t NumArgs) {
    ++EntryCount;
    if (ParamTypes.size() < NumArgs)
      ParamTypes.resize(NumArgs);
    for (uint32_t I = 0; I < NumArgs; ++I)
      ParamTypes[I].observe(Args[I].T);
  }
  void countBlock(uint32_t Block) { ++BlockCounts[Block]; }
  /// \p Pc must observe types (bc::opObservesTypes).
  void observeType(uint32_t Pc, runtime::Type T) {
    Types[SiteOfPc[Pc]].observe(T);
  }
  /// \p Pc must be an FCallObj.
  void countCallTarget(uint32_t Pc, uint32_t Callee);

  const uint32_t Func;
  uint64_t EntryCount = 0;
  /// Grows to the widest argument list seen, as FuncProfile's does.
  std::vector<TypeObservation> ParamTypes;
  std::vector<uint64_t> BlockCounts;
  /// Instruction index -> site: an index into Types for an instruction
  /// that observes types, into Calls for an FCallObj, else kNoSite.
  std::vector<uint32_t> SiteOfPc;
  std::vector<TypeObservation> Types;
  /// Instruction index of each Types slot.
  std::vector<uint32_t> TypePcs;
  struct CallSite {
    uint32_t Pc = 0;
    /// (callee raw FuncId, count), in first-seen order.
    std::vector<std::pair<uint32_t, uint64_t>> Targets;
  };
  std::vector<CallSite> Calls;
  /// Queued for the next render().
  bool Dirty = false;
};

/// Property-access and property-affinity counts recorded in tier-1
/// frames (section V-C), keyed by packed (ClassId, StringId[, StringId])
/// integers.  renderInto() builds the "Class::prop" and "Class::a::b"
/// string keys the package carries.
class PropCounters {
public:
  /// An access to property \p Prop of class \p Cls.
  void count(bc::ClassId Cls, bc::StringId Prop) {
    ++Access[pack(Cls.raw(), Prop.raw())];
  }
  /// Consecutive accesses to the distinct properties \p A and \p B of
  /// \p Cls, in either order.
  void countPair(bc::ClassId Cls, bc::StringId A, bc::StringId B) {
    uint32_t Lo = std::min(A.raw(), B.raw());
    uint32_t Hi = std::max(A.raw(), B.raw());
    ++Affinity[PairKey{pack(Cls.raw(), Lo), Hi}];
  }

  /// Adds every count to \p Opt's PropAccessCounts and PropAffinity, with
  /// the affinity key's property names in lexicographic order.
  void renderInto(const bc::Repo &R, OptProfile &Opt) const;

private:
  static uint64_t pack(uint32_t Hi, uint32_t Lo) {
    return static_cast<uint64_t>(Hi) << 32 | Lo;
  }
  struct PairKey {
    uint64_t ClsLo; ///< pack(class, lower property StringId)
    uint32_t Hi;    ///< the higher property StringId
    bool operator==(const PairKey &O) const {
      return ClsLo == O.ClsLo && Hi == O.Hi;
    }
  };
  struct PairHash {
    size_t operator()(const PairKey &K) const;
  };

  std::unordered_map<uint64_t, uint64_t> Access;
  std::unordered_map<PairKey, uint64_t, PairHash> Affinity;
};

/// The Vasm block and tier-2 call-arc counts of a seeder's instrumented
/// optimized frames (sections V-A and V-B): one counter row per optimized
/// unit, indexed by the raw FuncId of its function, and arc counts keyed
/// by the packed (caller, callee) pair.  renderInto() builds
/// OptProfile's ordered maps when a package is assembled.
class OptCounters {
public:
  /// The counter row of the unit of raw FuncId \p Func, at least
  /// \p NumBlocks counters long, created zeroed on first use.  It stays
  /// put while no later call asks for a longer row of \p Func.
  uint64_t *row(uint32_t Func, uint32_t NumBlocks) {
    if (Func >= Rows.size())
      Rows.resize(Func + 1);
    std::vector<uint64_t> &Row = Rows[Func];
    if (Row.size() < NumBlocks)
      Row.resize(NumBlocks, 0);
    return Row.data();
  }
  /// One entry into the unit of \p Callee from code of the unit of
  /// \p Caller (raw FuncIds).
  void countArc(uint32_t Caller, uint32_t Callee) {
    ++Arcs[static_cast<uint64_t>(Caller) << 32 | Callee];
  }

  /// Adds every row in which an event counted to Opt.VasmBlockCounts,
  /// growing a shorter entry to the row's length, and every arc to
  /// Opt.CallArcs.
  void renderInto(OptProfile &Opt) const;

private:
  std::vector<std::vector<uint64_t>> Rows;
  std::unordered_map<uint64_t, uint64_t> Arcs;
};

/// Mutable per-server profile state.
class ProfileStore {
public:
  /// \returns the profile for raw FuncId \p Func, creating it on demand.
  /// Counts written here add to whatever a slab of \p Func records.
  FuncProfile &getOrCreate(uint32_t Func) {
    FuncProfile &F = Profiles[Func];
    F.Func = Func;
    return F;
  }

  /// \returns the profile for \p Func, or nullptr.  The view must be
  /// rendered.
  const FuncProfile *find(uint32_t Func) const {
    assert(Dirty.empty() && "read of an unrendered profile store");
    auto It = Profiles.find(Func);
    return It == Profiles.end() ? nullptr : &It->second;
  }

  /// Every profile.  Its iteration order is part of the determinism
  /// contract (the tier-1 call graph adds arcs in it), so functions enter
  /// it when first profiled, whether through getOrCreate or createSlab.
  /// The view must be rendered.
  const std::unordered_map<uint32_t, FuncProfile> &all() const {
    assert(Dirty.empty() && "read of an unrendered profile store");
    return Profiles;
  }

  /// The recording slab of \p Func, or nullptr before createSlab.
  ProfileSlab *slab(uint32_t Func) {
    return Func < Slabs.size() ? Slabs[Func].get() : nullptr;
  }
  /// Creates the slab of \p Func (bytecode \p F, \p NumBlocks blocks)
  /// and adds \p Func to the view.
  ProfileSlab &createSlab(uint32_t Func, const bc::Function &F,
                          uint32_t NumBlocks);
  /// Queues \p S for the next render(); a frame that records into \p S
  /// calls this when it is entered.
  void touch(ProfileSlab &S) {
    if (!S.Dirty) {
      S.Dirty = true;
      Dirty.push_back(&S);
    }
  }

  /// Adds the counts of every touched slab to its FuncProfile, rendering
  /// only the sites observed at least once, and zeroes those slabs.
  /// const because no profile changes value: only the view catches up.
  /// Runs between requests, never on a worker thread.
  void render() const;

  /// Replaces the store contents with the profiles of \p Pkg (consumer
  /// side of Jump-Start).  \returns corrupt_data when the package lists
  /// the same function twice (the store would silently drop one).
  support::Status loadFromPackage(const ProfilePackage &Pkg);

  /// Copies all profiles into \p Pkg in FuncId order (deterministic
  /// serialization).  The view must be rendered.
  void exportToPackage(ProfilePackage &Pkg) const;

private:
  mutable std::unordered_map<uint32_t, FuncProfile> Profiles;
  /// Indexed by raw FuncId.
  std::vector<std::unique_ptr<ProfileSlab>> Slabs;
  mutable std::vector<ProfileSlab *> Dirty;
};

} // namespace jumpstart::profile

#endif // JUMPSTART_PROFILE_PROFILESTORE_H
