//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime class layouts and Jump-Start's object-property reordering.
///
/// Paper section V-C: the declared order of object properties is observable
/// in the source language (objects can be iterated in declared order), and
/// subtyping requires inherited properties to keep their slots.  The
/// optimization therefore (a) reorders properties only *within each layer*
/// of the class hierarchy -- a parent's physical layout is always a prefix
/// of its children's -- and (b) maintains a per-class array mapping each
/// property's declared index to its physical slot, consulted by the (rare)
/// operations that need declared order.
///
/// The hotness metric is the per-property access count collected by the
/// seeders' tier-1 instrumentation, keyed by the string "Class::prop".
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_RUNTIME_CLASSLAYOUT_H
#define JUMPSTART_RUNTIME_CLASSLAYOUT_H

#include "bytecode/Repo.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace jumpstart::runtime {

/// The flattened runtime view of one class: physical property slots,
/// declared-to-physical mapping, and the resolved method table.
class ClassLayout {
public:
  bc::ClassId id() const { return Id; }
  const ClassLayout *parent() const { return Parent; }

  uint32_t numSlots() const {
    return static_cast<uint32_t>(PhysProps.size());
  }

  /// Property name stored in physical slot \p Slot.
  bc::StringId propAtSlot(uint32_t Slot) const { return PhysProps[Slot]; }

  /// Physical slot of property \p Name, or -1 when the class has no such
  /// property.
  int64_t findSlot(bc::StringId Name) const {
    auto It = NameToSlot.find(Name.raw());
    if (It == NameToSlot.end())
      return -1;
    return It->second;
  }

  /// The declared-index -> physical-slot mapping (paper section V-C).
  /// Declared indices cover the full inheritance chain: the parent's
  /// declared properties first, then this class's own.
  const std::vector<uint32_t> &declToPhys() const { return DeclToPhys; }

  /// Resolved method named \p Name (inheritance already flattened);
  /// \returns an invalid FuncId when absent.
  bc::FuncId findMethod(bc::StringId Name) const {
    auto It = MethodTable.find(Name.raw());
    if (It == MethodTable.end())
      return bc::FuncId();
    return It->second;
  }

private:
  friend class ClassTable;
  bc::ClassId Id;
  const ClassLayout *Parent = nullptr;
  std::vector<bc::StringId> PhysProps;
  std::vector<uint32_t> DeclToPhys;
  std::unordered_map<uint32_t, uint32_t> NameToSlot;
  std::unordered_map<uint32_t, bc::FuncId> MethodTable;
};

/// How a class's own properties are ordered into physical slots.
enum class PropOrderMode {
  /// Declared order (no profile).
  Declared,
  /// Decreasing access count (the paper's section V-C optimization).
  Hotness,
  /// Greedy affinity chaining: start from the hottest property, then
  /// repeatedly append the unplaced property with the strongest
  /// co-access affinity to the previously placed one (the section V-C
  /// future-work extension; cf. Chilimbi et al., PLDI 1999).
  Affinity,
};

/// Builds and caches ClassLayouts for one server.
///
/// When property reordering is enabled and access counts are available
/// (loaded from a Jump-Start profile package), each class's own properties
/// are sorted by decreasing access count (or affinity-chained); otherwise
/// declared order is used.
class ClassTable {
public:
  explicit ClassTable(const bc::Repo &R) : R(R) {}

  /// Enables hotness-based property reordering driven by \p Counts, a
  /// map from "Class::prop" to access count.  The map must outlive the
  /// table.  Layouts already built are unaffected (class layout is
  /// decided when a class is first loaded, as in the paper).
  void enablePropReordering(
      const std::unordered_map<std::string, uint64_t> *Counts) {
    PropCounts = Counts;
    Mode = PropOrderMode::Hotness;
  }

  /// Enables affinity-based ordering.  \p Affinity maps
  /// "Class::propA::propB" (lexicographic property order) to co-access
  /// counts; \p Counts is still used to pick chain seeds and break ties.
  void enableAffinityReordering(
      const std::unordered_map<std::string, uint64_t> *Counts,
      const std::unordered_map<std::string, uint64_t> *Affinity) {
    PropCounts = Counts;
    PropAffinity = Affinity;
    Mode = PropOrderMode::Affinity;
  }

  bool reorderingEnabled() const { return Mode != PropOrderMode::Declared; }
  PropOrderMode orderMode() const { return Mode; }

  /// \returns the layout of \p Id, building it (and its ancestors) on
  /// first use.
  const ClassLayout &layout(bc::ClassId Id);

  /// \returns true if \p Id's layout has already been built (i.e. the
  /// class has been "loaded" on this server).
  bool isLoaded(bc::ClassId Id) const;

private:
  const ClassLayout &build(bc::ClassId Id);
  uint64_t accessCount(const bc::Class &K, bc::StringId Prop) const;
  uint64_t affinityCount(const bc::Class &K, bc::StringId A,
                         bc::StringId B) const;
  std::vector<uint32_t> orderOwnProps(const bc::Class &K) const;

  const bc::Repo &R;
  PropOrderMode Mode = PropOrderMode::Declared;
  const std::unordered_map<std::string, uint64_t> *PropCounts = nullptr;
  const std::unordered_map<std::string, uint64_t> *PropAffinity = nullptr;
  std::vector<std::unique_ptr<ClassLayout>> Layouts;
};

} // namespace jumpstart::runtime

#endif // JUMPSTART_RUNTIME_CLASSLAYOUT_H
