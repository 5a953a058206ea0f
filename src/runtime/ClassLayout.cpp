//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "runtime/ClassLayout.h"

#include "support/Assert.h"

#include <algorithm>
#include <numeric>

using namespace jumpstart;
using namespace jumpstart::runtime;

const ClassLayout &ClassTable::layout(bc::ClassId Id) {
  if (Layouts.size() < R.numClasses())
    Layouts.resize(R.numClasses());
  assert(Id.raw() < Layouts.size() && "invalid ClassId");
  if (Layouts[Id.raw()])
    return *Layouts[Id.raw()];
  return build(Id);
}

bool ClassTable::isLoaded(bc::ClassId Id) const {
  return Id.raw() < Layouts.size() && Layouts[Id.raw()] != nullptr;
}

uint64_t ClassTable::accessCount(const bc::Class &K, bc::StringId Prop) const {
  if (!PropCounts)
    return 0;
  // The profile keys properties by "Class::prop" exactly as the paper's
  // seeder-side hash table does.
  std::string Key = K.Name + "::" + R.str(Prop);
  auto It = PropCounts->find(Key);
  return It == PropCounts->end() ? 0 : It->second;
}

uint64_t ClassTable::affinityCount(const bc::Class &K, bc::StringId A,
                                   bc::StringId B) const {
  if (!PropAffinity)
    return 0;
  const std::string &SA = R.str(A);
  const std::string &SB = R.str(B);
  std::string Key =
      K.Name + "::" + (SA < SB ? SA + "::" + SB : SB + "::" + SA);
  auto It = PropAffinity->find(Key);
  return It == PropAffinity->end() ? 0 : It->second;
}

std::vector<uint32_t> ClassTable::orderOwnProps(const bc::Class &K) const {
  std::vector<uint32_t> Order(K.DeclProps.size());
  std::iota(Order.begin(), Order.end(), 0u);
  if (Mode == PropOrderMode::Declared || K.DeclProps.empty())
    return Order;

  std::vector<uint64_t> Counts(K.DeclProps.size());
  for (size_t I = 0; I < K.DeclProps.size(); ++I)
    Counts[I] = accessCount(K, K.DeclProps[I]);

  if (Mode == PropOrderMode::Hotness) {
    std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
      return Counts[A] > Counts[B];
    });
    return Order;
  }

  // Affinity chaining: seed with the hottest property, then repeatedly
  // append the unplaced property with the strongest co-access affinity to
  // the previously placed one; hotness breaks ties and restarts dead
  // chains.  Stable by declared index throughout, for determinism.
  std::vector<bool> Placed(K.DeclProps.size(), false);
  std::vector<uint32_t> Chain;
  Chain.reserve(K.DeclProps.size());
  auto HottestUnplaced = [&]() {
    uint32_t Best = ~0u;
    for (uint32_t I = 0; I < K.DeclProps.size(); ++I) {
      if (Placed[I])
        continue;
      if (Best == ~0u || Counts[I] > Counts[Best])
        Best = I;
    }
    return Best;
  };
  uint32_t Current = HottestUnplaced();
  while (Current != ~0u) {
    Placed[Current] = true;
    Chain.push_back(Current);
    uint32_t Next = ~0u;
    uint64_t BestAffinity = 0;
    for (uint32_t I = 0; I < K.DeclProps.size(); ++I) {
      if (Placed[I])
        continue;
      uint64_t Aff = affinityCount(K, K.DeclProps[Current], K.DeclProps[I]);
      if (Aff > BestAffinity) {
        BestAffinity = Aff;
        Next = I;
      }
    }
    Current = Next != ~0u ? Next : HottestUnplaced();
  }
  return Chain;
}

const ClassLayout &ClassTable::build(bc::ClassId Id) {
  const bc::Class &K = R.cls(Id);

  // Ensure the parent chain is built first; layouts embed parent layouts
  // as slot prefixes.
  const ClassLayout *ParentLayout = nullptr;
  if (K.Parent.valid())
    ParentLayout = &layout(K.Parent);

  auto L = std::make_unique<ClassLayout>();
  L->Id = Id;
  L->Parent = ParentLayout;

  // Inherited properties keep their physical slots, and their declared
  // indices come first in the flattened declared order.
  if (ParentLayout) {
    L->PhysProps = ParentLayout->PhysProps;
    L->NameToSlot = ParentLayout->NameToSlot;
    L->DeclToPhys = ParentLayout->DeclToPhys;
    L->MethodTable = ParentLayout->MethodTable;
  }

  // Decide the physical order of this class's own properties.  Without a
  // profile it is the declared order; with one, decreasing access count
  // or affinity chaining (stable, so ties keep declared order --
  // determinism matters for reproducible experiments).
  std::vector<uint32_t> Order = orderOwnProps(K);

  // Append own properties in the chosen physical order, recording the
  // declared-index -> physical-slot mapping.
  uint32_t OwnDeclBase = static_cast<uint32_t>(L->DeclToPhys.size());
  L->DeclToPhys.resize(OwnDeclBase + K.DeclProps.size());
  for (uint32_t DeclIndex : Order) {
    bc::StringId Prop = K.DeclProps[DeclIndex];
    uint32_t Slot = static_cast<uint32_t>(L->PhysProps.size());
    // Shadowing a parent property is not supported by the frontend; assert
    // the invariant here so layout bugs surface immediately.
    alwaysAssert(L->NameToSlot.find(Prop.raw()) == L->NameToSlot.end(),
                 "property redeclared in subclass");
    L->PhysProps.push_back(Prop);
    L->NameToSlot.emplace(Prop.raw(), Slot);
    L->DeclToPhys[OwnDeclBase + DeclIndex] = Slot;
  }

  // Overlay this class's own methods on the inherited method table.
  for (const auto &[NameRaw, Func] : K.Methods)
    L->MethodTable[NameRaw] = Func;

  Layouts[Id.raw()] = std::move(L);
  return *Layouts[Id.raw()];
}
