//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Branch-prediction models: a bimodal (2-bit saturating counter)
/// direction predictor for conditional branches and a BTB-style target
/// predictor for indirect calls (virtual method dispatch).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SIM_BRANCH_H
#define JUMPSTART_SIM_BRANCH_H

#include <cstdint>
#include <vector>

namespace jumpstart::sim {

/// Bimodal direction predictor: a table of 2-bit saturating counters
/// indexed by branch PC.
class BranchPredictor {
public:
  explicit BranchPredictor(uint32_t TableSize = 4096);

  /// Records the branch at \p Pc resolving to \p Taken.  \returns true
  /// when the prediction was correct.
  bool predict(uint64_t Pc, bool Taken) {
    ++Branches;
    // Mix the PC so adjacent branches spread across the table.
    uint32_t Index = static_cast<uint32_t>((Pc >> 2) ^ (Pc >> 13)) & Mask;
    uint8_t &Counter = Counters[Index];
    bool Predicted = Counter >= 2;
    if (Taken) {
      if (Counter < 3)
        ++Counter;
    } else {
      if (Counter > 0)
        --Counter;
    }
    if (Predicted != Taken) {
      ++Mispredicts;
      return false;
    }
    return true;
  }

  void reset();

  uint64_t branches() const { return Branches; }
  uint64_t mispredicts() const { return Mispredicts; }
  double missRate() const {
    return Branches ? static_cast<double>(Mispredicts) /
                          static_cast<double>(Branches)
                    : 0.0;
  }

private:
  std::vector<uint8_t> Counters; ///< 0..3; >=2 predicts taken.
  uint32_t Mask;
  uint64_t Branches = 0;
  uint64_t Mispredicts = 0;
};

/// Indirect-target predictor (BTB): remembers the last target per source
/// PC; a different target is a mispredict.
class TargetPredictor {
public:
  explicit TargetPredictor(uint32_t TableSize = 1024);

  /// Records an indirect transfer \p Pc -> \p Target.  \returns true when
  /// the target matched the prediction.
  bool predict(uint64_t Pc, uint64_t Target) {
    ++Branches;
    uint32_t Index = static_cast<uint32_t>((Pc >> 2) ^ (Pc >> 11)) & Mask;
    uint64_t &Slot = Targets[Index];
    bool Correct = Slot == Target;
    Slot = Target;
    if (!Correct)
      ++Mispredicts;
    return Correct;
  }

  void reset();

  uint64_t branches() const { return Branches; }
  uint64_t mispredicts() const { return Mispredicts; }
  double missRate() const {
    return Branches ? static_cast<double>(Mispredicts) /
                          static_cast<double>(Branches)
                    : 0.0;
  }

private:
  std::vector<uint64_t> Targets;
  uint32_t Mask;
  uint64_t Branches = 0;
  uint64_t Mispredicts = 0;
};

} // namespace jumpstart::sim

#endif // JUMPSTART_SIM_BRANCH_H
