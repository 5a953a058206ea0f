//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-core machine model: caches + TLBs + branch predictors + a
/// cycle model, consuming the address trace of executing JITed code.
///
/// Geometry defaults approximate the paper's evaluation hardware (Intel
/// Xeon D-1581, Broadwell): 32 KB 8-way L1I and L1D, a per-core LLC slice,
/// 4 KB pages, bimodal direction prediction.  Absolute cycle counts are
/// not meant to match real silicon; the cycle model exists so relative
/// effects (the paper's speedup percentages) have a principled basis:
/// cycles = instructions * BaseCpi + sum(penalty * events).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SIM_MACHINE_H
#define JUMPSTART_SIM_MACHINE_H

#include "sim/Branch.h"
#include "sim/Cache.h"

#include <span>
#include <string>

namespace jumpstart::sim {

/// Machine geometry and penalty parameters.
struct MachineConfig {
  CacheConfig L1I{32 * 1024, 64, 8};
  CacheConfig L1D{32 * 1024, 64, 8};
  CacheConfig Llc{2 * 1024 * 1024, 64, 16};
  uint32_t ITlbEntries = 128;
  uint32_t ITlbWays = 4;
  uint32_t DTlbEntries = 64;
  uint32_t DTlbWays = 4;
  uint32_t PageBytes = 4096;
  uint32_t BranchTableSize = 4096;
  uint32_t BtbSize = 1024;

  // Cycle model.
  double BaseCpi = 0.4;
  double BranchMissPenalty = 14;
  double L1MissPenalty = 10;    ///< L1 miss that hits LLC.
  double LlcMissPenalty = 120;  ///< LLC miss to memory.
  double TlbMissPenalty = 25;   ///< Page walk.
};

/// Aggregated event counters read by the figure harnesses.
struct PerfCounters {
  uint64_t Instructions = 0;
  uint64_t Branches = 0;
  uint64_t BranchMisses = 0;
  uint64_t L1IAccesses = 0;
  uint64_t L1IMisses = 0;
  uint64_t L1DAccesses = 0;
  uint64_t L1DMisses = 0;
  uint64_t LlcAccesses = 0;
  uint64_t LlcMisses = 0;
  uint64_t ITlbAccesses = 0;
  uint64_t ITlbMisses = 0;
  uint64_t DTlbAccesses = 0;
  uint64_t DTlbMisses = 0;
};

/// \p Count back-to-back accesses to the cache line or page at \p Addr.
struct FetchRun {
  uint64_t Addr;
  uint32_t Count;
};

/// The machine simulator.  The VM's execution tracer calls fetchBlock(),
/// fetch(), dataAccess(), condBranch() and indirectBranch() as laid-out
/// code runs.
class MachineSim {
public:
  explicit MachineSim(MachineConfig Config = MachineConfig());

  /// Fetches \p SizeBytes of instructions starting at \p Addr (accesses
  /// every line the range touches) and retires one instruction.
  void fetch(uint64_t Addr, uint32_t SizeBytes);

  /// Fetches and retires a straight-line run of instructions, given as
  /// the runs of its fetch stream: \p Lines, the L1I line accesses in
  /// order (one per line each instruction touches), and \p Pages, the
  /// I-TLB accesses in order (one per instruction, so the page counts sum
  /// to the instructions retired).  Counts and cache state end exactly as
  /// after one fetch() per instruction: only fetches touch the L1I and
  /// I-TLB, so nothing can come between a run's accesses.
  void fetchBlock(std::span<const FetchRun> Lines,
                  std::span<const FetchRun> Pages) {
    for (const FetchRun &R : Lines)
      fetchLines(R.Addr, R.Count);
    for (const FetchRun &R : Pages)
      fetchPages(R.Addr, R.Count);
  }

  /// A data access at \p Addr.
  void dataAccess(uint64_t Addr, bool IsWrite) {
    (void)IsWrite; // writes and reads cost the same in this model
    ++Counters.L1DAccesses;
    if (!L1D.access(Addr)) {
      ++Counters.L1DMisses;
      ++Counters.LlcAccesses;
      if (!Llc.access(Addr))
        ++Counters.LlcMisses;
    }
    ++Counters.DTlbAccesses;
    if (!DTlb.access(Addr))
      ++Counters.DTlbMisses;
  }

  /// A conditional branch at \p Pc resolving to \p Taken, jumping to
  /// \p TargetAddr when taken.  Mispredictions come from two sources:
  /// the bimodal direction predictor, and BTB misses on taken branches
  /// (a taken branch whose target is not cached stalls the front end;
  /// this is how basic-block layout -- which converts taken branches
  /// into fallthroughs -- reduces branch misses, as in the paper's
  /// Figure 5).
  void condBranch(uint64_t Pc, bool Taken, uint64_t TargetAddr = 0) {
    ++Counters.Branches;
    bool Miss = !Direction.predict(Pc, Taken);
    // Taken branches additionally need the BTB to supply the target in
    // time; a cold or clobbered entry stalls the fetch unit.
    if (Taken && !Btb.predict(Pc, TargetAddr))
      Miss = true;
    if (Miss)
      ++Counters.BranchMisses;
  }

  /// An indirect transfer at \p Pc to \p Target (virtual dispatch,
  /// returns).
  void indirectBranch(uint64_t Pc, uint64_t Target) {
    ++Counters.Branches;
    if (!Indirect.predict(Pc, Target))
      ++Counters.BranchMisses;
  }

  /// Clears all state and counters.
  void reset();

  const PerfCounters &counters() const { return Counters; }

  /// Estimated cycles under the configured penalty model.
  double cycles() const;

  /// Estimated instructions per cycle.
  double ipc() const;

  /// Renders counters as a one-line summary for the bench harnesses.
  std::string summary() const;

  const MachineConfig &config() const { return Config; }

private:
  /// \p Count back-to-back fetches from the L1I line at \p LineAddr;
  /// a miss goes on to the LLC.
  void fetchLines(uint64_t LineAddr, uint32_t Count) {
    Counters.L1IAccesses += Count;
    if (L1I.accessRun(LineAddr, Count))
      return;
    ++Counters.L1IMisses;
    ++Counters.LlcAccesses;
    if (!Llc.access(LineAddr))
      ++Counters.LlcMisses;
  }
  /// \p Count instructions retired from the page containing \p Addr.
  void fetchPages(uint64_t Addr, uint32_t Count) {
    Counters.Instructions += Count;
    Counters.ITlbAccesses += Count;
    if (!ITlb.accessRun(Addr, Count))
      ++Counters.ITlbMisses;
  }

  MachineConfig Config;
  uint32_t LineShift;
  Cache L1I;
  Cache L1D;
  Cache Llc;
  Tlb ITlb;
  Tlb DTlb;
  BranchPredictor Direction;
  TargetPredictor Indirect;
  TargetPredictor Btb;
  PerfCounters Counters;
};

} // namespace jumpstart::sim

#endif // JUMPSTART_SIM_MACHINE_H
