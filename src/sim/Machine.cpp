//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include "support/StringUtil.h"

#include <bit>

using namespace jumpstart;
using namespace jumpstart::sim;

MachineSim::MachineSim(MachineConfig C)
    : Config(C),
      LineShift(static_cast<uint32_t>(std::countr_zero(C.L1I.LineBytes))),
      L1I(C.L1I), L1D(C.L1D), Llc(C.Llc),
      ITlb(C.ITlbEntries, C.ITlbWays, C.PageBytes),
      DTlb(C.DTlbEntries, C.DTlbWays, C.PageBytes),
      Direction(C.BranchTableSize), Indirect(C.BtbSize), Btb(C.BtbSize) {}

void MachineSim::fetch(uint64_t Addr, uint32_t SizeBytes) {
  uint64_t First = Addr >> LineShift;
  uint64_t Last = (Addr + (SizeBytes ? SizeBytes - 1 : 0)) >> LineShift;
  for (uint64_t Line = First; Line <= Last; ++Line)
    fetchLines(Line << LineShift, 1);
  fetchPages(Addr, 1);
}

void MachineSim::reset() {
  L1I.reset();
  L1D.reset();
  Llc.reset();
  ITlb.reset();
  DTlb.reset();
  Direction.reset();
  Indirect.reset();
  Btb.reset();
  Counters = PerfCounters();
}

double MachineSim::cycles() const {
  double Cycles =
      static_cast<double>(Counters.Instructions) * Config.BaseCpi;
  Cycles += static_cast<double>(Counters.BranchMisses) *
            Config.BranchMissPenalty;
  Cycles += static_cast<double>(Counters.L1IMisses + Counters.L1DMisses) *
            Config.L1MissPenalty;
  Cycles += static_cast<double>(Counters.LlcMisses) * Config.LlcMissPenalty;
  Cycles += static_cast<double>(Counters.ITlbMisses + Counters.DTlbMisses) *
            Config.TlbMissPenalty;
  return Cycles;
}

double MachineSim::ipc() const {
  double C = cycles();
  if (C <= 0)
    return 0;
  return static_cast<double>(Counters.Instructions) / C;
}

std::string MachineSim::summary() const {
  return strFormat(
      "instr=%llu cycles=%.0f ipc=%.2f brMR=%.4f l1iMR=%.4f l1dMR=%.4f "
      "llcMR=%.4f itlbMR=%.4f dtlbMR=%.4f",
      static_cast<unsigned long long>(Counters.Instructions), cycles(),
      ipc(),
      Counters.Branches
          ? static_cast<double>(Counters.BranchMisses) / Counters.Branches
          : 0.0,
      Counters.L1IAccesses
          ? static_cast<double>(Counters.L1IMisses) / Counters.L1IAccesses
          : 0.0,
      Counters.L1DAccesses
          ? static_cast<double>(Counters.L1DMisses) / Counters.L1DAccesses
          : 0.0,
      Counters.LlcAccesses
          ? static_cast<double>(Counters.LlcMisses) / Counters.LlcAccesses
          : 0.0,
      Counters.ITlbAccesses
          ? static_cast<double>(Counters.ITlbMisses) / Counters.ITlbAccesses
          : 0.0,
      Counters.DTlbAccesses
          ? static_cast<double>(Counters.DTlbMisses) / Counters.DTlbAccesses
          : 0.0);
}
