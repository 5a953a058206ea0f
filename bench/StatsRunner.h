//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared `--stats` and `--check-against SNAPSHOT` plumbing of the
/// bench binaries.
///
/// micro_interp, server_load, and package_lifecycle all speak the same
/// statistical dialect: run the benchmark N times with distinct seeds,
/// record a deterministic per-iteration metric series for each run, feed
/// the series through the stats/ changepoint classifier, and emit one
/// `stats` JSON block (and one counters line) into their snapshot
/// outputs.  This header holds the CLI parsing, the renderings and the
/// snapshot check, so the three binaries cannot drift apart in format.
///
/// Determinism contract: every metric fed through here is derived from
/// deterministic quantities (host allocation counters, virtual-clock
/// seconds), the analysis is RNG-free, and the bootstrap uses a fixed
/// explicit seed -- so two runs of the same binary produce byte-identical
/// stats blocks.  That is what lets checkSnapshot() demand that a fresh
/// run's deterministic blocks appear verbatim in the committed
/// BENCH_*.json; host-time fields are reported there and never checked.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_BENCH_STATSRUNNER_H
#define JUMPSTART_BENCH_STATSRUNNER_H

#include "stats/Warmup.h"
#include "support/StringUtil.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace jumpstart::bench {

/// Parsed `--stats seeds=N,iters=M` request.  The defaults are the spec
/// the committed micro_interp and server_load snapshots use, so a bare
/// `--stats` reproduces them.
struct StatsCliOptions {
  bool Enabled = false;
  /// Distinct-seed repetitions of the benchmark.
  uint32_t Seeds = 5;
  /// Iterations (metric samples) per repetition.
  uint32_t Iters = 30;
};

/// Parses a `--stats` spec: comma-separated `seeds=N` / `iters=M` in
/// either order, both optional (defaults above).  \returns false on a
/// malformed spec.  An empty spec is valid and keeps the defaults.
inline bool parseStatsSpec(std::string_view Spec, StatsCliOptions &Out) {
  Out.Enabled = true;
  if (Spec.empty())
    return true;
  for (const std::string &Field : splitString(Spec, ',')) {
    size_t Eq = Field.find('=');
    if (Eq == std::string::npos)
      return false;
    std::string Key = Field.substr(0, Eq);
    std::string Digits = Field.substr(Eq + 1);
    char *End = nullptr;
    unsigned long Value = std::strtoul(Digits.c_str(), &End, 10);
    if (Digits.empty() || End != Digits.c_str() + Digits.size() || Value == 0)
      return false;
    if (Key == "seeds")
      Out.Seeds = static_cast<uint32_t>(Value);
    else if (Key == "iters")
      Out.Iters = static_cast<uint32_t>(Value);
    else
      return false;
  }
  return true;
}

/// Renders the `stats` block as a JSON object member: `"stats": {...}`,
/// indented by \p Indent, no trailing comma or newline.  The scalar
/// summary fields share one line; each per-seed run gets its own line.
inline std::string statsBlockJson(const std::string &Metric,
                                  const StatsCliOptions &O,
                                  const stats::StatsSummary &S,
                                  const std::string &Indent = "  ") {
  std::string Out;
  Out += Indent + "\"stats\": {\n";
  Out += Indent +
         strFormat("  \"metric\": \"%s\", \"seeds\": %u, \"iters\": %u, "
                   "\"worst_class\": \"%s\", \"steady_mean\": %.6f, "
                   "\"steady_ci_lo\": %.6f, \"steady_ci_hi\": %.6f, "
                   "\"steady_start_mean\": %.6f,\n",
                   Metric.c_str(), O.Seeds, O.Iters,
                   stats::warmupClassName(S.WorstClass), S.SteadyCI.Mean,
                   S.SteadyCI.Lo, S.SteadyCI.Hi, S.SteadyStartMean);
  Out += Indent +
         strFormat("  \"classes\": {\"flat\": %u, \"warmup\": %u, "
                   "\"slowdown\": %u, \"inconsistent\": %u},\n",
                   S.Tally[0], S.Tally[1], S.Tally[2], S.Tally[3]);
  Out += Indent + "  \"runs\": [\n";
  for (size_t I = 0; I < S.Runs.size(); ++I) {
    const stats::RunAnalysis &Run = S.Runs[I];
    std::string Cps;
    for (size_t C = 0; C < Run.C.Seg.Changepoints.size(); ++C)
      Cps += strFormat("%s%zu", C ? ", " : "", Run.C.Seg.Changepoints[C]);
    Out += Indent +
           strFormat("    {\"seed\": %llu, \"class\": \"%s\", "
                     "\"steady_start\": %zu, \"steady_mean\": %.6f, "
                     "\"changepoints\": [%s]}%s\n",
                     static_cast<unsigned long long>(Run.Seed),
                     stats::warmupClassName(Run.C.Class), Run.C.SteadyStart,
                     Run.C.SteadyMean, Cps.c_str(),
                     I + 1 < S.Runs.size() ? "," : "");
  }
  Out += Indent + "  ]\n";
  Out += Indent + "}";
  return Out;
}

/// One-line rendering of the same summary for the deterministic
/// `--counters` files.
inline std::string statsCountersLine(const std::string &Metric,
                                     const stats::StatsSummary &S) {
  return strFormat("stats_%s worst_class=%s flat=%u warmup=%u slowdown=%u "
                   "inconsistent=%u steady_mean=%.6f steady_ci_lo=%.6f "
                   "steady_ci_hi=%.6f steady_start_mean=%.6f\n",
                   Metric.c_str(), stats::warmupClassName(S.WorstClass),
                   S.Tally[0], S.Tally[1], S.Tally[2], S.Tally[3],
                   S.SteadyCI.Mean, S.SteadyCI.Lo, S.SteadyCI.Hi,
                   S.SteadyStartMean);
}

/// Writes \p Text to \p Path, exiting with status 1 if it cannot.
inline void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  if (!(Out << Text)) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    std::exit(1);
  }
}

/// One deterministic part of a snapshot, rendered by the same function
/// that writes it under `--json`.
struct SnapshotBlock {
  /// Named in the mismatch report.
  std::string Name;
  std::string Text;
  /// The block is the entire file (a snapshot with no host-time fields),
  /// so it must equal the file rather than occur in it.
  bool WholeFile = false;
};

/// `--check-against SNAPSHOT`: \returns 0 only if every block occurs
/// verbatim in the file at \p Path (or is the file, for a WholeFile
/// block), and 1 otherwise.  A missing file or an empty block list fails
/// too, so the check never passes vacuously.
/// The mismatch report names the first missing block, prints this run's
/// rendering of it, and names the command that rewrites the snapshot
/// (\p Regenerate, a `bench/run_bench.sh` invocation).
inline int checkSnapshot(const std::string &Path,
                         const std::vector<SnapshotBlock> &Blocks,
                         const char *Regenerate) {
  if (Blocks.empty()) {
    std::fprintf(stderr, "snapshot check: no deterministic blocks to check "
                         "against %s\n", Path.c_str());
    return 1;
  }
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "snapshot check: cannot read %s\n", Path.c_str());
    return 1;
  }
  std::string Snapshot{std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>()};
  for (const SnapshotBlock &B : Blocks) {
    if (B.WholeFile ? Snapshot == B.Text
                    : Snapshot.find(B.Text) != std::string::npos)
      continue;
    std::fprintf(stderr,
                 "snapshot mismatch: %s lacks this run's \"%s\" block:\n%s\n"
                 "If the change is intended, regenerate the snapshot with "
                 "`%s` and say why in the change.\n",
                 Path.c_str(), B.Name.c_str(), B.Text.c_str(), Regenerate);
    return 1;
  }
  std::printf("snapshot ok: %zu block(s) match %s\n", Blocks.size(),
              Path.c_str());
  return 0;
}

} // namespace jumpstart::bench

#endif // JUMPSTART_BENCH_STATSRUNNER_H
