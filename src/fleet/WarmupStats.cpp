//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "fleet/WarmupStats.h"

#include "support/StringUtil.h"

using namespace jumpstart;
using namespace jumpstart::fleet;
using jumpstart::strFormat;

stats::Classification
jumpstart::fleet::classifyWarmupThroughput(const WarmupResult &R,
                                           const stats::ClassifyParams &P) {
  return stats::classifySeries(R.normalizedRps().values(), P);
}

std::string jumpstart::fleet::renderTransitionTableText(
    const std::vector<ClassTransition> &Rows) {
  std::string Out;
  Out += strFormat("  %-14s %-6s %-14s %-14s %-12s %-12s\n", "server", "seed",
                   "cold-class", "jumpstart-class", "cold-steady",
                   "js-steady");
  for (const ClassTransition &T : Rows)
    Out += strFormat("  %-14s %-6llu %-14s %-14s %-12zu %-12zu\n",
                     T.Label.c_str(), static_cast<unsigned long long>(T.Seed),
                     stats::warmupClassName(T.Cold.Class),
                     stats::warmupClassName(T.Warm.Class), T.Cold.SteadyStart,
                     T.Warm.SteadyStart);
  return Out;
}

std::string jumpstart::fleet::renderTransitionTableJson(
    const std::vector<ClassTransition> &Rows) {
  std::string Out = "{\n  \"rows\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const ClassTransition &T = Rows[I];
    Out += strFormat(
        "    {\"server\": \"%s\", \"seed\": %llu, "
        "\"cold_class\": \"%s\", \"jumpstart_class\": \"%s\", "
        "\"cold_steady_start\": %zu, \"jumpstart_steady_start\": %zu, "
        "\"cold_steady_mean\": %.6f, \"jumpstart_steady_mean\": %.6f}%s\n",
        T.Label.c_str(), static_cast<unsigned long long>(T.Seed),
        stats::warmupClassName(T.Cold.Class),
        stats::warmupClassName(T.Warm.Class), T.Cold.SteadyStart,
        T.Warm.SteadyStart, T.Cold.SteadyMean, T.Warm.SteadyMean,
        I + 1 < Rows.size() ? "," : "");
  }
  Out += "  ]\n}\n";
  return Out;
}
