//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// jslint: the static-analysis driver.
///
///   jslint [--json] <file.hack>...    compile the sources and lint them
///   jslint [--json] --workload [seed] lint a generated fleet workload
///   jslint [--json] --package <pkg> <file.hack>...
///                                     lint a profile package against the
///                                     repo compiled from the sources
///   jslint [--json] --gen <n> [seed]  soundness sweep: lint <n> generated
///                                     programs, run each on a full-JIT
///                                     server with proven-guard elision
///                                     on, and re-prove every elision the
///                                     JIT performed
///
/// Every function runs pass zero (structural verification) plus the
/// abstract-type dataflow passes; --package additionally runs the deep
/// package lint with call-graph cross-checks; --gen gates the
/// whole-program analysis (the tier-1 `jslint --gen 100 21` test) and
/// fails when the sweep elided no guard at all, because an inert
/// analysis would pass every soundness check vacuously.
///
/// --json emits one JSON object on stdout with a stable schema:
///   {"findings": [{"pass", "severity", "func", "instr", "message"}...],
///    "functions": N, "errors": N,
///    "analysis": {"call_graph_edges", "components",
///                 "recursive_components", "proven_calls", "proven_masks",
///                 "ic_seeds", "guards_elided", "ics_seeded", "programs"}}
///
/// Exit status: 0 clean (warnings allowed), 1 any error-severity
/// diagnostic (or an inert --gen sweep), 2 usage/compile failure.
///
//===----------------------------------------------------------------------===//

#include "analysis/Linter.h"
#include "core/Consumer.h"
#include "fleet/WorkloadGen.h"
#include "frontend/Compiler.h"
#include "profile/PackageIo.h"
#include "runtime/Builtins.h"
#include "support/ParseNumber.h"
#include "support/StringUtil.h"
#include "testing/DiffRunner.h"
#include "testing/ProgramGen.h"
#include "vm/Server.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace jumpstart;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: jslint [--json] <file.hack>...\n"
               "       jslint [--json] --workload [seed]\n"
               "       jslint [--json] --package <pkg-file> <file.hack>...\n"
               "       jslint [--json] --gen <num-programs> [seed]\n");
  return 2;
}

bool readFile(const char *Path, std::string &Out) {
  std::FILE *F = std::fopen(Path, "rb");
  if (!F)
    return false;
  char Buffer[64 * 1024];
  size_t N;
  while ((N = std::fread(Buffer, 1, sizeof(Buffer), F)) > 0)
    Out.append(Buffer, N);
  bool Ok = std::ferror(F) == 0;
  std::fclose(F);
  return Ok;
}

bool compileFiles(char **Paths, int Count, bc::Repo &Repo) {
  const runtime::BuiltinTable &Builtins = runtime::BuiltinTable::standard();
  for (int I = 0; I < Count; ++I) {
    std::string Source;
    if (!readFile(Paths[I], Source)) {
      std::fprintf(stderr, "jslint: cannot read '%s'\n", Paths[I]);
      return false;
    }
    std::vector<std::string> Errors =
        frontend::compileUnit(Repo, Builtins, Paths[I], Source);
    for (const std::string &E : Errors)
      std::fprintf(stderr, "%s\n", E.c_str());
    if (!Errors.empty())
      return false;
  }
  return true;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20)
        Out += strFormat("\\u%04x", C);
      else
        Out += static_cast<char>(C);
    }
  }
  return Out;
}

/// Collected output: renders human lines immediately, or accumulates the
/// JSON findings array for one final print.
class Reporter {
public:
  explicit Reporter(bool Json) : Json(Json) {}

  void add(const bc::Repo &R, const std::vector<analysis::Diagnostic> &Diags) {
    for (const analysis::Diagnostic &D : Diags) {
      if (D.Sev == analysis::Severity::Error)
        ++Errors;
      if (!Json) {
        std::printf("%s\n", D.str(&R).c_str());
        continue;
      }
      std::string Func;
      if (D.Func.valid() && D.Func.raw() < R.numFuncs())
        Func = R.func(D.Func).Name;
      int64_t Instr = D.Instr == analysis::Diagnostic::kNone
                          ? -1
                          : static_cast<int64_t>(D.Instr);
      Findings.push_back(strFormat(
          "{\"pass\": \"%s\", \"severity\": \"%s\", \"func\": \"%s\", "
          "\"instr\": %lld, \"message\": \"%s\"}",
          analysis::diagKindName(D.Kind), analysis::severityName(D.Sev),
          jsonEscape(Func).c_str(), static_cast<long long>(Instr),
          jsonEscape(D.Message).c_str()));
    }
  }

  /// A harness-level finding with no repo location (compile failures in
  /// the --gen sweep).
  void addRaw(const char *Pass, const std::string &Message) {
    ++Errors;
    if (!Json) {
      std::printf("error[%s]: %s\n", Pass, Message.c_str());
      return;
    }
    Findings.push_back(strFormat(
        "{\"pass\": \"%s\", \"severity\": \"error\", \"func\": \"\", "
        "\"instr\": -1, \"message\": \"%s\"}",
        Pass, jsonEscape(Message).c_str()));
  }

  size_t errors() const { return Errors; }
  const std::vector<std::string> &findings() const { return Findings; }

private:
  bool Json;
  size_t Errors = 0;
  std::vector<std::string> Findings;
};

/// Whole-program analysis totals for the summary/"analysis" JSON object.
struct AnalysisTotals {
  analysis::WholeProgram::Stats WP;
  uint64_t GuardsElided = 0;
  uint64_t ICsSeeded = 0;
  uint32_t Programs = 0;

  void accumulate(const analysis::WholeProgram::Stats &S) {
    WP.Functions += S.Functions;
    WP.Edges += S.Edges;
    WP.Components += S.Components;
    WP.RecursiveComponents += S.RecursiveComponents;
    WP.ProvenCalls += S.ProvenCalls;
    WP.ProvenMasks += S.ProvenMasks;
    WP.ICSeeds += S.ICSeeds;
    ++Programs;
  }
};

/// The --gen soundness sweep over one generated program: compile, run a
/// full-JIT server with proven-guard elision enabled, then re-prove every
/// elision the lowering recorded (analysis::lintTranslations).
void sweepProgram(uint64_t Seed, Reporter &Rep, AnalysisTotals &Totals) {
  testing::GenParams G;
  G.Seed = Seed;
  testing::GenProgram Prog = testing::generateProgram(G);
  fleet::Workload W;
  support::Status Compiled =
      testing::DiffRunner::compileProgram(Prog.render(), W);
  if (!Compiled.ok()) {
    Rep.addRaw("structural", strFormat("program seed %llu: %s",
                                       static_cast<unsigned long long>(Seed),
                                       Compiled.message().c_str()));
    return;
  }

  vm::ServerConfig SC;
  SC.Cores = 4;
  SC.JitWorkerCores = 1;
  SC.WarmupEndpoints.clear();
  SC.Interp.StepBudget = 2'000'000;
  SC.Jit.ProfileRequestTarget = 4;
  SC.Jit.ProvenGuardElision = true;
  core::attachProvenFacts(SC, W.Repo);
  SC.Name = "jslint-gen";
  vm::Server S(W.Repo, SC, /*Seed=*/7);
  S.startup();
  const uint32_t NumRequests = 18;
  for (uint32_t Rq = 0; Rq < NumRequests; ++Rq) {
    S.executeRequest(W.Endpoints[Rq % W.Endpoints.size()],
                     {runtime::Value::integer(static_cast<int64_t>(
                         (Rq * 2654435761ull) & 0xFFFFFull))});
    S.grantJitTime(16.0);
  }

  analysis::Linter Linter(
      W.Repo,
      static_cast<uint32_t>(runtime::BuiltinTable::standard().size()));
  Totals.accumulate(Linter.wholeProgram().stats());
  Totals.GuardsElided += S.theJit().guardsElided();
  Totals.ICsSeeded += S.icsSeeded();

  // Only elision/summary soundness gates the sweep; generated programs
  // legitimately contain always-faulting expressions (TypeError findings
  // are true positives there, asserted separately by AnalysisTest).
  std::vector<analysis::Diagnostic> Sound;
  for (analysis::Diagnostic &D :
       Linter.lintTranslations(S.theJit().transDb()))
    if (D.Sev == analysis::Severity::Error)
      Sound.push_back(std::move(D));
  Rep.add(W.Repo, Sound);
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();

  bool Json = false;
  int Arg = 1;
  if (std::strcmp(argv[Arg], "--json") == 0) {
    Json = true;
    ++Arg;
    if (Arg >= argc)
      return usage();
  }
  Reporter Rep(Json);

  auto PrintJson = [&](size_t NumFuncs, const AnalysisTotals &Totals) {
    std::printf("{\n  \"findings\": [");
    for (size_t I = 0; I < Rep.findings().size(); ++I)
      std::printf("%s\n    %s", I ? "," : "", Rep.findings()[I].c_str());
    std::printf("%s],\n", Rep.findings().empty() ? "" : "\n  ");
    std::printf("  \"functions\": %zu,\n  \"errors\": %zu,\n", NumFuncs,
                Rep.errors());
    std::printf(
        "  \"analysis\": {\"call_graph_edges\": %zu, \"components\": %zu, "
        "\"recursive_components\": %zu, \"proven_calls\": %zu, "
        "\"proven_masks\": %zu, \"ic_seeds\": %zu, \"guards_elided\": %llu, "
        "\"ics_seeded\": %llu, \"programs\": %u}\n}\n",
        Totals.WP.Edges, Totals.WP.Components, Totals.WP.RecursiveComponents,
        Totals.WP.ProvenCalls, Totals.WP.ProvenMasks, Totals.WP.ICSeeds,
        static_cast<unsigned long long>(Totals.GuardsElided),
        static_cast<unsigned long long>(Totals.ICsSeeded), Totals.Programs);
  };

  // --gen: the generated-corpus soundness sweep.
  if (std::strcmp(argv[Arg], "--gen") == 0) {
    uint32_t N = 0;
    uint64_t Seed = 1;
    if (Arg + 1 >= argc ||
        !support::parseNumber<uint32_t>(argv[Arg + 1], 1, UINT32_MAX, N)
             .ok() ||
        (Arg + 2 < argc &&
         !support::parseNumber<uint64_t>(argv[Arg + 2], 0, UINT64_MAX, Seed)
              .ok()))
      return usage();
    AnalysisTotals Totals;
    for (uint32_t I = 0; I < N; ++I)
      sweepProgram(Seed * 1'000'003ull + I, Rep, Totals);
    if (Json)
      PrintJson(0, Totals);
    else
      std::printf("jslint: %u programs, %llu guards elided, %llu ICs "
                  "seeded, %zu error(s)\n",
                  Totals.Programs,
                  static_cast<unsigned long long>(Totals.GuardsElided),
                  static_cast<unsigned long long>(Totals.ICsSeeded),
                  Rep.errors());
    if (Totals.GuardsElided == 0) {
      std::fprintf(stderr, "jslint: the sweep elided no guards (analysis "
                           "inert)\n");
      return 1;
    }
    return Rep.errors() ? 1 : 0;
  }

  const char *PackagePath = nullptr;
  std::unique_ptr<fleet::Workload> Generated;
  bc::Repo SourceRepo;
  const bc::Repo *Repo = &SourceRepo;

  if (std::strcmp(argv[Arg], "--package") == 0) {
    if (Arg + 2 >= argc)
      return usage();
    PackagePath = argv[Arg + 1];
    Arg += 2;
  }

  if (Arg < argc && std::strcmp(argv[Arg], "--workload") == 0) {
    fleet::WorkloadParams P;
    if (Arg + 1 < argc &&
        !support::parseNumber<uint64_t>(argv[Arg + 1], 0, UINT64_MAX, P.Seed)
             .ok())
      return usage();
    Generated = fleet::generateWorkload(P);
    Repo = &Generated->Repo;
  } else {
    if (Arg >= argc)
      return usage();
    if (!compileFiles(argv + Arg, argc - Arg, SourceRepo))
      return 2;
  }

  analysis::Linter Linter(
      *Repo, static_cast<uint32_t>(runtime::BuiltinTable::standard().size()));

  Rep.add(*Repo, Linter.lintRepo());

  if (PackagePath) {
    profile::ProfilePackage Pkg;
    support::Status Loaded = profile::loadPackageFile(PackagePath, Pkg);
    if (!Loaded.ok()) {
      std::fprintf(stderr, "jslint: cannot load package '%s': %s\n",
                   PackagePath, Loaded.str().c_str());
      return 1;
    }
    Rep.add(*Repo, Linter.lintPackage(Pkg, /*CrossCheckCallGraph=*/true));
  }

  AnalysisTotals Totals;
  Totals.accumulate(Linter.wholeProgram().stats());
  if (Json) {
    PrintJson(Repo->numFuncs(), Totals);
  } else {
    analysis::WholeProgram::Stats St = Linter.wholeProgram().stats();
    std::printf("jslint: %zu functions, %zu call edges, %zu components "
                "(%zu recursive), %zu proven facts, %zu error(s)\n",
                Repo->numFuncs(), St.Edges, St.Components,
                St.RecursiveComponents,
                St.ProvenCalls + St.ProvenMasks + St.ICSeeds, Rep.errors());
  }
  return Rep.errors() ? 1 : 0;
}
