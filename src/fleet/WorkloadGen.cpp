//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "fleet/WorkloadGen.h"

#include "bytecode/Verifier.h"
#include "frontend/Compiler.h"
#include "runtime/Builtins.h"
#include "support/Assert.h"
#include "support/Hashing.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <map>

using namespace jumpstart;
using namespace jumpstart::fleet;

namespace {

/// Zipf exponent of helper hotness; small = flat (paper: "very flat
/// execution profile").
constexpr double kFlatness = 0.45;
/// Average helpers called directly per endpoint.
constexpr uint32_t kCallsPerEndpoint = 14;

/// Drift per release: endpoints renamed, endpoints split, endpoints
/// added.  Every release also rotates each partition's hot helper slice
/// by one partition.
constexpr uint32_t kRenamesPerRelease = 2;
constexpr uint32_t kSplitsPerRelease = 1;
constexpr uint32_t kAddsPerRelease = 1;

/// The cumulative mutation set implied by DriftParams, resolved to
/// concrete endpoint ids.  Built from its own RNG stream (never the site
/// writer's), so everything the plan leaves alone is emitted with the
/// exact release-0 bytes.
struct DriftPlan {
  /// Endpoint id -> release of its most recent rename.
  std::map<uint32_t, uint32_t> RenameRelease;
  /// Endpoint id -> release that split it (first split wins; a split
  /// endpoint keeps its tail function in every later release).
  std::map<uint32_t, uint32_t> SplitRelease;
  /// Endpoints added since release 0 (ids NumEndpoints..+NumAdded-1).
  uint32_t NumAdded = 0;
  /// Hot-slice rotation applied to every partition.
  uint32_t Rotation = 0;
};

DriftPlan buildDriftPlan(const WorkloadParams &P, const DriftParams &D) {
  DriftPlan Plan;
  for (uint32_t Rel = 1; Rel <= D.Release; ++Rel) {
    Rng DR(hashCombine(D.DriftSeed, Rel));
    for (uint32_t I = 0; I < kRenamesPerRelease; ++I)
      Plan.RenameRelease[static_cast<uint32_t>(
          DR.nextBelow(P.NumEndpoints))] = Rel;
    for (uint32_t I = 0; I < kSplitsPerRelease; ++I)
      Plan.SplitRelease.emplace(
          static_cast<uint32_t>(DR.nextBelow(P.NumEndpoints)), Rel);
    Plan.NumAdded += kAddsPerRelease;
  }
  Plan.Rotation = D.Release % P.NumPartitions;
  return Plan;
}

/// Emits the source text of the synthetic site.
class SiteWriter {
public:
  SiteWriter(const WorkloadParams &P, const DriftParams &D,
             const DriftPlan &Plan, Rng &R)
      : P(P), D(D), Plan(Plan), R(R) {}

  std::vector<frontend::SourceFile> write();

  /// Endpoint function names in endpoint-id order.
  std::vector<std::string> EndpointNames;

private:
  std::string className(uint32_t I) const { return strFormat("K%u", I); }
  std::string helperName(uint32_t I) const { return strFormat("h%u", I); }

  void writeClass(std::string &Out, uint32_t I);
  void writeHelper(std::string &Out, uint32_t I);
  void writeEndpoint(std::string &Out, uint32_t I, Rng &Rand);

  /// Helpers below this index are "common" (reachable from the endpoint
  /// mixes); the rest are rare-path helpers only reached behind
  /// low-probability request guards -- the long tail that keeps the live
  /// JIT busy until Figure 1's point D.
  uint32_t numCommon() const { return P.NumHelpers - P.NumHelpers / 8; }

  /// A deterministic "random" helper callee for caller \p I: always a
  /// higher-numbered helper, keeping the call graph acyclic and call
  /// chains index-local (which gives C3 a real signal).  Common helpers
  /// only call common helpers; rare helpers chain among themselves.
  uint32_t calleeFor(uint32_t I) {
    uint32_t Limit = I < numCommon() ? numCommon() : P.NumHelpers;
    uint32_t Lo = I + 1;
    uint32_t Hi = std::min(I + 40, Limit - 1);
    if (Lo >= Hi)
      return P.NumHelpers; // sentinel: no callee available
    return Lo + static_cast<uint32_t>(R.nextBelow(Hi - Lo + 1));
  }

  /// Arity of helper \p I (decided once, consulted by all call sites).
  uint32_t helperArity(uint32_t I) const { return (I % 5 == 2) ? 2 : 1; }

  /// Root class of the family containing class \p I.  Families are
  /// groups of kFamilySize consecutive classes; the first is the root.
  static constexpr uint32_t kFamilySize = 6;
  uint32_t familyRoot(uint32_t I) const { return I - (I % kFamilySize); }

  const WorkloadParams &P;
  const DriftParams &D;
  const DriftPlan &Plan;
  Rng &R;
};

void SiteWriter::writeClass(std::string &Out, uint32_t I) {
  uint32_t Root = familyRoot(I);
  bool IsRoot = I == Root;
  uint32_t NumProps = 4 + I % 5; // 4..8 own properties
  Out += strFormat("class %s", className(I).c_str());
  if (!IsRoot)
    Out += strFormat(" extends %s", className(Root).c_str());
  Out += " {\n";
  // Own properties.  Declared order deliberately interleaves hot and
  // cold names (methods below touch the even-indexed ones far more), so
  // profile-driven reordering has something to gain.
  for (uint32_t Pr = 0; Pr < NumProps; ++Pr)
    Out += strFormat("  prop $f%u_%u;\n", I, Pr);

  // An initializer writing the hot (even-indexed) properties.  Cold
  // properties stay null until the rare audit path touches them --
  // partially-initialized objects are the normal case in web code, and
  // they are what makes property placement matter for data locality
  // (paper section V-C).
  Out += strFormat("  method init%s($s) {\n", IsRoot ? "" : "x");
  for (uint32_t Pr = 0; Pr < NumProps; Pr += 2)
    Out += strFormat("    $this->f%u_%u = $s + %u;\n", I, Pr, Pr * 3 + 1);
  Out += "    return $this;\n  }\n";

  // compute(): declared on roots, overridden by children -- the virtual
  // dispatch surface.  Hot property reads hit even slots repeatedly.
  Out += "  method compute($x) {\n";
  Out += "    $acc = $x;\n";
  uint32_t Reps = 2 + I % 3;
  for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
    uint32_t HotProp = (Rep * 2) % NumProps; // even-index props are hot
    Out += strFormat("    $acc = $acc + $this->f%u_%u * %u;\n", I, HotProp,
                     Rep + 1);
  }
  if (!IsRoot) // children diverge from the root's behaviour
    Out += strFormat("    $acc = $acc %% %u + $this->f%u_0;\n",
                     1009 + I, I);
  Out += "    return $acc;\n  }\n";

  // A rarely-called method touching the odd (cold) properties, so they
  // are not dead weight the verifier would flag.
  Out += "  method audit() {\n    $t = 0;\n";
  for (uint32_t Pr = 1; Pr < NumProps; Pr += 2)
    Out += strFormat("    $t = $t + $this->f%u_%u;\n", I, Pr);
  Out += "    return $t;\n  }\n";
  Out += "}\n";
}

void SiteWriter::writeHelper(std::string &Out, uint32_t I) {
  uint32_t Arity = helperArity(I);
  uint32_t Shape = static_cast<uint32_t>(R.nextBelow(7));
  const char *Params = Arity == 2 ? "$x, $y" : "$x";
  Out += strFormat("function %s(%s) {\n", helperName(I).c_str(), Params);

  auto EmitCall = [&](const char *ArgExpr) {
    uint32_t Callee = calleeFor(I);
    if (Callee >= P.NumHelpers) {
      Out += strFormat("  $c = %s;\n", ArgExpr);
      return;
    }
    if (helperArity(Callee) == 2)
      Out += strFormat("  $c = %s(%s, %u);\n",
                       helperName(Callee).c_str(), ArgExpr, I % 13);
    else
      Out += strFormat("  $c = %s(%s);\n", helperName(Callee).c_str(),
                       ArgExpr);
  };

  switch (Shape) {
  case 0: { // arithmetic loop
    uint32_t Iters = 4 + I % 9;
    Out += strFormat("  $acc = $x; $i = 0;\n"
                     "  while ($i < %u) {\n"
                     "    $acc = ($acc * 3 + $i) %% 65537;\n"
                     "    $i = $i + 1;\n"
                     "  }\n",
                     Iters);
    EmitCall("$acc");
    Out += "  return $acc + $c;\n";
    break;
  }
  case 1: { // string building
    Out += "  $s = \"r\";\n"
           "  $i = 0;\n"
           "  while ($i < 4) {\n"
           "    $s = $s . to_str($x + $i);\n"
           "    $i = $i + 1;\n"
           "  }\n";
    EmitCall("strlen($s)");
    Out += "  return strlen($s) + $c;\n";
    break;
  }
  case 2: { // vec traversal
    Out += strFormat("  $v = vec[%u, %u, %u];\n", I % 7, I % 11, I % 13);
    Out += "  $i = 0;\n"
           "  while ($i < 5) {\n"
           "    $v[3] = ($x + $i) % 97;\n"
           "    $i = $i + 1;\n"
           "  }\n"
           "  $t = $v[0] + $v[1] + $v[2] + $v[3];\n";
    EmitCall("$t");
    Out += "  return $t + $c;\n";
    break;
  }
  case 3: { // dict use
    Out += strFormat("  $d = dict[\"a\" => $x, \"b\" => %u];\n", I % 19);
    Out += "  $d[\"c\"] = $d[\"a\"] + $d[\"b\"];\n"
           "  if ($d[\"c\"] > 50) { $d[\"c\"] = $d[\"c\"] % 50; }\n";
    EmitCall("$d[\"c\"]");
    Out += "  return $d[\"c\"] + $c;\n";
    break;
  }
  case 4: { // object use, monomorphic receiver
    uint32_t Cls = I % P.NumClasses;
    bool Root = Cls == familyRoot(Cls);
    Out += strFormat("  $o = new %s();\n", className(Cls).c_str());
    Out += strFormat("  $o->init%s($x);\n", Root ? "" : "x");
    Out += "  $t = $o->compute($x);\n";
    EmitCall("$t");
    Out += "  return $t + $c;\n";
    break;
  }
  case 5: { // polymorphic receiver: class picked by data
    uint32_t Fam = familyRoot(I % P.NumClasses);
    uint32_t Child1 = std::min(Fam + 1, P.NumClasses - 1);
    uint32_t Child2 = std::min(Fam + 2, P.NumClasses - 1);
    Out += strFormat("  if ($x %% 2 == 0) { $o = new %s(); $o->init($x); }\n",
                     className(Fam).c_str());
    Out += strFormat("  else { if ($x %% 3 == 0) { $o = new %s(); "
                     "$o->initx($x); } else { $o = new %s(); "
                     "$o->initx($x); } }\n",
                     className(Child1).c_str(), className(Child2).c_str());
    Out += "  $t = $o->compute($x % 31);\n";
    EmitCall("$t");
    Out += "  return $t + $c;\n";
    break;
  }
  default: { // branching + chained calls
    Out += "  if ($x % 3 == 0) {\n"
           "    $r = $x * 2 + 1;\n"
           "  } else {\n"
           "    $r = $x - 1;\n"
           "    if ($r < 0) { $r = 0 - $r; }\n"
           "  }\n";
    EmitCall("$r");
    Out += "  return $r + $c;\n";
    break;
  }
  }
  Out += "}\n";
}

void SiteWriter::writeEndpoint(std::string &Out, uint32_t E, Rng &Rand) {
  uint32_t Partition = E % P.NumPartitions;
  std::string Name = strFormat("endpoint_%u", E);
  auto Renamed = Plan.RenameRelease.find(E);
  if (Renamed != Plan.RenameRelease.end())
    Name = strFormat("endpoint_%u_r%u", E, Renamed->second);
  EndpointNames.push_back(Name);
  Out += strFormat("function %s($req) {\n", Name.c_str());
  Out += "  $acc = 0;\n";

  // The partition's helper slice plus the shared global head (both drawn
  // from the common range; rare helpers are only reachable through the
  // guarded calls below).  Drift rotates which slice is hot without
  // touching any code.
  uint32_t Common = numCommon();
  uint32_t SliceSize = Common / P.NumPartitions;
  uint32_t SliceBase =
      ((Partition + Plan.Rotation) % P.NumPartitions) * SliceSize;
  ZipfDistribution SliceDist(SliceSize, kFlatness);
  ZipfDistribution HeadDist(std::min<uint32_t>(Common, 64), kFlatness);

  // Call lines are generated up-front (one fixed draw sequence per
  // endpoint regardless of drift) and only then routed into either the
  // endpoint body or its split-off tail function.
  std::vector<std::string> Calls;
  for (uint32_t C = 0; C < kCallsPerEndpoint; ++C) {
    uint32_t Helper;
    if (Rand.nextBool(0.7))
      Helper = SliceBase + static_cast<uint32_t>(SliceDist.sample(Rand));
    else
      Helper = static_cast<uint32_t>(HeadDist.sample(Rand));
    Helper = std::min(Helper, Common - 1);

    // Argument type varies by endpoint parity: some endpoints feed
    // doubles into the same helpers others feed ints -- cross-endpoint
    // type pollution, which semantic routing (and per-bucket profiles)
    // mitigates in production.
    std::string Arg;
    if (E % 4 == 3 && C % 3 == 0)
      Arg = strFormat("($req * 1.5 + %u)", C);
    else
      Arg = strFormat("($req + %u)", C * 7 + 1);
    if (helperArity(Helper) == 2)
      Calls.push_back(strFormat("  $acc = $acc + %s(%s, $req %% 11);\n",
                                helperName(Helper).c_str(), Arg.c_str()));
    else
      Calls.push_back(strFormat("  $acc = $acc + %s(%s);\n",
                                helperName(Helper).c_str(), Arg.c_str()));
  }

  // A split endpoint keeps the first half of its helper calls and moves
  // the rest into a tail function (emitted after the endpoint, below):
  // the endpoint's body -- and so its block structure and basic-block
  // counts -- genuinely changes across the release.
  auto Split = Plan.SplitRelease.find(E);
  size_t InMain = Calls.size();
  std::string TailName;
  if (Split != Plan.SplitRelease.end() && Calls.size() >= 2) {
    InMain = Calls.size() / 2;
    TailName = strFormat("tail_%u_r%u", E, Split->second);
  }
  for (size_t C = 0; C < InMain; ++C)
    Out += Calls[C];
  if (!TailName.empty())
    Out += strFormat("  $acc = $acc + %s($req);\n", TailName.c_str());

  // Rare code paths: each endpoint calls a couple of tail helpers behind
  // low-probability request guards.  These functions are almost never
  // seen during a profiling window, so they reach the JIT through the
  // tracelet (live) path well after optimized code is in place -- the
  // C..D tail of the paper's Figure 1.
  if (P.NumHelpers / 8 > 0) {
    uint32_t RareBase = numCommon();
    uint32_t RareCount = P.NumHelpers - RareBase;
    for (uint32_t G = 0; G < 2; ++G) {
      uint32_t Modulus = 113 + (E * 7 + G * 13) % 97; // 113..209
      uint32_t Residue = (E * 31 + G * 17) % Modulus;
      uint32_t Rare = RareBase + (E * 2 + G) % RareCount;
      std::string Arg = strFormat("($req + %u)", G);
      std::string Call;
      if (helperArity(Rare) == 2)
        Call = strFormat("%s(%s, 3)", helperName(Rare).c_str(),
                         Arg.c_str());
      else
        Call = strFormat("%s(%s)", helperName(Rare).c_str(), Arg.c_str());
      Out += strFormat("  if ($req %% %u == %u) { $acc = $acc + %s; }\n",
                       Modulus, Residue, Call.c_str());
    }
  }

  // Some endpoint-local work with request-dependent branching.
  Out += "  if ($req % 5 == 0) {\n"
         "    $s = \"resp:\" . to_str($acc);\n"
         "    $acc = $acc + strlen($s);\n"
         "  }\n";
  Out += "  return $acc;\n}\n";

  if (!TailName.empty()) {
    Out += strFormat("function %s($req) {\n  $acc = 0;\n",
                     TailName.c_str());
    for (size_t C = InMain; C < Calls.size(); ++C)
      Out += Calls[C];
    Out += "  return $acc;\n}\n";
  }
}

std::vector<frontend::SourceFile> SiteWriter::write() {
  std::vector<frontend::SourceFile> Files;
  alwaysAssert(P.NumUnits >= 3, "need at least 3 units");
  alwaysAssert(P.NumHelpers >= P.NumPartitions * 4,
               "too few helpers for the partition count");
  alwaysAssert(P.NumClasses >= kFamilySize,
               "need at least one full class family");

  // Units: classes first, then helpers, then endpoints, spread evenly.
  uint32_t ClassUnits = std::max(1u, P.NumUnits / 6);
  uint32_t EndpointUnits = std::max(1u, P.NumUnits / 6);
  uint32_t HelperUnits = P.NumUnits - ClassUnits - EndpointUnits;

  for (uint32_t U = 0; U < ClassUnits; ++U) {
    std::string Src;
    for (uint32_t I = U; I < P.NumClasses; I += ClassUnits)
      writeClass(Src, I);
    Files.push_back({strFormat("classes_%u.hack", U), std::move(Src)});
  }
  for (uint32_t U = 0; U < HelperUnits; ++U) {
    std::string Src;
    // Contiguous helper ranges per unit: unit locality mirrors partition
    // locality, so preload lists carry real information.
    uint32_t Begin = U * P.NumHelpers / HelperUnits;
    uint32_t End = (U + 1) * P.NumHelpers / HelperUnits;
    for (uint32_t I = Begin; I < End; ++I)
      writeHelper(Src, I);
    Files.push_back({strFormat("helpers_%u.hack", U), std::move(Src)});
  }
  for (uint32_t U = 0; U < EndpointUnits; ++U) {
    std::string Src;
    for (uint32_t E = U; E < P.NumEndpoints; E += EndpointUnits)
      writeEndpoint(Src, E, R);
    if (U + 1 == EndpointUnits) {
      // Drift-added endpoints go at the end of the last endpoint unit.
      // Each draws from a self-seeded RNG keyed on its id, so (a) the
      // base site's draw stream is untouched and (b) an endpoint added
      // in release N has the identical body in every later release.
      for (uint32_t A = 0; A < Plan.NumAdded; ++A) {
        uint32_t E = P.NumEndpoints + A;
        Rng AddRng(hashCombine(hashCombine(D.DriftSeed, 0x616464ull), E));
        writeEndpoint(Src, E, AddRng);
      }
    }
    Files.push_back({strFormat("endpoints_%u.hack", U), std::move(Src)});
  }
  // writeEndpoint appended names in unit-interleaved order; re-sort them
  // back to endpoint-id order.
  std::sort(EndpointNames.begin(), EndpointNames.end(),
            [](const std::string &A, const std::string &B) {
              auto Num = [](const std::string &S) {
                return std::strtoul(S.c_str() + 9, nullptr, 10);
              };
              return Num(A) < Num(B);
            });
  return Files;
}

} // namespace

std::unique_ptr<Workload>
jumpstart::fleet::generateWorkload(const WorkloadParams &P) {
  return generateDriftedWorkload(P, DriftParams{});
}

std::unique_ptr<Workload>
jumpstart::fleet::generateDriftedWorkload(const WorkloadParams &P,
                                          const DriftParams &D) {
  Rng R(P.Seed);
  auto W = std::make_unique<Workload>();
  W->NumPartitions = P.NumPartitions;

  DriftPlan Plan = buildDriftPlan(P, D);
  SiteWriter Writer(P, D, Plan, R);
  std::vector<frontend::SourceFile> Files = Writer.write();
  for (const frontend::SourceFile &F : Files)
    W->Sources.emplace_back(F.Name, F.Source);

  const runtime::BuiltinTable &Builtins = runtime::BuiltinTable::standard();
  std::vector<std::string> Errors =
      frontend::compileProgram(W->Repo, Builtins, Files);
  for (const std::string &E : Errors)
    std::fprintf(stderr, "workload compile error: %s\n", E.c_str());
  alwaysAssert(Errors.empty(), "generated workload failed to compile");

  std::vector<std::string> VerifyErrors =
      bc::verifyRepo(W->Repo, Builtins.size());
  for (const std::string &E : VerifyErrors)
    std::fprintf(stderr, "workload verify error: %s\n", E.c_str());
  alwaysAssert(VerifyErrors.empty(), "generated workload failed to verify");

  uint32_t Total = P.NumEndpoints + Plan.NumAdded;
  alwaysAssert(Writer.EndpointNames.size() == Total,
               "endpoint name bookkeeping broken");
  W->EndpointNames = Writer.EndpointNames;
  for (uint32_t E = 0; E < Total; ++E) {
    bc::FuncId F = W->Repo.findFunction(W->EndpointNames[E]);
    alwaysAssert(F.valid(), "endpoint function missing");
    W->Endpoints.push_back(F);
    W->EndpointPartition.push_back(E % P.NumPartitions);
  }
  return W;
}
