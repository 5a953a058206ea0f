//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JIT debugging via profile replay -- the paper's section III, reason 4:
/// "If a collected profile triggers a JIT bug, compiler engineers can use
/// that to replay and step through the execution of the JIT."
///
/// This example plays the compiler engineer: it takes a serialized
/// profile package (as stored in the problematic-data database), reloads
/// it into a fresh JIT, and deterministically replays tier-2 compilation
/// of the hottest function -- dumping the bytecode, the profile the JIT
/// saw, the region/inlining decisions, and the final block layout.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Disasm.h"
#include "fleet/ServerSim.h"
#include "jit/Jit.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cstdio>

using namespace jumpstart;

int main() {
  // A "production" seeder collected this package...
  fleet::WorkloadParams WP;
  WP.NumHelpers = 200;
  WP.NumClasses = 24;
  WP.NumEndpoints = 16;
  WP.NumUnits = 16;
  auto W = fleet::generateWorkload(WP);
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 42);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 100;
  Config.Jit.SeederInstrumentation = true;
  auto Seeder = fleet::runSeeder(*W, Traffic, Config, 0, 0, 200, 9);
  std::vector<uint8_t> Blob =
      Seeder->buildSeederPackage(0, 0, 1).serialize();
  std::printf("replaying a %zu-byte profile package from the problem "
              "database\n\n", Blob.size());

  // ... and the engineer replays it offline.
  profile::ProfilePackage Pkg;
  if (!profile::ProfilePackage::deserialize(Blob, Pkg)) {
    std::printf("package is corrupt\n");
    return 1;
  }

  // Pick the hottest profiled function.
  const profile::FuncProfile *Hot = nullptr;
  for (const profile::FuncProfile &F : Pkg.Funcs)
    if (!Hot || F.totalSamples() > Hot->totalSamples())
      Hot = &F;
  if (!Hot) {
    std::printf("package has no profiles\n");
    return 1;
  }
  bc::FuncId F(Hot->Func);
  const bc::Function &Func = W->Repo.func(F);
  std::printf("hottest function: %s (%llu samples, %llu entries)\n",
              Func.Name.c_str(),
              static_cast<unsigned long long>(Hot->totalSamples()),
              static_cast<unsigned long long>(Hot->EntryCount));

  std::printf("\n--- bytecode ---\n%s",
              bc::disasmFunction(W->Repo, Func).c_str());

  std::printf("\n--- tier-1 block counters ---\n");
  for (size_t B = 0; B < Hot->BlockCounts.size(); ++B)
    std::printf("  B%-3zu %llu\n", B,
                static_cast<unsigned long long>(Hot->BlockCounts[B]));

  if (!Hot->CallTargets.empty()) {
    std::printf("\n--- call-target profiles ---\n");
    for (const auto &[Site, Targets] : Hot->CallTargets)
      for (const auto &[Callee, Count] : Targets)
        std::printf("  instr %-4u -> %-28s x%llu\n", Site,
                    W->Repo.func(bc::FuncId(Callee)).Name.c_str(),
                    static_cast<unsigned long long>(Count));
  }

  // Replay tier-2 compilation deterministically.
  jit::Jit Replay(W->Repo, jit::JitConfig());
  Replay.startConsumerPrecompile(Pkg);
  while (Replay.hasPendingWork())
    Replay.runJitWork(1e9);
  const jit::Translation *T = Replay.transDb().best(F);
  if (!T || T->Kind != jit::TransKind::Optimized) {
    std::printf("\nreplay produced no optimized translation\n");
    return 1;
  }

  std::printf("\n--- replayed tier-2 compilation ---\n");
  std::printf("optimized translation: %u Vasm blocks, %u bytes, "
              "%.2f cost-units/bytecode\n",
              static_cast<unsigned>(T->Unit->Blocks.size()),
              T->Unit->sizeBytes(), T->CostPerBytecode);
  if (!T->Unit->inlined().empty()) {
    std::printf("inlined callees:");
    for (const jit::BlockRange &G : T->Unit->inlined())
      std::printf(" %s", W->Repo.func(G.Func).Name.c_str());
    std::printf("\n");
  }

  std::printf("\n--- final block placement (address order) ---\n");
  std::vector<uint32_t> ByAddr(T->Unit->Blocks.size());
  for (uint32_t B = 0; B < ByAddr.size(); ++B)
    ByAddr[B] = B;
  std::sort(ByAddr.begin(), ByAddr.end(), [&](uint32_t A, uint32_t B) {
    return T->BlockAddrs[A] < T->BlockAddrs[B];
  });
  for (uint32_t B : ByAddr) {
    const jit::VBlock &VB = T->Unit->Blocks[B];
    std::printf("  0x%08llx  vasm-block %-4u %3u bytes, weight %llu%s\n",
                static_cast<unsigned long long>(T->BlockAddrs[B]), B,
                VB.sizeBytes(),
                static_cast<unsigned long long>(VB.Weight),
                VB.Weight == 0 ? "  (cold)" : "");
  }
  std::printf("\nthe replay is deterministic: rerunning this tool "
              "reproduces the same compilation, which is how profile-"
              "triggered JIT bugs are bisected offline\n");
  return 0;
}
