//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle: executes generated programs under a matrix of
/// server configurations -- interpreter-only, the reference interpreter,
/// JIT tier-by-tier, cold boot vs Jump-Start consumer boot from a
/// seeder-published package, layout optimization flags on/off, host
/// compile pool 1/N -- and checks that
///
///  (a) every configuration produces identical observable results per
///      request (return value, printed output, fault count, abort flag);
///  (b) configurations that promise byte-identical determinism (the
///      `--threads` axis) produce identical placement/metrics digests;
///  (c) any mismatch is shrunk to a minimal reproducer and written, with
///      the offending config pair, to a repro/ artifact directory.
///
/// This is the executable form of the paper's core claim that Jump-Start
/// is semantically invisible: a consumer booted from a shared profile
/// package must behave exactly like one that warmed up on its own.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_TESTING_DIFFRUNNER_H
#define JUMPSTART_TESTING_DIFFRUNNER_H

#include "fleet/WorkloadGen.h"
#include "support/Status.h"
#include "testing/ProgramGen.h"
#include "vm/Server.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jumpstart::testing {

/// One cell of the configuration matrix.
struct ExecConfig {
  std::string Name;
  enum class Tier : uint8_t {
    /// Bare interp::Interpreter, no server, no JIT: the cell every other
    /// cell is compared against.
    InterpOnly,
    /// Bare testing::ReferenceInterpreter: the original switch loop, an
    /// independent implementation the production interpreter must match.
    Reference,
    /// A server whose JIT never leaves the profiling tier.
    ProfileOnly,
    /// A server that reaches retranslate-all mid-schedule.
    FullJit,
  };
  Tier Mode = Tier::FullJit;
  /// Boot as a Jump-Start consumer from a seeder-published package
  /// (core::startConsumer against a real PackageManager) instead of cold.
  bool JumpStart = false;
  // Layout / optimization axes (server tiers only).
  bool UseExtTsp = true;
  bool SplitHotCold = true;
  bool UseFunctionSort = true;
  bool ReorderProperties = true;
  /// Whole-program analysis facts drive the JIT: proven guard elision,
  /// proven devirtualization and interpreter IC pre-seeding
  /// (jit::JitConfig::ProvenGuardElision).  Legitimately changes
  /// the placement digest (fewer guards lower to fewer bytes) but must
  /// never change an observable; the ablation sweep asserts the
  /// observables-only digest is identical with the flag on and off, and
  /// every run re-proves each recorded elision through
  /// analysis::lintTranslations.
  bool ProvenGuardElision = false;
  /// Host compile-pool workers (the --threads axis).  Host-only: must
  /// never change an observable or an exported byte.
  uint32_t HostThreads = 1;
  /// Test-only interpreter divergence injection, added to every integer
  /// Add result (interp::InterpOptions::TestOnlyIntAddSkew).  The oracle
  /// must catch any nonzero value as a cross-config mismatch.
  int64_t IntAddSkew = 0;
  /// When > 0, the schedule is served through a concurrent-serving
  /// window (vm::Server::serve) by this many closed-loop client threads
  /// over as many execution contexts, instead of serially.  Host-only
  /// by contract: per-request observables and the determinism digest
  /// must match any other thread count -- the "serve" digest group in
  /// serveMatrix() asserts 1 vs N byte-for-byte.
  uint32_t ServeThreads = 0;
  /// Configs sharing a non-empty group must produce byte-identical
  /// determinism digests (how the --threads promise is asserted).
  std::string DigestGroup;
};

/// The full matrix (every tier, Jump-Start on/off, each layout flag
/// toggled, threads 1/4) and the smaller smoke matrix CI runs.
std::vector<ExecConfig> fullMatrix();
std::vector<ExecConfig> smokeMatrix();
/// The concurrent-serving matrix: the interpreter reference plus
/// Jump-Start-booted servers serving through 1 and N client threads,
/// digest-grouped so the thread-count axis is asserted byte-identical.
std::vector<ExecConfig> serveMatrix(uint32_t Threads = 4);
/// The injected-divergence config for harness self-tests.
ExecConfig skewConfig();

/// One configuration's run over one program.
struct RunTrace {
  std::vector<vm::RequestObservables> Requests;
  /// Determinism digest: translation placement plus exported metrics
  /// (empty for the bare-interpreter tiers).
  std::string Digest;
  bool BootedJumpStart = false;
  /// First elision-re-proof failure from analysis::lintTranslations
  /// (ProvenGuardElision cells only; "" when every elision re-proved).
  std::string ElisionLint;
};

/// One verified divergence between two configurations.
struct Mismatch {
  uint64_t ProgramSeed = 0;
  std::string ConfigA;
  std::string ConfigB;
  /// First observed difference, human-readable.
  std::string What;
  std::string Source;
  /// Delta-debugged minimal reproducer (== Source when shrinking is off).
  std::string Shrunk;
  size_t ShrunkLines = 0;
  /// Where the reproducer was written ("" when no ReproDir was set).
  std::string ArtifactPath;
};

/// Sweep parameters.
struct DiffParams {
  /// Sweep seed: program I uses seed Seed * 1000003 + I.
  uint64_t Seed = 1;
  uint32_t NumPrograms = 50;
  /// Requests served per configuration (round-robin over endpoints with
  /// a deterministic argument stream).
  uint32_t RequestsPerProgram = 24;
  /// Configuration matrix; empty selects smokeMatrix().
  std::vector<ExecConfig> Matrix;
  /// Delta-debug mismatches down to minimal reproducers.
  bool Shrink = true;
  /// Directory for reproducer artifacts ("" writes nothing).
  std::string ReproDir;
};

/// Sweep outcome.
struct DiffStats {
  uint32_t Programs = 0;
  uint32_t Runs = 0;
  uint32_t JumpStartBoots = 0;
  uint32_t DigestComparisons = 0;
  std::vector<Mismatch> Mismatches;
  /// FNV-1a over every program source, observable and digest.  Re-running
  /// the same sweep must reproduce it bit-for-bit; ci/check.sh and the
  /// tier-2 sweep enforce that.
  uint64_t SweepDigest = 0;
  /// FNV-1a over program sources and per-request observables only -- no
  /// config names, no placement/metrics digests.  Two sweeps over the
  /// same programs whose matrices differ only in host- or
  /// placement-level axes (ProvenGuardElision on vs off) must produce
  /// the identical ObsDigest even though their SweepDigests differ.
  uint64_t ObsDigest = 0;
};

class DiffRunner {
public:
  explicit DiffRunner(DiffParams Params);

  /// Runs the whole sweep.
  DiffStats run();

  /// Diffs one program across the matrix, accumulating into \p Stats
  /// (used by the corpus replayer and by run()).
  void checkProgram(const GenProgram &Prog, uint64_t ProgramSeed,
                    DiffStats &Stats);

  /// Compiles \p Source into \p W (repo + endpoint list).  Fails when the
  /// frontend rejects it, the verifier rejects it, or no endpoint
  /// function exists.
  static support::Status compileProgram(const std::string &Source,
                                        fleet::Workload &W);

  /// Executes one configuration over a compiled program.
  RunTrace runConfig(const fleet::Workload &W, const ExecConfig &C) const;

  /// First semantic difference between two traces ("" when equal).
  static std::string compareTraces(const RunTrace &A, const RunTrace &B);

  const std::vector<ExecConfig> &matrix() const { return Params.Matrix; }

private:
  void recordMismatch(const GenProgram &Prog, uint64_t ProgramSeed,
                      const ExecConfig &A, const ExecConfig &B,
                      std::string What, bool DigestOnly, DiffStats &Stats);

  DiffParams Params;
};

} // namespace jumpstart::testing

#endif // JUMPSTART_TESTING_DIFFRUNNER_H
