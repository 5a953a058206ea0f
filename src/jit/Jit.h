//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JIT controller: tiering policy, the retranslate-all pipeline, and
/// the Jump-Start consumer precompile path.
///
/// The controller reproduces the lifecycle behind the paper's Figure 1:
///
///   Profiling   -- requests run profiling translations; tier-1 data
///                  accumulates.  Ends after ProfileRequestTarget requests
///                  (point "A").
///   Optimizing  -- retranslate-all: every profiled function is compiled
///                  in optimized mode into temporary buffers (A..B).
///   Relocating  -- optimized translations are placed into the code cache
///                  in the function-sorted order (B..C).
///   Mature      -- all optimized code reachable; new code gets live
///                  translations until the live area fills (C..D).
///
/// A Jump-Start consumer skips Profiling entirely: it loads the package,
/// runs Optimizing and Relocating with all cores before serving (paper
/// Figure 3c).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_JIT_H
#define JUMPSTART_JIT_JIT_H

#include "bytecode/BlockCache.h"
#include "bytecode/Repo.h"
#include "jit/CodeCache.h"
#include "jit/Lower.h"
#include "jit/Region.h"
#include "jit/TransDb.h"
#include "jit/TransLayout.h"
#include "profile/ProfilePackage.h"
#include "profile/ProfileStore.h"
#include "support/Status.h"

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace jumpstart::obs {
struct Observability;
}

namespace jumpstart::jit {

/// All JIT tunables.  Field-by-field these correspond to HHVM runtime
/// options; the Jump-Start flags map to the optimizations of paper
/// section V.
struct JitConfig {
  CodeCacheConfig Cache;
  RegionParams Region;
  double TypeMonoThreshold = 0.95;

  /// Requests executed with profiling before retranslate-all fires
  /// (HHVM's ProfileRequests; point "A" of Figure 1).
  uint64_t ProfileRequestTarget = 300;

  /// Cores the *virtual* cost model assumes retranslate-all runs on
  /// (paper Figure 3c: the consumer optimizes "with all cores before
  /// serving").  0 means all of the server's cores; a positive value is
  /// clamped to the core count.  Compile wall-cost is charged as
  /// work/parallelism.  Distinct from host threading (`--threads`, the
  /// support::ThreadPool), which never changes virtual time.
  uint32_t Parallelism = 0;

  // Cost model (cost units; 1 unit ~ 1 simulated cycle).
  double InterpCostPerBytecode = 25.0;
  double ProfileCompileCostPerBytecode = 40.0;
  double LiveCompileCostPerBytecode = 30.0;
  double OptCompileCostPerBytecode = 400.0;
  double RelocateCostPerByte = 0.15;

  // Code-layout optimizations.
  bool UseExtTsp = true;
  bool SplitHotCold = true;
  /// Place optimized translations in C3 order (otherwise compile order).
  bool UseFunctionSort = true;

  /// ShareJIT comparison mode (paper section III): consumers adopt the
  /// seeder's machine code directly.  Compilation degrades to cheap
  /// relocation/patching, but the code must be compiled under sharing
  /// constraints (no inlining, no embedded absolute addresses), which
  /// costs steady-state performance -- the trade-off that made HHVM
  /// choose profile sharing instead.
  bool ShareJitMode = false;

  // Jump-Start-specific behaviour.
  /// Instrument optimized code with Vasm block and entry counters (run on
  /// seeders; paper sections V-A and V-B).
  bool SeederInstrumentation = false;
  /// Consume the package's accurate Vasm block counters for layout
  /// (section V-A optimization).
  bool UseVasmCounters = true;
  /// Consume the package's precomputed function order (section V-B /
  /// category 4).
  bool UsePackageFuncOrder = true;
  /// Also pre-compile the package's live-function list before serving
  /// (the section IV-A alternative HHVM decided against: it removes the
  /// post-start tracelet tail at the cost of longer consumer init and a
  /// much longer seeder collection window).
  bool PrecompileLiveCode = false;

  /// Act on the whole-program analysis facts below: elide guards the
  /// analysis proved redundant, devirtualize proven-monomorphic virtual
  /// sites without waiting for profile dominance, and let the harness
  /// pre-seed interpreter inline caches.  Off by default -- the
  /// DiffRunner ablation matrix compares both settings.
  bool ProvenGuardElision = false;
  /// The facts themselves (analysis::WholeProgram::jitFacts()).  Shared
  /// ownership: copied configs (server/consumer/harness) keep the facts
  /// alive for as long as any JIT consults them.
  std::shared_ptr<const ProvenFacts> Facts;
};

/// Lifecycle phase (see file header).
enum class JitPhase : uint8_t {
  Profiling,
  Optimizing,
  Relocating,
  Mature,
};

const char *jitPhaseName(JitPhase P);

/// One server's JIT.
class Jit {
public:
  Jit(const bc::Repo &R, JitConfig Config = JitConfig());

  //===--------------------------------------------------------------------===
  // Queries.
  //===--------------------------------------------------------------------===

  JitPhase phase() const { return Phase; }

  const bc::Repo &repo() const { return R; }

  /// Execution cost (cost units per bytecode) of running \p F right now.
  double execCostPerBytecode(bc::FuncId F) const;

  /// The translation \p F currently executes, or nullptr (interpreter).
  const Translation *currentTranslation(bc::FuncId F) const {
    return Db.best(F);
  }

  const TransDb &transDb() const { return Db; }
  CodeCache &codeCache() { return Cache; }
  bc::BlockCache &blockCache() { return Blocks; }
  profile::ProfileStore &profileStore() { return Store; }
  const profile::ProfileStore &profileStore() const { return Store; }
  /// Seeder-side optimized-code profile (section V data).
  profile::OptProfile &optProfile() { return OptProf; }
  /// Property-access counters ("Class::prop" -> count; section V-C).
  std::unordered_map<std::string, uint64_t> &propCounts() {
    return PropCounts;
  }
  /// Property-affinity counters ("Class::a::b" -> count; the section V-C
  /// future-work extension).
  std::unordered_map<std::string, uint64_t> &propAffinity() {
    return PropAffinity;
  }
  const JitConfig &config() const { return Config; }

  /// Total bytes of JITed code produced so far (Figure 1's y-axis):
  /// profile + live + optimized, whether placed or still in temporary
  /// buffers.  O(1): the translation database keeps running totals.
  uint64_t totalCodeBytes() const;

  /// Guards the whole-program analysis let optimized lowering skip so
  /// far (sum of VasmUnit::ElidedGuards over installed translations).
  uint64_t guardsElided() const { return Db.guardsElided(); }

  //===--------------------------------------------------------------------===
  // Events from the VM server.
  //===--------------------------------------------------------------------===

  /// A request entered \p F; may enqueue compile jobs per tiering policy.
  /// \returns currentTranslation(F), which enqueueing does not change, so
  /// a caller that needs it too does not look it up again.
  const Translation *onFuncEntered(bc::FuncId F);

  /// A request finished; advances the profiling window.
  void onRequestFinished();

  /// Force the start of retranslate-all (also fired automatically by
  /// onRequestFinished reaching ProfileRequestTarget).
  void beginRetranslateAll();

  //===--------------------------------------------------------------------===
  // Background compilation.
  //===--------------------------------------------------------------------===

  /// Runs up to \p BudgetUnits of queued compile/relocate work.
  /// \returns the units actually consumed.
  double runJitWork(double BudgetUnits);

  /// Attaches the observability context (spans for every finished job,
  /// phase-transition events, per-kind job counters).  \p SecondsPerUnit
  /// converts a job's cost units to virtual seconds at this JIT's worker
  /// pool rate; \p Track is the tracer lane for JIT spans.  Null detaches;
  /// a standalone Jit (tests, replay tools) records nothing.
  void setObservability(obs::Observability *O, double SecondsPerUnit,
                        uint32_t Track);

  bool hasPendingWork() const { return !Jobs.empty(); }
  size_t pendingJobs() const { return Jobs.size(); }

  //===--------------------------------------------------------------------===
  // Jump-Start.
  //===--------------------------------------------------------------------===

  /// Consumer side (Figure 3c): installs \p Pkg's profiles and enqueues
  /// the full optimize + relocate pipeline.  The caller drives
  /// runJitWork() to completion before serving.
  void startConsumerPrecompile(const profile::ProfilePackage &Pkg);

  /// First half of startConsumerPrecompile: installs \p Pkg's profiles
  /// on a fresh JIT without enqueueing any work.  Used by
  /// ParallelRetranslate, which pre-lowers into scratch before the
  /// pipeline is enqueued.  \returns corrupt_data on duplicate FuncIds.
  support::Status installPackageProfiles(const profile::ProfilePackage &Pkg);

  /// Seeder side: assembles a package from everything this JIT collected.
  /// The function order is computed with C3 over the tier-2 call graph
  /// when seeder instrumentation ran, else over the tier-1 graph.
  profile::ProfilePackage buildPackage(uint32_t Region, uint32_t Bucket,
                                       uint64_t SeederId,
                                       uint64_t RepoFingerprint) const;

private:
  struct Job {
    enum class Kind : uint8_t {
      CompileProfile,
      CompileLive,
      CompileOptimized,
      Relocate,
    } Kind;
    uint32_t Func = 0;    ///< raw FuncId (compile jobs)
    uint32_t Trans = 0;   ///< translation id (relocate jobs)
    double CostLeft = 0;
    /// The job's full cost, kept for span durations.
    double TotalCost = 0;
  };

  // "enum" disambiguates the type from Job's member of the same name.
  /// Builds a job with its full cost remembered (span durations).
  static Job makeJob(enum Job::Kind K, uint32_t Func, uint32_t Trans,
                     double Cost) {
    return Job{K, Func, Trans, Cost, Cost};
  }
  static const char *jobSpanName(enum Job::Kind K);

  /// onFuncEntered's tiering policy for \p F, which has bytecode and
  /// whose current translation is \p Best.
  void enqueueTierUp(bc::FuncId F, const Translation *Best);
  void finishJob(const Job &J);
  /// Records a completed job's span + counter (no-op without obs).
  void noteJobDone(const Job &J);
  /// Records a phase-transition instant event (no-op without obs).
  void notePhase(JitPhase NewPhase);
  void compileOptimized(bc::FuncId F);
  void enqueueRelocations();
  /// Second half of startConsumerPrecompile: enqueues retranslate-all
  /// plus (optionally) the package's live-code tail.
  void enqueueConsumerJobs();
  /// Lowers \p F in optimized mode (region selection, package Vasm
  /// counters).  Pure given an immutable profile store and a pre-warmed
  /// block cache, so ParallelRetranslate may call it from workers.
  std::unique_ptr<VasmUnit> lowerOptimizedUnit(bc::FuncId F);
  /// Lowers \p F in live (tracelet) mode; same purity contract.
  std::unique_ptr<VasmUnit> lowerLiveUnit(bc::FuncId F);
  std::vector<uint32_t> computeFuncOrder() const;
  LayoutOptions layoutOptions() const;

  const bc::Repo &R;
  JitConfig Config;
  bc::BlockCache Blocks;
  CodeCache Cache;
  TransDb Db;
  profile::ProfileStore Store;
  profile::OptProfile OptProf;
  std::unordered_map<std::string, uint64_t> PropCounts;
  std::unordered_map<std::string, uint64_t> PropAffinity;

  obs::Observability *Obs = nullptr;
  double ObsSecondsPerUnit = 0;
  uint32_t ObsTrack = 0;

  JitPhase Phase = JitPhase::Profiling;
  uint64_t ProfiledRequests = 0;
  std::deque<Job> Jobs;
  std::unordered_set<uint32_t> Enqueued; ///< funcs with a pending compile
  bool LiveAreaExhausted = false;

  /// The installed Jump-Start package (consumer mode).
  std::optional<profile::ProfilePackage> Package;

  /// Scratch from ParallelRetranslate: units lowered ahead of time on
  /// host workers, consumed (instead of recomputed) when the serial
  /// pipeline reaches the corresponding job.  Keyed by raw FuncId.
  /// Virtual cost accounting is unchanged -- the pipeline charges the
  /// same units whether a job hits scratch or lowers from scratch's
  /// absence -- so host parallelism never shows up in virtual time.
  std::unordered_map<uint32_t, std::unique_ptr<VasmUnit>> PrecompiledOpt;
  std::unordered_map<uint32_t, std::unique_ptr<VasmUnit>> PrecompiledLive;
  /// Layouts precomputed alongside PrecompiledOpt (layoutUnit is pure in
  /// the unit, so computing it on a worker is placement-equivalent).
  std::unordered_map<uint32_t, UnitLayout> PrecomputedLayouts;

  friend class ParallelRetranslate;
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_JIT_H
