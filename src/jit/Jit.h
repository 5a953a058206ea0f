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
/// runJitWork() drains every phase.  Its host pool moves wall-clock time
/// only: costs, translation ids, placements and spans are the same for
/// any worker count.
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

#include <deque>
#include <memory>
#include <optional>
#include <vector>

namespace jumpstart::obs {
struct Observability;
}

namespace jumpstart::support {
class ThreadPool;
}

namespace jumpstart::jit {

/// Cost units per bytecode of a function that runs in the interpreter.
constexpr double kInterpCostPerBytecode = 25.0;

/// All JIT tunables.  Field-by-field these correspond to HHVM runtime
/// options; the Jump-Start flags map to the optimizations of paper
/// section V.
struct JitConfig {
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
  /// \p Pool (optional, not owned) prepares the pure half of each
  /// drain's jobs on host workers; null prepares them inline.
  Jit(const bc::Repo &R, JitConfig Config = JitConfig(),
      support::ThreadPool *Pool = nullptr);

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
  /// The tier-1 profiles, rendered up to date (profile::ProfileStore).
  profile::ProfileStore &profileStore() {
    Store.render();
    return Store;
  }
  const profile::ProfileStore &profileStore() const {
    Store.render();
    return Store;
  }
  /// The slab a frame of \p F running its profile translation records
  /// into, queued for the next render.  Created on first use.
  profile::ProfileSlab &recordingSlab(bc::FuncId F) {
    profile::ProfileSlab *S = Store.slab(F.raw());
    if (!S)
      S = &Store.createSlab(F.raw(), R.func(F),
                            Blocks.blocks(F).numBlocks());
    Store.touch(*S);
    return *S;
  }
  /// The Vasm block and call-arc counters of instrumented optimized
  /// frames (section V-A and V-B data); buildPackage renders them.
  profile::OptCounters &optCounters() { return OptCounts; }
  /// Seeder-side optimized-code profile maps, which buildPackage renders
  /// the counters into.  Only the test-only map recorder
  /// (testing::ReferenceProfilingHooks) writes them directly.
  profile::OptProfile &optProfile() { return OptProf; }
  /// Property-access and property-affinity counters of tier-1 frames
  /// (section V-C; affinity is the section's future-work extension).
  profile::PropCounters &propCounters() { return Props; }
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

  /// Runs up to \p BudgetUnits of queued compile/relocate work: the
  /// budget pays the queue front to back, and the jobs it pays off finish
  /// in this call.  With a pool, their lowering and layout run on it
  /// first; the translations are installed in queue order, and nothing
  /// prepared outlives the call.  \returns the units actually consumed.
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

  /// Consumer side (Figure 3c): installs \p Pkg's profiles on a fresh
  /// JIT and enqueues the full optimize + relocate pipeline, plus the
  /// package's live-code tail under PrecompileLiveCode.  The caller
  /// drives runJitWork() to completion before serving.
  void startConsumerPrecompile(const profile::ProfilePackage &Pkg);

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

  /// The pure half of one job, made before the job is installed.
  struct Prepared {
    /// Compile jobs: whether the job still has a unit to lower, decided
    /// on the owning thread.
    bool Lower = false;
    std::unique_ptr<VasmUnit> Unit;
    /// Relocate jobs: the translation, resolved on the owning thread, and
    /// its block layout.
    Translation *Reloc = nullptr;
    UnitLayout Layout;
  };

  /// onFuncEntered's tiering policy for \p F, which has bytecode and
  /// whose current translation is \p Best.
  void enqueueTierUp(bc::FuncId F, const Translation *Best);
  /// Decides, on the owning thread, what each of the jobs one drain
  /// finishes needs prepared, so that prepareJob never reads the
  /// translation database or the phase; renders the profile store when
  /// an optimized compile will lower.
  std::vector<Prepared> planBatch(const std::vector<Job> &Done);
  /// Lowers \p J's unit or lays out its translation into \p P.  Reads
  /// only the repo, the rendered profile store, the package and a warmed
  /// block cache, and writes only \p P, so pool workers may run it.
  void prepareJob(const Job &J, Prepared &P);
  /// Installs \p J's prepared half in the translation database and the
  /// code cache.  Owning thread only.
  void installJob(const Job &J, Prepared &P);
  /// Records a completed job's span + counter (no-op without obs).
  void noteJobDone(const Job &J);
  /// Records a phase-transition instant event (no-op without obs).
  void notePhase(JitPhase NewPhase);
  void enqueueRelocations();
  /// Lowers \p F in optimized mode (region selection, package Vasm
  /// counters).  Same purity contract as prepareJob.
  std::unique_ptr<VasmUnit> lowerOptimizedUnit(bc::FuncId F);
  /// Raw FuncIds of the profiled functions, hottest first (ties by
  /// FuncId).
  std::vector<uint32_t> funcsByHotness() const;
  std::vector<uint32_t> computeFuncOrder() const;
  LayoutOptions layoutOptions() const;

  const bc::Repo &R;
  JitConfig Config;
  /// Filled lazily, also from const members (the tier-1 call graph).
  mutable bc::BlockCache Blocks;
  CodeCache Cache;
  TransDb Db;
  profile::ProfileStore Store;
  profile::OptProfile OptProf;
  profile::OptCounters OptCounts;
  profile::PropCounters Props;

  obs::Observability *Obs = nullptr;
  double ObsSecondsPerUnit = 0;
  uint32_t ObsTrack = 0;

  JitPhase Phase = JitPhase::Profiling;
  uint64_t ProfiledRequests = 0;
  std::deque<Job> Jobs;
  /// Indexed by raw FuncId: nonzero while a compile of it is queued.
  std::vector<uint8_t> Enqueued;
  bool LiveAreaExhausted = false;

  /// The installed Jump-Start package (consumer mode).
  std::optional<profile::ProfilePackage> Package;
  /// Host workers for runJitWork's prepare step (null: inline).
  support::ThreadPool *Pool;
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_JIT_H
