//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/Jit.h"

#include "layout/FunctionSort.h"
#include "obs/Observability.h"
#include "support/Assert.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <unordered_set>

using namespace jumpstart;
using namespace jumpstart::jit;

const char *jumpstart::jit::jitPhaseName(JitPhase P) {
  switch (P) {
  case JitPhase::Profiling:
    return "profiling";
  case JitPhase::Optimizing:
    return "optimizing";
  case JitPhase::Relocating:
    return "relocating";
  case JitPhase::Mature:
    return "mature";
  }
  return "?";
}

Jit::Jit(const bc::Repo &R, JitConfig Config, support::ThreadPool *Pool)
    : R(R), Config(Config), Blocks(R), Enqueued(R.numFuncs(), 0), Pool(Pool) {}

void Jit::setObservability(obs::Observability *O, double SecondsPerUnit,
                           uint32_t Track) {
  Obs = O;
  ObsSecondsPerUnit = SecondsPerUnit;
  ObsTrack = Track;
}

const char *Jit::jobSpanName(enum Job::Kind K) {
  switch (K) {
  case Job::Kind::CompileProfile:
    return "compile-tier1";
  case Job::Kind::CompileLive:
    return "compile-live";
  case Job::Kind::CompileOptimized:
    return "compile-tier2";
  case Job::Kind::Relocate:
    return "relocate";
  }
  return "?";
}

void Jit::noteJobDone(const Job &J) {
  if (!Obs)
    return;
  double Dur = J.TotalCost * ObsSecondsPerUnit;
  double End = Obs->Clock.now();
  Obs->Trace.completeSpan(
      jobSpanName(J.Kind), "jit", ObsTrack, std::max(0.0, End - Dur), Dur,
      {J.Kind == Job::Kind::Relocate ? strFormat("trans=%u", J.Trans)
                                     : strFormat("func=%u", J.Func)});
  Obs->Metrics
      .counter("jumpstart.jit.jobs_completed",
               {{"kind", jobSpanName(J.Kind)}})
      .inc();
  // Proven-fact guard elisions accumulate in the translation database as
  // compiles install; exporting after each job keeps the gauge current
  // without a per-elision metric write.  Absent entirely when the
  // whole-program analysis is off (the count stays zero).
  if (uint64_t Elided = Db.guardsElided())
    Obs->Metrics.gauge("jumpstart.jit.guards_elided", {})
        .set(static_cast<double>(Elided));
}

void Jit::notePhase(JitPhase NewPhase) {
  if (!Obs)
    return;
  Obs->Trace.instant(strFormat("jit-phase:%s", jitPhaseName(NewPhase)),
                     "phase", ObsTrack);
  Obs->Metrics.counter("jumpstart.jit.phase_transitions",
                       {{"to", jitPhaseName(NewPhase)}})
      .inc();
}

double Jit::execCostPerBytecode(bc::FuncId F) const {
  const Translation *T = Db.best(F);
  if (T)
    return T->CostPerBytecode;
  return kInterpCostPerBytecode;
}

uint64_t Jit::totalCodeBytes() const {
  return Db.bytesOfKind(TransKind::Profile) +
         Db.bytesOfKind(TransKind::Live) +
         Db.bytesOfKind(TransKind::Optimized);
}

const Translation *Jit::onFuncEntered(bc::FuncId F) {
  const Translation *Best = Db.best(F);
  if (!R.func(F).Code.empty())
    enqueueTierUp(F, Best);
  return Best;
}

void Jit::enqueueTierUp(bc::FuncId F, const Translation *Best) {
  if (Phase == JitPhase::Profiling) {
    if (Db.forFunc(F, TransKind::Profile) || Enqueued[F.raw()])
      return;
    Enqueued[F.raw()] = 1;
    Jobs.push_back(makeJob(Job::Kind::CompileProfile, F.raw(), 0,
                           static_cast<double>(R.func(F).Code.size()) *
                               Config.ProfileCompileCostPerBytecode));
    return;
  }
  // Past profiling: anything still uncompiled takes the tracelet (live)
  // path, until the live area fills (Figure 1 point D).
  if (LiveAreaExhausted || Best || Enqueued[F.raw()])
    return;
  if (Db.forFunc(F, TransKind::Optimized))
    return; // optimized exists but is awaiting relocation
  Enqueued[F.raw()] = 1;
  Jobs.push_back(makeJob(Job::Kind::CompileLive, F.raw(), 0,
                         static_cast<double>(R.func(F).Code.size()) *
                             Config.LiveCompileCostPerBytecode));
}

void Jit::onRequestFinished() {
  if (Phase != JitPhase::Profiling)
    return;
  ++ProfiledRequests;
  if (ProfiledRequests >= Config.ProfileRequestTarget)
    beginRetranslateAll();
}

void Jit::beginRetranslateAll() {
  if (Phase != JitPhase::Profiling)
    return;
  Phase = JitPhase::Optimizing;
  if (Obs)
    Obs->Trace.instant("retranslate-all", "jit", ObsTrack);
  notePhase(JitPhase::Optimizing);
  // Drop pending profile compiles; profiling is over.
  std::deque<Job> Kept;
  for (const Job &J : Jobs)
    if (J.Kind != Job::Kind::CompileProfile)
      Kept.push_back(J);
    else
      Enqueued[J.Func] = 0;
  Jobs = std::move(Kept);

  // Optimize every profiled function, hottest first.
  Store.render();
  for (uint32_t FuncRaw : funcsByHotness()) {
    if (R.func(bc::FuncId(FuncRaw)).Code.empty())
      continue;
    // In ShareJIT mode the machine code already exists; "compiling" is
    // relocation and pointer-table patching, a tiny fraction of a real
    // region compile.
    double CostPerBytecode = Config.ShareJitMode
                                 ? Config.OptCompileCostPerBytecode * 0.02
                                 : Config.OptCompileCostPerBytecode;
    Jobs.push_back(makeJob(
        Job::Kind::CompileOptimized, FuncRaw, 0,
        static_cast<double>(R.func(bc::FuncId(FuncRaw)).Code.size()) *
            CostPerBytecode));
  }
  if (Jobs.empty()) {
    // Nothing was profiled (e.g. a consumer with an empty package).
    Phase = JitPhase::Mature;
    notePhase(JitPhase::Mature);
  }
}

std::vector<uint32_t> Jit::funcsByHotness() const {
  std::vector<std::pair<uint64_t, uint32_t>> ByHotness;
  for (const auto &[FuncRaw, Prof] : Store.all())
    ByHotness.push_back({Prof.totalSamples(), FuncRaw});
  std::sort(ByHotness.begin(), ByHotness.end(),
            [](const auto &A, const auto &B) {
              if (A.first != B.first)
                return A.first > B.first;
              return A.second < B.second;
            });
  std::vector<uint32_t> Funcs;
  Funcs.reserve(ByHotness.size());
  for (const auto &Entry : ByHotness)
    Funcs.push_back(Entry.second);
  return Funcs;
}

std::unique_ptr<VasmUnit> Jit::lowerOptimizedUnit(bc::FuncId F) {
  RegionDescriptor Region;
  if (Config.ShareJitMode) {
    // Sharing constraints forbid inlining user-defined functions and
    // devirtualized direct calls (they embed addresses).
    Region.Func = F;
  } else {
    // Proven facts extend devirtualization beyond profile dominance, but
    // never under sharing constraints (direct calls embed addresses).
    const ProvenFacts *Facts =
        Config.ProvenGuardElision ? Config.Facts.get() : nullptr;
    Region = selectRegion(R, Blocks, Store, F, RegionParams(), Facts);
  }
  LowerOptions Opts;
  Opts.Kind = TransKind::Optimized;
  Opts.SeederInstrumentation = Config.SeederInstrumentation;
  Opts.SharedCodeConstraints = Config.ShareJitMode;
  if (Config.ProvenGuardElision && !Config.ShareJitMode)
    Opts.Facts = Config.Facts.get();
  auto Unit = lowerFunction(R, Blocks, F, &Store, &Region, Opts);

  // Jump-Start consumers inject the accurate Vasm counters right before
  // layout (paper section V-A).
  if (Package && Config.UseVasmCounters) {
    auto It = Package->Opt.VasmBlockCounts.find(F.raw());
    if (It != Package->Opt.VasmBlockCounts.end())
      injectVasmCounts(*Unit, It->second);
  }
  return Unit;
}

LayoutOptions Jit::layoutOptions() const {
  LayoutOptions L;
  L.UseExtTsp = Config.UseExtTsp;
  L.SplitCold = Config.SplitHotCold;
  return L;
}

std::vector<uint32_t> Jit::computeFuncOrder() const {
  // Precomputed order from the package (category 4) wins.
  if (Package && Config.UsePackageFuncOrder &&
      !Package->Intermediate.FuncOrder.empty())
    return Package->Intermediate.FuncOrder;
  if (!Config.UseFunctionSort) {
    std::vector<uint32_t> Order;
    for (const auto &T : Db.all())
      if (T->Kind == TransKind::Optimized)
        Order.push_back(T->Unit->Func.raw());
    return Order;
  }
  // C3 over the best call graph available: the tier-2 entry-counter graph
  // when the package carries one (section V-B), else the tier-1 graph.
  layout::CallGraph G;
  if (Package && Config.UsePackageFuncOrder && !Package->Opt.CallArcs.empty())
    G = buildTier2CallGraph(R, Package->Opt, Store);
  else
    G = buildTier1CallGraph(R, Blocks, Store);
  return layout::c3Order(G);
}

void Jit::enqueueRelocations() {
  Store.render();
  std::vector<uint32_t> Order = computeFuncOrder();
  std::unordered_set<uint32_t> Seen;
  auto Enqueue = [&](uint32_t FuncRaw) {
    if (!Seen.insert(FuncRaw).second)
      return;
    Translation *T = Db.forFunc(bc::FuncId(FuncRaw), TransKind::Optimized);
    if (!T || T->Placed)
      return;
    Jobs.push_back(makeJob(Job::Kind::Relocate, 0, T->Id,
                           static_cast<double>(T->Unit->sizeBytes()) *
                               Config.RelocateCostPerByte));
  };
  for (uint32_t FuncRaw : Order)
    Enqueue(FuncRaw);
  // Anything the order missed still gets placed (compile order).
  for (const auto &T : Db.all())
    if (T->Kind == TransKind::Optimized)
      Enqueue(T->Unit->Func.raw());
}

namespace {

/// Lowering order, every block hot: the layout of profile and live code.
UnitLayout loweringOrder(const VasmUnit &Unit) {
  UnitLayout L;
  L.HotOrder.resize(Unit.Blocks.size());
  for (uint32_t I = 0; I < L.HotOrder.size(); ++I)
    L.HotOrder[I] = I;
  return L;
}

} // namespace

void Jit::prepareJob(const Job &J, Prepared &P) {
  if (J.Kind == Job::Kind::Relocate) {
    P.Layout = layoutUnit(*P.Reloc->Unit, layoutOptions());
    return;
  }
  if (!P.Lower)
    return;
  bc::FuncId F(J.Func);
  if (J.Kind == Job::Kind::CompileOptimized) {
    P.Unit = lowerOptimizedUnit(F);
    return;
  }
  LowerOptions Opts;
  Opts.Kind = J.Kind == Job::Kind::CompileProfile ? TransKind::Profile
                                                  : TransKind::Live;
  P.Unit = lowerFunction(R, Blocks, F, nullptr, nullptr, Opts);
}

void Jit::installJob(const Job &J, Prepared &P) {
  switch (J.Kind) {
  case Job::Kind::CompileProfile: {
    Enqueued[J.Func] = 0;
    if (!P.Lower)
      return; // profiling ended while this was queued
    Translation &T = Db.create(TransKind::Profile, std::move(P.Unit));
    placeTranslation(T, Cache, CodeArea::Profile, loweringOrder(*T.Unit));
    return;
  }
  case Job::Kind::CompileLive: {
    Enqueued[J.Func] = 0;
    Translation &T = Db.create(TransKind::Live, std::move(P.Unit));
    if (!placeTranslation(T, Cache, CodeArea::Live, loweringOrder(*T.Unit)))
      LiveAreaExhausted = true; // Figure 1 point D
    return;
  }
  case Job::Kind::CompileOptimized:
    if (P.Lower)
      Db.create(TransKind::Optimized, std::move(P.Unit));
    return;
  case Job::Kind::Relocate:
    placeTranslation(*P.Reloc, Cache, CodeArea::Hot, P.Layout);
    return;
  }
}

std::vector<Jit::Prepared> Jit::planBatch(const std::vector<Job> &Done) {
  std::vector<Prepared> Work(Done.size());
  bool LowersOptimized = false;
  for (size_t I = 0; I < Done.size(); ++I) {
    const Job &J = Done[I];
    Prepared &P = Work[I];
    switch (J.Kind) {
    case Job::Kind::CompileProfile:
      P.Lower = Phase == JitPhase::Profiling;
      break;
    case Job::Kind::CompileLive:
      P.Lower = true;
      break;
    case Job::Kind::CompileOptimized:
      P.Lower = !Db.forFunc(bc::FuncId(J.Func), TransKind::Optimized);
      LowersOptimized |= P.Lower;
      break;
    case Job::Kind::Relocate:
      P.Reloc = Db.find(J.Trans);
      alwaysAssert(P.Reloc != nullptr, "relocate job for unknown translation");
      break;
    }
  }
  // Profile translations keep recording until optimized code is placed,
  // so region selection renders what they added, once per batch.
  if (LowersOptimized)
    Store.render();
  return Work;
}

double Jit::runJitWork(double BudgetUnits) {
  // The budget pays the queue front to back; every job it pays off
  // finishes in this call.
  double Consumed = 0;
  std::vector<Job> Done;
  while (BudgetUnits > 0 && !Jobs.empty()) {
    Job &J = Jobs.front();
    double Spend = std::min(BudgetUnits, J.CostLeft);
    J.CostLeft -= Spend;
    BudgetUnits -= Spend;
    Consumed += Spend;
    if (J.CostLeft > 0)
      break;
    Done.push_back(J);
    Jobs.pop_front();
  }

  // A batch of several jobs is prepared up front on the pool.  Without a
  // pool each job is prepared right before its install, which keeps the
  // unit in cache while the translation database sizes and places it.
  std::vector<Prepared> Work = planBatch(Done);
  auto PrepareOne = [&](size_t I) { prepareJob(Done[I], Work[I]); };
  bool FanOut = Pool && Done.size() > 1;
  if (FanOut) {
    // The block cache is the one lazily built structure the workers
    // share, and region selection may reach callees far outside this
    // batch: fill it here so the workers only read it.
    for (uint32_t FuncRaw = 0; FuncRaw < R.numFuncs(); ++FuncRaw)
      (void)Blocks.blocks(bc::FuncId(FuncRaw));
    Pool->parallelFor(Done.size(), PrepareOne);
  }
  for (size_t I = 0; I < Done.size(); ++I) {
    if (!FanOut)
      PrepareOne(I);
    installJob(Done[I], Work[I]);
    noteJobDone(Done[I]);
  }

  // Phase transitions when a stage's queue drains.
  if (Jobs.empty()) {
    if (Phase == JitPhase::Optimizing) {
      Phase = JitPhase::Relocating;
      notePhase(JitPhase::Relocating);
      enqueueRelocations();
      if (Jobs.empty()) {
        Phase = JitPhase::Mature;
        notePhase(JitPhase::Mature);
      }
    } else if (Phase == JitPhase::Relocating) {
      Phase = JitPhase::Mature;
      notePhase(JitPhase::Mature);
    }
  }
  return Consumed;
}

void Jit::startConsumerPrecompile(const profile::ProfilePackage &Pkg) {
  alwaysAssert(Phase == JitPhase::Profiling && Db.size() == 0,
               "consumer precompile must run on a fresh JIT");
  Package = Pkg;
  support::Status S = Store.loadFromPackage(Pkg);
  alwaysAssert(S.ok(), "startConsumerPrecompile: bad package (callers "
                       "validate with deserialize + lint first)");
  // Skip profiling entirely: go straight to retranslate-all.
  beginRetranslateAll();
  // Optionally also pre-compile the seeder's live-code tail (the
  // section IV-A alternative).
  if (Config.PrecompileLiveCode) {
    for (uint32_t FuncRaw : Package->Intermediate.LiveFuncs) {
      bc::FuncId F(FuncRaw);
      if (FuncRaw >= R.numFuncs() || R.func(F).Code.empty())
        continue;
      if (Store.find(FuncRaw) || Enqueued[FuncRaw])
        continue; // profiled functions get optimized translations anyway
      Enqueued[FuncRaw] = 1;
      Jobs.push_back(makeJob(Job::Kind::CompileLive, FuncRaw, 0,
                             static_cast<double>(R.func(F).Code.size()) *
                                 Config.LiveCompileCostPerBytecode));
    }
    if (Phase == JitPhase::Mature && !Jobs.empty())
      Phase = JitPhase::Optimizing; // keep draining until live code done
  }
}

profile::ProfilePackage Jit::buildPackage(uint32_t Region, uint32_t Bucket,
                                          uint64_t SeederId,
                                          uint64_t RepoFingerprint) const {
  profile::ProfilePackage Pkg;
  Pkg.RepoFingerprint = RepoFingerprint;
  Pkg.Region = Region;
  Pkg.Bucket = Bucket;
  Pkg.SeederId = SeederId;
  Store.render();
  Store.exportToPackage(Pkg);
  Pkg.Opt = OptProf;
  OptCounts.renderInto(Pkg.Opt);
  Props.renderInto(R, Pkg.Opt);

  // Category 4: the precomputed function order, from the tier-2 call
  // graph when seeder instrumentation collected one.
  layout::CallGraph G;
  if (!Pkg.Opt.CallArcs.empty())
    G = buildTier2CallGraph(R, Pkg.Opt, Store);
  else
    G = buildTier1CallGraph(R, Blocks, Store);
  Pkg.Intermediate.FuncOrder = layout::c3Order(G);

  // The live-code tail this seeder accumulated (consumed only under
  // PrecompileLiveCode).
  for (const auto &T : Db.all())
    if (T->Kind == TransKind::Live)
      Pkg.Intermediate.LiveFuncs.push_back(T->Unit->Func.raw());
  std::sort(Pkg.Intermediate.LiveFuncs.begin(),
            Pkg.Intermediate.LiveFuncs.end());

  // Category 1: preload lists.  Units of profiled functions in hotness
  // order; classes and literal strings referenced by them.
  std::unordered_set<uint32_t> SeenUnits;
  std::unordered_set<uint32_t> SeenStrings;
  std::unordered_set<uint32_t> SeenClasses;
  for (uint32_t FuncRaw : funcsByHotness()) {
    const bc::Function &F = R.func(bc::FuncId(FuncRaw));
    if (SeenUnits.insert(F.Unit.raw()).second)
      Pkg.Preload.Units.push_back(F.Unit.raw());
    if (F.Cls.valid() && SeenClasses.insert(F.Cls.raw()).second)
      Pkg.Preload.Classes.push_back(F.Cls.raw());
    for (const bc::Instr &In : F.Code) {
      const bc::OpInfo &Info = bc::opInfo(In.Opcode);
      if (Info.ImmA == bc::ImmKind::Str &&
          SeenStrings.insert(In.strImm().raw()).second)
        Pkg.Preload.Strings.push_back(In.strImm().raw());
      if (Info.ImmA == bc::ImmKind::Cls &&
          SeenClasses.insert(In.clsImm().raw()).second)
        Pkg.Preload.Classes.push_back(In.clsImm().raw());
    }
  }
  return Pkg;
}
