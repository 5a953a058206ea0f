//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/ParallelRetranslate.h"

#include "support/Assert.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::jit;

void ParallelRetranslate::prelowerPending(Jit &J,
                                          support::ThreadPool *Pool) {
  if (J.Jobs.empty())
    return;

  // Snapshot the lowering work the queued jobs will need.  Profile
  // compiles are skipped: they are cheap, phase-dependent, and have no
  // scratch slot.
  struct Task {
    uint32_t FuncRaw = 0;
    const VasmUnit *LayoutOf = nullptr; ///< layout-only (relocate jobs)
    bool Live = false;
  };
  std::vector<Task> Tasks;
  for (const Jit::Job &Job : J.Jobs) {
    switch (Job.Kind) {
    case Jit::Job::Kind::CompileProfile:
      break;
    case Jit::Job::Kind::CompileOptimized:
      if (J.Db.forFunc(bc::FuncId(Job.Func), TransKind::Optimized) ||
          J.PrecompiledOpt.count(Job.Func))
        break; // already compiled or already prelowered
      Tasks.push_back({Job.Func, nullptr, /*Live=*/false});
      break;
    case Jit::Job::Kind::CompileLive:
      if (!J.PrecompiledLive.count(Job.Func))
        Tasks.push_back({Job.Func, nullptr, /*Live=*/true});
      break;
    case Jit::Job::Kind::Relocate: {
      const Translation *T = J.Db.find(Job.Trans);
      if (!T || T->Placed ||
          J.PrecomputedLayouts.count(T->Unit->Func.raw()))
        break;
      Tasks.push_back({T->Unit->Func.raw(), T->Unit.get(), false});
      break;
    }
    }
  }
  if (Tasks.empty())
    return;

  // Render the profile view and warm the shared block cache serially
  // (see run()); after this the workers only read them.
  J.Store.render();
  for (uint32_t FuncRaw = 0; FuncRaw < J.R.numFuncs(); ++FuncRaw)
    (void)J.Blocks.blocks(bc::FuncId(FuncRaw));

  struct Slot {
    std::unique_ptr<VasmUnit> Unit;
    UnitLayout Layout;
    bool HasLayout = false;
  };
  std::vector<Slot> Slots(Tasks.size());
  const LayoutOptions LO = J.layoutOptions();
  auto LowerOne = [&](size_t I) {
    const Task &T = Tasks[I];
    if (T.LayoutOf) {
      Slots[I].Layout = layoutUnit(*T.LayoutOf, LO);
      Slots[I].HasLayout = true;
      return;
    }
    bc::FuncId F(T.FuncRaw);
    if (T.Live) {
      Slots[I].Unit = J.lowerLiveUnit(F);
    } else {
      Slots[I].Unit = J.lowerOptimizedUnit(F);
      Slots[I].Layout = layoutUnit(*Slots[I].Unit, LO);
      Slots[I].HasLayout = true;
    }
  };
  if (Pool)
    Pool->parallelFor(Tasks.size(), LowerOne);
  else
    for (size_t I = 0; I < Tasks.size(); ++I)
      LowerOne(I);

  for (size_t I = 0; I < Tasks.size(); ++I) {
    const Task &T = Tasks[I];
    if (T.Live) {
      J.PrecompiledLive.emplace(T.FuncRaw, std::move(Slots[I].Unit));
      continue;
    }
    if (Slots[I].Unit)
      J.PrecompiledOpt.emplace(T.FuncRaw, std::move(Slots[I].Unit));
    if (Slots[I].HasLayout)
      J.PrecomputedLayouts.emplace(T.FuncRaw,
                                   std::move(Slots[I].Layout));
  }
}

RetranslateStats
ParallelRetranslate::run(double SliceUnits,
                         const std::function<void(double)> &OnSlice) {
  alwaysAssert(SliceUnits > 0, "retranslate slice budget must be positive");
  alwaysAssert(J.phase() == JitPhase::Profiling,
               "parallel retranslate-all needs a Profiling-phase JIT");
  RetranslateStats Stats;
  Stats.HostWorkers = Pool ? Pool->numWorkers() : 0;

  // Collect the work-list the serial pipeline will enqueue: optimized
  // compiles for every profiled function with code, plus the package's
  // live-code tail (same filters as Jit::enqueueConsumerJobs).
  struct Task {
    uint32_t FuncRaw;
    bool Live;
  };
  std::vector<Task> Tasks;
  // Render once, before the fan-out: the workers read the profile view.
  J.Store.render();
  for (const auto &[FuncRaw, Prof] : J.Store.all()) {
    (void)Prof;
    if (!J.R.func(bc::FuncId(FuncRaw)).Code.empty())
      Tasks.push_back({FuncRaw, /*Live=*/false});
  }
  // Scratch is keyed by func, so task order is irrelevant to the output;
  // sort only to make per-worker chunking reproducible.
  std::sort(Tasks.begin(), Tasks.end(),
            [](const Task &A, const Task &B) {
              return A.FuncRaw < B.FuncRaw;
            });
  if (J.Package && J.Config.PrecompileLiveCode) {
    for (uint32_t FuncRaw : J.Package->Intermediate.LiveFuncs) {
      if (FuncRaw >= J.R.numFuncs() ||
          J.R.func(bc::FuncId(FuncRaw)).Code.empty())
        continue;
      if (J.Store.find(FuncRaw))
        continue;
      Tasks.push_back({FuncRaw, /*Live=*/true});
    }
  }

  // Warm the block cache for every function before fanning out: it is
  // the one lazily-built shared structure, and region selection may
  // reach callees far outside the profiled set.  After this loop the
  // workers only read it.
  for (uint32_t FuncRaw = 0; FuncRaw < J.R.numFuncs(); ++FuncRaw)
    (void)J.Blocks.blocks(bc::FuncId(FuncRaw));

  // Parallel lowering into indexed scratch slots (no shared writes).
  struct Slot {
    std::unique_ptr<VasmUnit> Unit;
    UnitLayout Layout;
  };
  std::vector<Slot> Slots(Tasks.size());
  auto LowerOne = [&](size_t I) {
    const Task &T = Tasks[I];
    bc::FuncId F(T.FuncRaw);
    if (T.Live) {
      Slots[I].Unit = J.lowerLiveUnit(F);
    } else {
      Slots[I].Unit = J.lowerOptimizedUnit(F);
      Slots[I].Layout = layoutUnit(*Slots[I].Unit, J.layoutOptions());
    }
  };
  if (Pool)
    Pool->parallelFor(Tasks.size(), LowerOne);
  else
    for (size_t I = 0; I < Tasks.size(); ++I)
      LowerOne(I);

  // Serial from here on.  Install the scratch, then run the unchanged
  // pipeline; jobs consume scratch instead of recomputing.
  for (size_t I = 0; I < Tasks.size(); ++I) {
    if (Tasks[I].Live) {
      J.PrecompiledLive.emplace(Tasks[I].FuncRaw, std::move(Slots[I].Unit));
    } else {
      J.PrecompiledOpt.emplace(Tasks[I].FuncRaw, std::move(Slots[I].Unit));
      J.PrecomputedLayouts.emplace(Tasks[I].FuncRaw,
                                   std::move(Slots[I].Layout));
    }
  }
  if (J.Package)
    J.enqueueConsumerJobs();
  else
    J.beginRetranslateAll();
  for (const auto &Job : J.Jobs)
    Stats.CompileUnits += Job.TotalCost;
  Stats.FunctionsCompiled = J.Jobs.size();

  double Consumed = 0;
  while (J.hasPendingWork()) {
    double Step = J.runJitWork(SliceUnits);
    Consumed += Step;
    if (OnSlice)
      OnSlice(Step);
    alwaysAssert(Step > 0, "jit pipeline stalled with pending work");
  }
  Stats.RelocateUnits = Consumed - Stats.CompileUnits;

  for (const auto &T : J.Db.all())
    if (T->Placed)
      ++Stats.TranslationsPlaced;

  // Anything the pipeline did not consume (e.g. a function whose
  // optimized translation already existed) would go stale; drop it.
  J.PrecompiledOpt.clear();
  J.PrecompiledLive.clear();
  J.PrecomputedLayouts.clear();
  return Stats;
}
