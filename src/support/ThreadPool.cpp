//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Assert.h"

#include <algorithm>
#include <exception>

using namespace jumpstart;
using namespace jumpstart::support;

namespace {
/// The pool the current thread is a worker of, for nested-parallelFor
/// detection.
thread_local const ThreadPool *CurrentWorkerPool = nullptr;
} // namespace

/// One pooled parallelFor call, on its caller's stack.  Its fields are
/// guarded by the pool's M.
struct ThreadPool::Batch {
  const std::function<void(size_t)> &Body;
  /// Chunks not yet finished.
  size_t Pending;
  std::exception_ptr FirstError;
};

ThreadPool::ThreadPool(uint32_t NumWorkers) {
  alwaysAssert(NumWorkers <= kMaxPoolWorkers,
               "a thread pool of more than kMaxPoolWorkers workers");
  if (NumWorkers <= 1)
    return;
  Workers.reserve(NumWorkers);
  for (uint32_t I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock Lock(M);
    Stopping = true;
  }
  WorkReady.notifyAll();
  for (std::thread &T : Workers)
    T.join();
}

void ThreadPool::workerLoop() {
  CurrentWorkerPool = this;
  for (;;) {
    Chunk C;
    {
      MutexLock Lock(M);
      while (!Stopping && Queue.empty())
        WorkReady.wait(Lock);
      if (Queue.empty())
        return; // stopping, and nothing left to run
      C = Queue.front();
      Queue.pop_front();
    }
    std::exception_ptr Error;
    try {
      for (size_t I = C.Begin; I < C.End; ++I)
        C.Owner->Body(I);
    } catch (...) {
      Error = std::current_exception();
    }
    MutexLock Lock(M);
    if (Error && !C.Owner->FirstError)
      C.Owner->FirstError = std::move(Error);
    // The caller may return (and free the batch) as soon as the last
    // chunk is counted: nothing below touches C.Owner.
    if (--C.Owner->Pending == 0)
      BatchDone.notifyAll();
  }
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body) {
  if (Workers.empty() || CurrentWorkerPool == this) {
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }
  const size_t Chunks = std::min<size_t>(N, Workers.size());
  Batch B{Body, Chunks, nullptr};
  {
    MutexLock Lock(M);
    for (size_t C = 0; C < Chunks; ++C)
      Queue.push_back({&B, N * C / Chunks, N * (C + 1) / Chunks});
    WorkReady.notifyAll();
    while (B.Pending != 0)
      BatchDone.wait(Lock);
  }
  if (B.FirstError)
    std::rethrow_exception(B.FirstError);
}
