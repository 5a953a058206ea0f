//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool whose one operation is parallelFor.
///
/// This is the repository's only source of host-thread parallelism; the
/// simulation's *virtual* time stays single-threaded and deterministic.
/// The pool therefore never appears in any cost model -- it only changes
/// how fast the host machine gets through deterministic work (the
/// parallel retranslate-all fan-out, fleet sweeps over independent
/// servers).  Users that need determinism run the fan-out into per-index
/// scratch storage and do all order-sensitive work serially after
/// parallelFor returns.
///
/// parallelFor(N, Body) runs Body(I) for every I in [0, N):
///  - [0, N) splits into min(N, workers) contiguous chunks -- a
///    deterministic static schedule -- and the call returns once every
///    chunk has finished.
///  - It runs inline on the calling thread on a pool of 0 or 1 workers
///    (which starts no OS threads), and when called from one of this
///    pool's own workers: a nested fan-out must not wait on the pool it
///    runs in.
///  - A chunk stops at its first throw.  Once every chunk has finished,
///    the first exception a chunk threw is rethrown to the caller, and
///    the pool stays usable.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SUPPORT_THREADPOOL_H
#define JUMPSTART_SUPPORT_THREADPOOL_H

#include "support/ThreadSafety.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

namespace jumpstart::support {

/// The most workers a pool starts.  The CLIs' `--threads` rejects more
/// before any thread starts.
constexpr uint32_t kMaxPoolWorkers = 256;

class ThreadPool {
public:
  /// Starts \p Workers worker threads (0 or 1: inline mode, none);
  /// \p Workers must not exceed kMaxPoolWorkers.
  explicit ThreadPool(uint32_t Workers);
  /// Joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Runs Body(I) for every I in [0, N) by the rules above.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body)
      JUMPSTART_EXCLUDES(M);

private:
  struct Batch;
  /// Indices [Begin, End) of one parallelFor call.
  struct Chunk {
    Batch *Owner = nullptr;
    size_t Begin = 0;
    size_t End = 0;
  };

  void workerLoop() JUMPSTART_EXCLUDES(M);

  /// Guards the queue, the stop flag and every in-flight Batch; the
  /// -Wthread-safety build (JUMPSTART_SANITIZE=thread-safety) verifies
  /// the annotations.
  Mutex M;
  CondVar WorkReady; ///< a chunk was queued, or the pool is stopping
  CondVar BatchDone; ///< a batch's last chunk finished
  std::deque<Chunk> Queue JUMPSTART_GUARDED_BY(M);
  bool Stopping JUMPSTART_GUARDED_BY(M) = false;
  /// Written only by the constructor; workers never touch it.  Declared
  /// last, after everything the workers use.
  std::vector<std::thread> Workers;
};

} // namespace jumpstart::support

#endif // JUMPSTART_SUPPORT_THREADPOOL_H
