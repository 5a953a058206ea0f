//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clang -Wthread-safety annotation macros and annotated lock types.
///
/// The macros expand to clang's capability attributes when compiled with
/// clang and to nothing otherwise, so annotated code builds unchanged
/// under gcc.  The opt-in verification build is
/// `JUMPSTART_SANITIZE=thread-safety ci/sanitize.sh`, which compiles
/// with -Wthread-safety -Werror under clang (and prints a skip notice
/// under gcc, where the analysis does not exist).
///
/// The annotated types mirror the standard ones one-to-one:
///  - Mutex is std::mutex declared as a capability.
///  - MutexLock is a scoped capability over std::unique_lock, so it can
///    be handed to CondVar::wait (which needs to unlock and relock).
///  - CondVar wraps std::condition_variable; its wait takes a MutexLock,
///    keeping the capability association visible at the call site.
///
/// Guarded members are annotated JUMPSTART_GUARDED_BY(M); functions
/// that take the lock themselves are annotated JUMPSTART_EXCLUDES(M).
/// The annotations are claims checked by the compiler, not
/// synchronization themselves -- a member without an annotation is
/// being asserted single-threaded, which should be said in a comment
/// (see jit::TransDb for the pattern).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SUPPORT_THREADSAFETY_H
#define JUMPSTART_SUPPORT_THREADSAFETY_H

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define JUMPSTART_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define JUMPSTART_THREAD_ANNOTATION(x)
#endif

/// Declares a type as a capability ("mutex" in diagnostics).
#define JUMPSTART_CAPABILITY(x) JUMPSTART_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires in its constructor and releases
/// in its destructor.
#define JUMPSTART_SCOPED_CAPABILITY JUMPSTART_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding \p x.
#define JUMPSTART_GUARDED_BY(x) JUMPSTART_THREAD_ANNOTATION(guarded_by(x))

/// Function that acquires the listed capabilities (held on return).
#define JUMPSTART_ACQUIRE(...)                                                 \
  JUMPSTART_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases the listed capabilities (held on entry).
#define JUMPSTART_RELEASE(...)                                                 \
  JUMPSTART_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that must NOT be called with the listed capabilities held
/// (deadlock guard for non-reentrant locks).
#define JUMPSTART_EXCLUDES(...)                                                \
  JUMPSTART_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

namespace jumpstart::support {

/// std::mutex declared as a thread-safety capability.
class JUMPSTART_CAPABILITY("mutex") Mutex {
public:
  void lock() JUMPSTART_ACQUIRE() { M.lock(); }
  void unlock() JUMPSTART_RELEASE() { M.unlock(); }

  /// The wrapped mutex, for MutexLock/CondVar plumbing only.
  std::mutex &native() { return M; }

private:
  std::mutex M;
};

/// Scoped lock over a Mutex.  Built on std::unique_lock (not lock_guard)
/// so CondVar::wait can temporarily release it; it is always held
/// outside of a wait.
class JUMPSTART_SCOPED_CAPABILITY MutexLock {
public:
  explicit MutexLock(Mutex &Mu) JUMPSTART_ACQUIRE(Mu) : Inner(Mu.native()) {}
  ~MutexLock() JUMPSTART_RELEASE() = default;

  MutexLock(const MutexLock &) = delete;
  MutexLock &operator=(const MutexLock &) = delete;

  /// The wrapped lock, for CondVar::wait only.
  std::unique_lock<std::mutex> &native() { return Inner; }

private:
  std::unique_lock<std::mutex> Inner;
};

/// Condition variable whose wait takes the annotated MutexLock, keeping
/// the guarded-by relationship visible to the analysis at the call site.
/// As with std::condition_variable, the lock is released while blocked
/// and reacquired before wait returns, so the capability is continuously
/// held from the caller's point of view.
class CondVar {
public:
  /// One blocking wait (subject to spurious wakeup); callers loop on
  /// their condition.  Guarded members read in that loop condition sit
  /// in the scope holding the MutexLock, so the analysis checks them --
  /// a predicate-lambda overload would hide them from it, which is why
  /// there is none.
  void wait(MutexLock &Lock) { CV.wait(Lock.native()); }

  void notifyAll() { CV.notify_all(); }

private:
  std::condition_variable CV;
};

} // namespace jumpstart::support

#endif // JUMPSTART_SUPPORT_THREADSAFETY_H
