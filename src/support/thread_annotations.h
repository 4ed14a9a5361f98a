#pragma once
// Clang Thread Safety Analysis shim + annotated synchronization primitives.
//
// Every shared-state module in the runtime (src/dist, src/obs, src/tune,
// src/nn, support/pool.h) declares its locks as apa::Mutex and ties each
// protected field to its lock with APAMM_GUARDED_BY. Under Clang with
// APAMM_TSA=ON (-Werror=thread-safety) the compiler then proves, per
// translation unit, that no guarded field is touched without its capability
// held — the static mirror of the TSan suite, which only sees interleavings
// the stress tests happen to produce. Under GCC (and Clang without the
// attribute) every macro expands to nothing and Mutex/MutexLock/CondVar are
// plain std wrappers with zero overhead beyond the inline forwarding calls.
//
// The capability model (see docs/STATIC_ANALYSIS.md §Thread-safety
// annotations):
//   * APAMM_CAPABILITY("mutex")   — a class whose instances are lockable;
//   * APAMM_GUARDED_BY(mu)        — field only touched with mu held;
//   * APAMM_PT_GUARDED_BY(mu)     — pointee (not the pointer) guarded by mu;
//   * APAMM_REQUIRES(mu)          — function must be called with mu held;
//   * APAMM_ACQUIRE / RELEASE     — function takes / drops the capability;
//   * APAMM_EXCLUDES(mu)          — caller must NOT hold mu (re-entrancy =
//                                   deadlock on a non-recursive mutex);
//   * APAMM_ACQUIRED_AFTER(mu)    — lock-order edge, checked under
//                                   -Wthread-safety-beta.
//
// apamm_check (tools/check) rule R3 additionally enforces, lexically, that
// annotated modules use apa::Mutex (never raw std::mutex) and that every
// Mutex member appears in at least one APAMM_GUARDED_BY / APAMM_REQUIRES
// clause in the same file — so the annotations cannot silently rot even in
// GCC-only environments.

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define APAMM_TSA_ATTRIBUTE(x) __attribute__((x))
#endif
#endif
#if !defined(APAMM_TSA_ATTRIBUTE)
#define APAMM_TSA_ATTRIBUTE(x)  // no-op off-Clang
#endif

#define APAMM_CAPABILITY(x) APAMM_TSA_ATTRIBUTE(capability(x))
#define APAMM_SCOPED_CAPABILITY APAMM_TSA_ATTRIBUTE(scoped_lockable)
#define APAMM_GUARDED_BY(x) APAMM_TSA_ATTRIBUTE(guarded_by(x))
#define APAMM_PT_GUARDED_BY(x) APAMM_TSA_ATTRIBUTE(pt_guarded_by(x))
#define APAMM_REQUIRES(...) \
  APAMM_TSA_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define APAMM_ACQUIRE(...) \
  APAMM_TSA_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define APAMM_RELEASE(...) \
  APAMM_TSA_ATTRIBUTE(release_capability(__VA_ARGS__))
#define APAMM_TRY_ACQUIRE(...) \
  APAMM_TSA_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define APAMM_EXCLUDES(...) APAMM_TSA_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define APAMM_ACQUIRED_BEFORE(...) \
  APAMM_TSA_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define APAMM_ACQUIRED_AFTER(...) \
  APAMM_TSA_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define APAMM_ASSERT_CAPABILITY(x) \
  APAMM_TSA_ATTRIBUTE(assert_capability(x))
#define APAMM_RETURN_CAPABILITY(x) APAMM_TSA_ATTRIBUTE(lock_returned(x))
#define APAMM_NO_THREAD_SAFETY_ANALYSIS \
  APAMM_TSA_ATTRIBUTE(no_thread_safety_analysis)

namespace apa {

class CondVar;
class MutexLock;

/// std::mutex carrying the TSA "mutex" capability. Non-recursive; use
/// APAMM_EXCLUDES on public entry points so re-entrant calls are rejected at
/// compile time instead of deadlocking at runtime.
class APAMM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() APAMM_ACQUIRE() { m_.lock(); }
  void unlock() APAMM_RELEASE() { m_.unlock(); }
  bool try_lock() APAMM_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex m_;
};

/// Scoped lock over apa::Mutex, relockable: unlock()/lock() members support
/// the poll-loop pattern (drop the lock around a slow callback, reacquire
/// afterwards) used by ControlBlock::join_rewind and
/// ShardLoader::prefetch_loop. The destructor releases only if currently held.
/// Bodies use the raw std::mutex (friend access) so the analysis trusts the
/// declared attributes instead of double-counting the underlying acquire.
class APAMM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) APAMM_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.m_.lock();
  }
  ~MutexLock() APAMM_RELEASE() {
    if (held_) mu_.m_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() APAMM_RELEASE() {
    mu_.m_.unlock();
    held_ = false;
  }
  void lock() APAMM_ACQUIRE() {
    mu_.m_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable whose wait primitives take the apa::Mutex they
/// atomically release, so callers can hold a MutexLock (which TSA tracks)
/// instead of a std::unique_lock (which it cannot). Implemented by adopting
/// the native handle for the duration of the wait and releasing it back.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(Mutex& mu) APAMM_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // caller's MutexLock still owns the re-acquired lock
  }

  template <class Rep, class Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& dur)
      APAMM_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, dur);
    native.release();
    return status;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace apa
