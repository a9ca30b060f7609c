#pragma once

// Capability-annotated synchronization primitives (DESIGN.md, "Static
// analysis").  Every mutex in the tree is a dsp::runtime::Mutex and every
// lock scope a MutexLock, so Clang's Thread Safety Analysis can prove at
// compile time that each DSP_GUARDED_BY member is only touched with its
// mutex held and that each DSP_REQUIRES method is only called from a
// locked scope.  The clang CI job builds with `-Wthread-safety -Werror`;
// under GCC (and any compiler without the annotations) every macro expands
// to nothing and the wrappers compile down to the std primitives they
// hold — same code, zero overhead, no analysis.
//
// Conventions:
//  * members:       `std::size_t active_ DSP_GUARDED_BY(mutex_);`
//  * locked helper: `void insert_locked(...) DSP_REQUIRES(mutex_);` — the
//    `_locked` suffix and the annotation travel together, so the compiler
//    enforces what the naming convention used to merely suggest.
//  * lock scope:    `MutexLock lock(mutex_);` (scoped capability; supports
//    one mid-scope `unlock()` for wait-outside-the-lock patterns).
//  * condvar wait:  predicate-less `while (!cond) cv.wait(lock);` loops —
//    the analysis sees the guarded reads in the caller's own frame, where
//    the capability is held (a predicate lambda would be analyzed as an
//    unannotated function and rejected).

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define DSP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DSP_THREAD_ANNOTATION(x)  // not Clang: annotations vanish
#endif

/// Marks a class as a lockable capability (named in diagnostics).
#define DSP_CAPABILITY(x) DSP_THREAD_ANNOTATION(capability(x))
/// Marks an RAII lock class: construction acquires, destruction releases.
#define DSP_SCOPED_CAPABILITY DSP_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only with the given capability held.
#define DSP_GUARDED_BY(x) DSP_THREAD_ANNOTATION(guarded_by(x))
/// Pointee (not the pointer itself) guarded by the given capability.
#define DSP_PT_GUARDED_BY(x) DSP_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function acquires the capability (and it must not already be held).
#define DSP_ACQUIRE(...) DSP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability (which must be held on entry).
#define DSP_RELEASE(...) DSP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Caller must hold the capability for the duration of the call.
#define DSP_REQUIRES(...) DSP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock guard for self-locking
/// public entry points).
#define DSP_EXCLUDES(...) DSP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the given capability.
#define DSP_RETURN_CAPABILITY(x) DSP_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: function body is not analyzed.  Every use must carry a
/// comment arguing why the access is safe.
#define DSP_NO_THREAD_SAFETY_ANALYSIS \
  DSP_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dsp::runtime {

/// std::mutex as a named capability.  Prefer MutexLock scopes; bare
/// lock()/unlock() exist for the rare split acquire/release and carry the
/// acquire/release annotations so the analysis still tracks them.
class DSP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DSP_ACQUIRE() { mutex_.lock(); }
  void unlock() DSP_RELEASE() { mutex_.unlock(); }

 private:
  friend class MutexLock;
  std::mutex mutex_;
};

/// Scoped lock over a Mutex (the tree's only lock-scope type).  Supports a
/// mid-scope `unlock()` for the wait-outside-the-lock pattern (publish a
/// shared_future under the lock, block on it outside); after unlock() the
/// destructor releases nothing, and the analysis rejects any guarded access
/// in the unlocked tail of the scope.
class DSP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) DSP_ACQUIRE(mutex) : lock_(mutex.mutex_) {}
  // The release is the unique_lock member's destructor; the empty body
  // exists because a `= default` destructor cannot carry the annotation.
  ~MutexLock() DSP_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Early release; the scope's guarded accesses must all precede it.
  void unlock() DSP_RELEASE() { lock_.unlock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable waiting on a MutexLock scope.  wait() atomically
/// releases and reacquires inside the (unannotated) std implementation;
/// from the analysis's point of view the capability is held across the
/// call, which is exactly the caller-visible contract.  Use predicate-less
/// wait loops (see the header comment).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  void notify_one() noexcept { cv_.notify_one(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dsp::runtime
