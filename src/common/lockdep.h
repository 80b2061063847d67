// Lockdep — a debug-build lock-order checker for the concurrency surface.
//
// The engine/WAL/event-loop stack has ordering invariants that used to live
// only in comments ("DurableEngine::mu_ before any shard lock",
// "append_mu_ before sync_mu_, never the reverse"). This
// layer makes them machine-checked: every mutex with ordering constraints
// is an ordered_mutex / ordered_shared_mutex carrying a LockClass — a name
// plus a RANK — and, when lockdep is compiled in, every acquisition is
// validated against the locks the acquiring thread already holds:
//
//   * rank rule — ranks must STRICTLY INCREASE along an acquisition chain.
//     Taking a lock whose rank is <= any held lock's rank aborts with the
//     acquisition stack of the held lock AND the current stack.
//   * acquired-held graph — every (held-class -> acquired-class) edge is
//     recorded globally with both stack traces; observing the reverse edge
//     (a cycle, i.e. a lock-order inversion between threads) aborts with
//     all four stacks. This also covers kUnranked classes, which skip the
//     rank rule (none exist today; the hook is for locks whose order is
//     genuinely dynamic).
//   * recursion rule — re-acquiring a lock the thread already holds (even
//     shared-after-shared) aborts; nothing in this codebase relocks.
//
// Violations abort() immediately — a lock-order bug is a deadlock that
// merely hasn't scheduled yet, and aborting on the FIRST inconsistent
// acquisition catches it on every run instead of the one run where two
// threads interleave badly (this is how the deliberate-inversion test in
// tests/lockdep_test.cpp can prove the durable-vs-shard invariant without
// actually deadlocking).
//
// The global rank table (see docs/TOOLING.md for the rationale of each
// edge) is defined at the bottom of this header. Gaps between ranks leave
// room for future locks (replication, io_uring completion queues).
//
// Build gating: compiled in only when the OCASTA_LOCKDEP macro is defined
// (cmake -DOCASTA_LOCKDEP=ON). Without it, ordered_mutex/ordered_shared_
// mutex are zero-overhead inline pass-throughs to std::mutex /
// std::shared_mutex — no extra state, no extra branches — so release
// builds pay nothing. The sanitizer CI jobs (TSan and ASan+UBSan) build
// with lockdep ON, so every ordering invariant is enforced on every test
// run that exercises concurrency.
//
// Static companion: both mutexes are clang thread-safety CAPABILITIES
// (common/thread_safety.h), and the guard types below are the annotated
// RAII wrappers the analysis understands — std::lock_guard/unique_lock/
// shared_lock acquire inside unannotated system headers, so a std guard
// leaves the analysis's held-lock set unchanged and every GUARDED_BY
// access under one would (wrongly) warn. Use lockdep::guard /
// relock_guard / writer_guard / reader_guard on the annotated surface.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_safety.h"

namespace ocasta::lockdep {

#ifdef OCASTA_LOCKDEP
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

// One lock CLASS (not instance): all 64 shard mutexes of a ShardedTtkv
// share one LockClass. Instances must be static-storage so identity is
// pointer identity.
struct LockClass {
  const char* name;
  int rank;  // kUnranked = graph-checked only; otherwise strictly ordered.
};

inline constexpr int kUnranked = 0;

namespace detail {
// Implemented in lockdep.cpp; only referenced when OCASTA_LOCKDEP is set,
// so release builds never pull the runtime in.
void OnAcquire(const LockClass* cls, const void* addr, bool shared);
void OnRelease(const void* addr);
}  // namespace detail

// Drop-in std::mutex with a lock class. Satisfies Lockable, so
// std::unique_lock / std::lock_guard / std::scoped_lock work unchanged
// (but see the guard types below for the annotated surface).
class OCASTA_CAPABILITY("mutex") ordered_mutex {
 public:
#ifdef OCASTA_LOCKDEP
  explicit ordered_mutex(const LockClass& cls) : cls_(&cls) {}
  // OnAcquire runs BEFORE blocking on the underlying mutex: recursion and
  // ordering are properties of the acquisition ATTEMPT, and a recursive
  // lock would self-deadlock inside std::mutex before a post-lock check
  // could ever run. try_lock checks after success instead — it cannot
  // block, and a failed probe must leave no trace.
  void lock() OCASTA_ACQUIRE() {
    detail::OnAcquire(cls_, this, /*shared=*/false);
    mu_.lock();
  }
  bool try_lock() OCASTA_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    detail::OnAcquire(cls_, this, /*shared=*/false);
    return true;
  }
  void unlock() OCASTA_RELEASE() {
    detail::OnRelease(this);
    mu_.unlock();
  }
#else
  explicit ordered_mutex(const LockClass&) {}
  void lock() OCASTA_ACQUIRE() { mu_.lock(); }
  bool try_lock() OCASTA_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() OCASTA_RELEASE() { mu_.unlock(); }
#endif

  ordered_mutex(const ordered_mutex&) = delete;
  ordered_mutex& operator=(const ordered_mutex&) = delete;

 private:
  std::mutex mu_;
#ifdef OCASTA_LOCKDEP
  const LockClass* cls_;
#endif
};

// Drop-in std::shared_mutex with a lock class; shared acquisitions obey
// the same rank/graph rules as exclusive ones (a reader that takes locks
// out of order deadlocks writers just as well).
class OCASTA_CAPABILITY("shared_mutex") ordered_shared_mutex {
 public:
#ifdef OCASTA_LOCKDEP
  explicit ordered_shared_mutex(const LockClass& cls) : cls_(&cls) {}
  // Same check-before-block rationale as ordered_mutex::lock above.
  void lock() OCASTA_ACQUIRE() {
    detail::OnAcquire(cls_, this, /*shared=*/false);
    mu_.lock();
  }
  bool try_lock() OCASTA_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    detail::OnAcquire(cls_, this, /*shared=*/false);
    return true;
  }
  void unlock() OCASTA_RELEASE() {
    detail::OnRelease(this);
    mu_.unlock();
  }
  void lock_shared() OCASTA_ACQUIRE_SHARED() {
    detail::OnAcquire(cls_, this, /*shared=*/true);
    mu_.lock_shared();
  }
  bool try_lock_shared() OCASTA_TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    detail::OnAcquire(cls_, this, /*shared=*/true);
    return true;
  }
  void unlock_shared() OCASTA_RELEASE_SHARED() {
    detail::OnRelease(this);
    mu_.unlock_shared();
  }
#else
  explicit ordered_shared_mutex(const LockClass&) {}
  void lock() OCASTA_ACQUIRE() { mu_.lock(); }
  bool try_lock() OCASTA_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() OCASTA_RELEASE() { mu_.unlock(); }
  void lock_shared() OCASTA_ACQUIRE_SHARED() { mu_.lock_shared(); }
  bool try_lock_shared() OCASTA_TRY_ACQUIRE_SHARED(true) { return mu_.try_lock_shared(); }
  void unlock_shared() OCASTA_RELEASE_SHARED() { mu_.unlock_shared(); }
#endif

  ordered_shared_mutex(const ordered_shared_mutex&) = delete;
  ordered_shared_mutex& operator=(const ordered_shared_mutex&) = delete;

 private:
  std::shared_mutex mu_;
#ifdef OCASTA_LOCKDEP
  const LockClass* cls_;
#endif
};

// --- Annotated RAII guards --------------------------------------------------
// The thread-safety analysis tracks acquisitions only through annotated
// functions, and std::lock_guard / std::unique_lock / std::shared_lock
// live in unannotated system headers — constructing one never updates the
// caller's held-lock set, so every GUARDED_BY access under a std guard
// would warn. These four concrete guards (mirroring the scoped-capability
// shape from the clang docs) cover every locking idiom in the codebase.
// They deliberately do NOT try to be std::unique_lock: no deferred locks,
// no adoption, no try-forms — shapes this codebase does not use stay
// inexpressible.

// lock_guard for ordered_mutex: exclusive, held for the full scope.
class OCASTA_SCOPED_CAPABILITY guard {
 public:
  explicit guard(ordered_mutex& mu) OCASTA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~guard() OCASTA_RELEASE() { mu_.unlock(); }

  guard(const guard&) = delete;
  guard& operator=(const guard&) = delete;

 private:
  ordered_mutex& mu_;
};

// unique_lock-shaped guard for ordered_mutex: starts locked, supports
// explicit unlock()/lock() windows (condvar waits, group commit's
// release-around-fsync). Must be locked again by scope exit on every path
// that unlocked it — condvar waits guarantee reacquisition themselves —
// and the analysis checks exactly that through the ACQUIRE/RELEASE
// annotations; owned_ keeps the destructor correct if an exception exits
// an unlocked window.
class OCASTA_SCOPED_CAPABILITY relock_guard {
 public:
  explicit relock_guard(ordered_mutex& mu) OCASTA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~relock_guard() OCASTA_RELEASE() {
    if (owned_) mu_.unlock();
  }

  void unlock() OCASTA_RELEASE() {
    owned_ = false;
    mu_.unlock();
  }
  void lock() OCASTA_ACQUIRE() {
    mu_.lock();
    owned_ = true;
  }

  relock_guard(const relock_guard&) = delete;
  relock_guard& operator=(const relock_guard&) = delete;

 private:
  ordered_mutex& mu_;
  bool owned_ = true;
};

// lock_guard for ordered_shared_mutex, exclusive (writer side).
class OCASTA_SCOPED_CAPABILITY writer_guard {
 public:
  explicit writer_guard(ordered_shared_mutex& mu) OCASTA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~writer_guard() OCASTA_RELEASE() { mu_.unlock(); }

  writer_guard(const writer_guard&) = delete;
  writer_guard& operator=(const writer_guard&) = delete;

 private:
  ordered_shared_mutex& mu_;
};

// shared_lock for ordered_shared_mutex (reader side).
class OCASTA_SCOPED_CAPABILITY reader_guard {
 public:
  explicit reader_guard(ordered_shared_mutex& mu) OCASTA_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~reader_guard() OCASTA_RELEASE_SHARED() { mu_.unlock_shared(); }

  reader_guard(const reader_guard&) = delete;
  reader_guard& operator=(const reader_guard&) = delete;

 private:
  ordered_shared_mutex& mu_;
};

// Condition variable usable with ordered_mutex. condition_variable_any's
// wait() releases/reacquires through the instrumented lock()/unlock() of
// relock_guard, so held-lock state stays correct across waits. (The _any
// variant costs one extra internal mutex per cv; every cv in this codebase
// sits on a flush / checkpoint path where that is noise.)
//
// Thread-safety caveat: wait(guard) unlocks and relocks inside a system
// header the analysis cannot see, so to the analysis the lock appears held
// straight through a wait — which is also the truth at every sequence
// point the waiting code can observe. Wait PREDICATES are different:
// a predicate lambda is analyzed as its own lock-free function, so waits
// whose predicate reads guarded state are written as explicit
// `while (!cond) cv.wait(lock);` loops instead (see Wal::Sync,
// DurableEngine::CheckpointThread).
using condvar = std::condition_variable_any;

// --- The global lock-order table --------------------------------------------
// Ranks strictly increase along every legal acquisition chain. Lower rank
// = acquired FIRST (outermost). The full rationale table lives in
// docs/TOOLING.md; the load-bearing edges:
//
//   checkpoint_mu_ < mu_          Checkpoint() stalls mutations for the cut
//   mu_ < {engine locks}          DurableEngine applies while serialized
//   mu_ < append_mu_ < sync_mu_   log-order == apply-order; group commit
//   join/pending/wake             leaves — nothing is acquired under them
inline constexpr LockClass kDurableCheckpointClass{"DurableEngine::checkpoint_mu_", 10};
inline constexpr LockClass kReplicaFollowerClass{"replica::Follower::mu_", 15};
inline constexpr LockClass kDurableMutateClass{"DurableEngine::mu_", 20};
inline constexpr LockClass kShardClass{"ShardedTtkv::Shard::mu", 50};
inline constexpr LockClass kWalAppendClass{"Wal::append_mu_", 60};
inline constexpr LockClass kWalSyncClass{"Wal::sync_mu_", 70};
inline constexpr LockClass kServerJoinClass{"TtkvServer::join_mu_", 80};
inline constexpr LockClass kEventLoopPendingClass{"EventLoop::pending_mu_", 90};
// Leaf-ish: taken by offload workers after the handler has RELEASED every
// engine/hub lock, and by the loop thread holding nothing.
inline constexpr LockClass kEventLoopOffloadClass{"EventLoop::offload_mu_", 92};
inline constexpr LockClass kDurableWakeClass{"DurableEngine::wake_mu_", 95};
inline constexpr LockClass kReplicationHubClass{"replica::ReplicationHub::mu_", 96};
// Metrics registry registration/snapshot path (src/obs/metrics.h). A leaf
// with a high rank because Snapshot() may run while an engine lock is held
// (a METRICS inside a logged batch runs under DurableEngine::mu_); nothing
// is ever acquired under it — the record hot path is pure relaxed atomics
// and never sees it.
inline constexpr LockClass kObsRegistryClass{"obs::MetricsRegistry::mu_", 97};

}  // namespace ocasta::lockdep
