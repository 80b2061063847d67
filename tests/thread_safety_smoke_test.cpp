// Compile-smoke for common/thread_safety.h: every macro in the set is
// exercised on a miniature annotated class, and the file rides the tier-1
// gcc build with -Wall -Wextra -Werror. Off-clang the macros must expand
// to NOTHING — if one ever leaks tokens into a gcc build (a stray
// attribute, an unbalanced paren), this file is where it breaks. Under
// the clang-threadsafety CI build the same code doubles as a positive
// example the analysis must accept warning-free.
#include "common/thread_safety.h"

#include <gtest/gtest.h>

#include <optional>

#include "common/lockdep.h"

namespace ocasta {
namespace {

// A miniature capability of its own, independent of lockdep, so the raw
// CAPABILITY / ACQUIRE / TRY_ACQUIRE / ASSERT macros are all used on a
// type this test controls.
class OCASTA_CAPABILITY("mutex") ToyMutex {
 public:
  void lock() OCASTA_ACQUIRE() {}
  bool try_lock() OCASTA_TRY_ACQUIRE(true) { return true; }
  void unlock() OCASTA_RELEASE() {}
  void lock_shared() OCASTA_ACQUIRE_SHARED() {}
  bool try_lock_shared() OCASTA_TRY_ACQUIRE_SHARED(true) { return true; }
  void unlock_shared() OCASTA_RELEASE_SHARED() {}
  void unlock_generic() OCASTA_RELEASE_GENERIC() {}
  void AssertHeld() OCASTA_ASSERT_CAPABILITY(this) {}
  void AssertSharedHeld() OCASTA_ASSERT_SHARED_CAPABILITY(this) {}
};

class OCASTA_SCOPED_CAPABILITY ToyGuard {
 public:
  explicit ToyGuard(ToyMutex& mu) OCASTA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~ToyGuard() OCASTA_RELEASE() { mu_.unlock(); }
  ToyGuard(const ToyGuard&) = delete;
  ToyGuard& operator=(const ToyGuard&) = delete;

 private:
  ToyMutex& mu_;
};

class Annotated {
 public:
  ToyMutex& mu() OCASTA_RETURN_CAPABILITY(mu_) { return mu_; }

  void Set(int v) OCASTA_EXCLUDES(mu_) {
    const ToyGuard guard(mu_);
    SetLocked(v);
  }

  int GetLocked() const OCASTA_REQUIRES_SHARED(mu_) { return value_; }

  int Get() OCASTA_EXCLUDES(mu_) {
    const ToyGuard guard(mu_);
    return GetLocked();
  }

  int* handle() OCASTA_REQUIRES(mu_) { return pointee_; }

 private:
  void SetLocked(int v) OCASTA_REQUIRES(mu_) { value_ = v; }

  ToyMutex mu_;
  int value_ OCASTA_GUARDED_BY(mu_) = 0;
  int* pointee_ OCASTA_PT_GUARDED_BY(mu_) = nullptr;
};

// Justification: deliberately reads the guarded field without the lock to
// prove the opt-out macro compiles; the read races with nothing (single
// thread) and exists purely as macro-surface coverage.
int ReadUnlocked(Annotated& a) OCASTA_NO_THREAD_SAFETY_ANALYSIS {
  return a.Get();
}

TEST(ThreadSafetySmoke, AnnotatedCodeRunsIdentically) {
  Annotated a;
  a.Set(42);
  EXPECT_EQ(a.Get(), 42);
  EXPECT_EQ(ReadUnlocked(a), 42);
}

TEST(ThreadSafetySmoke, LockdepGuardsCompose) {
  // The four lockdep guard types built on the annotated wrappers — the
  // exact shapes the production code uses.
  lockdep::ordered_mutex mu{lockdep::kDurableMutateClass};
  lockdep::ordered_shared_mutex smu{lockdep::kShardClass};
  {
    const lockdep::guard lock(mu);
  }
  {
    lockdep::relock_guard lock(mu);
    lock.unlock();
    lock.lock();
  }
  {
    const lockdep::writer_guard lock(smu);
  }
  {
    const lockdep::reader_guard lock(smu);
  }
  SUCCEED();
}

}  // namespace
}  // namespace ocasta
