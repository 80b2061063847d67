// Lockdep runtime tests: prove the checker actually catches the historic
// ordering hazards (durable-vs-shard, append-vs-sync), accepts every legal
// chain, and reports violations with both lock sites. The violation tests
// are death tests — lockdep aborts on the first inconsistent acquisition,
// which is exactly the property that lets a single-threaded test prove a
// cross-thread deadlock would occur (see src/common/lockdep.h).
//
// Under a build without -DOCASTA_LOCKDEP=ON every test here SKIPs: the
// pass-through mutexes detect nothing by design.
#include "common/lockdep.h"

#include <gtest/gtest.h>

#include <mutex>
#include <shared_mutex>

#include "api/command.h"
#include "server/sharded_ttkv.h"

namespace ocasta {
namespace {

using lockdep::ordered_mutex;
using lockdep::ordered_shared_mutex;

#define SKIP_WITHOUT_LOCKDEP()                                              \
  if (!lockdep::kEnabled) {                                                 \
    GTEST_SKIP() << "built without OCASTA_LOCKDEP; nothing to check here";  \
  }                                                                         \
  ::testing::FLAGS_gtest_death_test_style = "threadsafe"

// The invariant this whole layer exists for: DurableEngine holds its mu_
// while the inner engine takes shard locks, so anything taking mu_ while
// holding a shard lock is a deadlock waiting for the right interleaving.
// Lockdep must refuse the bad order on the spot, naming BOTH locks and
// printing both acquisition sites.
TEST(LockdepDeath, DurableMutexAcquiredUnderShardLockAborts) {
  SKIP_WITHOUT_LOCKDEP();
  EXPECT_DEATH(
      {
        ordered_shared_mutex shard_mu{lockdep::kShardClass};
        ordered_mutex mutate_mu{lockdep::kDurableMutateClass};
        std::shared_lock<ordered_shared_mutex> shard(shard_mu);
        std::lock_guard<ordered_mutex> mutate(mutate_mu);  // Forbidden order.
      },
      "lockdep: RANK VIOLATION: acquiring \"DurableEngine::mu_\" \\(rank 20\\) "
      "while holding \"ShardedTtkv::Shard::mu\" \\(rank 50\\)");
}

// The report must carry both stacks, or the abort is a puzzle instead of a
// diagnosis.
TEST(LockdepDeath, ViolationReportNamesBothLockSites) {
  SKIP_WITHOUT_LOCKDEP();
  EXPECT_DEATH(
      {
        ordered_mutex sync_mu{lockdep::kWalSyncClass};
        ordered_mutex append_mu{lockdep::kWalAppendClass};
        std::lock_guard<ordered_mutex> sync(sync_mu);
        std::lock_guard<ordered_mutex> append(append_mu);  // sync before append: reversed.
      },
      "held lock acquired here(.|\n)*violating acquisition \\(current stack\\)");
}

// Deliberate double-lock, exempted from the static analysis: clang's
// -Wthread-safety correctly flags it at compile time, but this test needs
// it to REACH the runtime checker and prove lockdep aborts too.
void AcquireTwice() OCASTA_NO_THREAD_SAFETY_ANALYSIS {
  ordered_mutex mu{lockdep::kDurableMutateClass};
  mu.lock();
  mu.lock();  // Self-deadlock; lockdep must fire before the hang.
}

TEST(LockdepDeath, RecursiveAcquisitionAborts) {
  SKIP_WITHOUT_LOCKDEP();
  EXPECT_DEATH(AcquireTwice(), "lockdep: RECURSIVE ACQUISITION");
}

// Deliberate unmatched unlock, exempted for the same reason as above.
void ReleaseUnheld() OCASTA_NO_THREAD_SAFETY_ANALYSIS {
  ordered_mutex mu{lockdep::kDurableMutateClass};
  mu.unlock();  // OnRelease aborts before the underlying unlock.
}

TEST(LockdepDeath, ReleaseOfUnheldLockAborts) {
  SKIP_WITHOUT_LOCKDEP();
  EXPECT_DEATH(ReleaseUnheld(), "lockdep: RELEASE OF UNHELD LOCK");
}

// Unranked classes skip the rank rule but stay covered by the edge graph:
// observing A->B then B->A is a cross-thread deadlock cycle even though no
// rank was violated.
TEST(LockdepDeath, UnrankedInversionCaughtByEdgeGraph) {
  SKIP_WITHOUT_LOCKDEP();
  static constexpr lockdep::LockClass kTestA{"test::A", lockdep::kUnranked};
  static constexpr lockdep::LockClass kTestB{"test::B", lockdep::kUnranked};
  EXPECT_DEATH(
      {
        ordered_mutex a{kTestA};
        ordered_mutex b{kTestB};
        {
          std::lock_guard<ordered_mutex> la(a);
          std::lock_guard<ordered_mutex> lb(b);  // Records edge A -> B.
        }
        std::lock_guard<ordered_mutex> lb(b);
        std::lock_guard<ordered_mutex> la(a);  // Reverse edge: cycle.
      },
      "lockdep: LOCK-ORDER INVERSION(.|\n)*test::B(.|\n)*test::A");
}

// Every legal chain in the rank table, innermost to outermost, in one
// acquisition: must be silent.
TEST(Lockdep, FullLegalChainIsSilent) {
  SKIP_WITHOUT_LOCKDEP();
  ordered_mutex checkpoint_mu{lockdep::kDurableCheckpointClass};
  ordered_mutex mutate_mu{lockdep::kDurableMutateClass};
  ordered_shared_mutex shard_mu{lockdep::kShardClass};
  ordered_mutex append_mu{lockdep::kWalAppendClass};
  ordered_mutex sync_mu{lockdep::kWalSyncClass};

  std::lock_guard<ordered_mutex> l1(checkpoint_mu);
  std::lock_guard<ordered_mutex> l2(mutate_mu);
  std::unique_lock<ordered_shared_mutex> l3(shard_mu);
  std::lock_guard<ordered_mutex> l4(append_mu);
  std::lock_guard<ordered_mutex> l5(sync_mu);
  SUCCEED();
}

// Dropping a lock mid-chain resets the frontier: shard then (released)
// then durable-then-shard again is legal, and LIFO is not required.
TEST(Lockdep, ReleaseResetsOrderingFrontier) {
  SKIP_WITHOUT_LOCKDEP();
  ordered_mutex mutate_mu{lockdep::kDurableMutateClass};
  ordered_shared_mutex shard_mu{lockdep::kShardClass};
  {
    std::unique_lock<ordered_shared_mutex> shard(shard_mu);
  }
  std::lock_guard<ordered_mutex> mutate(mutate_mu);
  std::unique_lock<ordered_shared_mutex> shard(shard_mu);
  SUCCEED();
}

// End-to-end: the real engine paths that motivated the ranks — sharded
// writes (shard locks), reads (shared locks), ClusterNow (a shared-lock
// sweep over every shard) — run clean under the checker.
TEST(Lockdep, ShardedEngineOperationsAreClean) {
  SKIP_WITHOUT_LOCKDEP();
  ShardedTtkv engine(/*num_shards=*/4);
  for (int i = 0; i < 64; ++i) {
    const std::string key = "key-" + std::to_string(i % 8);
    engine.Apply(api::PutCmd{key, int64_t{i}, static_cast<TimeMicros>(i + 1)});
    engine.Apply(api::GetCmd{key});
  }
  const api::Result result = engine.Apply(api::ClusterNowCmd{});
  EXPECT_FALSE(api::IsError(result));
  const api::Result stats = engine.Apply(api::StatsCmd{});
  EXPECT_FALSE(api::IsError(stats));
}

}  // namespace
}  // namespace ocasta
