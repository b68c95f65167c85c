// Replicated commit-manager tests (docs/RECOVERY.md):
//
//   1. Unit tests of the slot/replica machinery: change-log replay,
//      snapshot-bounded catch-up, deterministic elections, promotion
//      invariants (orphaned-range completion, monotone tid stream,
//      begin-token idempotency across fail-over).
//   2. A seeded kill-the-leader chaos suite: the leader dies mid-Start,
//      mid-Finish and with an ambiguous (executed-but-unacked) begin;
//      a follower is elected, TPC-C-style traffic resumes, and no tid is
//      lost or duplicated (the snapshot base catches up to the last tid).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "commitmgr/commit_manager.h"
#include "commitmgr/replication.h"
#include "common/random.h"
#include "db/tell_db.h"
#include "schema/schema.h"
#include "sim/fault_injector.h"
#include "store/cluster.h"
#include "tests/test_util.h"
#include "tx/transaction.h"

namespace tell {
namespace {

using commitmgr::CommitManager;
using commitmgr::CommitManagerGroup;
using commitmgr::CommitManagerOptions;
using commitmgr::ReplicaRole;
using commitmgr::ReplicationOptions;
using schema::Tuple;
using sim::FaultInjector;
using sim::FaultOpClass;
using sim::FaultPlan;
using sim::FaultRule;
using tx::Transaction;

// ---------------------------------------------------------------------------
// Unit tests: slot/replica machinery
// ---------------------------------------------------------------------------

class ReplicatedGroupTest : public ::testing::Test {
 protected:
  ReplicatedGroupTest() {
    store::ClusterOptions options;
    options.num_storage_nodes = 2;
    cluster_ = std::make_unique<store::Cluster>(options);
  }

  std::unique_ptr<CommitManagerGroup> MakeGroup(
      uint32_t slots, uint32_t replicas, uint32_t range = 16,
      uint64_t snapshot_interval = 256) {
    CommitManagerOptions options;
    options.tid_range_size = range;
    ReplicationOptions replication;
    replication.replicas = replicas;
    replication.snapshot_interval = snapshot_interval;
    return std::make_unique<CommitManagerGroup>(cluster_.get(), slots, options,
                                                /*sync_interval_ms=*/0,
                                                replication);
  }

  std::unique_ptr<store::Cluster> cluster_;
};

TEST_F(ReplicatedGroupTest, ReplicasOffBehavesAsBefore) {
  auto group = MakeGroup(2, /*replicas=*/1);
  EXPECT_EQ(group->num_replicas(), 1u);
  ASSERT_OK_AND_ASSIGN(commitmgr::TxnBeginDelta t,
                       group->manager(0)->StartDelta({.pn_id = 0}));
  ASSERT_OK(group->manager(0)->SetCommitted(t.tid));
  commitmgr::GroupReplicationStats repl = group->ReplStats();
  EXPECT_EQ(repl.log_appends, 0u);
  EXPECT_EQ(repl.elections, 0u);
}

TEST_F(ReplicatedGroupTest, FollowerCatchUpReproducesLeaderState) {
  auto group = MakeGroup(1, /*replicas=*/3);
  CommitManager* leader = group->manager(0);
  ASSERT_EQ(leader->role(), ReplicaRole::kLeader);

  std::vector<commitmgr::Tid> tids;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(commitmgr::TxnBeginDelta t,
                         leader->StartDelta({.pn_id = 0}));
    tids.push_back(t.tid);
  }
  for (size_t i = 0; i + 2 < tids.size(); ++i) {
    ASSERT_OK(leader->SetCommitted(tids[i]));
  }

  // Followers replay lazily at sync rounds.
  ASSERT_OK(group->SyncAll());
  const uint32_t leader_idx = group->leader_index(0);
  for (uint32_t r = 0; r < 3; ++r) {
    if (r == leader_idx) continue;
    CommitManager* follower = group->replica(0, r);
    EXPECT_EQ(follower->role(), ReplicaRole::kFollower);
    EXPECT_EQ(follower->CurrentSnapshot().base(),
              leader->CurrentSnapshot().base())
        << "replica " << r;
    EXPECT_EQ(follower->HighestAssignedTid(), leader->HighestAssignedTid());
  }

  commitmgr::GroupReplicationStats repl = group->ReplStats();
  EXPECT_GT(repl.log_appends, 0u);
  EXPECT_GT(repl.log_bytes, 0u);
  EXPECT_GT(repl.records_replayed, 0u);

  // A follower rejects requests (single-leader-per-slot invariant).
  CommitManager* follower = group->replica(0, (leader_idx + 1) % 3);
  EXPECT_TRUE(follower->StartDelta({.pn_id = 0}).status().IsUnavailable());
}

TEST_F(ReplicatedGroupTest, ElectionIsDeterministicPerSeed) {
  auto run_election = [this]() {
    store::ClusterOptions coptions;
    coptions.num_storage_nodes = 2;
    store::Cluster cluster(coptions);
    CommitManagerOptions options;
    options.tid_range_size = 16;
    ReplicationOptions replication;
    replication.replicas = 3;
    CommitManagerGroup group(&cluster, 1, options, /*sync_interval_ms=*/0,
                             replication);
    EXPECT_OK(group.manager(0)->StartDelta({.pn_id = 0}).status());
    group.manager(0)->Kill();
    uint64_t election_ns = 0;
    CommitManager* next = group.ManagerFor(0, &election_ns);
    EXPECT_NE(next, nullptr);
    EXPECT_GT(election_ns, 0u) << "the electing client pays the timeout";
    EXPECT_EQ(group.ReplStats().elections, 1u);
    EXPECT_EQ(group.ReplStats().term, 1u);
    return group.leader_index(0);
  };
  const uint32_t first = run_election();
  EXPECT_EQ(first, run_election()) << "same seed must elect the same leader";
}

TEST_F(ReplicatedGroupTest, PromotionCompletesOrphanedRangeAndStaysMonotone) {
  auto group = MakeGroup(1, /*replicas=*/2, /*range=*/16);
  CommitManager* old_leader = group->manager(0);
  ASSERT_OK_AND_ASSIGN(commitmgr::TxnBeginDelta t1,
                       old_leader->StartDelta({.pn_id = 0}));
  EXPECT_EQ(t1.tid, 1u);  // range [1, 16] was granted
  ASSERT_OK(old_leader->SetCommitted(t1.tid));
  const commitmgr::Tid highest = old_leader->HighestAssignedTid();

  old_leader->Kill();
  uint64_t election_ns = 0;
  CommitManager* new_leader = group->ManagerFor(0, &election_ns);
  ASSERT_NE(new_leader, nullptr);
  ASSERT_NE(new_leader, old_leader);
  EXPECT_EQ(new_leader->role(), ReplicaRole::kLeader);

  // The dead leader's granted-but-unassigned remainder [2, 16] was completed
  // at promotion — it can never be assigned, so it must not pin the base.
  EXPECT_GE(new_leader->CurrentSnapshot().base(), 16u)
      << "orphaned range remainder still pins the snapshot base";

  // The new leader's first tid comes from a fresh counter range, strictly
  // above everything the dead leader ever granted (monotone stream).
  ASSERT_OK_AND_ASSIGN(commitmgr::TxnBeginDelta t2,
                       new_leader->StartDelta({.pn_id = 0}));
  EXPECT_GT(t2.tid, 16u);
  EXPECT_GT(t2.tid, highest);
  ASSERT_OK(new_leader->SetCommitted(t2.tid));
  EXPECT_EQ(new_leader->CurrentSnapshot().base(), t2.tid);
}

TEST_F(ReplicatedGroupTest, BeginTokenReplayedAcrossFailoverReturnsSameTid) {
  auto group = MakeGroup(1, /*replicas=*/2);
  CommitManager* old_leader = group->manager(0);

  commitmgr::BeginRequest request;
  request.pn_id = 0;
  request.start_token = 0xDEAD'BEEF'0001;
  ASSERT_OK_AND_ASSIGN(commitmgr::TxnBeginDelta first,
                       old_leader->StartDelta(request));

  // The leader dies holding the (executed) begin; the client's retry lands
  // on the elected successor with the same token.
  old_leader->Kill();
  CommitManager* new_leader = group->ManagerFor(0);
  ASSERT_NE(new_leader, nullptr);
  ASSERT_NE(new_leader, old_leader);
  ASSERT_OK_AND_ASSIGN(commitmgr::TxnBeginDelta replay,
                       new_leader->StartDelta(request));
  EXPECT_EQ(replay.tid, first.tid)
      << "a replayed begin token must resolve to the original tid";

  // Completing it once releases the active entry — nothing pins the base.
  ASSERT_OK(new_leader->SetCommitted(first.tid));
  EXPECT_GE(new_leader->CurrentSnapshot().base(), first.tid);
}

TEST_F(ReplicatedGroupTest, SnapshotBoundsCatchUpReplay) {
  auto group = MakeGroup(1, /*replicas=*/2, /*range=*/16,
                         /*snapshot_interval=*/8);
  CommitManager* leader = group->manager(0);
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK_AND_ASSIGN(commitmgr::TxnBeginDelta t,
                         leader->StartDelta({.pn_id = 0}));
    ASSERT_OK(leader->SetCommitted(t.tid));
  }
  const commitmgr::Tid base_before = leader->CurrentSnapshot().base();

  leader->Kill();
  CommitManager* promoted = group->ManagerFor(0);
  ASSERT_NE(promoted, nullptr);

  commitmgr::GroupReplicationStats repl = group->ReplStats();
  EXPECT_GT(repl.snapshots, 0u);
  EXPECT_GT(repl.log_truncated, 0u);
  EXPECT_GT(repl.snapshot_installs, 0u)
      << "a follower this far behind must catch up via a log snapshot";
  EXPECT_GE(promoted->CurrentSnapshot().base(), base_before);

  ASSERT_OK_AND_ASSIGN(commitmgr::TxnBeginDelta t,
                       promoted->StartDelta({.pn_id = 0}));
  EXPECT_GT(t.tid, base_before);
  ASSERT_OK(promoted->SetCommitted(t.tid));
}

TEST_F(ReplicatedGroupTest, RevivedOldLeaderRejoinsAsFollower) {
  auto group = MakeGroup(1, /*replicas=*/3);
  CommitManager* old_leader = group->manager(0);
  ASSERT_OK(old_leader->StartDelta({.pn_id = 0}).status());
  old_leader->Kill();
  CommitManager* new_leader = group->ManagerFor(0);
  ASSERT_NE(new_leader, old_leader);

  old_leader->Revive();
  EXPECT_EQ(old_leader->role(), ReplicaRole::kFollower)
      << "a revived leader must not serve the slot it lost";
  EXPECT_TRUE(old_leader->StartDelta({.pn_id = 0}).status().IsUnavailable());
  EXPECT_EQ(group->ManagerFor(0), new_leader);
}

TEST_F(ReplicatedGroupTest, SlotUnavailableOnlyWhenAllReplicasDead) {
  auto group = MakeGroup(1, /*replicas=*/2);
  group->replica(0, 0)->Kill();
  group->replica(0, 1)->Kill();
  EXPECT_EQ(group->ManagerFor(0), nullptr);
  group->replica(0, 1)->Revive();
  // A dead leader whose follower was revived is electable again.
  EXPECT_NE(group->ManagerFor(0), nullptr);
}

// ---------------------------------------------------------------------------
// Kill-the-leader chaos suite (3 seeds)
// ---------------------------------------------------------------------------

// One workload run with a replicated commit-manager slot and three injected
// leader kills: one mid-Start (request lost), one on a message carrying
// deferred finish notifications, and one ambiguous begin (executed, then the
// leader dies holding the response — the begin token resolves it on the
// successor). Four replicas, so after three
// kills a live leader remains. Transfers between accounts give an exact
// model to check against; the final probe asserts the snapshot base caught
// up to the last tid issued — i.e. zero lost or leaked (duplicated) tids.
class LeaderKillChaosSuite : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LeaderKillChaosSuite, ElectsReplacementsAndLosesNoTids) {
  const uint64_t seed = GetParam();
  // Seed-dependent offsets move the kills around the request stream. Every
  // begin's first attempt carries the previous transaction's finish, so it
  // matches both the start and the finish rules; kill #1's retry carries no
  // finish, which puts kill #2 at begin message skip_finish + 1 — after
  // kill #1 and its retry, and before kill #3.
  const uint64_t skip_start = 3 + seed % 7;
  const uint64_t skip_finish = 9 + seed % 3;
  const uint64_t skip_ambiguous = 12 + seed % 9;
  sim::FaultInjector injector(FaultPlan{
      .seed = seed,
      .rules = {
          // Kill #1: leader dies BEFORE a begin executes (request lost).
          FaultRule{.kind = FaultRule::Kind::kKillCommitLeader,
                    .op = FaultOpClass::kCommitMgrStart,
                    .skip_matches = skip_start,
                    .probability = 1.0,
                    .max_fires = 1},
          // Kill #2: leader dies on the coalesced begin message that carries
          // the deferred finish notifications.
          FaultRule{.kind = FaultRule::Kind::kKillCommitLeader,
                    .op = FaultOpClass::kCommitMgrFinish,
                    .skip_matches = skip_finish,
                    .probability = 1.0,
                    .max_fires = 1},
          // Kill #3: ambiguous begin — both rules fire on the same request,
          // so it executes, the leader dies, and the response is lost.
          FaultRule{.kind = FaultRule::Kind::kKillCommitLeader,
                    .op = FaultOpClass::kCommitMgrStart,
                    .skip_matches = skip_ambiguous,
                    .probability = 1.0,
                    .max_fires = 1},
          FaultRule{.kind = FaultRule::Kind::kDropResponse,
                    .op = FaultOpClass::kCommitMgrStart,
                    .skip_matches = skip_ambiguous,
                    .probability = 1.0,
                    .max_fires = 1},
      }});
  injector.Disarm();

  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  options.fault_injector = &injector;
  options.num_commit_managers = 1;
  options.commit_replication.replicas = 4;
  options.commit_replication.snapshot_interval = 32;
  db::TellDb db(options);

  ASSERT_OK(db.CreateTable("accounts",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .AddDouble("balance")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {}));
  auto session = db.OpenSession(0, 0);
  auto accounts = *db.GetTable(0, "accounts");

  constexpr int kAccounts = 6;
  constexpr double kInitialBalance = 500.0;
  std::vector<uint64_t> rids;
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    for (int64_t i = 0; i < kAccounts; ++i) {
      Tuple t(2);
      t.Set(0, i);
      t.Set(1, kInitialBalance);
      ASSERT_OK_AND_ASSIGN(uint64_t rid, txn.Insert(accounts, t, false));
      rids.push_back(rid);
    }
    ASSERT_OK(txn.Commit());
  }

  std::vector<double> expected(kAccounts, kInitialBalance);
  injector.Arm();
  Random rng(seed ^ 0x715EED);
  constexpr int kTxns = 120;
  int committed = 0;
  for (int i = 0; i < kTxns; ++i) {
    Transaction txn(session.get());
    if (!txn.Begin().ok()) continue;
    const size_t a = rng.Uniform(kAccounts);
    size_t b = rng.Uniform(kAccounts - 1);
    if (b >= a) ++b;
    const double amount = 1.0 + static_cast<double>(rng.Uniform(20));
    auto ra = txn.Read(accounts, rids[a]);
    auto rb = txn.Read(accounts, rids[b]);
    if (!(ra.ok() && rb.ok() && ra->has_value() && rb->has_value())) {
      (void)txn.Abort();
      continue;
    }
    Tuple ta(2), tb(2);
    ta.Set(0, static_cast<int64_t>(a));
    ta.Set(1, (*ra)->GetDouble(1) - amount);
    tb.Set(0, static_cast<int64_t>(b));
    tb.Set(1, (*rb)->GetDouble(1) + amount);
    if (!(txn.Update(accounts, rids[a], ta).ok() &&
          txn.Update(accounts, rids[b], tb).ok())) {
      (void)txn.Abort();
      continue;
    }
    if (txn.Commit().ok()) {
      ++committed;
      expected[a] -= amount;
      expected[b] += amount;
    }
  }
  injector.Disarm();

  // All three kills fired and each one forced an election.
  const sim::FaultStats stats = injector.stats();
  EXPECT_EQ(stats.leader_kills, 3u) << "seed " << seed;
  commitmgr::GroupReplicationStats repl = db.commit_managers()->ReplStats();
  EXPECT_GE(repl.elections, 3u);
  EXPECT_GE(repl.term, 3u);
  EXPECT_GT(committed, 0) << "traffic must resume after every fail-over";

  // Committed balances match the model exactly: nothing lost, nothing
  // applied twice.
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    double total = 0;
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_OK_AND_ASSIGN(
          auto row, txn.Read(accounts, rids[static_cast<size_t>(i)]));
      ASSERT_TRUE(row.has_value());
      EXPECT_NEAR(row->GetDouble(1), expected[static_cast<size_t>(i)], 1e-6)
          << "account " << i << " seed " << seed;
      total += row->GetDouble(1);
    }
    EXPECT_NEAR(total, kAccounts * kInitialBalance, 1e-6);
    ASSERT_OK(txn.Commit());
  }

  // GC-horizon progress: after flushing accounting, nothing pins the
  // snapshot base below the last tid issued — a leaked active entry (lost
  // or duplicated begin) would hold it back forever.
  Transaction probe(session.get());
  ASSERT_OK(probe.Begin());
  ASSERT_OK(probe.Commit());
  session->commitmgr_client()->FlushPendingAccounting();
  CommitManager* leader = db.commit_managers()->ManagerFor(0);
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->CurrentSnapshot().base(), probe.tid())
      << "a fail-over leaked or lost a tid (seed " << seed << ")";
  EXPECT_GE(db.commit_managers()->GlobalLav(), probe.tid());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeaderKillChaosSuite,
                         ::testing::Values(uint64_t{0xC0FFEE01},
                                           uint64_t{0xC0FFEE02},
                                           uint64_t{0xC0FFEE03}));

}  // namespace
}  // namespace tell
