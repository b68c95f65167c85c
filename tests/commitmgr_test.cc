#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "commitmgr/commit_manager.h"
#include "commitmgr/snapshot_descriptor.h"
#include "common/random.h"
#include "store/cluster.h"
#include "tests/test_util.h"

namespace tell::commitmgr {
namespace {

TEST(SnapshotDescriptorTest, BaseCoversLowTids) {
  SnapshotDescriptor snapshot(10);
  EXPECT_TRUE(snapshot.CanRead(1));
  EXPECT_TRUE(snapshot.CanRead(10));
  EXPECT_FALSE(snapshot.CanRead(11));
}

TEST(SnapshotDescriptorTest, MarkCompletedAdvancesBaseContiguously) {
  SnapshotDescriptor snapshot(0);
  snapshot.MarkCompleted(1);
  EXPECT_EQ(snapshot.base(), 1u);
  snapshot.MarkCompleted(3);  // hole at 2
  EXPECT_EQ(snapshot.base(), 1u);
  EXPECT_TRUE(snapshot.CanRead(3));
  EXPECT_FALSE(snapshot.CanRead(2));
  snapshot.MarkCompleted(2);
  EXPECT_EQ(snapshot.base(), 3u);
}

TEST(SnapshotDescriptorTest, HighestCompleted) {
  SnapshotDescriptor snapshot(5);
  EXPECT_EQ(snapshot.HighestCompleted(), 5u);
  snapshot.MarkCompleted(9);
  EXPECT_EQ(snapshot.HighestCompleted(), 9u);
}

TEST(SnapshotDescriptorTest, SerializationRoundTrip) {
  SnapshotDescriptor snapshot(100);
  snapshot.MarkCompleted(105);
  snapshot.MarkCompleted(170);
  ASSERT_OK_AND_ASSIGN(SnapshotDescriptor copy,
                       SnapshotDescriptor::Deserialize(snapshot.Serialize()));
  EXPECT_TRUE(copy == snapshot);
  EXPECT_TRUE(copy.CanRead(105));
  EXPECT_FALSE(copy.CanRead(106));
}

TEST(SnapshotDescriptorTest, MergeTakesUnion) {
  SnapshotDescriptor a(5);
  a.MarkCompleted(8);
  SnapshotDescriptor b(6);
  b.MarkCompleted(10);
  a.MergeFrom(b);
  EXPECT_GE(a.base(), 6u);
  EXPECT_TRUE(a.CanRead(8));
  EXPECT_TRUE(a.CanRead(10));
  EXPECT_FALSE(a.CanRead(9));
}

TEST(SnapshotDescriptorTest, MergeAdvancesOverCombinedPrefix) {
  SnapshotDescriptor a(0);
  a.MarkCompleted(2);  // knows 2
  SnapshotDescriptor b(1);  // knows 1 (via base)
  a.MergeFrom(b);
  EXPECT_EQ(a.base(), 2u);
}

TEST(SnapshotDescriptorTest, SubsetReflexive) {
  SnapshotDescriptor a(7);
  a.MarkCompleted(12);
  EXPECT_TRUE(a.IsSubsetOf(a));
}

TEST(SnapshotDescriptorTest, SubsetDetectsMissingTid) {
  SnapshotDescriptor small(5);
  SnapshotDescriptor big(5);
  big.MarkCompleted(7);
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
}

TEST(SnapshotDescriptorTest, SubsetAcrossDifferentBases) {
  SnapshotDescriptor newer(10);
  SnapshotDescriptor older(5);
  older.MarkCompleted(7);
  // newer covers 1..10; older covers 1..5 and 7.
  EXPECT_TRUE(older.IsSubsetOf(newer));
  EXPECT_FALSE(newer.IsSubsetOf(older));  // 6 not visible in older
}

TEST(SnapshotDescriptorTest, BitsetSizeStaysSmall) {
  // Paper §4.2: N is ~13 KB with 100,000 newly committed transactions.
  SnapshotDescriptor snapshot(0);
  // Leave tid 1 incomplete so the base cannot advance, then complete 100k.
  for (Tid tid = 2; tid <= 100'000; ++tid) snapshot.MarkCompleted(tid);
  EXPECT_LE(snapshot.BitsetBytes(), 14'000u);
  EXPECT_GE(snapshot.BitsetBytes(), 12'000u);
}

// ---------------------------------------------------------------------------
// CommitManager

class CommitManagerTest : public ::testing::Test {
 protected:
  CommitManagerTest() {
    store::ClusterOptions options;
    options.num_storage_nodes = 2;
    cluster_ = std::make_unique<store::Cluster>(options);
  }

  std::unique_ptr<CommitManagerGroup> MakeGroup(uint32_t n,
                                                uint32_t range = 16) {
    CommitManagerOptions options;
    options.tid_range_size = range;
    return std::make_unique<CommitManagerGroup>(cluster_.get(), n, options,
                                                /*sync_interval_ms=*/0);
  }

  std::unique_ptr<store::Cluster> cluster_;
};

TEST_F(CommitManagerTest, StartAssignsUniqueMonotonicTids) {
  auto group = MakeGroup(1);
  CommitManager* cm = group->manager(0);
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t1, cm->StartDelta({.pn_id = 0}));
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t2, cm->StartDelta({.pn_id = 0}));
  EXPECT_LT(t1.tid, t2.tid);
}

TEST_F(CommitManagerTest, SnapshotExcludesActiveTransactions) {
  auto group = MakeGroup(1);
  CommitManager* cm = group->manager(0);
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t1, cm->StartDelta({.pn_id = 0}));
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t2, cm->StartDelta({.pn_id = 0}));
  // t2's snapshot must not see t1 (still active).
  EXPECT_FALSE(t2.delta.snapshot.CanRead(t1.tid));
  ASSERT_OK(cm->SetCommitted(t1.tid));
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t3, cm->StartDelta({.pn_id = 0}));
  EXPECT_TRUE(t3.delta.snapshot.CanRead(t1.tid));
  EXPECT_FALSE(t3.delta.snapshot.CanRead(t2.tid));
}

TEST_F(CommitManagerTest, AbortedCountsAsCompleted) {
  auto group = MakeGroup(1);
  CommitManager* cm = group->manager(0);
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t1, cm->StartDelta({.pn_id = 0}));
  ASSERT_OK(cm->SetAborted(t1.tid));
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t2, cm->StartDelta({.pn_id = 0}));
  EXPECT_TRUE(t2.delta.snapshot.CanRead(t1.tid));
}

TEST_F(CommitManagerTest, LavTracksOldestActive) {
  auto group = MakeGroup(1);
  CommitManager* cm = group->manager(0);
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t1, cm->StartDelta({.pn_id = 0}));
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t2, cm->StartDelta({.pn_id = 0}));
  (void)t2;
  // While t1 runs, the lav stays at t1's snapshot base.
  EXPECT_EQ(cm->Lav(), t1.delta.snapshot.base());
  ASSERT_OK(cm->SetCommitted(t1.tid));
  ASSERT_OK(cm->SetCommitted(t2.tid));
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t3, cm->StartDelta({.pn_id = 0}));
  EXPECT_GE(t3.lav, t1.tid);
}

TEST_F(CommitManagerTest, TidRangesAvoidCounterRoundTrips) {
  auto group = MakeGroup(1, /*range=*/256);
  CommitManager* cm = group->manager(0);
  // All tids of the first range are continuous.
  Tid previous = 0;
  for (int i = 0; i < 256; ++i) {
    ASSERT_OK_AND_ASSIGN(TxnBeginDelta begin, cm->StartDelta({.pn_id = 0}));
    if (previous != 0) {
      EXPECT_EQ(begin.tid, previous + 1);
    }
    previous = begin.tid;
    ASSERT_OK(cm->SetCommitted(begin.tid));
  }
}

TEST_F(CommitManagerTest, TwoManagersGetDisjointRanges) {
  auto group = MakeGroup(2, /*range=*/8);
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta a,
                       group->manager(0)->StartDelta({.pn_id = 0}));
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta b,
                       group->manager(1)->StartDelta({.pn_id = 0}));
  EXPECT_NE(a.tid, b.tid);
  // Ranges of 8: manager 0 got [1,8], manager 1 [9,16].
  EXPECT_EQ(a.tid, 1u);
  EXPECT_EQ(b.tid, 9u);
}

TEST_F(CommitManagerTest, PeersLearnCommitsViaSync) {
  auto group = MakeGroup(2, /*range=*/8);
  CommitManager* cm0 = group->manager(0);
  CommitManager* cm1 = group->manager(1);
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t0, cm0->StartDelta({.pn_id = 0}));
  ASSERT_OK(cm0->SetCommitted(t0.tid));
  // Before sync, manager 1 does not know about t0.
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta before, cm1->StartDelta({.pn_id = 1}));
  EXPECT_FALSE(before.delta.snapshot.CanRead(t0.tid));
  ASSERT_OK(cm1->SetCommitted(before.tid));
  // One sync round propagates the state.
  ASSERT_OK(group->SyncAll());
  ASSERT_OK(group->SyncAll());  // second round: read-back of peer states
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta after, cm1->StartDelta({.pn_id = 1}));
  EXPECT_TRUE(after.delta.snapshot.CanRead(t0.tid));
}

TEST_F(CommitManagerTest, ManagerForSkipsDeadManagers) {
  auto group = MakeGroup(3);
  group->manager(1)->Kill();
  CommitManager* cm = group->ManagerFor(1);
  ASSERT_NE(cm, nullptr);
  EXPECT_NE(cm->manager_id(), 1u);
}

TEST_F(CommitManagerTest, AbortActiveOfCompletesPnTids) {
  auto group = MakeGroup(1);
  CommitManager* cm = group->manager(0);
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta pn0_txn, cm->StartDelta({.pn_id = 0}));
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta pn1_txn, cm->StartDelta({.pn_id = 1}));
  std::vector<Tid> aborted = cm->AbortActiveOf(0);
  ASSERT_EQ(aborted.size(), 1u);
  EXPECT_EQ(aborted[0], pn0_txn.tid);
  // pn1's transaction is still active.
  ASSERT_OK(cm->SetCommitted(pn1_txn.tid));
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta after, cm->StartDelta({.pn_id = 0}));
  EXPECT_TRUE(after.delta.snapshot.CanRead(pn0_txn.tid));
  EXPECT_TRUE(after.delta.snapshot.CanRead(pn1_txn.tid));
}

TEST_F(CommitManagerTest, ConcurrentStartsUniqueTids) {
  auto group = MakeGroup(2, /*range=*/32);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::vector<Tid>> tids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CommitManager* cm = group->ManagerFor(static_cast<uint32_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        auto begin = cm->StartDelta({.pn_id = 0});
        ASSERT_TRUE(begin.ok());
        tids[t].push_back(begin->tid);
        ASSERT_TRUE(cm->SetCommitted(begin->tid).ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<Tid> all;
  for (const auto& list : tids) {
    for (Tid tid : list) {
      EXPECT_TRUE(all.insert(tid).second) << "duplicate tid " << tid;
    }
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
}

// ---------------------------------------------------------------------------
// Delta protocol (StartDelta / SnapshotDelta).

/// What tx::CommitManagerClient keeps per manager: the acked (generation,
/// epoch) and the descriptor reconstructed from deltas.
struct ClientCache {
  uint32_t generation = 0;
  uint64_t epoch = 0;
  SnapshotDescriptor snapshot;
};

/// Issues a delta-protocol begin and applies the response to `cache`, the way
/// the client library does.
Result<TxnBeginDelta> BeginVia(CommitManager* cm, ClientCache* cache,
                               uint64_t token = 0) {
  BeginRequest request;
  request.pn_id = 0;
  request.start_token = token;
  request.ack_generation = cache->generation;
  request.ack_epoch = cache->epoch;
  auto begin = cm->StartDelta(request);
  if (begin.ok()) {
    cache->snapshot.ApplyDelta(begin->delta);
    cache->generation = begin->delta.generation;
    cache->epoch = begin->delta.epoch;
  }
  return begin;
}

TEST_F(CommitManagerTest, StartDeltaFirstContactIsFull) {
  auto group = MakeGroup(1);
  CommitManager* cm = group->manager(0);
  ClientCache cache;
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta begin, BeginVia(cm, &cache));
  EXPECT_TRUE(begin.delta.full);
  EXPECT_EQ(cache.snapshot, cm->CurrentSnapshot());
  EXPECT_EQ(cm->stats().full_starts, 1u);
  EXPECT_EQ(cm->stats().delta_starts, 0u);
}

TEST_F(CommitManagerTest, StartDeltaIncrementalReconstructsDescriptor) {
  auto group = MakeGroup(1);
  CommitManager* cm = group->manager(0);
  ClientCache cache;
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t1, BeginVia(cm, &cache));

  // A gap keeps the base back so the next delta carries above-base tids.
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta hole, BeginVia(cm, &cache));
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t3, BeginVia(cm, &cache));
  ASSERT_OK(cm->SetCommitted(t3.tid));
  ASSERT_OK(cm->SetAborted(t1.tid));

  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t4, BeginVia(cm, &cache));
  EXPECT_FALSE(t4.delta.full);
  EXPECT_EQ(cache.snapshot, cm->CurrentSnapshot());
  EXPECT_TRUE(cache.snapshot.CanRead(t3.tid));
  EXPECT_FALSE(cache.snapshot.CanRead(hole.tid));
  EXPECT_GE(cm->stats().delta_starts, 1u);
}

TEST_F(CommitManagerTest, StartDeltaBaseAdvanceOnly) {
  auto group = MakeGroup(1);
  CommitManager* cm = group->manager(0);
  ClientCache cache;
  // Commit everything so the next delta is a pure base advance.
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(TxnBeginDelta begin, BeginVia(cm, &cache));
    ASSERT_OK(cm->SetCommitted(begin.tid));
  }
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta next, BeginVia(cm, &cache));
  EXPECT_FALSE(next.delta.full);
  EXPECT_TRUE(next.delta.completed.empty());
  EXPECT_EQ(next.delta.base, 5u);
  EXPECT_EQ(cache.snapshot, cm->CurrentSnapshot());
}

TEST_F(CommitManagerTest, StartDeltaStaleGenerationForcesFullResync) {
  ReplicationOptions replication;
  replication.replicas = 2;
  CommitManagerGroup group(cluster_.get(), 1, CommitManagerOptions{},
                           /*sync_interval_ms=*/0, replication);
  CommitManager* cm = group.manager(0);
  ClientCache cache;
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t1, BeginVia(cm, &cache));
  ASSERT_OK(cm->SetCommitted(t1.tid));
  ASSERT_OK(cm->SyncWithPeers(1));

  // Promotion bumps the generation: the client's acked epoch is no longer
  // comparable and the next begin must resync with a full descriptor.
  auto [gen_before, epoch_before] = cm->SyncState();
  cm->Kill();
  CommitManager* promoted = group.ManagerFor(0);
  ASSERT_NE(promoted, nullptr);
  ASSERT_NE(promoted, cm);
  auto [gen_after, epoch_after] = promoted->SyncState();
  EXPECT_GT(gen_after, gen_before);

  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t2, BeginVia(promoted, &cache));
  EXPECT_TRUE(t2.delta.full);
  EXPECT_EQ(cache.snapshot, promoted->CurrentSnapshot());
}

TEST_F(CommitManagerTest, StartDeltaFallsBackToFullWhenDeltaIsLarger) {
  auto group = MakeGroup(1, /*range=*/512);
  CommitManager* cm = group->manager(0);
  ClientCache cache;
  // An open transaction pins the base while many tids complete above it, so
  // the per-tid delta encoding (4 bytes each) overtakes the bitset.
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta pin, BeginVia(cm, &cache));
  std::vector<Tid> committed;
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK_AND_ASSIGN(TxnBeginDelta begin, cm->StartDelta({}));
    committed.push_back(begin.tid);
    ASSERT_OK(cm->SetCommitted(begin.tid));
  }
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta next, BeginVia(cm, &cache));
  EXPECT_TRUE(next.delta.full);
  EXPECT_EQ(cache.snapshot, cm->CurrentSnapshot());
  for (Tid tid : committed) EXPECT_TRUE(cache.snapshot.CanRead(tid));
  EXPECT_FALSE(cache.snapshot.CanRead(pin.tid));
}

TEST_F(CommitManagerTest, StartTokenRetryReturnsSameTid) {
  auto group = MakeGroup(1);
  CommitManager* cm = group->manager(0);
  ClientCache cache;
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta first, BeginVia(cm, &cache, /*token=*/77));
  // The response was lost: the client re-sends the same token and must get
  // the same tid back instead of leaking a second active entry.
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta retry, BeginVia(cm, &cache, /*token=*/77));
  EXPECT_EQ(retry.tid, first.tid);
  ASSERT_OK(cm->SetCommitted(first.tid));
  // Completion releases the token; re-use after that is a fresh begin.
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta fresh, BeginVia(cm, &cache, /*token=*/77));
  EXPECT_NE(fresh.tid, first.tid);
  ASSERT_OK(cm->SetCommitted(fresh.tid));
  // No leaked active entries: the base catches up to the last tid.
  EXPECT_EQ(cm->CurrentSnapshot().base(), fresh.tid);
}

TEST_F(CommitManagerTest, DuplicateFinishIsIdempotent) {
  auto group = MakeGroup(1);
  CommitManager* cm = group->manager(0);
  ASSERT_OK_AND_ASSIGN(TxnBeginDelta t1, cm->StartDelta({.pn_id = 0}));
  ASSERT_OK(cm->SetCommitted(t1.tid));
  // A retried finish whose first delivery actually landed must not
  // double-count stats or disturb the snapshot.
  auto [gen, epoch_after_first] = cm->SyncState();
  ASSERT_OK(cm->SetCommitted(t1.tid));
  ASSERT_OK(cm->SetAborted(t1.tid));
  EXPECT_EQ(cm->stats().commits, 1u);
  EXPECT_EQ(cm->stats().aborts, 0u);
  EXPECT_EQ(cm->SyncState().second, epoch_after_first);
  EXPECT_EQ(cm->CurrentSnapshot().base(), t1.tid);
}

TEST_F(CommitManagerTest, DeltaPropertyRandomInterleavings) {
  // Property: under any interleaving of begins, commits and aborts, a client
  // that applies every delta it is handed reconstructs the manager's exact
  // descriptor, and SnapshotDelta survives a serialize/deserialize round
  // trip with WireBytes() telling the truth.
  for (uint64_t seed : {1u, 7u, 42u, 1337u}) {
    store::ClusterOptions cluster_options;
    cluster_options.num_storage_nodes = 2;
    store::Cluster cluster(cluster_options);
    CommitManagerOptions options;
    options.tid_range_size = 8;
    CommitManagerGroup group(&cluster, 1, options, /*sync_interval_ms=*/0);
    CommitManager* cm = group.manager(0);

    Random rng(seed);
    ClientCache cache;
    std::vector<Tid> open;
    for (int step = 0; step < 400; ++step) {
      uint64_t action = rng.Uniform(4);
      if (action == 0 || open.empty()) {
        BeginRequest request;
        request.ack_generation = cache.generation;
        request.ack_epoch = cache.epoch;
        // Randomly drop the ack to exercise the resync path mid-stream.
        if (rng.Bernoulli(0.05)) request.ack_generation = 0;
        ASSERT_OK_AND_ASSIGN(TxnBeginDelta begin, cm->StartDelta(request));

        std::string wire = begin.delta.Serialize();
        EXPECT_EQ(wire.size(), begin.delta.WireBytes());
        ASSERT_OK_AND_ASSIGN(SnapshotDelta decoded,
                             SnapshotDelta::Deserialize(wire));
        EXPECT_EQ(decoded, begin.delta);

        cache.snapshot.ApplyDelta(begin.delta);
        cache.generation = begin.delta.generation;
        cache.epoch = begin.delta.epoch;
        ASSERT_EQ(cache.snapshot, cm->CurrentSnapshot())
            << "seed " << seed << " step " << step;
        open.push_back(begin.tid);
      } else {
        size_t pick = rng.Uniform(open.size());
        Tid tid = open[pick];
        open.erase(open.begin() + static_cast<long>(pick));
        if (rng.Bernoulli(0.3)) {
          ASSERT_OK(cm->SetAborted(tid));
        } else {
          ASSERT_OK(cm->SetCommitted(tid));
        }
      }
    }
  }
}

}  // namespace
}  // namespace tell::commitmgr
