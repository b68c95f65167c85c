#include <gtest/gtest.h>

#include <thread>

#include "sim/metrics.h"
#include "sim/virtual_clock.h"
#include "store/cluster.h"
#include "store/management_node.h"
#include "store/record_cache.h"
#include "store/storage_client.h"
#include "store/storage_node.h"
#include "tests/test_util.h"

namespace tell::store {
namespace {

class StorageNodeTest : public ::testing::Test {
 protected:
  StorageNodeTest() : node_(0, 64 << 20) { node_.CreatePartition(1, 0); }
  StorageNode node_;
};

TEST_F(StorageNodeTest, PutGetRoundTrip) {
  ASSERT_OK_AND_ASSIGN(uint64_t stamp, node_.Write(0, {.table = 1, .key = "k",
                                                       .value = "v",
                                                       .conditional = false}));
  EXPECT_GT(stamp, kStampAbsent);
  ASSERT_OK_AND_ASSIGN(VersionedCell cell, node_.Get(1, 0, "k"));
  EXPECT_EQ(cell.value, "v");
  EXPECT_EQ(cell.stamp, stamp);
}

TEST_F(StorageNodeTest, GetMissingIsNotFound) {
  EXPECT_TRUE(node_.Get(1, 0, "nope").status().IsNotFound());
}

TEST_F(StorageNodeTest, HighPartitionIdsDoNotAlias) {
  // Regression: the partition map key used to be (table << 16) | partition,
  // which silently aliased partition 65536 of a table onto partition 0 —
  // writes meant for one landed in the other. The key now keeps the full
  // 32-bit partition id.
  node_.CreatePartition(1, 65536);
  ASSERT_OK(node_.Write(0, {.table = 1, .key = "k", .value = "low",
                            .conditional = false}).status());
  ASSERT_OK(node_.Write(65536, {.table = 1, .key = "k", .value = "high",
                                .conditional = false}).status());
  ASSERT_OK_AND_ASSIGN(VersionedCell low, node_.Get(1, 0, "k"));
  ASSERT_OK_AND_ASSIGN(VersionedCell high, node_.Get(1, 65536, "k"));
  EXPECT_EQ(low.value, "low");
  EXPECT_EQ(high.value, "high");
  EXPECT_EQ(node_.PartitionSize(1, 0), 1u);
  EXPECT_EQ(node_.PartitionSize(1, 65536), 1u);
  // And a neighbouring table's partition 0 is its own partition too.
  node_.CreatePartition(2, 0);
  EXPECT_TRUE(node_.Get(2, 0, "k").status().IsNotFound());
}

TEST_F(StorageNodeTest, ConditionalPutInsertSemantics) {
  // kStampAbsent means "must not exist".
  ASSERT_OK_AND_ASSIGN(uint64_t stamp,
                       node_.Write(0, {.table = 1, .key = "k", .value = "v1",
                                       .expected_stamp = kStampAbsent}));
  EXPECT_GT(stamp, 0u);
  // Second insert fails.
  EXPECT_TRUE(node_.Write(0, {.table = 1, .key = "k", .value = "v2",
                              .expected_stamp = kStampAbsent})
                  .status()
                  .IsConditionFailed());
}

TEST_F(StorageNodeTest, LlScDetectsIntermediateWrite) {
  ASSERT_OK_AND_ASSIGN(uint64_t s1, node_.Write(0, {.table = 1, .key = "k",
                                                    .value = "v1",
                                                    .conditional = false}));
  // Another writer changes the cell...
  ASSERT_OK_AND_ASSIGN(uint64_t s2, node_.Write(0, {.table = 1, .key = "k",
                                                    .value = "v2",
                                                    .conditional = false}));
  // ...and even changes it *back* to the original value (ABA):
  ASSERT_OK_AND_ASSIGN(uint64_t s3, node_.Write(0, {.table = 1, .key = "k",
                                                    .value = "v1",
                                                    .conditional = false}));
  EXPECT_LT(s1, s2);
  EXPECT_LT(s2, s3);
  // Store-conditional against the first stamp still fails: LL/SC is
  // ABA-safe, unlike value-compare-and-swap.
  EXPECT_TRUE(node_.Write(0, {.table = 1, .key = "k", .value = "v3",
                              .expected_stamp = s1})
                  .status()
                  .IsConditionFailed());
  // Against the current stamp it succeeds.
  EXPECT_OK(node_.Write(0, {.table = 1, .key = "k", .value = "v3",
                            .expected_stamp = s3}).status());
}

TEST_F(StorageNodeTest, ConditionalEraseChecksStamp) {
  ASSERT_OK_AND_ASSIGN(uint64_t stamp, node_.Write(0, {.table = 1, .key = "k",
                                                       .value = "v",
                                                       .conditional = false}));
  EXPECT_TRUE(node_.Write(0, {.table = 1, .key = "k",
                              .expected_stamp = stamp + 1, .erase = true})
      .status().IsConditionFailed());
  EXPECT_OK(node_.Write(0, {.table = 1, .key = "k", .expected_stamp = stamp,
                            .erase = true}).status());
  EXPECT_TRUE(node_.Get(1, 0, "k").status().IsNotFound());
}

TEST_F(StorageNodeTest, ScanOrderedAndBounded) {
  for (char c = 'a'; c <= 'e'; ++c) {
    ASSERT_OK(node_.Write(0, {.table = 1, .key = std::string(1, c),
                              .value = "v", .conditional = false}).status());
  }
  ASSERT_OK_AND_ASSIGN(std::vector<KeyCell> cells,
                       node_.Scan(1, 0, "b", "e"));
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].key, "b");
  EXPECT_EQ(cells[2].key, "d");
}

TEST_F(StorageNodeTest, AtomicIncrementCreatesAndAdds) {
  ASSERT_OK_AND_ASSIGN(int64_t v1, node_.AtomicIncrement(1, 0, "ctr", 10));
  EXPECT_EQ(v1, 10);
  ASSERT_OK_AND_ASSIGN(int64_t v2, node_.AtomicIncrement(1, 0, "ctr", 5));
  EXPECT_EQ(v2, 15);
}

TEST_F(StorageNodeTest, AtomicIncrementIsAtomicUnderThreads) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        ASSERT_TRUE(node_.AtomicIncrement(1, 0, "ctr", 1).ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_OK_AND_ASSIGN(int64_t total, node_.AtomicIncrement(1, 0, "ctr", 0));
  EXPECT_EQ(total, kThreads * kIncrements);
}

TEST_F(StorageNodeTest, ConcurrentLlScExactlyOneWinner) {
  ASSERT_OK_AND_ASSIGN(uint64_t stamp, node_.Write(0, {.table = 1, .key = "k",
                                                       .value = "v0",
                                                       .conditional = false}));
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto result = node_.Write(0, {.table = 1, .key = "k",
                                    .value = "v" + std::to_string(t + 1),
                                    .expected_stamp = stamp});
      if (result.ok()) winners.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST_F(StorageNodeTest, DeadNodeRejectsRequests) {
  node_.Kill();
  EXPECT_TRUE(node_.Get(1, 0, "k").status().IsUnavailable());
  EXPECT_TRUE(node_.Write(0, {.table = 1, .key = "k", .value = "v",
                              .conditional = false}).status().IsUnavailable());
  node_.Revive();
  EXPECT_OK(node_.Write(0, {.table = 1, .key = "k", .value = "v",
                            .conditional = false}).status());
}

TEST_F(StorageNodeTest, CapacityLimitEnforced) {
  StorageNode tiny(1, 256);
  tiny.CreatePartition(1, 0);
  std::string big(300, 'x');
  EXPECT_TRUE(tiny.Write(0, {.table = 1, .key = "k", .value = big,
                             .conditional = false})
      .status().IsCapacityExceeded());
}

TEST_F(StorageNodeTest, MemoryAccountingTracksPutsAndErases) {
  uint64_t before = node_.memory_used();
  // A put, then a growing overwrite of the same cell.
  for (size_t size : {100, 1000}) {
    ASSERT_OK(node_.Write(0, {.table = 1, .key = "key1",
                              .value = std::string(size, 'a'),
                              .conditional = false}).status());
    EXPECT_EQ(node_.memory_used(),
              before + 4 + size + sizeof(VersionedCell));
  }
  ASSERT_OK(node_.Write(0, {.table = 1, .key = "key1", .conditional = false,
                            .erase = true}).status());
  EXPECT_EQ(node_.memory_used(), before);
}

// ---------------------------------------------------------------------------
// PartitionMap

TEST(PartitionMapTest, DeterministicPlacement) {
  PartitionMap map;
  ASSERT_OK(map.AddTable(1, 8, {0, 1, 2}, 1));
  ASSERT_OK_AND_ASSIGN(uint32_t p1, map.PartitionFor(1, "somekey"));
  ASSERT_OK_AND_ASSIGN(uint32_t p2, map.PartitionFor(1, "somekey"));
  EXPECT_EQ(p1, p2);
  EXPECT_LT(p1, 8u);
}

TEST(PartitionMapTest, ReplicasOnDistinctNodes) {
  PartitionMap map;
  ASSERT_OK(map.AddTable(1, 6, {0, 1, 2}, 3));
  for (uint32_t p = 0; p < 6; ++p) {
    ASSERT_OK_AND_ASSIGN(PartitionPlacement placement, map.PlacementOf(1, p));
    EXPECT_EQ(placement.replicas.size(), 2u);
    for (uint32_t r : placement.replicas) {
      EXPECT_NE(r, placement.master);
    }
  }
}

TEST(PartitionMapTest, RfLargerThanNodesRejected) {
  PartitionMap map;
  EXPECT_FALSE(map.AddTable(1, 4, {0, 1}, 3).ok());
}

TEST(PartitionMapTest, RemoveNodeReturnsOrphanedMasters) {
  PartitionMap map;
  ASSERT_OK(map.AddTable(1, 3, {0, 1, 2}, 2));
  auto orphaned = map.RemoveNode(0);
  // Node 0 was master of partition 0 (round robin).
  ASSERT_EQ(orphaned.size(), 1u);
  EXPECT_EQ(orphaned[0].second, 0u);
}

TEST(PartitionMapTest, PromoteReplicaChangesMaster) {
  PartitionMap map;
  ASSERT_OK(map.AddTable(1, 3, {0, 1, 2}, 2));
  map.RemoveNode(0);
  ASSERT_OK_AND_ASSIGN(PartitionPlacement placement, map.PlacementOf(1, 0));
  ASSERT_EQ(placement.replicas.size(), 1u);
  ASSERT_OK(map.PromoteReplica(1, 0, placement.replicas[0]));
  ASSERT_OK_AND_ASSIGN(PartitionPlacement after, map.PlacementOf(1, 0));
  EXPECT_EQ(after.master, placement.replicas[0]);
  EXPECT_TRUE(after.replicas.empty());
}

// ---------------------------------------------------------------------------
// Cluster + replication + fail-over

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() {
    ClusterOptions options;
    options.num_storage_nodes = 3;
    options.replication_factor = 2;
    options.partitions_per_node = 2;
    cluster_ = std::make_unique<Cluster>(options);
    management_ = std::make_unique<ManagementNode>(cluster_.get());
    auto table = cluster_->CreateTable("t");
    EXPECT_TRUE(table.ok());
    table_ = *table;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<ManagementNode> management_;
  TableId table_;
};

TEST_F(ClusterTest, MemoryUsedMatchesHeldCellsAfterEveryMutationKind) {
  // Client writes of every kind, replicated to the backups at RF2.
  ASSERT_OK(cluster_->Write({.table = table_, .key = "a",
                             .value = std::string(10, 'x'),
                             .conditional = false}).status());
  ASSERT_OK_AND_ASSIGN(uint64_t stamp,
                       cluster_->Write({.table = table_, .key = "a",
                                        .value = std::string(1000, 'y'),
                                        .conditional = false}));
  ASSERT_OK(cluster_->Write({.table = table_, .key = "a", .value = "z",
                             .expected_stamp = stamp}).status());
  ASSERT_OK(cluster_->Write({.table = table_, .key = "b",
                             .value = std::string(300, 'b')}).status());
  ASSERT_OK(cluster_->Write({.table = table_, .key = "b", .conditional = false,
                             .erase = true}).status());
  ASSERT_OK(cluster_->AtomicIncrement(table_, "counter", 5).status());
  // An increment over a 1-byte cell turns it into an 8-byte counter.
  ASSERT_OK(cluster_->AtomicIncrement(table_, "a", 1).status());

  // A migration delta and a reinstall over existing cells, applied to every
  // copy of "a"'s partition.
  ASSERT_OK_AND_ASSIGN(uint32_t partition,
                       cluster_->partition_map().PartitionFor(table_, "a"));
  ASSERT_OK_AND_ASSIGN(
      PartitionPlacement placement,
      cluster_->partition_map().PlacementOf(table_, partition));
  std::vector<StorageNode*> copies = {cluster_->node(placement.master)};
  for (uint32_t replica : placement.replicas) {
    copies.push_back(cluster_->node(replica));
  }
  ASSERT_OK_AND_ASSIGN(uint64_t next,
                       copies.front()->PartitionNextStamp(table_, partition));
  const std::vector<MigrationOp> delta = {
      {"a", std::string(500, 'm'), next + 1, false},
      {"fresh", "f", next + 2, false},
      {"fresh", "", next + 3, true}};
  for (StorageNode* node : copies) {
    ASSERT_OK(node->InstallMigrationDelta(table_, partition, delta));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<KeyCell> image,
                       copies.front()->DumpPartition(table_, partition));
  for (KeyCell& cell : image) cell.value += std::string(100, 'i');
  for (StorageNode* node : copies) {
    ASSERT_OK(node->InstallPartition(table_, partition, image));
  }

  // Every node's counter equals the bytes of the cells it holds.
  ASSERT_OK_AND_ASSIGN(uint32_t partitions,
                       cluster_->partition_map().NumPartitions(table_));
  for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
    uint64_t held = 0;
    for (uint32_t p = 0; p < partitions; ++p) {
      auto cells = cluster_->node(n)->DumpPartition(table_, p);
      if (!cells.ok()) continue;  // no copy of p on this node
      for (const KeyCell& cell : *cells) {
        held += cell.key.size() + cell.value.size() + sizeof(VersionedCell);
      }
    }
    EXPECT_EQ(cluster_->node(n)->memory_used(), held) << "node " << n;
  }
}

TEST_F(ClusterTest, WritesAreReplicated) {
  ASSERT_OK(cluster_->Write({.table = table_, .key = "key", .value = "value",
                             .conditional = false}).status());
  // The cell must exist on RF=2 nodes in total.
  int copies = 0;
  ASSERT_OK_AND_ASSIGN(uint32_t partition,
                       cluster_->partition_map().PartitionFor(table_, "key"));
  for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
    auto cell = cluster_->node(n)->Get(table_, partition, "key");
    if (cell.ok()) ++copies;
  }
  EXPECT_EQ(copies, 2);
}

TEST_F(ClusterTest, FailoverServesDataFromReplica) {
  ASSERT_OK(cluster_->Write({.table = table_, .key = "key", .value = "value",
                             .conditional = false}).status());
  ASSERT_OK_AND_ASSIGN(uint32_t master, cluster_->MasterOf(table_, "key"));
  cluster_->node(master)->Kill();
  // Before fail-over the read fails...
  EXPECT_TRUE(cluster_->Get(table_, "key").status().IsUnavailable());
  // ...the management node recovers...
  ASSERT_OK_AND_ASSIGN(uint32_t recovered, management_->DetectAndRecover());
  EXPECT_EQ(recovered, 1u);
  // ...and the replica serves the value with the same LL/SC stamp.
  ASSERT_OK_AND_ASSIGN(VersionedCell cell, cluster_->Get(table_, "key"));
  EXPECT_EQ(cell.value, "value");
  ASSERT_OK_AND_ASSIGN(uint32_t new_master, cluster_->MasterOf(table_, "key"));
  EXPECT_NE(new_master, master);
}

TEST_F(ClusterTest, FailoverRestoresReplicationLevel) {
  ASSERT_OK(cluster_->Write({.table = table_, .key = "key", .value = "value",
                             .conditional = false}).status());
  ASSERT_OK_AND_ASSIGN(uint32_t master, cluster_->MasterOf(table_, "key"));
  cluster_->node(master)->Kill();
  ASSERT_TRUE(management_->DetectAndRecover().ok());
  EXPECT_TRUE(management_->ReplicationLevelRestored());
}

TEST_F(ClusterTest, StampsSurviveFailover) {
  ASSERT_OK_AND_ASSIGN(uint64_t stamp, cluster_->Write({.table = table_,
                                                        .key = "key",
                                                        .value = "v1",
                                                        .conditional = false}));
  ASSERT_OK_AND_ASSIGN(uint32_t master, cluster_->MasterOf(table_, "key"));
  cluster_->node(master)->Kill();
  ASSERT_TRUE(management_->DetectAndRecover().ok());
  // LL/SC tokens held by clients remain valid against the promoted replica.
  EXPECT_OK(cluster_->Write({.table = table_, .key = "key", .value = "v2",
                             .expected_stamp = stamp}).status());
}

TEST_F(ClusterTest, ScanMergesPartitions) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(cluster_->Write({.table = table_, .key = "k" + std::to_string(i),
                               .value = "v", .conditional = false}).status());
  }
  ASSERT_OK_AND_ASSIGN(std::vector<KeyCell> cells,
                       cluster_->Scan(table_, "", ""));
  EXPECT_EQ(cells.size(), 20u);
  EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end(),
                             [](const KeyCell& a, const KeyCell& b) {
                               return a.key < b.key;
                             }));
  // A bounded range: exactly its keys, in strict key order.
  ASSERT_OK_AND_ASSIGN(cells, cluster_->Scan(table_, "k12", "k5"));
  std::vector<std::string> got;
  for (const KeyCell& cell : cells) got.push_back(cell.key);
  EXPECT_EQ(got, (std::vector<std::string>{"k12", "k13", "k14", "k15", "k16",
                                           "k17", "k18", "k19", "k2", "k3",
                                           "k4"}));
}

// ---------------------------------------------------------------------------
// StorageClient cost accounting

class StorageClientTest : public ::testing::Test {
 protected:
  StorageClientTest() {
    ClusterOptions options;
    options.num_storage_nodes = 4;
    cluster_ = std::make_unique<Cluster>(options);
    auto table = cluster_->CreateTable("t");
    table_ = *table;
  }

  std::unique_ptr<StorageClient> MakeClient(const ClientOptions& options) {
    return std::make_unique<StorageClient>(cluster_.get(), nullptr, options,
                                           &clock_, &metrics_);
  }

  std::unique_ptr<Cluster> cluster_;
  sim::VirtualClock clock_;
  sim::WorkerMetrics metrics_;
  TableId table_;
};

TEST_F(StorageClientTest, GetChargesOneRoundTrip) {
  ClientOptions options;
  options.network = sim::NetworkModel::InfiniBand();
  options.cpu.per_op_ns = 0;
  auto client = MakeClient(options);
  ASSERT_OK(client->Write({.table = table_, .key = "k", .value = "v",
                           .conditional = false}).status());
  uint64_t before = clock_.now_ns();
  ASSERT_OK(client->Get(table_, "k").status());
  uint64_t cost = clock_.now_ns() - before;
  EXPECT_GE(cost, options.network.base_rtt_ns);
  EXPECT_LT(cost, options.network.base_rtt_ns + 1000);
  EXPECT_EQ(metrics_.storage_requests, 2u);
}

TEST_F(StorageClientTest, BatchingChargesMaxNotSum) {
  ClientOptions options;
  options.cpu.per_op_ns = 0;
  auto client = MakeClient(options);
  std::vector<GetOp> ops;
  for (int i = 0; i < 32; ++i) {
    std::string key = "key" + std::to_string(i);
    ASSERT_OK(client->Write({.table = table_, .key = key, .value = "v",
                             .conditional = false}).status());
    ops.push_back({table_, key});
  }
  uint64_t before = clock_.now_ns();
  auto results = client->BatchGet(ops);
  uint64_t cost = clock_.now_ns() - before;
  for (const auto& r : results) EXPECT_TRUE(r.ok());
  // 32 ops over 4 storage nodes: max 4 parallel requests — far below 32
  // sequential round trips.
  EXPECT_LT(cost, 4 * options.network.base_rtt_ns);
}

TEST_F(StorageClientTest, UnbatchedChargesSum) {
  ClientOptions batched;
  batched.cpu.per_op_ns = 0;
  ClientOptions unbatched = batched;
  unbatched.batching = false;

  std::vector<GetOp> ops;
  {
    auto client = MakeClient(batched);
    for (int i = 0; i < 16; ++i) {
      std::string key = "key" + std::to_string(i);
      ASSERT_OK(client->Write({.table = table_, .key = key, .value = "v",
                               .conditional = false}).status());
      ops.push_back({table_, key});
    }
  }
  sim::VirtualClock clock_batched, clock_unbatched;
  sim::WorkerMetrics m1, m2;
  StorageClient c1(cluster_.get(), nullptr, batched, &clock_batched, &m1);
  StorageClient c2(cluster_.get(), nullptr, unbatched, &clock_unbatched, &m2);
  c1.BatchGet(ops);
  c2.BatchGet(ops);
  EXPECT_GT(clock_unbatched.now_ns(), 3 * clock_batched.now_ns());
}

TEST_F(StorageClientTest, ReplicationChargesExtraHops) {
  ClientOptions rf1;
  rf1.cpu.per_op_ns = 0;
  ClientOptions rf3 = rf1;
  rf3.replication_extra_hops = 2;
  sim::VirtualClock clock1, clock3;
  sim::WorkerMetrics m1, m3;
  StorageClient c1(cluster_.get(), nullptr, rf1, &clock1, &m1);
  StorageClient c3(cluster_.get(), nullptr, rf3, &clock3, &m3);
  ASSERT_OK(c1.Write({.table = table_, .key = "a", .value = "v",
                      .conditional = false}).status());
  ASSERT_OK(c3.Write({.table = table_, .key = "b", .value = "v",
                      .conditional = false}).status());
  // 2 extra hops, each costing the backup write path (2 rtt-equivalents).
  EXPECT_EQ(clock3.now_ns() - clock1.now_ns(),
            2 * 2 * (rf1.network.base_rtt_ns +
                     rf1.network.software_overhead_ns));
}

// One replication rule on every path: an applied write — erases included —
// pays the backup chain, a failed write pays nothing.
TEST_F(StorageClientTest, ReplicationChargesAppliedWritesOnly) {
  ClientOptions rf1;
  rf1.cpu.per_op_ns = 0;
  ClientOptions rf3 = rf1;
  rf3.replication_extra_hops = 2;
  const uint64_t backup_chain_ns =
      2 * 2 * (rf1.network.base_rtt_ns + rf1.network.software_overhead_ns);
  auto seeder = MakeClient(rf1);
  for (const char* key : {"a", "b", "c"}) {
    ASSERT_OK(seeder->Write({.table = table_, .key = key, .value = "v",
                             .conditional = false}).status());
  }
  auto cost = [&](const ClientOptions& options, auto&& call) {
    sim::VirtualClock clock;
    sim::WorkerMetrics metrics;
    StorageClient client(cluster_.get(), nullptr, options, &clock, &metrics);
    call(&client);
    return clock.now_ns();
  };

  const uint64_t erase_rf1 = cost(rf1, [&](StorageClient* c) {
    ASSERT_OK(c->Write({.table = table_, .key = "a", .conditional = false,
                        .erase = true}).status());
  });
  const uint64_t erase_rf3 = cost(rf3, [&](StorageClient* c) {
    ASSERT_OK(c->Write({.table = table_, .key = "b", .conditional = false,
                        .erase = true}).status());
  });
  const uint64_t batch_erase_rf3 = cost(rf3, [&](StorageClient* c) {
    auto results = c->BatchWrite({WriteOp{.table = table_,
                                          .key = "c",
                                          .value = "",
                                          .conditional = false,
                                          .erase = true}});
    ASSERT_OK(results[0].status());
  });
  EXPECT_EQ(erase_rf3, erase_rf1 + backup_chain_ns);
  EXPECT_EQ(batch_erase_rf3, erase_rf3);

  // A put to a table that does not exist fails without being applied.
  const TableId missing = table_ + 100;
  const uint64_t failed_put_rf1 = cost(rf1, [&](StorageClient* c) {
    EXPECT_FALSE(c->Write({.table = missing, .key = "k", .value = "v",
                           .conditional = false}).ok());
  });
  const uint64_t failed_put_rf3 = cost(rf3, [&](StorageClient* c) {
    EXPECT_FALSE(c->Write({.table = missing, .key = "k", .value = "v",
                           .conditional = false}).ok());
  });
  EXPECT_EQ(failed_put_rf3, failed_put_rf1);
}

TEST_F(StorageClientTest, EthernetCostsMoreThanInfiniBand) {
  ClientOptions ib;
  ib.cpu.per_op_ns = 0;
  ClientOptions eth = ib;
  eth.network = sim::NetworkModel::TenGbEthernet();
  sim::VirtualClock clock_ib, clock_eth;
  sim::WorkerMetrics m1, m2;
  StorageClient c1(cluster_.get(), nullptr, ib, &clock_ib, &m1);
  StorageClient c2(cluster_.get(), nullptr, eth, &clock_eth, &m2);
  ASSERT_OK(c1.Write({.table = table_, .key = "a", .value = "v",
                      .conditional = false}).status());
  ASSERT_OK(c2.Write({.table = table_, .key = "b", .value = "v",
                      .conditional = false}).status());
  EXPECT_GT(clock_eth.now_ns(), 5 * clock_ib.now_ns());
}

TEST_F(StorageClientTest, MetricsCountBytes) {
  ClientOptions options;
  auto client = MakeClient(options);
  ASSERT_OK(client->Write(
      {.table = table_, .key = "key", .value = std::string(1000, 'x'),
       .conditional = false}).status());
  EXPECT_GT(metrics_.bytes_sent, 1000u);
}

/// What one storage call charged the worker.
struct OpCost {
  uint64_t ns = 0;
  uint64_t requests = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  bool operator==(const OpCost&) const = default;
};

std::ostream& operator<<(std::ostream& os, const OpCost& c) {
  return os << "{" << c.ns << " ns, " << c.requests << " req, "
            << c.bytes_sent << " B sent, " << c.bytes_received << " B recv}";
}

// Single-op costs on the default options (InfiniBand, 300 ns per op),
// pinned so that a change to the request path cannot move them unnoticed.
TEST_F(StorageClientTest, SingleOpCostsStayPinned) {
  RecordCacheOptions cache_options;
  cache_options.enabled = true;
  RecordCache cache(cache_options);
  ClientOptions one_sided_options;
  one_sided_options.one_sided_reads = true;
  ClientOptions cached_options;
  cached_options.record_cache = &cache;
  auto client = MakeClient(ClientOptions{});
  auto one_sided = MakeClient(one_sided_options);
  auto cached = MakeClient(cached_options);
  const std::string value(100, 'v');
  ASSERT_OK_AND_ASSIGN(uint64_t stamp, client->Write({.table = table_,
                                                      .key = "k",
                                                      .value = value,
                                                      .conditional = false}));
  ASSERT_OK(cached->Get(table_, "k").status());  // fills the cache

  auto measure = [&](auto&& call) {
    OpCost before{clock_.now_ns(), metrics_.storage_requests,
                  metrics_.bytes_sent, metrics_.bytes_received};
    call();
    return OpCost{clock_.now_ns() - before.ns,
                  metrics_.storage_requests - before.requests,
                  metrics_.bytes_sent - before.bytes_sent,
                  metrics_.bytes_received - before.bytes_received};
  };
  EXPECT_EQ(measure([&] { ASSERT_OK(client->Get(table_, "k").status()); }),
            (OpCost{5331, 1, 49, 108}))
      << "two-sided Get";
  EXPECT_EQ(
      measure([&] { ASSERT_OK(one_sided->Get(table_, "k").status()); }),
      (OpCost{2825, 1, 17, 108}))
      << "one-sided Get";
  EXPECT_EQ(measure([&] { ASSERT_OK(cached->Get(table_, "k").status()); }),
            (OpCost{300, 0, 0, 0}))
      << "cache-hit Get";
  EXPECT_EQ(
      measure([&] { ASSERT_OK(client->Write({.table = table_, .key = "p",
                                             .value = value,
                                             .conditional = false})
          .status()); }),
      (OpCost{5333, 1, 149, 16}))
      << "Put";
  EXPECT_EQ(measure([&] {
              EXPECT_TRUE(client->Write({.table = table_, .key = "k",
                                         .value = value,
                                         .expected_stamp = stamp + 1})
                              .status()
                              .IsConditionFailed());
            }),
            (OpCost{5333, 1, 149, 16}))
      << "failing ConditionalPut";
  EXPECT_EQ(measure([&] { ASSERT_OK(client->Write({.table = table_, .key = "p",
                                                   .conditional = false,
                                                   .erase = true})
      .status()); }),
            (OpCost{5313, 1, 49, 16}))
      << "Erase";
}

// Regression (PR 7): the exponential backoff used to multiply the base once
// per attempt with no early exit, so huge attempt counters both took O(retry)
// time and overflowed the double past the cap into garbage delays. The
// computed backoff must saturate at max_backoff_ns for ANY attempt number and
// never come back as zero (or wrapped-negative) virtual time.
TEST(RetryPolicyTest, BackoffSaturatesAtHighAttemptCounts) {
  RetryPolicy policy;
  policy.jitter = 0;  // deterministic: backoff == computed b exactly
  Random rng(7);
  uint64_t at_cap = policy.BackoffNs(/*retry=*/20, &rng);
  EXPECT_EQ(at_cap, policy.max_backoff_ns);
  // The old code left-shifted (multiplied) once per attempt: attempt 63+ and
  // beyond overflowed. These must all still be exactly the ceiling — and
  // return promptly (the loop exits at the cap instead of iterating 2^31
  // times).
  for (uint32_t retry : {63u, 64u, 100u, 1u << 20, UINT32_MAX}) {
    EXPECT_EQ(policy.BackoffNs(retry, &rng), policy.max_backoff_ns)
        << "retry=" << retry;
  }
}

TEST(RetryPolicyTest, BackoffJitterStaysWithinBandAtHighAttempts) {
  RetryPolicy policy;  // jitter = 0.5
  Random rng(11);
  for (uint32_t retry : {70u, 1000u, UINT32_MAX}) {
    uint64_t b = policy.BackoffNs(retry, &rng);
    EXPECT_GE(b, policy.max_backoff_ns / 2) << "retry=" << retry;
    EXPECT_LE(b, policy.max_backoff_ns) << "retry=" << retry;
  }
}

TEST(RetryPolicyTest, BackoffHandlesDegenerateMultipliers) {
  RetryPolicy policy;
  policy.jitter = 0;
  policy.multiplier = 1.0;  // no growth: every retry waits the initial delay
  Random rng(3);
  EXPECT_EQ(policy.BackoffNs(UINT32_MAX, &rng), policy.initial_backoff_ns);
  policy.multiplier = 0.5;  // shrinking multipliers must not loop either
  EXPECT_EQ(policy.BackoffNs(UINT32_MAX, &rng), policy.initial_backoff_ns);
}

}  // namespace
}  // namespace tell::store
