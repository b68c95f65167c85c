// Live partition migration tests (docs/RECOVERY.md):
//
//   1. StorageNode delta machinery: watermark soundness (writes and erases
//      after the bulk copy are caught by catch-up rounds), stamp-guarded
//      idempotent apply, and the sealed final round.
//   2. Routing: a write-frozen partition bounces writes and keeps serving
//      reads; ManagementNode::MigratePartition re-points the master and the
//      destination serves both.
//   3. The determinism contract: a TPC-C run with a mid-run migration
//      produces a bit-identical final state to the same run without it.
//   4. Real-thread races (tsan): atomic increments and puts against a
//      partition while it migrates lose and duplicate nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <iomanip>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "db/tell_db.h"
#include "store/cluster.h"
#include "store/management_node.h"
#include "store/storage_node.h"
#include "tests/test_util.h"
#include "tx/transaction.h"
#include "workload/tpcc/tpcc_driver.h"
#include "workload/tpcc/tpcc_loader.h"

namespace tell {
namespace {

using store::KeyCell;
using store::MigrationOp;
using store::StorageNode;
using tx::Transaction;

// ---------------------------------------------------------------------------
// StorageNode delta machinery
// ---------------------------------------------------------------------------

std::vector<MigrationOp> MergeDelta(const std::vector<KeyCell>& puts,
                                    const std::vector<MigrationOp>& erases) {
  std::vector<MigrationOp> ops;
  for (const KeyCell& cell : puts) {
    ops.push_back({cell.key, cell.value, cell.stamp, /*is_erase=*/false});
  }
  ops.insert(ops.end(), erases.begin(), erases.end());
  return ops;
}

std::map<std::string, std::string> Contents(const StorageNode& node,
                                            store::TableId table,
                                            uint32_t partition) {
  auto cells = node.Scan(table, partition, "", "");
  EXPECT_TRUE(cells.ok()) << cells.status().ToString();
  std::map<std::string, std::string> out;
  for (const KeyCell& cell : *cells) out[cell.key] = cell.value;
  return out;
}

TEST(MigrationDeltaTest, WatermarkedDeltaCatchesWritesAndErases) {
  constexpr store::TableId kTable = 1;
  constexpr uint32_t kPartition = 0;
  StorageNode src(0, 1ULL << 30);
  StorageNode dest(1, 1ULL << 30);
  src.CreatePartition(kTable, kPartition);
  dest.CreatePartition(kTable, kPartition);

  for (int i = 1; i <= 5; ++i) {
    ASSERT_OK(
        src.Write(kPartition, {.table = kTable, .key = "k" + std::to_string(i),
                               .value = "v0", .conditional = false}).status());
  }

  // Phase 1: journal on, watermark, bulk copy.
  ASSERT_OK(src.BeginMigrationLogging(kTable, kPartition));
  ASSERT_OK_AND_ASSIGN(uint64_t watermark,
                       src.PartitionNextStamp(kTable, kPartition));
  ASSERT_OK_AND_ASSIGN(auto bulk, src.DumpPartition(kTable, kPartition));
  ASSERT_OK(dest.InstallPartition(kTable, kPartition, bulk));

  // Writes that race the copy: a new key, an overwrite, and an erase.
  ASSERT_OK(src.Write(kPartition, {.table = kTable, .key = "k6", .value = "v0",
                                   .conditional = false}).status());
  ASSERT_OK(src.Write(kPartition, {.table = kTable, .key = "k2", .value = "v1",
                                   .conditional = false}).status());
  ASSERT_OK(src.Write(kPartition, {.table = kTable, .key = "k3",
                                   .conditional = false, .erase = true})
      .status());

  // Catch-up round: everything since the watermark, puts and erases.
  ASSERT_OK_AND_ASSIGN(uint64_t next_watermark,
                       src.PartitionNextStamp(kTable, kPartition));
  ASSERT_OK_AND_ASSIGN(auto puts,
                       src.DumpPartitionSince(kTable, kPartition, watermark));
  ASSERT_OK_AND_ASSIGN(auto erases,
                       src.ErasesSince(kTable, kPartition, watermark));
  ASSERT_EQ(erases.size(), 1u);
  EXPECT_EQ(erases[0].key, "k3");
  std::vector<MigrationOp> delta = MergeDelta(puts, erases);
  uint64_t erases_applied = 0;
  ASSERT_OK(dest.InstallMigrationDelta(kTable, kPartition, delta,
                                       &erases_applied));
  EXPECT_EQ(erases_applied, 1u);

  // Replaying the same delta is harmless: the stamp guard rejects every op
  // (nothing on the destination is older any more).
  erases_applied = 0;
  ASSERT_OK(dest.InstallMigrationDelta(kTable, kPartition, delta,
                                       &erases_applied));
  EXPECT_EQ(erases_applied, 0u);
  std::map<std::string, std::string> mid = Contents(dest, kTable, kPartition);
  EXPECT_EQ(mid.size(), 5u);  // k1, k2(v1), k4, k5, k6
  EXPECT_EQ(mid.at("k2"), "v1");
  EXPECT_EQ(mid.count("k3"), 0u);

  // Final writes, then the sealed cut-over round.
  ASSERT_OK(src.Write(kPartition, {.table = kTable, .key = "k7", .value = "v0",
                                   .conditional = false}).status());
  ASSERT_OK(src.Write(kPartition, {.table = kTable, .key = "k1",
                                   .conditional = false, .erase = true})
      .status());
  ASSERT_OK_AND_ASSIGN(
      auto final_delta,
      src.SealPartitionAndDump(kTable, kPartition, next_watermark));
  ASSERT_OK(dest.InstallMigrationDelta(kTable, kPartition, final_delta));

  // The partition is sealed: every write on the source now bounces.
  EXPECT_TRUE(
      src.Write(kPartition, {.table = kTable, .key = "k8", .value = "v",
                             .conditional = false}).status().IsUnavailable());
  EXPECT_TRUE(src.Write(kPartition, {.table = kTable, .key = "k4",
                                     .conditional = false, .erase = true})
      .status().IsUnavailable());
  EXPECT_TRUE(src.AtomicIncrement(kTable, kPartition, "ctr", 1)
                  .status()
                  .IsUnavailable());

  // Destination contents == source contents at the seal, exactly.
  std::map<std::string, std::string> want = Contents(src, kTable, kPartition);
  EXPECT_EQ(Contents(dest, kTable, kPartition), want);
  EXPECT_EQ(want.count("k1"), 0u);
  EXPECT_EQ(want.at("k7"), "v0");
}

TEST(MigrationDeltaTest, EraseJournalClearedByEndMigrationLogging) {
  constexpr store::TableId kTable = 1;
  StorageNode src(0, 1ULL << 30);
  src.CreatePartition(kTable, 0);
  ASSERT_OK(src.Write(0, {.table = kTable, .key = "a", .value = "1",
                          .conditional = false}).status());
  ASSERT_OK(src.BeginMigrationLogging(kTable, 0));
  ASSERT_OK(src.Write(0, {.table = kTable, .key = "a", .conditional = false,
                          .erase = true}).status());
  ASSERT_OK_AND_ASSIGN(auto journaled, src.ErasesSince(kTable, 0, 0));
  ASSERT_EQ(journaled.size(), 1u);
  // Aborting the migration drops the journal and stops logging.
  ASSERT_OK(src.EndMigrationLogging(kTable, 0));
  ASSERT_OK_AND_ASSIGN(auto after, src.ErasesSince(kTable, 0, 0));
  EXPECT_TRUE(after.empty());
  // Erases outside a migration are not journaled.
  ASSERT_OK(src.Write(0, {.table = kTable, .key = "b", .value = "1",
                          .conditional = false}).status());
  ASSERT_OK(src.Write(0, {.table = kTable, .key = "b", .conditional = false,
                          .erase = true}).status());
  ASSERT_OK_AND_ASSIGN(auto still, src.ErasesSince(kTable, 0, 0));
  EXPECT_TRUE(still.empty());
}

// ---------------------------------------------------------------------------
// Routing: freeze and cut-over
// ---------------------------------------------------------------------------

TEST(MigrationRoutingTest, FrozenPartitionBouncesWritesServesReads) {
  store::ClusterOptions options;
  options.num_storage_nodes = 2;
  store::Cluster cluster(options);
  ASSERT_OK_AND_ASSIGN(store::TableId table, cluster.CreateTable("t"));
  ASSERT_OK(cluster.Write({.table = table, .key = "key", .value = "v0",
                           .conditional = false}).status());
  ASSERT_OK_AND_ASSIGN(uint32_t partition,
                       cluster.partition_map().PartitionFor(table, "key"));

  ASSERT_OK(cluster.partition_map().FreezeWrites(table, partition));
  EXPECT_TRUE(cluster.Write({.table = table, .key = "key", .value = "v1",
                             .conditional = false}).status().IsUnavailable());
  EXPECT_TRUE(cluster.Write({.table = table, .key = "key", .conditional = false,
                             .erase = true}).status().IsUnavailable());
  ASSERT_OK_AND_ASSIGN(auto cell, cluster.Get(table, "key"));
  EXPECT_EQ(cell.value, "v0");  // reads pass: the data is static

  ASSERT_OK(cluster.partition_map().UnfreezeWrites(table, partition));
  ASSERT_OK(cluster.Write({.table = table, .key = "key", .value = "v1",
                           .conditional = false}).status());
}

TEST(MigrationRoutingTest, MigrateMovesMasterAndAllData) {
  store::ClusterOptions options;
  options.num_storage_nodes = 3;
  store::Cluster cluster(options);
  store::ManagementNode management(&cluster);
  ASSERT_OK_AND_ASSIGN(store::TableId table, cluster.CreateTable("t"));
  for (int i = 0; i < 60; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_OK(cluster.Write({.table = table, .key = key,
                             .value = "v" + std::to_string(i),
                             .conditional = false}).status());
  }
  ASSERT_OK_AND_ASSIGN(uint32_t partition,
                       cluster.partition_map().PartitionFor(table, "key0"));
  ASSERT_OK_AND_ASSIGN(store::PartitionPlacement before,
                       cluster.partition_map().PlacementOf(table, partition));
  const uint32_t dest = (before.master + 1) % cluster.num_nodes();

  // Migrating onto the current master is rejected.
  EXPECT_FALSE(management.MigratePartition(table, partition, before.master)
                   .ok());

  ASSERT_OK(management.MigratePartition(table, partition, dest));
  ASSERT_OK_AND_ASSIGN(store::PartitionPlacement after,
                       cluster.partition_map().PlacementOf(table, partition));
  EXPECT_EQ(after.master, dest);
  EXPECT_FALSE(after.write_frozen);

  // Every key still reads through the cluster, and writes land on the
  // destination (the sealed source would bounce them).
  for (int i = 0; i < 60; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_OK_AND_ASSIGN(auto cell, cluster.Get(table, key));
    EXPECT_EQ(cell.value, "v" + std::to_string(i)) << key;
  }
  ASSERT_OK(cluster.Write({.table = table, .key = "key0",
                           .value = "post-migration", .conditional = false})
      .status());
  ASSERT_OK_AND_ASSIGN(auto cell, cluster.Get(table, "key0"));
  EXPECT_EQ(cell.value, "post-migration");

  store::MigrationStats stats = management.migration_stats();
  EXPECT_EQ(stats.started, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GT(stats.cells_copied, 0u);
  EXPECT_GE(stats.delta_rounds, 1u);  // at least the sealed final round
}

// ---------------------------------------------------------------------------
// Determinism contract: migrate under TPC-C, bit-identical final state
// ---------------------------------------------------------------------------

std::string ValueToString(const schema::Value& value) {
  std::ostringstream out;
  out << std::setprecision(17);
  if (const int64_t* i = std::get_if<int64_t>(&value)) {
    out << 'i' << *i;
  } else if (const double* d = std::get_if<double>(&value)) {
    out << 'd' << *d;
  } else if (const std::string* s = std::get_if<std::string>(&value)) {
    out << 's' << *s;
  } else {
    out << "null";
  }
  return out.str();
}

/// Digest of every visible tuple of `table`, restricted to `cols` —
/// timestamp columns are excluded by the callers because the two runs
/// advance virtual time differently.
void DigestTable(Transaction* txn, tx::TableHandle* table,
                 const std::vector<uint32_t>& cols, std::ostringstream* out) {
  const std::string hi(16, '\xFF');
  auto rows = txn->ScanIndexEncoded(table, -1, "", hi, 0);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  *out << "#" << rows->size() << "\n";
  for (const auto& [rid, tuple] : *rows) {
    for (uint32_t col : cols) *out << ValueToString(tuple.at(col)) << "|";
    *out << "\n";
  }
}

void RunTpccWithOptionalMigration(bool migrate, std::string* digest) {
  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  db::TellDb db(options);
  ASSERT_OK(tpcc::CreateTpccTables(&db));
  tpcc::TpccScale scale;
  scale.warehouses = 2;
  scale.districts_per_warehouse = 2;
  scale.customers_per_district = 10;
  scale.items = 40;
  scale.initial_orders_per_district = 8;
  ASSERT_OK(tpcc::LoadTpcc(&db, scale));
  auto session = db.OpenSession(0, 0);
  auto tables = tpcc::OpenTpccTables(&db, 0);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  tpcc::TpccExecutor executor(session.get(), *tables);
  tpcc::InputGenerator generator(scale, tpcc::Mix::kWriteIntensive,
                                 /*seed=*/9090, /*home_warehouse=*/1);

  constexpr int kInputs = 120;
  for (int i = 0; i < kInputs; ++i) {
    if (migrate && i == kInputs / 2) {
      // Move a hot partition (the stock table is written by every NewOrder)
      // mid-run. The migration is synchronous; the workload resumes against
      // the destination.
      const store::TableId stock = tables->stock->meta->data_table;
      ASSERT_OK_AND_ASSIGN(
          store::PartitionPlacement placement,
          db.cluster()->partition_map().PlacementOf(stock, 0));
      const uint32_t dest =
          (placement.master + 1) % db.cluster()->num_nodes();
      ASSERT_OK(db.management()->MigratePartition(stock, 0, dest));
    }
    tpcc::TxnInput input = generator.Next();
    auto outcome = executor.Execute(input);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
  if (migrate) {
    store::MigrationStats stats = db.management()->migration_stats();
    EXPECT_EQ(stats.completed, 1u);
  }

  auto reader = db.OpenSession(0, 1);
  Transaction txn(reader.get());
  ASSERT_OK(txn.Begin());
  std::ostringstream out;
  namespace col = tpcc::col;
  DigestTable(&txn, tables->warehouse, {0, col::kWYtd}, &out);
  DigestTable(&txn, tables->district, {0, 1, col::kDYtd, col::kDNextOId},
              &out);
  DigestTable(&txn, tables->customer,
              {0, 1, 2, col::kCBalance, col::kCYtdPayment, col::kCPaymentCnt,
               col::kCDeliveryCnt, col::kCData},
              &out);
  DigestTable(&txn, tables->new_order, {0, 1, 2}, &out);
  DigestTable(&txn, tables->orders,
              {0, 1, 2, col::kOCId, col::kOCarrierId, col::kOOlCnt,
               col::kOAllLocal},
              &out);
  DigestTable(&txn, tables->order_line,
              {0, 1, 2, 3, col::kOlIId, col::kOlSupplyWId, col::kOlQuantity,
               col::kOlAmount, col::kOlDistInfo},
              &out);
  DigestTable(&txn, tables->stock,
              {0, 1, col::kSQuantity, col::kSYtd, col::kSOrderCnt,
               col::kSRemoteCnt},
              &out);
  ASSERT_OK(txn.Commit());
  *digest = out.str();
}

TEST(MigrationTpccTest, MidRunMigrationKeepsFinalStateBitIdentical) {
  std::string baseline;
  std::string migrated;
  RunTpccWithOptionalMigration(false, &baseline);
  RunTpccWithOptionalMigration(true, &migrated);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(migrated, baseline)
      << "a live migration must be invisible to transaction semantics";
}

// ---------------------------------------------------------------------------
// Real-thread races (tsan): migrate while writers hammer the partition
// ---------------------------------------------------------------------------

TEST(MigrationConcurrencyTest, AtomicIncrementsExactAcrossCutOver) {
  store::ClusterOptions options;
  options.num_storage_nodes = 3;
  store::Cluster cluster(options);
  store::ManagementNode management(&cluster);
  ASSERT_OK_AND_ASSIGN(store::TableId table, cluster.CreateTable("t"));
  ASSERT_OK(cluster.AtomicIncrement(table, "ctr", 0).status());
  ASSERT_OK_AND_ASSIGN(uint32_t partition,
                       cluster.partition_map().PartitionFor(table, "ctr"));
  ASSERT_OK_AND_ASSIGN(store::PartitionPlacement placement,
                       cluster.partition_map().PlacementOf(table, partition));
  const uint32_t dest = (placement.master + 1) % cluster.num_nodes();

  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 400;
  constexpr int kKeysPerThread = 50;
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      // Writes bounce with Unavailable during the freeze window; callers
      // retry into the new route, exactly like store::RetryPolicy would.
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        while (!cluster.AtomicIncrement(table, "ctr", 1).ok()) {
          std::this_thread::yield();
        }
      }
      for (int i = 0; i < kKeysPerThread; ++i) {
        const std::string key =
            "w" + std::to_string(t) + "-" + std::to_string(i);
        while (!cluster.Write({.table = table, .key = key, .value = key,
                               .conditional = false}).ok()) {
          std::this_thread::yield();
        }
      }
    });
  }
  start.store(true, std::memory_order_release);
  ASSERT_OK(management.MigratePartition(table, partition, dest));
  for (std::thread& thread : threads) thread.join();

  // Exactness: every acknowledged increment counted once — none lost at the
  // cut-over, none applied twice by delta replay.
  ASSERT_OK_AND_ASSIGN(auto cell, cluster.Get(table, "ctr"));
  ASSERT_OK_AND_ASSIGN(int64_t final_value,
                       cluster.AtomicIncrement(table, "ctr", 0));
  (void)cell;
  EXPECT_EQ(final_value,
            int64_t{kThreads} * kIncrementsPerThread);

  // Every acknowledged put is readable, wherever its partition lives now.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      const std::string key = "w" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_OK_AND_ASSIGN(auto got, cluster.Get(table, key));
      EXPECT_EQ(got.value, key);
    }
  }
  ASSERT_OK_AND_ASSIGN(store::PartitionPlacement after,
                       cluster.partition_map().PlacementOf(table, partition));
  EXPECT_EQ(after.master, dest);
  EXPECT_EQ(management.migration_stats().completed, 1u);
}

}  // namespace
}  // namespace tell
