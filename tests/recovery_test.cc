#include <gtest/gtest.h>

#include "db/tell_db.h"
#include "tests/test_util.h"

namespace tell::tx {
namespace {

using schema::Tuple;
using schema::Value;

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    db::TellDbOptions options;
    options.num_processing_nodes = 3;
    options.num_storage_nodes = 3;
    options.replication_factor = 2;
    options.network = sim::NetworkModel::Instant();
    db_ = std::make_unique<db::TellDb>(options);
    EXPECT_OK(db_->CreateTable("t",
                               schema::SchemaBuilder()
                                   .AddInt64("id")
                                   .AddDouble("v")
                                   .SetPrimaryKey({"id"})
                                   .Build(),
                               {}));
  }

  Tuple Row(int64_t id, double v) {
    Tuple t(2);
    t.Set(0, id);
    t.Set(1, v);
    return t;
  }

  std::unique_ptr<db::TellDb> db_;
};

TEST_F(RecoveryTest, PnFailureWithIdleTransactionsIsCheap) {
  auto session = db_->OpenSession(1, 0);
  auto table = *db_->GetTable(1, "t");
  // Begin transactions that never try to commit on PN 1.
  Transaction t1(session.get());
  Transaction t2(session.get());
  ASSERT_OK(t1.Begin());
  ASSERT_OK(t2.Begin());
  ASSERT_OK(t1.Insert(table, Row(1, 1.0)).status());

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, db_->KillProcessingNode(1));
  // Nothing was applied, so nothing is rolled back — but the abandoned tids
  // are completed so the snapshot base can advance.
  EXPECT_EQ(stats.transactions_rolled_back, 0u);
  EXPECT_EQ(stats.transactions_abandoned, 2u);

  // The snapshot base moves past the abandoned tids for new transactions.
  auto session0 = db_->OpenSession(0, 1);
  Transaction fresh(session0.get());
  ASSERT_OK(fresh.Begin());
  EXPECT_TRUE(fresh.snapshot().CanRead(t1.tid()));
  EXPECT_TRUE(fresh.snapshot().CanRead(t2.tid()));
  ASSERT_OK(fresh.Commit());
}

TEST_F(RecoveryTest, PartiallyAppliedUpdatesAreRolledBack) {
  // Commit a baseline row from PN 0.
  auto session0 = db_->OpenSession(0, 0);
  auto table0 = *db_->GetTable(0, "t");
  uint64_t rid;
  {
    Transaction txn(session0.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table0, Row(1, 100.0)));
    ASSERT_OK(txn.Commit());
  }

  // Simulate a PN crash in the middle of Try-Commit: write the log entry
  // and apply the data update, but never set the commit flag (this is
  // exactly the state a crash between §4.3 steps 3 and 4a leaves behind).
  auto session1 = db_->OpenSession(1, 1);
  auto table1 = *db_->GetTable(1, "t");
  Transaction doomed(session1.get());
  ASSERT_OK(doomed.Begin());
  Tid doomed_tid = doomed.tid();
  {
    // Manually mimic the crash: append log entry + apply one version.
    LogEntry entry;
    entry.tid = doomed_tid;
    entry.pn_id = 1;
    entry.write_set = {{table1->meta->data_table, rid}};
    const TransactionLog* log = db_->transaction_log();
    ASSERT_OK(log->Appended(
        session1->client(),
        session1->client()->BatchWrite({log->AppendOp(entry)}).front()));
    auto cell = db_->cluster()->Get(table1->meta->data_table,
                                    EncodeOrderedU64(rid));
    ASSERT_TRUE(cell.ok());
    ASSERT_OK_AND_ASSIGN(schema::VersionedRecord record,
                         schema::VersionedRecord::Deserialize(cell->value));
    record.PutVersion(doomed_tid, Row(1, -999.0).Serialize(table1->meta->schema));
    ASSERT_OK(db_->cluster()
                  ->Write({.table = table1->meta->data_table,
                           .key = EncodeOrderedU64(rid),
                           .value = record.Serialize(),
                           .expected_stamp = cell->stamp})
                  .status());
  }

  // Recovery rolls the orphaned version back.
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, db_->KillProcessingNode(1));
  EXPECT_EQ(stats.transactions_rolled_back, 1u);
  EXPECT_EQ(stats.versions_removed, 1u);

  // The record is back to its committed state and the version is gone.
  auto cell = db_->cluster()->Get(table1->meta->data_table,
                                  EncodeOrderedU64(rid));
  ASSERT_TRUE(cell.ok());
  ASSERT_OK_AND_ASSIGN(schema::VersionedRecord record,
                       schema::VersionedRecord::Deserialize(cell->value));
  EXPECT_FALSE(record.HasVersion(doomed_tid));
  Transaction check(session0.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, check.Read(table0, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetDouble(1), 100.0);
  ASSERT_OK(check.Commit());
}

TEST_F(RecoveryTest, CommittedTransactionsSurvivePnFailure) {
  auto session1 = db_->OpenSession(1, 0);
  auto table1 = *db_->GetTable(1, "t");
  uint64_t rid;
  {
    Transaction txn(session1.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table1, Row(7, 7.0)));
    ASSERT_OK(txn.Commit());
  }
  ASSERT_OK(db_->KillProcessingNode(1).status());
  // The committed insert is still there.
  auto session0 = db_->OpenSession(0, 1);
  auto table0 = *db_->GetTable(0, "t");
  Transaction check(session0.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, check.Read(table0, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetDouble(1), 7.0);
  ASSERT_OK(check.Commit());
}

TEST_F(RecoveryTest, StorageNodeFailureIsTransparentToTransactions) {
  auto session = db_->OpenSession(0, 0);
  auto table = *db_->GetTable(0, "t");
  std::vector<uint64_t> rids;
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK_AND_ASSIGN(uint64_t rid, txn.Insert(table, Row(i, i)));
      rids.push_back(rid);
    }
    ASSERT_OK(txn.Commit());
  }
  // Kill one storage node; RF2 lets the system fail over.
  ASSERT_OK(db_->KillStorageNode(1));
  // All records still readable and writable.
  Transaction txn(session.get());
  ASSERT_OK(txn.Begin());
  for (size_t i = 0; i < rids.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, txn.Read(table, rids[i]));
    ASSERT_TRUE(row.has_value()) << "rid " << rids[i];
    EXPECT_EQ(row->GetDouble(1), static_cast<double>(i));
  }
  ASSERT_OK(txn.Update(table, rids[0], Row(0, 42.0)));
  ASSERT_OK(txn.Commit());
}

TEST_F(RecoveryTest, TransactionsKeepRunningDuringFailover) {
  auto session = db_->OpenSession(0, 0);
  auto table = *db_->GetTable(0, "t");
  uint64_t rid;
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table, Row(1, 1.0)));
    ASSERT_OK(txn.Commit());
  }
  // Kill the node WITHOUT running the management node first: the client's
  // Unavailable handler must trigger fail-over itself.
  ASSERT_OK_AND_ASSIGN(uint32_t master,
                       db_->cluster()->MasterOf(table->meta->data_table,
                                                EncodeOrderedU64(rid)));
  db_->cluster()->node(master)->Kill();
  Transaction txn(session.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, txn.Read(table, rid));
  ASSERT_TRUE(row.has_value());
  ASSERT_OK(txn.Commit());
}

TEST_F(RecoveryTest, ElasticityAddProcessingNodeNoDataMovement) {
  auto session = db_->OpenSession(0, 0);
  auto table = *db_->GetTable(0, "t");
  uint64_t rid;
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table, Row(1, 1.0)));
    ASSERT_OK(txn.Commit());
  }
  uint64_t memory_before = db_->cluster()->TotalMemoryUsed();
  uint32_t new_pn = db_->AddProcessingNode();
  // No storage data moved (this is the shared-data elasticity pitch).
  EXPECT_EQ(db_->cluster()->TotalMemoryUsed(), memory_before);
  // The new PN can serve transactions immediately.
  auto new_session = db_->OpenSession(new_pn, 99);
  auto new_table = *db_->GetTable(new_pn, "t");
  Transaction txn(new_session.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, txn.Read(new_table, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetDouble(1), 1.0);
  ASSERT_OK(txn.Commit());
}

TEST_F(RecoveryTest, LazyGcSweepsOldVersionsAndLog) {
  auto session = db_->OpenSession(0, 0);
  auto table = *db_->GetTable(0, "t");
  uint64_t rid;
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table, Row(1, 0.0)));
    ASSERT_OK(txn.Commit());
  }
  (void)rid;
  for (int i = 1; i <= 5; ++i) {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Update(table, rid, Row(1, i)));
    ASSERT_OK(txn.Commit());
  }
  ASSERT_OK_AND_ASSIGN(GcStats stats, db_->RunGarbageCollection());
  EXPECT_GT(stats.log_entries_truncated, 0u);
  // After GC plus a fresh update the row still reads correctly.
  Transaction check(session.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, check.Read(table, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetDouble(1), 5.0);
  ASSERT_OK(check.Commit());
}

TEST_F(RecoveryTest, DeletedRecordFullyCollected) {
  auto session = db_->OpenSession(0, 0);
  auto table = *db_->GetTable(0, "t");
  uint64_t rid;
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table, Row(1, 1.0)));
    ASSERT_OK(txn.Commit());
  }
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Delete(table, rid));
    ASSERT_OK(txn.Commit());
  }
  // Advance the lav past the delete.
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Commit());
  }
  ASSERT_OK_AND_ASSIGN(GcStats stats, db_->RunGarbageCollection());
  EXPECT_EQ(stats.records_erased, 1u);
  // The cell is gone from the store entirely.
  auto cell = db_->cluster()->Get(table->meta->data_table,
                                  EncodeOrderedU64(rid));
  EXPECT_TRUE(cell.status().IsNotFound());
  // And the pk index no longer returns it.
  Transaction check(session.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(auto rids,
                       check.LookupIndex(table, -1, {Value(int64_t{1})}));
  EXPECT_TRUE(rids.empty());
  ASSERT_OK(check.Commit());
}

}  // namespace
}  // namespace tell::tx
