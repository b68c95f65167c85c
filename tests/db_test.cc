// TellDb facade tests: DDL edge cases, session management, multi-statement
// behavior, transaction-log plumbing, and garbage collector scenarios that
// are awkward to reach from the lower-level suites.
#include <gtest/gtest.h>

#include "common/serde.h"
#include "db/tell_db.h"
#include "tests/test_util.h"
#include "tx/garbage_collector.h"

namespace tell::db {
namespace {

using schema::Tuple;
using schema::Value;

class TellDbTest : public ::testing::Test {
 protected:
  TellDbTest() {
    TellDbOptions options;
    options.network = sim::NetworkModel::Instant();
    db_ = std::make_unique<TellDb>(options);
    session_ = db_->OpenSession(0, 0);
  }
  std::unique_ptr<TellDb> db_;
  std::unique_ptr<tx::Session> session_;
};

TEST_F(TellDbTest, CreateTableTwiceFails) {
  ASSERT_OK(db_->ExecuteDdl("CREATE TABLE t (id INT, PRIMARY KEY (id))"));
  Status st = db_->ExecuteDdl("CREATE TABLE t (id INT, PRIMARY KEY (id))");
  EXPECT_TRUE(st.IsAlreadyExists()) << st.ToString();
}

TEST_F(TellDbTest, CreateTableWithoutPkRejected) {
  EXPECT_FALSE(db_->ExecuteDdl("CREATE TABLE t (id INT)").ok());
}

TEST_F(TellDbTest, QueryUnknownTableFails) {
  auto result = db_->AutoCommitSql(session_.get(), "SELECT * FROM nope");
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST_F(TellDbTest, QueryUnknownColumnFails) {
  ASSERT_OK(db_->ExecuteDdl("CREATE TABLE t (id INT, PRIMARY KEY (id))"));
  auto result = db_->AutoCommitSql(session_.get(),
                                   "SELECT ghost FROM t");
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST_F(TellDbTest, CreateIndexBackfillsExistingData) {
  ASSERT_OK(db_->ExecuteDdl(
      "CREATE TABLE t (id INT, tag VARCHAR(8), PRIMARY KEY (id))"));
  auto loader = db_->OpenSession(0, 1);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_->AutoCommitSql(
                       loader.get(),
                       "INSERT INTO t VALUES (" + std::to_string(i) + ", '" +
                           (i % 2 ? "odd" : "even") + "')")
                    .ok());
  }
  // Index created AFTER the data exists must backfill.
  ASSERT_OK(db_->ExecuteDdl("CREATE INDEX by_tag ON t (tag)"));
  auto result = db_->AutoCommitSql(
      session_.get(), "SELECT COUNT(*) FROM t WHERE tag = 'odd'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(std::get<int64_t>(result->rows[0].at(0)), 10);
}

TEST_F(TellDbTest, DmlWithoutTransactionRejected) {
  ASSERT_OK(db_->ExecuteDdl("CREATE TABLE t (id INT, PRIMARY KEY (id))"));
  auto result = db_->ExecuteSql(nullptr, 0, "INSERT INTO t VALUES (1)");
  EXPECT_FALSE(result.ok());
}

TEST_F(TellDbTest, AutoCommitRollsBackOnError) {
  ASSERT_OK(db_->ExecuteDdl("CREATE TABLE t (id INT, PRIMARY KEY (id))"));
  ASSERT_TRUE(db_->AutoCommitSql(session_.get(),
                                 "INSERT INTO t VALUES (1)").ok());
  // Duplicate pk fails; the auto-commit wrapper must abort cleanly and the
  // session stays usable.
  auto dup = db_->AutoCommitSql(session_.get(), "INSERT INTO t VALUES (1)");
  EXPECT_FALSE(dup.ok());
  auto count = db_->AutoCommitSql(session_.get(), "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0].at(0)), 1);
}

TEST_F(TellDbTest, KillUnknownPnRejected) {
  EXPECT_FALSE(db_->KillProcessingNode(99).ok());
}

TEST_F(TellDbTest, OpenSessionOnDeadPnAborts) {
  TellDbOptions options;
  options.num_processing_nodes = 2;
  options.network = sim::NetworkModel::Instant();
  TellDb db(options);
  ASSERT_OK(db.CreateTable("t",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {}));
  ASSERT_OK(db.KillProcessingNode(1).status());
  EXPECT_FALSE(db.GetTable(1, "t").ok());
}

// ---------------------------------------------------------------------------
// Transaction log behaviours via the db facade

class TxLogDbTest : public ::testing::Test {
 protected:
  TxLogDbTest() {
    TellDbOptions options;
    options.network = sim::NetworkModel::Instant();
    db_ = std::make_unique<TellDb>(options);
    EXPECT_OK(db_->CreateTable("t",
                               schema::SchemaBuilder()
                                   .AddInt64("id")
                                   .AddDouble("v")
                                   .SetPrimaryKey({"id"})
                                   .Build(),
                               {}));
    session_ = db_->OpenSession(0, 0);
    table_ = *db_->GetTable(0, "t");
  }

  Tuple Row(int64_t id, double v) {
    Tuple t(2);
    t.Set(0, id);
    t.Set(1, v);
    return t;
  }

  std::unique_ptr<TellDb> db_;
  std::unique_ptr<tx::Session> session_;
  tx::TableHandle* table_;
};

TEST_F(TxLogDbTest, CommitWritesLogEntryWithWriteSetAndFlag) {
  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(uint64_t rid, txn.Insert(table_, Row(1, 1.0)));
  ASSERT_OK(txn.Commit());
  ASSERT_OK_AND_ASSIGN(
      auto entry, test::LogEntryOf(*db_->transaction_log(), session_->client(),
                                   txn.tid()));
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->committed);
  EXPECT_EQ(entry->pn_id, 0u);
  ASSERT_EQ(entry->write_set.size(), 1u);
  EXPECT_EQ(entry->write_set[0].second, rid);
}

TEST_F(TxLogDbTest, ReadOnlyCommitWritesNoLogEntry) {
  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK(txn.Commit());
  ASSERT_OK_AND_ASSIGN(
      auto entry, test::LogEntryOf(*db_->transaction_log(), session_->client(),
                                   txn.tid()));
  EXPECT_FALSE(entry.has_value());
}

TEST_F(TxLogDbTest, ScanBackwardsNewestFirst) {
  std::vector<commitmgr::Tid> tids;
  for (int i = 0; i < 5; ++i) {
    tx::Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Insert(table_, Row(i, i)).status());
    ASSERT_OK(txn.Commit());
    tids.push_back(txn.tid());
  }
  ASSERT_OK_AND_ASSIGN(
      auto entries,
      db_->transaction_log()->ScanBackwards(session_->client(), tids.back(),
                                            /*lav=*/0));
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries.front().tid, tids.back());
  EXPECT_EQ(entries.back().tid, tids.front());
}

TEST_F(TxLogDbTest, GcTruncatesLogBelowLav) {
  for (int i = 0; i < 5; ++i) {
    tx::Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Insert(table_, Row(i, i)).status());
    ASSERT_OK(txn.Commit());
  }
  ASSERT_OK_AND_ASSIGN(tx::GcStats stats, db_->RunGarbageCollection());
  EXPECT_GE(stats.log_entries_truncated, 4u);
  // Everything still readable.
  auto count = db_->AutoCommitSql(session_.get(), "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0].at(0)), 5);
}

TEST_F(TxLogDbTest, LongRunningTransactionBlocksGc) {
  uint64_t rid;
  {
    tx::Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table_, Row(1, 1.0)));
    ASSERT_OK(txn.Commit());
  }
  // An old reader pins the lav.
  auto old_session = db_->OpenSession(0, 5);
  tx::Transaction old_reader(old_session.get());
  ASSERT_OK(old_reader.Begin());
  // Update the record several times.
  for (int i = 0; i < 4; ++i) {
    tx::Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Update(table_, rid, Row(1, 10.0 + i)));
    ASSERT_OK(txn.Commit());
  }
  ASSERT_OK(db_->RunGarbageCollection().status());
  // The old reader still sees its version: GC must not have removed it.
  ASSERT_OK_AND_ASSIGN(auto row, old_reader.Read(table_, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetDouble(1), 1.0);
  ASSERT_OK(old_reader.Commit());
}

TEST_F(TxLogDbTest, VersionChainBoundedAfterGc) {
  uint64_t rid;
  {
    tx::Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table_, Row(1, 0.0)));
    ASSERT_OK(txn.Commit());
  }
  for (int i = 0; i < 10; ++i) {
    tx::Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Update(table_, rid, Row(1, i)));
    ASSERT_OK(txn.Commit());
  }
  ASSERT_OK(db_->RunGarbageCollection().status());
  auto cell = db_->cluster()->Get(table_->meta->data_table,
                                  EncodeOrderedU64(rid));
  ASSERT_TRUE(cell.ok());
  ASSERT_OK_AND_ASSIGN(schema::VersionedRecord record,
                       schema::VersionedRecord::Deserialize(cell->value));
  EXPECT_LE(record.NumVersions(), 2u);
}

TEST_F(TxLogDbTest, GcSweepRoundsDoNotGrowWithDeadRecords) {
  std::vector<uint64_t> rids;
  for (int i = 0; i < 200; ++i) {
    tx::Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(uint64_t rid, txn.Insert(table_, Row(i, i)));
    ASSERT_OK(txn.Commit());
    rids.push_back(rid);
  }
  // Deletes rids[first, first + dead), lets the lav pass the delete, and
  // returns the storage calls that issued a message during one sweep of
  // the table.
  tx::GarbageCollector gc(db_->commit_managers());
  store::StorageClient* client = session_->client();
  auto sweep_flushes = [&](size_t first, size_t dead) -> uint64_t {
    {
      tx::Transaction txn(session_.get());
      EXPECT_OK(txn.Begin());
      for (size_t i = first; i < first + dead; ++i) {
        EXPECT_OK(txn.Delete(table_, rids[i]));
      }
      EXPECT_OK(txn.Commit());
    }
    {
      tx::Transaction txn(session_.get());
      EXPECT_OK(txn.Begin());
      EXPECT_OK(txn.Commit());
    }
    const uint64_t before = client->metrics()->pipeline_flushes;
    auto stats = gc.SweepTable(client, table_);
    EXPECT_OK(stats.status());
    if (stats.ok()) {
      EXPECT_EQ(stats->records_erased, dead);
      EXPECT_EQ(stats->index_entries_removed, dead);
    }
    const uint64_t flushes = client->metrics()->pipeline_flushes - before;
    // The entries are gone from the tree, not only counted.
    for (size_t i = first; i < first + dead; ++i) {
      const std::string key =
          *schema::EncodeIndexKeyValues({Value(static_cast<int64_t>(i))});
      EXPECT_TRUE(table_->primary.Lookup(client, key)->empty()) << "row " << i;
    }
    return flushes;
  };
  const uint64_t few = sweep_flushes(0, 2);
  const uint64_t many = sweep_flushes(2, 64);
  EXPECT_GT(few, 0u);
  EXPECT_EQ(many, few);
}

/// The sweep counts the entries it took out, not the removes it sent: a
/// dead record whose index entry is already gone costs a remove that
/// matches nothing, and index_entries_removed reads 0.
TEST_F(TxLogDbTest, GcSweepCountsOnlyTheEntriesItRemoves) {
  uint64_t rid = 0;
  {
    tx::Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table_, Row(7, 7.0)));
    ASSERT_OK(txn.Commit());
  }
  {
    tx::Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Delete(table_, rid));
    ASSERT_OK(txn.Commit());
  }
  {
    tx::Transaction txn(session_.get());  // lets the lav pass the delete
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Commit());
  }
  store::StorageClient* client = session_->client();
  const std::string key = *schema::EncodeIndexKeyValues({Value(int64_t{7})});
  std::vector<bool> in_effect;
  std::vector<bool> removed;
  ASSERT_OK(index::BTree::BatchInsert(
      client,
      {{&table_->primary, key, rid, /*unique=*/false, /*remove=*/true,
        /*tag=*/UINT64_MAX}},
      &in_effect, &removed));
  ASSERT_EQ(removed, std::vector<bool>{true});
  ASSERT_TRUE(table_->primary.Lookup(client, key)->empty());

  tx::GarbageCollector gc(db_->commit_managers());
  ASSERT_OK_AND_ASSIGN(tx::GcStats stats, gc.SweepTable(client, table_));
  EXPECT_EQ(stats.records_erased, 1u);
  EXPECT_EQ(stats.index_entries_removed, 0u);
}

}  // namespace
}  // namespace tell::db
