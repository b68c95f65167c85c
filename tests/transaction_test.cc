#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "db/tell_db.h"
#include "tests/test_util.h"

namespace tell::tx {
namespace {

using schema::Tuple;
using schema::Value;

class TransactionTest : public ::testing::Test {
 protected:
  TransactionTest() {
    db::TellDbOptions options;
    options.num_processing_nodes = 2;
    options.num_storage_nodes = 3;
    options.network = sim::NetworkModel::Instant();
    db_ = std::make_unique<db::TellDb>(options);
    schema::IndexDef by_name;
    by_name.name = "by_name";
    by_name.key_columns = {1};
    by_name.unique = false;
    Status st = db_->CreateTable("accounts",
                                 schema::SchemaBuilder()
                                     .AddInt64("id")
                                     .AddString("name")
                                     .AddDouble("balance")
                                     .SetPrimaryKey({"id"})
                                     .Build(),
                                 {by_name});
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto table = db_->GetTable(0, "accounts");
    EXPECT_TRUE(table.ok());
    table_ = *table;
    session_ = db_->OpenSession(0, 0);
  }

  Tuple Account(int64_t id, const std::string& name, double balance) {
    Tuple t(3);
    t.Set(0, id);
    t.Set(1, name);
    t.Set(2, balance);
    return t;
  }

  /// Inserts and commits one row; returns the rid.
  uint64_t MustInsert(int64_t id, const std::string& name, double balance) {
    Transaction txn(session_.get());
    EXPECT_TRUE(txn.Begin().ok());
    auto rid = txn.Insert(table_, Account(id, name, balance));
    EXPECT_TRUE(rid.ok()) << rid.status().ToString();
    EXPECT_TRUE(txn.Commit().ok());
    return *rid;
  }

  std::unique_ptr<db::TellDb> db_;
  TableHandle* table_;
  std::unique_ptr<Session> session_;
};

TEST_F(TransactionTest, InsertCommitRead) {
  uint64_t rid = MustInsert(1, "alice", 100.0);
  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, txn.Read(table_, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetString(1), "alice");
  EXPECT_EQ(row->GetDouble(2), 100.0);
  ASSERT_OK(txn.Commit());
}

TEST_F(TransactionTest, ReadByPrimaryKey) {
  MustInsert(7, "bob", 5.0);
  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row,
                       txn.ReadByKey(table_, {Value(int64_t{7})}));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetString(1), "bob");
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> missing,
                       txn.ReadByKey(table_, {Value(int64_t{999})}));
  EXPECT_FALSE(missing.has_value());
  ASSERT_OK(txn.Commit());
}

TEST_F(TransactionTest, OwnWritesVisibleBeforeCommit) {
  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(uint64_t rid,
                       txn.Insert(table_, Account(1, "alice", 1.0)));
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, txn.Read(table_, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetString(1), "alice");
  // Own insert also visible through the index.
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> by_key,
                       txn.ReadByKey(table_, {Value(int64_t{1})}));
  EXPECT_TRUE(by_key.has_value());
  ASSERT_OK(txn.Commit());
}

TEST_F(TransactionTest, UncommittedWritesInvisibleToOthers) {
  Transaction writer(session_.get());
  ASSERT_OK(writer.Begin());
  ASSERT_OK(writer.Insert(table_, Account(1, "alice", 1.0)).status());

  auto session2 = db_->OpenSession(0, 1);
  Transaction reader(session2.get());
  ASSERT_OK(reader.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row,
                       reader.ReadByKey(table_, {Value(int64_t{1})}));
  EXPECT_FALSE(row.has_value()) << "dirty read!";
  ASSERT_OK(reader.Commit());
  ASSERT_OK(writer.Commit());
}

TEST_F(TransactionTest, SnapshotIgnoresLaterCommits) {
  uint64_t rid = MustInsert(1, "alice", 100.0);
  // Reader starts first.
  Transaction reader(session_.get());
  ASSERT_OK(reader.Begin());
  // A later transaction updates the balance and commits.
  auto session2 = db_->OpenSession(0, 1);
  Transaction writer(session2.get());
  ASSERT_OK(writer.Begin());
  ASSERT_OK(writer.Update(table_, rid, Account(1, "alice", 999.0)));
  ASSERT_OK(writer.Commit());
  // The reader still sees its snapshot.
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, reader.Read(table_, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetDouble(2), 100.0);
  ASSERT_OK(reader.Commit());
  // A fresh transaction sees the update.
  Transaction fresh(session_.get());
  ASSERT_OK(fresh.Begin());
  ASSERT_OK_AND_ASSIGN(row, fresh.Read(table_, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetDouble(2), 999.0);
  ASSERT_OK(fresh.Commit());
}

TEST_F(TransactionTest, WriteWriteConflictAbortsSecondCommitter) {
  uint64_t rid = MustInsert(1, "alice", 100.0);
  auto session2 = db_->OpenSession(1, 1);
  auto table2 = db_->GetTable(1, "accounts");
  ASSERT_TRUE(table2.ok());

  Transaction t1(session_.get());
  Transaction t2(session2.get());
  ASSERT_OK(t1.Begin());
  ASSERT_OK(t2.Begin());
  ASSERT_OK(t1.Update(table_, rid, Account(1, "alice", 110.0)));
  ASSERT_OK(t2.Update(*table2, rid, Account(1, "alice", 120.0)));
  ASSERT_OK(t1.Commit());
  Status st = t2.Commit();
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(t2.state(), TxnState::kAborted);
  // t1's value survived; no lost update.
  Transaction check(session_.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, check.Read(table_, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetDouble(2), 110.0);
  ASSERT_OK(check.Commit());
}

TEST_F(TransactionTest, AbortedTransactionLeavesNoTrace) {
  uint64_t rid = MustInsert(1, "alice", 100.0);
  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK(txn.Update(table_, rid, Account(1, "alice", 0.0)));
  ASSERT_OK(txn.Abort());
  Transaction check(session_.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, check.Read(table_, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetDouble(2), 100.0);
  ASSERT_OK(check.Commit());
}

TEST_F(TransactionTest, DeleteHidesRecordFromNewSnapshots) {
  uint64_t rid = MustInsert(1, "alice", 100.0);
  // A long-running reader starts before the delete.
  Transaction old_reader(session_.get());
  ASSERT_OK(old_reader.Begin());

  auto session2 = db_->OpenSession(0, 1);
  Transaction deleter(session2.get());
  ASSERT_OK(deleter.Begin());
  ASSERT_OK(deleter.Delete(table_, rid));
  ASSERT_OK(deleter.Commit());

  // Old snapshot still sees the record (time travel).
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, old_reader.Read(table_, rid));
  EXPECT_TRUE(row.has_value());
  ASSERT_OK(old_reader.Commit());

  // New snapshot does not.
  Transaction fresh(session_.get());
  ASSERT_OK(fresh.Begin());
  ASSERT_OK_AND_ASSIGN(row, fresh.Read(table_, rid));
  EXPECT_FALSE(row.has_value());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> by_key,
                       fresh.ReadByKey(table_, {Value(int64_t{1})}));
  EXPECT_FALSE(by_key.has_value());
  ASSERT_OK(fresh.Commit());
}

TEST_F(TransactionTest, DuplicatePrimaryKeyRejected) {
  MustInsert(1, "alice", 1.0);
  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  Status st = txn.Insert(table_, Account(1, "clone", 2.0)).status();
  EXPECT_TRUE(st.IsAlreadyExists()) << st.ToString();
  ASSERT_OK(txn.Abort());
}

TEST_F(TransactionTest, RacingInsertsSamePkOnlyOneWins) {
  auto session2 = db_->OpenSession(1, 1);
  auto table2 = db_->GetTable(1, "accounts");
  ASSERT_TRUE(table2.ok());
  Transaction t1(session_.get());
  Transaction t2(session2.get());
  ASSERT_OK(t1.Begin());
  ASSERT_OK(t2.Begin());
  // Both pass the pre-check (neither sees the other's insert)...
  ASSERT_OK(t1.Insert(table_, Account(5, "a", 0.0)).status());
  ASSERT_OK(t2.Insert(*table2, Account(5, "b", 0.0)).status());
  // ...but the unique primary index catches the race at commit.
  Status s1 = t1.Commit();
  Status s2 = t2.Commit();
  EXPECT_NE(s1.ok(), s2.ok());
  Transaction check(session_.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(
      auto rids, test::RidsUnderKey(&check, table_, -1, {Value(int64_t{5})}));
  EXPECT_EQ(rids.size(), 1u);
  ASSERT_OK(check.Commit());
}

TEST_F(TransactionTest, SecondaryIndexLookup) {
  MustInsert(1, "alice", 1.0);
  MustInsert(2, "bob", 2.0);
  MustInsert(3, "alice", 3.0);
  MustInsert(4, "alice", 4.0);
  const Value alice(std::string("alice"));
  // The rounds of the bare index lookup, with the inner-node cache as warm
  // as for the exact-key scan below.
  ASSERT_OK_AND_ASSIGN(std::string encoded,
                       schema::EncodeIndexKeyValues({alice}));
  const sim::WorkerMetrics* metrics = session_->metrics();
  uint64_t before = metrics->pipeline_flushes;
  ASSERT_OK(
      table_->secondaries[0].Lookup(session_->client(), encoded).status());
  const uint64_t index_rounds = metrics->pipeline_flushes - before;

  // A fresh transaction's buffer is cold: the three candidate records of
  // the non-unique key are fetched in one record round.
  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  before = metrics->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(auto rids,
                       test::RidsUnderKey(&txn, table_, 0, {alice}));
  EXPECT_EQ(metrics->pipeline_flushes - before, index_rounds + 1);
  EXPECT_EQ(rids.size(), 3u);
  ASSERT_OK(txn.Commit());
}

TEST_F(TransactionTest, SecondaryIndexFollowsKeyChange) {
  uint64_t rid = MustInsert(1, "alice", 1.0);
  Transaction rename(session_.get());
  ASSERT_OK(rename.Begin());
  ASSERT_OK(rename.Update(table_, rid, Account(1, "alicia", 1.0)));
  ASSERT_OK(rename.Commit());

  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(
      auto new_rids,
      test::RidsUnderKey(&txn, table_, 0, {Value(std::string("alicia"))}));
  EXPECT_EQ(new_rids.size(), 1u);
  // The old entry is version-unaware and may still exist, but must not
  // produce a visible hit.
  ASSERT_OK_AND_ASSIGN(
      auto old_rids,
      test::RidsUnderKey(&txn, table_, 0, {Value(std::string("alice"))}));
  EXPECT_TRUE(old_rids.empty());
  ASSERT_OK(txn.Commit());
}

TEST_F(TransactionTest, ScanIndexRange) {
  for (int64_t id = 1; id <= 10; ++id) {
    MustInsert(id, "user" + std::to_string(id), static_cast<double>(id));
  }
  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(
      auto rows, txn.ScanIndex(table_, -1, {Value(int64_t{3})},
                               {Value(int64_t{7})}, 0));
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].second.GetInt(0), 3);
  EXPECT_EQ(rows[3].second.GetInt(0), 6);
  ASSERT_OK(txn.Commit());
}

TEST_F(TransactionTest, BatchScanIndexSharesRoundsAcrossRanges) {
  for (int64_t id = 1; id <= 30; ++id) {
    MustInsert(id, "user" + std::to_string(id), static_cast<double>(id));
  }
  auto encoded = [](int64_t id) {
    return *schema::EncodeIndexKeyValues({Value(id)});
  };
  const std::vector<IndexRange> ranges = {
      {table_, -1, encoded(3), encoded(9), /*limit=*/2},
      {table_, -1, encoded(12), encoded(14), /*limit=*/0},
      {table_, -1, encoded(20), "", /*limit=*/1},
      {table_, -1, encoded(40), encoded(50), /*limit=*/1}};  // empty
  Transaction reference(session_.get());
  ASSERT_OK(reference.Begin());
  std::vector<std::vector<int64_t>> expected;
  for (const IndexRange& range : ranges) {
    ASSERT_OK_AND_ASSIGN(auto rows,
                         reference.ScanIndexEncoded(range.table, range.index,
                                                    range.lo, range.hi,
                                                    range.limit));
    expected.emplace_back();
    for (const auto& [rid, row] : rows) {
      expected.back().push_back(row.GetInt(0));
    }
  }
  ASSERT_OK(reference.Commit());
  EXPECT_EQ(expected, (std::vector<std::vector<int64_t>>{
                          {3, 4}, {12, 13}, {20}, {}}));

  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  const uint64_t calls = session_->metrics()->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(auto rows, txn.BatchScanIndex(ranges));
  // Warm inner nodes: one round for the leaves of all four ranges, one for
  // the records of all of them.
  EXPECT_EQ(session_->metrics()->pipeline_flushes - calls, 2u);
  ASSERT_EQ(rows.size(), ranges.size());
  for (size_t r = 0; r < ranges.size(); ++r) {
    std::vector<int64_t> ids;
    for (const auto& [rid, row] : rows[r]) ids.push_back(row.GetInt(0));
    EXPECT_EQ(ids, expected[r]) << "range " << r;
  }
  ASSERT_OK(txn.Commit());
}

TEST_F(TransactionTest, ReadPathGcDropsEntriesOfRowsDeadBelowTheLav) {
  const uint64_t dead = MustInsert(1, "alice", 1.0);
  MustInsert(2, "bob", 2.0);
  Tid deleted_at = 0;
  {
    Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    deleted_at = txn.tid();
    ASSERT_OK(txn.Delete(table_, dead));
    ASSERT_OK(txn.Commit());
  }
  // The delete's eager GC keeps the insert version (snapshots older than
  // the delete may still read it), so a version still carries alice's key.
  // Once the lav passes the delete, no snapshot can see that version.
  sim::WorkerMetrics* metrics = session_->metrics();
  auto scan = [&]() -> std::vector<int64_t> {
    Transaction txn(session_.get());
    EXPECT_OK(txn.Begin());
    EXPECT_GE(txn.lav(), deleted_at);
    auto rows = txn.ScanIndex(table_, -1, {Value(int64_t{1})},
                              {Value(int64_t{3})}, 0);
    EXPECT_OK(rows.status());
    EXPECT_OK(txn.Commit());
    std::vector<int64_t> ids;
    if (rows.ok()) {
      for (const auto& [rid, row] : *rows) ids.push_back(row.GetInt(0));
    }
    return ids;
  };
  const uint64_t misses = metrics->buffer_misses;
  const uint64_t removed = metrics->gc_index_entries;
  EXPECT_EQ(scan(), std::vector<int64_t>{2});
  // Both records fetched; alice's primary entry collected at commit.
  EXPECT_EQ(metrics->buffer_misses - misses, 2u);
  EXPECT_EQ(metrics->gc_index_entries - removed, 1u);
  // The next scan no longer meets the entry: only bob's record is fetched.
  EXPECT_EQ(scan(), std::vector<int64_t>{2});
  EXPECT_EQ(metrics->buffer_misses - misses, 3u);
  EXPECT_EQ(metrics->gc_index_entries - removed, 1u);
}

TEST_F(TransactionTest, BatchReadMixesHitsAndMisses) {
  uint64_t r1 = MustInsert(1, "a", 1.0);
  uint64_t r2 = MustInsert(2, "b", 2.0);
  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(auto rows,
                       txn.BatchRead(table_, {r1, 424242, r2}));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0].has_value());
  EXPECT_FALSE(rows[1].has_value());
  EXPECT_TRUE(rows[2].has_value());
  ASSERT_OK(txn.Commit());
}

TEST_F(TransactionTest, ReadOnlyCommitSkipsLogAndApply) {
  uint64_t rid = MustInsert(1, "a", 1.0);
  uint64_t requests_before = session_->metrics()->storage_requests;
  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK(txn.Read(table_, rid).status());
  uint64_t after_read = session_->metrics()->storage_requests;
  ASSERT_OK(txn.Commit());
  // Commit of a read-only transaction issues no further storage requests.
  EXPECT_EQ(session_->metrics()->storage_requests, after_read);
  EXPECT_GT(after_read, requests_before);
}

TEST_F(TransactionTest, EagerGcTrimsOldVersions) {
  uint64_t rid = MustInsert(1, "a", 0.0);
  // Many sequential updates; with no concurrent readers the lav advances,
  // so commit-time GC keeps the version count bounded.
  for (int i = 1; i <= 20; ++i) {
    Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Update(table_, rid, Account(1, "a", i)));
    ASSERT_OK(txn.Commit());
  }
  // Fetch the raw record and count versions.
  auto cell = db_->cluster()->Get(table_->meta->data_table,
                                  EncodeOrderedU64(rid));
  ASSERT_TRUE(cell.ok());
  ASSERT_OK_AND_ASSIGN(schema::VersionedRecord record,
                       schema::VersionedRecord::Deserialize(cell->value));
  EXPECT_LE(record.NumVersions(), 3u)
      << "eager GC should keep the version chain short";
}

TEST_F(TransactionTest, LostUpdateAnomalyPreventedUnderConcurrency) {
  uint64_t rid = MustInsert(1, "counter", 0.0);
  constexpr int kThreads = 4;
  constexpr int kIncrementsEach = 50;
  std::atomic<int> total_committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = db_->OpenSession(t % 2, 10 + t);
      auto table = db_->GetTable(t % 2, "accounts");
      ASSERT_TRUE(table.ok());
      int committed = 0;
      while (committed < kIncrementsEach) {
        Transaction txn(session.get());
        ASSERT_TRUE(txn.Begin().ok());
        auto row = txn.Read(*table, rid);
        ASSERT_TRUE(row.ok());
        ASSERT_TRUE(row->has_value());
        double balance = (*row)->GetDouble(2);
        Status st = txn.Update(*table, rid, [&] {
          Tuple u(3);
          u.Set(0, int64_t{1});
          u.Set(1, std::string("counter"));
          u.Set(2, balance + 1.0);
          return u;
        }());
        // Update itself may detect the conflict (§4.1 scenario 1: the
        // record already carries a newer invisible version) — that counts
        // as an aborted attempt to retry, same as a commit-time conflict.
        Status commit = st.ok() ? txn.Commit() : st;
        if (commit.ok()) {
          ++committed;
          total_committed.fetch_add(1);
        } else {
          ASSERT_TRUE(commit.IsAborted()) << commit.ToString();
          if (txn.state() == tx::TxnState::kRunning) (void)txn.Abort();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  Transaction check(session_.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row, check.Read(table_, rid));
  ASSERT_TRUE(row.has_value());
  // Every committed increment is reflected: snapshot isolation prevents
  // lost updates via first-committer-wins (LL/SC).
  EXPECT_EQ(row->GetDouble(2),
            static_cast<double>(kThreads * kIncrementsEach));
  ASSERT_OK(check.Commit());
}

TEST_F(TransactionTest, GcHorizonHonorsDeltaCachedReaderSnapshot) {
  // Regression test for the delta-sync protocol: a reader whose session
  // reconstructs snapshots from cached deltas must still hold the GC horizon
  // back — lazy GC must never reclaim a version the reader can see.
  uint64_t rid = MustInsert(1, "a", 1.0);
  auto session2 = db_->OpenSession(1, 0);
  // Warm both sessions' delta caches past the first-contact full sync.
  for (int i = 0; i < 3; ++i) {
    Transaction t1(session_.get());
    ASSERT_OK(t1.Begin());
    ASSERT_OK(t1.Commit());
    Transaction t2(session2.get());
    ASSERT_OK(t2.Begin());
    ASSERT_OK(t2.Commit());
  }

  Transaction reader(session2.get());
  ASSERT_OK(reader.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> before, reader.Read(table_, rid));
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->GetDouble(2), 1.0);

  // Meanwhile the other session commits newer versions through its warm
  // delta cache.
  for (int i = 1; i <= 10; ++i) {
    Transaction writer(session_.get());
    ASSERT_OK(writer.Begin());
    ASSERT_OK(writer.Update(table_, rid, Account(1, "a", 100.0 + i)));
    ASSERT_OK(writer.Commit());
  }

  // The GC horizon must not pass the open reader's snapshot.
  EXPECT_LE(db_->commit_managers()->GlobalLav(), reader.tid());
  ASSERT_OK(db_->RunGarbageCollection().status());

  // The reader's version survived the sweep.
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> after, reader.Read(table_, rid));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->GetDouble(2), 1.0) << "GC reclaimed a visible version";
  ASSERT_OK(reader.Commit());

  // With the reader gone the horizon is free to advance and reclaim.
  Transaction check(session_.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> latest, check.Read(table_, rid));
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->GetDouble(2), 110.0);
  ASSERT_OK(check.Commit());
}

TEST_F(TransactionTest, CommitManagerProtocolChargesOneMessagePerBegin) {
  // The session talks to the commit manager through one protocol: every
  // begin is one message that also carries the previous transaction's
  // deferred finish, and its snapshot arrives as a delta once the session
  // holds a descriptor. Another PN commits in between, so every delta has
  // news to carry, and its open transaction pins the snapshot base so the
  // full descriptor grows a bitset the delta does not need to ship.
  uint64_t rid = MustInsert(1, "a", 0.0);
  uint64_t other_rid = MustInsert(2, "b", 0.0);
  auto session = db_->OpenSession(0, 1);
  auto other = db_->OpenSession(1, 0);
  Transaction pin(other.get());
  ASSERT_OK(pin.Begin());

  constexpr int kTxns = 20;
  for (int i = 1; i <= kTxns; ++i) {
    Transaction remote(other.get());
    ASSERT_OK(remote.Begin());
    ASSERT_OK(remote.Update(table_, other_rid, Account(2, "b", i)));
    ASSERT_OK(remote.Commit());

    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Update(table_, rid, Account(1, "a", i)));
    ASSERT_OK(txn.Commit());
  }
  session->commitmgr_client()->FlushPendingAccounting();
  ASSERT_OK(pin.Commit());

  const sim::WorkerMetrics* m = session->metrics();
  // kTxns begins, plus the flush that charges the last finish.
  EXPECT_EQ(m->cm_messages, uint64_t{kTxns} + 1);
  EXPECT_EQ(m->cm_ops, uint64_t{2 * kTxns});
  EXPECT_GE(m->cm_full_syncs, 1u);  // first contact
  EXPECT_GT(m->cm_delta_syncs, 0u);
  EXPECT_GT(m->cm_delta_bytes_saved, 0u);
}

TEST_F(TransactionTest, CommitWithIndexOpsCostsThreeCalls) {
  // Commit step 3a, the descent to every leaf the index ops touch, shares
  // its first call with the log append; the leaf writes share the apply's;
  // then comes the commit flag. Were the log put issued alone, or the
  // leaves written after the apply, each commit below would cost four
  // calls.
  MustInsert(1, "alice", 1.0);  // both trees' root leaves exist
  sim::WorkerMetrics* metrics = session_->metrics();

  // Two trees: the primary key and by_name.
  Transaction insert(session_.get());
  ASSERT_OK(insert.Begin());
  ASSERT_OK_AND_ASSIGN(uint64_t rid,
                       insert.Insert(table_, Account(2, "bob", 2.0)));
  uint64_t calls = metrics->pipeline_flushes;
  uint64_t appends = metrics->log_appends;
  ASSERT_OK(insert.Commit());
  EXPECT_EQ(metrics->pipeline_flushes - calls, 3u);
  EXPECT_EQ(metrics->log_appends - appends, 1u);

  // One tree: a new name is the only index op, which still rides the log
  // append.
  Transaction rename(session_.get());
  ASSERT_OK(rename.Begin());
  ASSERT_OK(rename.Update(table_, rid, Account(2, "robert", 2.0)));
  calls = metrics->pipeline_flushes;
  ASSERT_OK(rename.Commit());
  EXPECT_EQ(metrics->pipeline_flushes - calls, 3u);

  Transaction check(session_.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(auto bob, check.ReadByKey(table_, {Value(int64_t{2})}));
  ASSERT_TRUE(bob.has_value());
  EXPECT_EQ(bob->GetString(1), "robert");
  ASSERT_OK_AND_ASSIGN(
      auto robert,
      test::RidsUnderKey(&check, table_, 0, {Value(std::string("robert"))}));
  EXPECT_EQ(robert, std::vector<uint64_t>{rid});
  ASSERT_OK(check.Commit());
}

TEST_F(TransactionTest, WriteWriteAbortRevertsInOneReadAndOneWrite) {
  std::vector<uint64_t> rids;
  for (int64_t id = 1; id <= 4; ++id) {
    rids.push_back(MustInsert(id, "user" + std::to_string(id), 10.0));
  }
  auto session2 = db_->OpenSession(1, 1);
  auto table2 = db_->GetTable(1, "accounts");
  ASSERT_TRUE(table2.ok());

  Transaction loser(session_.get());
  ASSERT_OK(loser.Begin());
  for (size_t i = 0; i < rids.size(); ++i) {
    const auto id = static_cast<int64_t>(i + 1);
    ASSERT_OK(loser.Update(table_, rids[i],
                           Account(id, "user" + std::to_string(id), 0.0)));
  }
  Transaction winner(session2.get());
  ASSERT_OK(winner.Begin());
  ASSERT_OK(winner.Update(*table2, rids[2], Account(3, "user3", 99.0)));
  ASSERT_OK(winner.Commit());

  sim::WorkerMetrics* metrics = session_->metrics();
  const uint64_t calls = metrics->pipeline_flushes;
  Status st = loser.Commit();
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  // The log append (no index op rides it), the apply that loses record 3,
  // then the rollback: one read of all four records and one write of the
  // three reverts. A revert per record would cost two calls each.
  EXPECT_EQ(metrics->pipeline_flushes - calls, 4u);
  EXPECT_EQ(metrics->rollback_unresolved, 0u);
  EXPECT_EQ(metrics->index_rollbacks, 0u);

  Transaction check(session_.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(auto rows, check.BatchRead(table_, rids));
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(rows[i].has_value());
    EXPECT_EQ(rows[i]->GetDouble(2), i == 2 ? 99.0 : 10.0) << "record " << i;
  }
  ASSERT_OK(check.Commit());
}

TEST_F(TransactionTest, AbortAfterTheApplyTakesItsEntriesBackInTheRevert) {
  const uint64_t contended = MustInsert(1, "alice", 1.0);
  auto session2 = db_->OpenSession(1, 1);
  auto table2 = db_->GetTable(1, "accounts");
  ASSERT_TRUE(table2.ok());
  Transaction loser(session_.get());
  ASSERT_OK(loser.Begin());
  ASSERT_OK_AND_ASSIGN(uint64_t rid,
                       loser.Insert(table_, Account(2, "bob", 2.0)));
  ASSERT_OK(loser.Update(table_, contended, Account(1, "alice", 0.0)));
  Transaction winner(session2.get());
  ASSERT_OK(winner.Begin());
  ASSERT_OK(winner.Update(*table2, contended, Account(1, "alice", 9.0)));
  ASSERT_OK(winner.Commit());

  sim::WorkerMetrics* metrics = session_->metrics();
  const uint64_t calls = metrics->pipeline_flushes;
  Status st = loser.Commit();
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  // The log append with the leaf reads, the apply with the leaf writes —
  // it loses the contended record — then the revert: one read of both
  // records, with a put of each leaf without the entries it got, and one
  // write of the revert.
  EXPECT_EQ(metrics->pipeline_flushes - calls, 4u);
  EXPECT_EQ(metrics->index_rollbacks, 2u);
  EXPECT_EQ(metrics->rollback_unresolved, 0u);
  const std::string key = *schema::EncodeIndexKeyValues({Value(int64_t{2})});
  EXPECT_TRUE(table_->primary.Lookup(session_->client(), key)->empty());
  const std::string name =
      *schema::EncodeIndexKeyValues({Value(std::string("bob"))});
  EXPECT_TRUE(table_->secondaries[0].Lookup(session_->client(), name)->empty());
  Transaction check(session_.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(auto row, check.Read(table_, rid));
  EXPECT_FALSE(row.has_value());
  ASSERT_OK(check.Commit());
}

// ---------------------------------------------------------------------------
// Tagged index entries: an entry carries its writer's tid, and the read
// path's GC collects an obsolete-looking entry only once that tid is at or
// below the reader's lav.

TEST_F(TransactionTest, KeyChangedBackKeepsItsEntry) {
  // A row inserted as "a" is renamed "b" and updated twice more: eager GC
  // drops its "a" version, but the (a, rid) entry stays.
  const uint64_t rid = MustInsert(1, "a", 1.0);
  for (double balance : {2.0, 3.0, 4.0}) {
    Transaction update(session_.get());
    ASSERT_OK(update.Begin());
    ASSERT_OK(update.Update(table_, rid, Account(1, "b", balance)));
    ASSERT_OK(update.Commit());
  }
  const Value a(std::string("a"));
  // A reader finds no version carrying "a" and queues the entry's removal.
  auto reader_session = db_->OpenSession(0, 1);
  Transaction reader(reader_session.get());
  ASSERT_OK(reader.Begin());
  ASSERT_OK_AND_ASSIGN(auto before,
                       test::RidsUnderKey(&reader, table_, 0, {a}));
  EXPECT_TRUE(before.empty());
  // A writer on a third session renames the row back to "a" and commits.
  // The entry is present already: its insert raises the entry's tag.
  auto writer_session = db_->OpenSession(0, 2);
  Transaction writer(writer_session.get());
  ASSERT_OK(writer.Begin());
  ASSERT_OK(writer.Update(table_, rid, Account(1, "a", 5.0)));
  ASSERT_OK(writer.Commit());
  // The reader's removal names the tag it saw, so it leaves the entry.
  ASSERT_OK(reader.Commit());

  Transaction check(session_.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(auto rids, test::RidsUnderKey(&check, table_, 0, {a}));
  EXPECT_EQ(rids, std::vector<uint64_t>{rid});
  ASSERT_OK(check.Commit());
}

TEST_F(TransactionTest, DeletedUniqueKeyInsertsAgainWithoutTheCheck) {
  const uint64_t dead = MustInsert(50, "gone", 1.0);
  {
    Transaction del(session_.get());
    ASSERT_OK(del.Begin());
    ASSERT_OK(del.Delete(table_, dead));
    ASSERT_OK(del.Commit());
  }
  // Three more commits move the lav past the delete: the row is dead for
  // every snapshot, and nothing has read its entry since.
  for (int64_t id : {51, 52, 53}) MustInsert(id, "other", 1.0);

  sim::WorkerMetrics* metrics = session_->metrics();
  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(
      uint64_t rid,
      txn.Insert(table_, Account(50, "again", 2.0), /*check_unique=*/false));
  const uint64_t calls = metrics->pipeline_flushes;
  const uint64_t collected = metrics->gc_index_entries;
  ASSERT_OK(txn.Commit());
  // The first round finds key 50 held by the dead row: one record round
  // validates it, one leaf round prepares its removal ahead of the insert,
  // then the apply with the leaves, and the flag.
  EXPECT_EQ(metrics->pipeline_flushes - calls, 5u);
  EXPECT_EQ(metrics->gc_index_entries - collected, 1u);

  Transaction check(session_.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(auto row, check.ReadByKey(table_, {Value(int64_t{50})}));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetString(1), "again");
  ASSERT_OK_AND_ASSIGN(
      auto rids, test::RidsUnderKey(&check, table_, -1, {Value(int64_t{50})}));
  EXPECT_EQ(rids, std::vector<uint64_t>{rid});
  ASSERT_OK(check.Commit());
}

TEST_F(TransactionTest, EntryOfAWriterInFlightSurvivesReaders) {
  MustInsert(1, "alice", 1.0);
  // A writer in flight whose entry landed before its record — the round
  // that applies its records may deliver the leaf first: the entry carries
  // the writer's tid, and no record sits under its rid.
  Transaction writer(session_.get());
  ASSERT_OK(writer.Begin());
  const std::string key = *schema::EncodeIndexKeyValues({Value(int64_t{77})});
  constexpr uint64_t kRid = 987654;
  std::vector<bool> inserted;
  ASSERT_OK(index::BTree::BatchInsert(
      session_->client(),
      {{&table_->primary, key, kRid, /*unique=*/true, /*remove=*/false,
        writer.tid()}},
      &inserted));
  auto entries = [&] {
    return *table_->primary.Lookup(session_->client(), key);
  };

  // A reader meets the entry, finds no record and skips it: the writer may
  // still apply its record.
  auto reader_session = db_->OpenSession(1, 1);
  tx::TableHandle* table = *db_->GetTable(1, "accounts");
  sim::WorkerMetrics* metrics = reader_session->metrics();
  auto read = [&] {
    Transaction reader(reader_session.get());
    ASSERT_OK(reader.Begin());
    ASSERT_OK_AND_ASSIGN(auto rids, test::RidsUnderKey(&reader, table, -1,
                                                       {Value(int64_t{77})}));
    EXPECT_TRUE(rids.empty());
    ASSERT_OK(reader.Commit());
  };
  ASSERT_NO_FATAL_FAILURE(read());
  EXPECT_EQ(entries(), std::vector<uint64_t>{kRid});
  EXPECT_EQ(metrics->index_gc_deferred, 1u);
  EXPECT_EQ(metrics->gc_index_entries, 0u);

  // The writer aborts without taking the entry back, as a crashed one
  // would. Once the lav passes its tid, the next reader collects it.
  ASSERT_OK(writer.Abort());
  ASSERT_NO_FATAL_FAILURE(read());
  EXPECT_EQ(metrics->index_gc_deferred, 1u);
  EXPECT_EQ(metrics->gc_index_entries, 1u);
  EXPECT_TRUE(entries().empty());
}

// ---------------------------------------------------------------------------
// Leaf images in the node cache. PN 0 caches the leaves of its point
// lookups; PN 1 makes them stale in each way a unique-index leaf can go
// stale; PN 2 has read nothing before and answers from the store. PN 0
// must answer as PN 2 does. A cached answer costs the record round alone,
// and each fallback to the store costs exactly one more round: the leaf,
// plus the record round of a rid the image did not name.

class LeafCacheTest : public ::testing::Test {
 protected:
  LeafCacheTest() {
    db::TellDbOptions options;
    options.num_processing_nodes = 3;
    options.num_storage_nodes = 3;
    options.network = sim::NetworkModel::Instant();
    // Ids 10..90 make two leaves, 10..40 and 50..90, under an inner root.
    options.btree.fanout = 8;
    db_ = std::make_unique<db::TellDb>(options);
    EXPECT_OK(db_->CreateTable("accounts",
                               schema::SchemaBuilder()
                                   .AddInt64("id")
                                   .AddString("name")
                                   .SetPrimaryKey({"id"})
                                   .Build(),
                               {}));
    for (uint32_t pn = 0; pn < 3; ++pn) {
      auto table = db_->GetTable(pn, "accounts");
      EXPECT_TRUE(table.ok());
      tables_[pn] = *table;
      sessions_[pn] = db_->OpenSession(pn, 0);
    }
    for (int64_t id = 10; id <= 90; id += 10) {
      rids_[id] = Insert(1, id, "v" + std::to_string(id));
    }
    // PN 0 reads every row once: its cache holds both leaves.
    for (int64_t id = 10; id <= 90; id += 10) {
      EXPECT_EQ(Lookup(0, id).rid, rids_[id]);
    }
  }

  static Tuple Row(int64_t id, const std::string& name) {
    Tuple t(2);
    t.Set(0, id);
    t.Set(1, name);
    return t;
  }

  /// Runs `body` in one transaction on PN `pn` and commits it.
  void Run(uint32_t pn,
           const std::function<Status(Transaction*, TableHandle*)>& body) {
    Transaction txn(sessions_[pn].get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK(body(&txn, tables_[pn]));
    ASSERT_OK(txn.Commit());
  }

  uint64_t Insert(uint32_t pn, int64_t id, const std::string& name) {
    uint64_t rid = 0;
    Run(pn, [&](Transaction* txn, TableHandle* table) -> Status {
      TELL_ASSIGN_OR_RETURN(rid, txn->Insert(table, Row(id, name)));
      return Status::OK();
    });
    return rid;
  }

  /// A point lookup's visible row, and the storage calls it took.
  struct Answer {
    std::optional<uint64_t> rid;
    std::string name;
    uint64_t calls = 0;
  };

  /// PN `pn` looks up primary key `id`, through BatchLookupPrimary or, with
  /// `range`, through an exact-key BatchScanIndex range (payment's way).
  Answer Lookup(uint32_t pn, int64_t id, bool range = false) {
    Answer answer;
    Transaction txn(sessions_[pn].get());
    EXPECT_OK(txn.Begin());
    const uint64_t before = sessions_[pn]->metrics()->pipeline_flushes;
    if (range) {
      const std::string key = *schema::EncodeIndexKeyValues({Value(id)});
      auto rows = txn.ScanIndexEncoded(tables_[pn], -1, key, key + '\0', 1);
      EXPECT_OK(rows.status());
      if (rows.ok() && !rows->empty()) {
        answer.rid = rows->front().first;
        answer.name = rows->front().second.GetString(1);
      }
    } else {
      auto rid = txn.LookupPrimary(tables_[pn], {Value(id)});
      EXPECT_OK(rid.status());
      if (rid.ok() && rid->has_value()) {
        answer.rid = **rid;
        auto row = txn.Read(tables_[pn], **rid);
        if (row.ok() && row->has_value()) answer.name = (*row)->GetString(1);
      }
    }
    answer.calls = sessions_[pn]->metrics()->pipeline_flushes - before;
    EXPECT_OK(txn.Commit());
    return answer;
  }

  /// Expects PN 0's answer for `id` to be PN 2's, in `calls` storage calls.
  void ExpectFreshAnswer(int64_t id, uint64_t calls, bool range = false) {
    const Answer cached = Lookup(0, id, range);
    const Answer fresh = Lookup(2, id, range);
    EXPECT_EQ(cached.rid, fresh.rid) << "id " << id;
    EXPECT_EQ(cached.name, fresh.name) << "id " << id;
    EXPECT_EQ(cached.calls, calls) << "id " << id;
  }

  /// The `index.cache.leaf_stale` gauge: images read again from the store.
  uint64_t StaleLeaves() const {
    obs::MetricsRegistry registry;
    db_->ExportStats(&registry);
    return registry.Snapshot().Scalar("index.cache.leaf_stale").value_or(0);
  }

  std::unique_ptr<db::TellDb> db_;
  TableHandle* tables_[3] = {};
  std::unique_ptr<Session> sessions_[3];
  std::map<int64_t, uint64_t> rids_;
};

TEST_F(LeafCacheTest, CachedAnswerCostsTheRecordRoundOnly) {
  const uint64_t stale = StaleLeaves();
  ExpectFreshAnswer(30, 1);
  ExpectFreshAnswer(70, 1, /*range=*/true);
  EXPECT_EQ(StaleLeaves(), stale);
}

TEST_F(LeafCacheTest, SplitMovesTheKeyRight) {
  // PN 1 adds 81..89 to the leaf of 50..90 in one commit: it splits into
  // 50..83 and a fresh right node with 84..90, under a root that PN 0
  // caches from before the split.
  Run(1, [&](Transaction* txn, TableHandle* table) -> Status {
    for (int64_t id = 81; id <= 89; ++id) {
      TELL_ASSIGN_OR_RETURN(rids_[id],
                            txn->Insert(table, Row(id, std::to_string(id))));
    }
    return Status::OK();
  });
  const uint64_t stale = StaleLeaves();
  // PN 0's image from before the split still holds key 90.
  ExpectFreshAnswer(90, 1);
  // Key 81 is absent from that image: its leaf is read again.
  ExpectFreshAnswer(81, 2);
  // Now PN 0's image of that leaf ends at 84, and its cached root still
  // sends key 90 there: one right hop to the fresh node.
  ExpectFreshAnswer(90, 2);
  EXPECT_EQ(StaleLeaves() - stale, 2u);
}

TEST_F(LeafCacheTest, DeletedAndReinsertedUnderANewRid) {
  for (int64_t id : {20, 60}) {
    Run(1, [&](Transaction* txn, TableHandle* table) {
      return txn->Delete(table, rids_[id]);
    });
    const uint64_t rid = Insert(1, id, "again");
    ASSERT_NE(rid, rids_[id]);
  }
  // PN 0's image proposes the deleted row's rid, which does not validate:
  // the leaf is read again and names the new rid, whose record follows.
  ExpectFreshAnswer(20, 3);
  ExpectFreshAnswer(60, 3, /*range=*/true);
  EXPECT_EQ(Lookup(0, 20).name, "again");
  EXPECT_EQ(Lookup(0, 60, /*range=*/true).name, "again");
}

TEST_F(LeafCacheTest, DeadEntryNextToTheLiveOneCostsOneRecordRound) {
  // PN 1 deletes the row of 50 and inserts the key again under a new rid;
  // the insert's uniqueness lookup collects the dead entry. Putting it back
  // makes the state of a collection that was lost: the unique key holds a
  // dead entry next to its live one.
  Run(1, [&](Transaction* txn, TableHandle* table) {
    return txn->Delete(table, rids_[50]);
  });
  const uint64_t rid = Insert(1, 50, "again");
  const std::string key = *schema::EncodeIndexKeyValues({Value(int64_t{50})});
  ASSERT_OK(tables_[1]->primary.Insert(sessions_[1]->client(), key,
                                       rids_[50], /*unique=*/false));
  ASSERT_NE(rid, rids_[50]);
  // PN 2 caches the leaf in a lookup it aborts, so the dead entry it met
  // stays in the tree, next to the live one.
  {
    Transaction txn(sessions_[2].get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(std::optional<uint64_t> found,
                         txn.LookupPrimary(tables_[2], {Value(int64_t{50})}));
    EXPECT_EQ(found, rid);
    ASSERT_OK(txn.Abort());
  }
  ASSERT_OK_AND_ASSIGN(
      std::vector<uint64_t> entries,
      tables_[2]->primary.Lookup(sessions_[2]->client(), key));
  ASSERT_EQ(entries.size(), 2u);
  // The exact-key range, unlimited as payment sends it, takes both rids
  // from the cached image and validates them in one record round.
  Transaction txn(sessions_[2].get());
  ASSERT_OK(txn.Begin());
  const uint64_t before = sessions_[2]->metrics()->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(
      auto rows,
      txn.ScanIndexEncoded(tables_[2], -1, key, key + '\0', /*limit=*/0));
  EXPECT_EQ(sessions_[2]->metrics()->pipeline_flushes - before, 1u);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, rid);
  EXPECT_EQ(rows[0].second.GetString(1), "again");
  ASSERT_OK(txn.Commit());
}

TEST_F(LeafCacheTest, UpdateChangesTheKey) {
  Run(1, [&](Transaction* txn, TableHandle* table) {
    return txn->Update(table, rids_[30], Row(35, "moved"));
  });
  // The image maps 30 to a row that now carries 35: the leaf is read again
  // (it still holds the old entry, whose record is buffered already).
  ExpectFreshAnswer(30, 2);
  EXPECT_FALSE(Lookup(0, 30).rid.has_value());
  // The leaf read again replaced PN 0's image, and it holds 35: a cached
  // answer.
  ExpectFreshAnswer(35, 1);
  EXPECT_EQ(Lookup(0, 35).rid, rids_[30]);
}

TEST_F(LeafCacheTest, EntryCollectedByIndexGc) {
  Run(1, [&](Transaction* txn, TableHandle* table) {
    return txn->Delete(table, rids_[40]);
  });
  // A later lookup on PN 1 meets the dead row and collects its entry.
  const uint64_t collected = sessions_[1]->metrics()->gc_index_entries;
  EXPECT_FALSE(Lookup(1, 40).rid.has_value());
  ASSERT_EQ(sessions_[1]->metrics()->gc_index_entries - collected, 1u);
  // PN 0's image still proposes the row: its record does not validate, and
  // the leaf read again lacks the key.
  ExpectFreshAnswer(40, 2);
  EXPECT_FALSE(Lookup(0, 40).rid.has_value());
}

TEST_F(LeafCacheTest, RecordErasedUnderItsEntry) {
  // The record cell is gone while its entry stays, as after a lazy sweep
  // whose index removal was lost.
  ASSERT_OK(sessions_[1]
                ->client()
                ->Write({.table = tables_[1]->meta->data_table,
                         .key = EncodeOrderedU64(rids_[60]),
                         .conditional = false,
                         .erase = true})
                .status());
  // The leaf read again still names the rid, whose absent record is
  // buffered already.
  ExpectFreshAnswer(60, 2);
  EXPECT_FALSE(Lookup(0, 60).rid.has_value());
}

}  // namespace
}  // namespace tell::tx
