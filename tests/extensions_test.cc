// Tests for the paper's future-work items implemented as extensions:
// serializable snapshot isolation (§4.1) and operator push-down (§5.2).
#include <gtest/gtest.h>

#include <thread>

#include "db/tell_db.h"
#include "tests/test_util.h"

namespace tell {
namespace {

using schema::Tuple;
using schema::Value;

class SerializableSiTest : public ::testing::Test {
 protected:
  SerializableSiTest() {
    db::TellDbOptions options;
    options.num_processing_nodes = 2;
    options.network = sim::NetworkModel::Instant();
    db_ = std::make_unique<db::TellDb>(options);
    EXPECT_OK(db_->CreateTable("t",
                               schema::SchemaBuilder()
                                   .AddInt64("id")
                                   .AddInt64("v")
                                   .SetPrimaryKey({"id"})
                                   .Build(),
                               {}));
    table_ = *db_->GetTable(0, "t");
    session_ = db_->OpenSession(0, 0);
    rid_x_ = Insert(1, 10);
    rid_y_ = Insert(2, 10);
  }

  Tuple Row(int64_t id, int64_t v) {
    Tuple t(2);
    t.Set(0, id);
    t.Set(1, v);
    return t;
  }

  uint64_t Insert(int64_t id, int64_t v) {
    tx::Transaction txn(session_.get());
    EXPECT_TRUE(txn.Begin().ok());
    auto rid = txn.Insert(table_, Row(id, v));
    EXPECT_TRUE(rid.ok());
    EXPECT_TRUE(txn.Commit().ok());
    return *rid;
  }

  int64_t ReadValue(uint64_t rid) {
    tx::Transaction txn(session_.get());
    EXPECT_TRUE(txn.Begin().ok());
    auto row = txn.Read(table_, rid);
    EXPECT_TRUE(row.ok() && row->has_value());
    int64_t v = (*row)->GetInt(1);
    EXPECT_TRUE(txn.Commit().ok());
    return v;
  }

  std::unique_ptr<db::TellDb> db_;
  tx::TableHandle* table_;
  std::unique_ptr<tx::Session> session_;
  uint64_t rid_x_, rid_y_;
};

TEST_F(SerializableSiTest, PlainSiAllowsWriteSkew) {
  // The classic anomaly (paper §4.1: "some anomalies (e.g., write skew)
  // prevent SI to guarantee serializability"): T1 reads x, writes y;
  // T2 reads y, writes x. Under plain SI both commit.
  auto session2 = db_->OpenSession(1, 1);
  auto table2 = *db_->GetTable(1, "t");
  tx::Transaction t1(session_.get());
  tx::Transaction t2(session2.get());
  ASSERT_OK(t1.Begin());
  ASSERT_OK(t2.Begin());
  ASSERT_OK(t1.Read(table_, rid_x_).status());
  ASSERT_OK(t1.Update(table_, rid_y_, Row(2, -5)));
  ASSERT_OK(t2.Read(table2, rid_y_).status());
  ASSERT_OK(t2.Update(table2, rid_x_, Row(1, -5)));
  EXPECT_OK(t1.Commit());
  EXPECT_OK(t2.Commit());  // write skew: disjoint write sets, both commit
  EXPECT_EQ(ReadValue(rid_x_), -5);
  EXPECT_EQ(ReadValue(rid_y_), -5);
}

TEST_F(SerializableSiTest, SerializableModePreventsWriteSkew) {
  auto session2 = db_->OpenSession(1, 1);
  auto table2 = *db_->GetTable(1, "t");
  tx::TxnOptions serializable;
  serializable.serializable = true;
  tx::Transaction t1(session_.get(), serializable);
  tx::Transaction t2(session2.get(), serializable);
  ASSERT_OK(t1.Begin());
  ASSERT_OK(t2.Begin());
  ASSERT_OK(t1.Read(table_, rid_x_).status());
  ASSERT_OK(t1.Update(table_, rid_y_, Row(2, -5)));
  ASSERT_OK(t2.Read(table2, rid_y_).status());
  ASSERT_OK(t2.Update(table2, rid_x_, Row(1, -5)));
  Status s1 = t1.Commit();
  Status s2 = t2.Commit();
  // At most one side survives read validation.
  EXPECT_FALSE(s1.ok() && s2.ok()) << "write skew slipped through";
  // The invariant x + y >= 0 (with both starting at 10 and writes to -5)
  // holds under any serial order: only one of x/y may be -5.
  EXPECT_GE(ReadValue(rid_x_) + ReadValue(rid_y_), 0);
}

TEST_F(SerializableSiTest, SerializableAbortsReadOfSupersededVersion) {
  // T2 commits a new x between T1's Begin and T1's Read(x). T1's snapshot
  // cannot see that version, so T1 reads the old x, and the cell's stamp no
  // longer changes before T1 validates. T1's write to y is therefore
  // ordered before T2 while its read of x is ordered after T2's commit:
  // T1 must abort.
  auto session2 = db_->OpenSession(1, 1);
  auto table2 = *db_->GetTable(1, "t");
  tx::TxnOptions serializable;
  serializable.serializable = true;
  tx::Transaction t1(session_.get(), serializable);
  ASSERT_OK(t1.Begin());
  {
    tx::Transaction t2(session2.get());
    ASSERT_OK(t2.Begin());
    ASSERT_OK(t2.Update(table2, rid_x_, Row(1, -5)));
    ASSERT_OK(t2.Commit());
  }
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> x, t1.Read(table_, rid_x_));
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(x->GetInt(1), 10);  // the snapshot still shows the old x
  ASSERT_OK(t1.Update(table_, rid_y_, Row(2, -5)));
  Status commit = t1.Commit();
  EXPECT_TRUE(commit.IsAborted()) << commit.ToString();
  EXPECT_EQ(ReadValue(rid_x_), -5);
  EXPECT_EQ(ReadValue(rid_y_), 10);
}

TEST_F(SerializableSiTest, SerializableCommitsWhenNoInterference) {
  tx::TxnOptions serializable;
  serializable.serializable = true;
  tx::Transaction txn(session_.get(), serializable);
  ASSERT_OK(txn.Begin());
  ASSERT_OK(txn.Read(table_, rid_x_).status());
  ASSERT_OK(txn.Update(table_, rid_y_, Row(2, 99)));
  EXPECT_OK(txn.Commit());
  EXPECT_EQ(ReadValue(rid_y_), 99);
}

TEST_F(SerializableSiTest, ReadOnlySerializableNeverValidates) {
  tx::TxnOptions serializable;
  serializable.serializable = true;
  tx::Transaction txn(session_.get(), serializable);
  ASSERT_OK(txn.Begin());
  ASSERT_OK(txn.Read(table_, rid_x_).status());
  // Read-only SI transactions are always serializable; commit is free.
  uint64_t requests = session_->metrics()->storage_requests;
  EXPECT_OK(txn.Commit());
  EXPECT_EQ(session_->metrics()->storage_requests, requests);
}

TEST_F(SerializableSiTest, BankInvariantHoldsUnderConcurrency) {
  // x + y must stay >= 0; each transaction withdraws from one account only
  // if the SUM allows it (the textbook write-skew scenario), concurrently.
  constexpr int kWorkers = 4;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      auto session = db_->OpenSession(w % 2, 10 + w);
      auto table = *db_->GetTable(w % 2, "t");
      tx::TxnOptions serializable;
      serializable.serializable = true;
      for (int i = 0; i < 30; ++i) {
        tx::Transaction txn(session.get(), serializable);
        ASSERT_TRUE(txn.Begin().ok());
        auto x = txn.Read(table, rid_x_);
        auto y = txn.Read(table, rid_y_);
        ASSERT_TRUE(x.ok() && y.ok() && x->has_value() && y->has_value());
        int64_t sum = (*x)->GetInt(1) + (*y)->GetInt(1);
        if (sum < 3) continue;  // auto-aborts via destructor
        // Withdraw 3 from one of the two accounts.
        uint64_t target = (w % 2 == 0) ? rid_x_ : rid_y_;
        const Tuple& row = (w % 2 == 0) ? **x : **y;
        Tuple updated = row;
        updated.Set(1, updated.GetInt(1) - 3);
        if (!txn.Update(table, target, updated).ok()) continue;
        (void)txn.Commit();  // aborts count as retries
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GE(ReadValue(rid_x_) + ReadValue(rid_y_), 0)
      << "serializable mode must preserve the sum invariant";
}

TEST(SerializableSqlTest, SqlWriteSkewAbortsOnEverySetting) {
  // The textbook skew through SQL: each transaction reads both balances
  // with a full scan, then withdraws from its own account. On either
  // pushdown setting, and whether the scan feeds an aggregate or plain
  // rows, the scanned records must join the read set.
  for (bool pushdown : {false, true}) {
    for (const char* read_sql : {"SELECT SUM(bal) FROM acct",
                                 "SELECT bal FROM acct WHERE bal > 0"}) {
      SCOPED_TRACE(std::string(read_sql) +
                   (pushdown ? " (pushdown)" : " (no pushdown)"));
      db::TellDbOptions options;
      options.num_processing_nodes = 2;
      options.network = sim::NetworkModel::Instant();
      options.operator_pushdown = pushdown;
      db::TellDb db(options);
      ASSERT_OK(db.ExecuteDdl(
          "CREATE TABLE acct (id INT, bal INT, PRIMARY KEY (id))"));
      auto s1 = db.OpenSession(0, 0);
      auto s2 = db.OpenSession(1, 1);
      ASSERT_OK(db.AutoCommitSql(s1.get(), "INSERT INTO acct VALUES (1, 10)")
                    .status());
      ASSERT_OK(db.AutoCommitSql(s1.get(), "INSERT INTO acct VALUES (2, 10)")
                    .status());
      tx::TxnOptions serializable;
      serializable.serializable = true;
      tx::Transaction t1(s1.get(), serializable);
      tx::Transaction t2(s2.get(), serializable);
      ASSERT_OK(t1.Begin());
      ASSERT_OK(t2.Begin());
      ASSERT_OK(db.ExecuteSql(&t1, 0, read_sql).status());
      ASSERT_OK(db.ExecuteSql(&t2, 1, read_sql).status());
      ASSERT_OK(db.ExecuteSql(&t1, 0,
                              "UPDATE acct SET bal = bal - 15 WHERE id = 1")
                    .status());
      ASSERT_OK(db.ExecuteSql(&t2, 1,
                              "UPDATE acct SET bal = bal - 15 WHERE id = 2")
                    .status());
      Status c1 = t1.Commit();
      Status c2 = t2.Commit();
      EXPECT_FALSE(c1.ok() && c2.ok()) << "SQL write skew slipped through";
      ASSERT_OK_AND_ASSIGN(
          sql::ResultSet rs,
          db.AutoCommitSql(s1.get(), "SELECT SUM(bal) FROM acct"));
      EXPECT_GE(std::get<double>(rs.rows[0].at(0)), 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Operator push-down

class PushdownTest : public ::testing::Test {
 protected:
  PushdownTest() {
    db::TellDbOptions options;
    options.operator_pushdown = true;
    options.network = sim::NetworkModel::Instant();
    db_ = std::make_unique<db::TellDb>(options);
    EXPECT_OK(db_->ExecuteDdl(
        "CREATE TABLE e (id INT, class INT, payload VARCHAR(64), "
        "PRIMARY KEY (id))"));
    session_ = db_->OpenSession(0, 0);
    auto table = *db_->GetTable(0, "e");
    tx::Transaction txn(session_.get());
    EXPECT_TRUE(txn.Begin().ok());
    for (int64_t i = 0; i < 200; ++i) {
      Tuple row(3);
      row.Set(0, i);
      row.Set(1, i % 10);
      row.Set(2, std::string(64, 'x'));
      EXPECT_TRUE(txn.Insert(table, row, false).ok());
    }
    EXPECT_TRUE(txn.Commit().ok());
  }
  std::unique_ptr<db::TellDb> db_;
  std::unique_ptr<tx::Session> session_;
};

TEST_F(PushdownTest, FilteredScanReturnsMatchesOnly) {
  auto table = *db_->GetTable(0, "e");
  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(auto rows,
                       txn.FilteredScan(table, [](const Tuple& t) {
                         return t.GetInt(1) == 3;
                       }));
  EXPECT_EQ(rows.size(), 20u);
  for (const auto& [rid, tuple] : rows) {
    EXPECT_EQ(tuple.GetInt(1), 3);
  }
  ASSERT_OK(txn.Commit());
}

TEST_F(PushdownTest, SqlFullScanUsesPushdown) {
  auto result = db_->AutoCommitSql(
      session_.get(), "SELECT COUNT(*) FROM e WHERE class = 7");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(std::get<int64_t>(result->rows[0].at(0)), 20);
}

TEST_F(PushdownTest, PushdownSendsFewerBytesThanFullScan) {
  db::TellDbOptions plain_options;
  plain_options.operator_pushdown = false;
  plain_options.network = sim::NetworkModel::Instant();
  db::TellDb plain(plain_options);
  ASSERT_OK(plain.ExecuteDdl(
      "CREATE TABLE e (id INT, class INT, payload VARCHAR(64), "
      "PRIMARY KEY (id))"));
  auto plain_session = plain.OpenSession(0, 0);
  {
    auto table = *plain.GetTable(0, "e");
    tx::Transaction txn(plain_session.get());
    ASSERT_OK(txn.Begin());
    for (int64_t i = 0; i < 200; ++i) {
      Tuple row(3);
      row.Set(0, i);
      row.Set(1, i % 10);
      row.Set(2, std::string(64, 'x'));
      ASSERT_OK(txn.Insert(table, row, false).status());
    }
    ASSERT_OK(txn.Commit());
  }
  auto measure = [](db::TellDb* db, tx::Session* session) {
    uint64_t before = session->metrics()->bytes_received;
    auto result = db->AutoCommitSql(
        session, "SELECT COUNT(*) FROM e WHERE class = 7");
    EXPECT_TRUE(result.ok());
    return session->metrics()->bytes_received - before;
  };
  uint64_t with = measure(db_.get(), session_.get());
  uint64_t without = measure(&plain, plain_session.get());
  EXPECT_LT(with * 3, without)
      << "push-down should cut transferred bytes by ~selectivity";
}

TEST_F(PushdownTest, OwnWritesVisibleInFilteredScan) {
  auto table = *db_->GetTable(0, "e");
  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  Tuple row(3);
  row.Set(0, int64_t{999});
  row.Set(1, int64_t{3});
  row.Set(2, std::string("mine"));
  ASSERT_OK(txn.Insert(table, row).status());
  ASSERT_OK_AND_ASSIGN(auto rows,
                       txn.FilteredScan(table, [](const Tuple& t) {
                         return t.GetInt(1) == 3;
                       }));
  EXPECT_EQ(rows.size(), 21u);  // 20 committed + own pending insert
  ASSERT_OK(txn.Abort());
}

TEST_F(PushdownTest, UncommittedRowsOfOthersExcluded) {
  auto table = *db_->GetTable(0, "e");
  auto session2 = db_->OpenSession(0, 1);
  tx::Transaction writer(session2.get());
  ASSERT_OK(writer.Begin());
  Tuple row(3);
  row.Set(0, int64_t{777});
  row.Set(1, int64_t{3});
  row.Set(2, std::string("dirty"));
  ASSERT_OK(writer.Insert(table, row).status());

  tx::Transaction reader(session_.get());
  ASSERT_OK(reader.Begin());
  ASSERT_OK_AND_ASSIGN(auto rows,
                       reader.FilteredScan(table, [](const Tuple& t) {
                         return t.GetInt(1) == 3;
                       }));
  EXPECT_EQ(rows.size(), 20u) << "dirty read through the pushed-down scan";
  ASSERT_OK(reader.Commit());
  ASSERT_OK(writer.Abort());
}

}  // namespace
}  // namespace tell
