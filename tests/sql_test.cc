#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <string>
#include <thread>

#include "common/serde.h"
#include "db/tell_db.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "workload/tpcc/tpcc_loader.h"
#include "workload/tpcc/tpcc_transactions.h"

namespace tell::sql {
namespace {

// ---------------------------------------------------------------------------
// Lexer

TEST(LexerTest, TokenizesKeywordsIdentifiersLiterals) {
  ASSERT_OK_AND_ASSIGN(auto tokens,
                       Tokenize("SELECT name FROM users WHERE id = 42"));
  ASSERT_EQ(tokens.size(), 9u);  // incl. end token
  EXPECT_EQ(tokens[0].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].text, "name");
  EXPECT_EQ(tokens[7].type, TokenType::kInteger);
  EXPECT_EQ(tokens[7].text, "42");
}

TEST(LexerTest, CaseInsensitiveKeywordsLowercaseIdentifiers) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("select FOO from Bar"));
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].text, "foo");
  EXPECT_EQ(tokens[3].text, "bar");
}

TEST(LexerTest, StringLiteralWithEscapedQuote) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("'it''s'"));
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(LexerTest, TwoCharOperators) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("a <= b >= c <> d != e"));
  EXPECT_EQ(tokens[1].text, "<=");
  EXPECT_EQ(tokens[3].text, ">=");
  EXPECT_EQ(tokens[5].text, "<>");
  EXPECT_EQ(tokens[7].text, "<>");  // != normalizes
}

TEST(LexerTest, NegativeNumbersAndFloats) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("WHERE x = -5 AND y = 2.75"));
  EXPECT_EQ(tokens[3].text, "-5");
  EXPECT_EQ(tokens[3].type, TokenType::kInteger);
  EXPECT_EQ(tokens[7].type, TokenType::kFloat);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("SELECT 'oops").ok());
}

// ---------------------------------------------------------------------------
// Parser

TEST(ParserTest, SelectStarWithWhere) {
  ASSERT_OK_AND_ASSIGN(Statement stmt,
                       Parse("SELECT * FROM t WHERE a = 1 AND b < 'x'"));
  EXPECT_EQ(stmt.kind, Statement::Kind::kSelect);
  EXPECT_TRUE(stmt.select.select_star);
  EXPECT_EQ(stmt.select.table, "t");
  ASSERT_NE(stmt.select.where, nullptr);
  EXPECT_EQ(stmt.select.where->op, BinaryOp::kAnd);
}

TEST(ParserTest, SelectWithAggregatesGroupOrderLimit) {
  ASSERT_OK_AND_ASSIGN(
      Statement stmt,
      Parse("SELECT dept, COUNT(*), AVG(salary) AS avg_sal FROM emp "
            "GROUP BY dept ORDER BY dept DESC LIMIT 10"));
  ASSERT_EQ(stmt.select.items.size(), 3u);
  EXPECT_EQ(stmt.select.items[1].aggregate, AggregateFunc::kCount);
  EXPECT_TRUE(stmt.select.items[1].count_star);
  EXPECT_EQ(stmt.select.items[2].aggregate, AggregateFunc::kAvg);
  EXPECT_EQ(stmt.select.items[2].alias, "avg_sal");
  ASSERT_EQ(stmt.select.group_by.size(), 1u);
  ASSERT_EQ(stmt.select.order_by.size(), 1u);
  EXPECT_TRUE(stmt.select.order_by[0].descending);
  EXPECT_EQ(stmt.select.limit, 10u);
}

TEST(ParserTest, InsertMultiRow) {
  ASSERT_OK_AND_ASSIGN(
      Statement stmt,
      Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')"));
  EXPECT_EQ(stmt.kind, Statement::Kind::kInsert);
  EXPECT_EQ(stmt.insert.columns.size(), 2u);
  EXPECT_EQ(stmt.insert.rows.size(), 2u);
}

TEST(ParserTest, UpdateWithArithmetic) {
  ASSERT_OK_AND_ASSIGN(Statement stmt,
                       Parse("UPDATE t SET a = a + 1, b = 2 WHERE id = 3"));
  EXPECT_EQ(stmt.kind, Statement::Kind::kUpdate);
  ASSERT_EQ(stmt.update.assignments.size(), 2u);
  EXPECT_EQ(stmt.update.assignments[0].second->op, BinaryOp::kAdd);
}

TEST(ParserTest, DeleteAndCreate) {
  ASSERT_OK_AND_ASSIGN(Statement del, Parse("DELETE FROM t WHERE a = 1"));
  EXPECT_EQ(del.kind, Statement::Kind::kDelete);

  ASSERT_OK_AND_ASSIGN(
      Statement create,
      Parse("CREATE TABLE t (id INT, name VARCHAR(20), bal DOUBLE, "
            "PRIMARY KEY (id))"));
  EXPECT_EQ(create.kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(create.create_table.columns.size(), 3u);
  ASSERT_EQ(create.create_table.primary_key.size(), 1u);

  ASSERT_OK_AND_ASSIGN(Statement index,
                       Parse("CREATE UNIQUE INDEX idx ON t (name, bal)"));
  EXPECT_EQ(index.kind, Statement::Kind::kCreateIndex);
  EXPECT_TRUE(index.create_index.unique);
  EXPECT_EQ(index.create_index.columns.size(), 2u);
}

TEST(ParserTest, OperatorPrecedence) {
  // a = 1 OR b = 2 AND c = 3  parses as  a = 1 OR (b = 2 AND c = 3)
  ASSERT_OK_AND_ASSIGN(Statement stmt,
                       Parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3"));
  EXPECT_EQ(stmt.select.where->op, BinaryOp::kOr);
  EXPECT_EQ(stmt.select.where->right->op, BinaryOp::kAnd);
}

TEST(ParserTest, SyntaxErrorsRejected) {
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT * FORM t").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES").ok());
  EXPECT_FALSE(Parse("CREATE TABLE t (id INT)").ok());  // missing PK
  EXPECT_FALSE(Parse("SELECT * FROM t extra garbage").ok());
}

// ---------------------------------------------------------------------------
// End-to-end on TellDb

class SqlEndToEndTest : public ::testing::Test {
 protected:
  SqlEndToEndTest() {
    db::TellDbOptions options;
    options.network = sim::NetworkModel::Instant();
    db_ = std::make_unique<db::TellDb>(options);
    EXPECT_OK(db_->ExecuteDdl(
        "CREATE TABLE emp (id INT, name VARCHAR(30), dept VARCHAR(10), "
        "salary DOUBLE, PRIMARY KEY (id))"));
    EXPECT_OK(db_->ExecuteDdl("CREATE INDEX by_dept ON emp (dept)"));
    session_ = db_->OpenSession(0, 0);
    Exec("INSERT INTO emp VALUES (1, 'alice', 'eng', 120.0)");
    Exec("INSERT INTO emp VALUES (2, 'bob', 'eng', 100.0)");
    Exec("INSERT INTO emp VALUES (3, 'carol', 'sales', 90.0)");
    Exec("INSERT INTO emp VALUES (4, 'dave', 'sales', 80.0)");
  }

  ResultSet Exec(const std::string& sql) {
    auto result = db_->AutoCommitSql(session_.get(), sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (!result.ok()) return {};
    return std::move(*result);
  }

  std::unique_ptr<db::TellDb> db_;
  std::unique_ptr<tx::Session> session_;
};

TEST_F(SqlEndToEndTest, SelectStarAll) {
  ResultSet rs = Exec("SELECT * FROM emp");
  EXPECT_EQ(rs.rows.size(), 4u);
  EXPECT_EQ(rs.columns.size(), 4u);
}

TEST_F(SqlEndToEndTest, PointLookupUsesPrimaryIndex) {
  ResultSet rs = Exec("SELECT name FROM emp WHERE id = 2");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(rs.rows[0].at(0)), "bob");
}

TEST_F(SqlEndToEndTest, SecondaryIndexEquality) {
  ResultSet rs = Exec("SELECT name FROM emp WHERE dept = 'eng'");
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST_F(SqlEndToEndTest, RangePredicate) {
  ResultSet rs = Exec("SELECT name FROM emp WHERE id > 1 AND id <= 3");
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST_F(SqlEndToEndTest, ResidualFilterOnNonIndexedColumn) {
  ResultSet rs = Exec("SELECT name FROM emp WHERE salary > 95.0");
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST_F(SqlEndToEndTest, OrderByAndLimit) {
  ResultSet rs = Exec("SELECT name, salary FROM emp ORDER BY salary DESC "
                      "LIMIT 2");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(std::get<std::string>(rs.rows[0].at(0)), "alice");
  EXPECT_EQ(std::get<std::string>(rs.rows[1].at(0)), "bob");
}

TEST_F(SqlEndToEndTest, AggregatesWithoutGroup) {
  ResultSet rs = Exec("SELECT COUNT(*), SUM(salary), MIN(salary), "
                      "MAX(salary) FROM emp");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(rs.rows[0].at(0)), 4);
  EXPECT_DOUBLE_EQ(std::get<double>(rs.rows[0].at(1)), 390.0);
  EXPECT_EQ(schema::CompareValues(rs.rows[0].at(2), schema::Value(80.0)), 0);
  EXPECT_EQ(schema::CompareValues(rs.rows[0].at(3), schema::Value(120.0)), 0);
}

TEST_F(SqlEndToEndTest, GroupByAggregates) {
  ResultSet rs = Exec("SELECT dept, COUNT(*), AVG(salary) FROM emp "
                      "GROUP BY dept ORDER BY dept");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(std::get<std::string>(rs.rows[0].at(0)), "eng");
  EXPECT_EQ(std::get<int64_t>(rs.rows[0].at(1)), 2);
  EXPECT_DOUBLE_EQ(std::get<double>(rs.rows[0].at(2)), 110.0);
}

TEST_F(SqlEndToEndTest, UpdateChangesRows) {
  ResultSet rs = Exec("UPDATE emp SET salary = salary + 10.0 "
                      "WHERE dept = 'sales'");
  EXPECT_EQ(rs.affected_rows, 2u);
  ResultSet check = Exec("SELECT salary FROM emp WHERE id = 4");
  EXPECT_DOUBLE_EQ(std::get<double>(check.rows[0].at(0)), 90.0);
}

TEST_F(SqlEndToEndTest, DeleteRemovesRows) {
  ResultSet rs = Exec("DELETE FROM emp WHERE dept = 'sales'");
  EXPECT_EQ(rs.affected_rows, 2u);
  ResultSet check = Exec("SELECT COUNT(*) FROM emp");
  EXPECT_EQ(std::get<int64_t>(check.rows[0].at(0)), 2);
}

TEST_F(SqlEndToEndTest, DuplicatePkInsertFails) {
  auto result = db_->AutoCommitSql(session_.get(),
                                   "INSERT INTO emp VALUES (1, 'dup', 'x', 0.0)");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAlreadyExists());
}

TEST_F(SqlEndToEndTest, MultiStatementTransaction) {
  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK(db_->ExecuteSql(&txn, 0,
                            "INSERT INTO emp VALUES (5, 'erin', 'eng', 70.0)")
                .status());
  ASSERT_OK_AND_ASSIGN(
      ResultSet mid,
      db_->ExecuteSql(&txn, 0, "SELECT COUNT(*) FROM emp WHERE dept = 'eng'"));
  EXPECT_EQ(std::get<int64_t>(mid.rows[0].at(0)), 3);  // own insert visible
  ASSERT_OK(txn.Commit());
  ResultSet after = Exec("SELECT COUNT(*) FROM emp WHERE dept = 'eng'");
  EXPECT_EQ(std::get<int64_t>(after.rows[0].at(0)), 3);
}

TEST_F(SqlEndToEndTest, AbortedSqlTransactionRollsBack) {
  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK(db_->ExecuteSql(&txn, 0,
                            "UPDATE emp SET salary = 0.0 WHERE id = 1")
                .status());
  ASSERT_OK(txn.Abort());
  ResultSet check = Exec("SELECT salary FROM emp WHERE id = 1");
  EXPECT_DOUBLE_EQ(std::get<double>(check.rows[0].at(0)), 120.0);
}

TEST_F(SqlEndToEndTest, IsNullPredicate) {
  Exec("INSERT INTO emp (id, name) VALUES (9, 'ghost')");
  ResultSet rs = Exec("SELECT name FROM emp WHERE dept IS NULL");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(rs.rows[0].at(0)), "ghost");
  ResultSet rs2 = Exec("SELECT COUNT(*) FROM emp WHERE dept IS NOT NULL");
  EXPECT_EQ(std::get<int64_t>(rs2.rows[0].at(0)), 4);
}

// ---------------------------------------------------------------------------
// Vectorized aggregate pushdown: on/off parity

/// Runs every query against two identical databases — operator pushdown on
/// (filter and fold in the scan fragments) and off (the same scans, filter
/// and fold on the processing node) — and requires
/// bit-identical ResultSets: same columns, same row order, exact variant
/// equality including doubles. Data uses exactly-representable amounts
/// (multiples of 0.25) so the fragment path's per-partition sum
/// reassociation cannot hide behind rounding.
class PushdownParityTest : public ::testing::Test {
 protected:
  PushdownParityTest() {
    with_ = MakeDb(/*pushdown=*/true);
    without_ = MakeDb(/*pushdown=*/false);
    with_session_ = with_->OpenSession(0, 0);
    without_session_ = without_->OpenSession(0, 0);
  }

  static std::unique_ptr<db::TellDb> MakeDb(bool pushdown) {
    db::TellDbOptions options;
    options.network = sim::NetworkModel::Instant();
    options.operator_pushdown = pushdown;
    options.scan_chunk_cells = 4;  // several chunks even on a tiny table
    auto db = std::make_unique<db::TellDb>(options);
    EXPECT_OK(db->ExecuteDdl(
        "CREATE TABLE sale (id INT, region VARCHAR(8), qty INT, "
        "amount DOUBLE, note VARCHAR(8), PRIMARY KEY (id))"));
    auto session = db->OpenSession(0, 0);
    const char* regions[] = {"north", "south", "east", "west"};
    for (int i = 0; i < 48; ++i) {
      std::string sql = "INSERT INTO sale VALUES (" + std::to_string(i) +
                        ", '" + regions[i % 4] + "', " +
                        std::to_string(i % 7) + ", " +
                        std::to_string(i * 25) + ".25, 'n" +
                        std::to_string(i % 5) + "')";
      EXPECT_OK(db->AutoCommitSql(session.get(), sql).status());
    }
    // Rows with NULL qty/amount/note: aggregates must skip them.
    for (int i = 48; i < 52; ++i) {
      std::string sql = "INSERT INTO sale (id, region) VALUES (" +
                        std::to_string(i) + ", '" + regions[i % 4] + "')";
      EXPECT_OK(db->AutoCommitSql(session.get(), sql).status());
    }
    // rsale: sale's first 48 rows loaded in descending key order, so its
    // rid order (load order) is the reverse of its key order.
    EXPECT_OK(db->ExecuteDdl(
        "CREATE TABLE rsale (id INT, region VARCHAR(8), qty INT, "
        "amount DOUBLE, note VARCHAR(8), PRIMARY KEY (id))"));
    for (int i = 47; i >= 0; --i) {
      std::string sql = "INSERT INTO rsale VALUES (" + std::to_string(i) +
                        ", '" + regions[i % 4] + "', " +
                        std::to_string(i % 7) + ", " +
                        std::to_string(i * 25) + ".25, 'n" +
                        std::to_string(i % 5) + "')";
      EXPECT_OK(db->AutoCommitSql(session.get(), sql).status());
    }
    return db;
  }

  /// Requires `rs` to hold exactly `expected`, row by row.
  static void ExpectRows(const ResultSet& rs,
                         const std::vector<std::vector<schema::Value>>& expected,
                         const std::string& what) {
    ASSERT_EQ(rs.rows.size(), expected.size()) << what;
    for (size_t r = 0; r < expected.size(); ++r) {
      ASSERT_EQ(rs.rows[r].size(), expected[r].size()) << what;
      for (size_t c = 0; c < expected[r].size(); ++c) {
        EXPECT_TRUE(rs.rows[r].at(c) == expected[r][c])
            << what << " row " << r << " col " << c << ": got "
            << schema::ValueToString(rs.rows[r].at(c)) << ", want "
            << schema::ValueToString(expected[r][c]);
      }
    }
  }

  void ExpectParity(const std::string& sql) {
    ASSERT_OK_AND_ASSIGN(ResultSet on,
                         with_->AutoCommitSql(with_session_.get(), sql));
    ASSERT_OK_AND_ASSIGN(ResultSet off,
                         without_->AutoCommitSql(without_session_.get(), sql));
    EXPECT_EQ(on.columns, off.columns) << sql;
    ASSERT_EQ(on.rows.size(), off.rows.size()) << sql;
    for (size_t r = 0; r < on.rows.size(); ++r) {
      ASSERT_EQ(on.rows[r].size(), off.rows[r].size()) << sql;
      for (size_t c = 0; c < on.rows[r].size(); ++c) {
        // Exact variant equality: same alternative, bit-identical value.
        EXPECT_TRUE(on.rows[r].at(c) == off.rows[r].at(c))
            << sql << " row " << r << " col " << c << ": pushdown="
            << schema::ValueToString(on.rows[r].at(c)) << " row-path="
            << schema::ValueToString(off.rows[r].at(c));
      }
    }
  }

  std::unique_ptr<db::TellDb> with_;
  std::unique_ptr<db::TellDb> without_;
  std::unique_ptr<tx::Session> with_session_;
  std::unique_ptr<tx::Session> without_session_;
};

TEST_F(PushdownParityTest, PlainAggregatesBitIdentical) {
  uint64_t fragments = with_session_->metrics()->scan_fragments;
  ExpectParity("SELECT COUNT(*) FROM sale");
  ExpectParity("SELECT COUNT(*), SUM(qty), MIN(qty), MAX(qty), AVG(qty) "
               "FROM sale");
  ExpectParity("SELECT SUM(amount), AVG(amount) FROM sale");
  ExpectParity("SELECT COUNT(qty) FROM sale");  // NULLs skipped
  ExpectParity("SELECT MIN(note), MAX(note) FROM sale");  // string min/max
  ExpectParity("SELECT SUM(amount) FROM sale WHERE qty >= 3");
  ExpectParity("SELECT COUNT(*), SUM(qty) FROM sale WHERE qty > 999");
  // The pushdown database really took the fragment path.
  EXPECT_GT(with_session_->metrics()->scan_fragments, fragments);
}

TEST_F(PushdownParityTest, GroupByBitIdentical) {
  ExpectParity("SELECT region, COUNT(*) FROM sale GROUP BY region");
  ExpectParity("SELECT region, COUNT(*), SUM(amount), AVG(qty) FROM sale "
               "GROUP BY region");
  ExpectParity("SELECT region, MIN(amount), MAX(amount) FROM sale "
               "WHERE qty > 1 GROUP BY region");
  ExpectParity("SELECT qty, COUNT(*) FROM sale GROUP BY qty "
               "ORDER BY qty DESC");
  ExpectParity("SELECT region, COUNT(*) FROM sale GROUP BY region LIMIT 2");
  ExpectParity("SELECT region, SUM(qty) FROM sale WHERE amount > 300.0 "
               "GROUP BY region ORDER BY region");
}

TEST_F(PushdownParityTest, DirtyWritesFallBackToRowPath) {
  // A transaction with buffered writes on the table cannot use storage-side
  // fragments (the nodes can't see its private buffer); results must still
  // include the uncommitted rows.
  tx::Transaction txn(with_session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK(with_
                ->ExecuteSql(&txn, 0,
                             "INSERT INTO sale VALUES (99, 'north', 7, "
                             "5000.25, 'zz')")
                .status());
  uint64_t fragments = with_session_->metrics()->scan_fragments;
  ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      with_->ExecuteSql(&txn, 0, "SELECT COUNT(*), MAX(amount) FROM sale"));
  EXPECT_EQ(with_session_->metrics()->scan_fragments, fragments);
  EXPECT_EQ(std::get<int64_t>(rs.rows[0].at(0)), 53);
  EXPECT_DOUBLE_EQ(std::get<double>(rs.rows[0].at(1)), 5000.25);
  ASSERT_OK(txn.Abort());
}

TEST_F(PushdownParityTest, LimitPushedToStorageNodes) {
  ExpectParity("SELECT id FROM sale WHERE qty >= 0 LIMIT 5");
  // Partitions holding a row with a non-NULL qty (a match of qty >= 0).
  ASSERT_OK_AND_ASSIGN(tx::TableHandle * handle, with_->GetTable(0, "sale"));
  std::set<uint32_t> matching_partitions;
  {
    tx::Transaction txn(with_session_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(
        auto rows, txn.FilteredScan(handle, [](const schema::Tuple& t) {
          return !schema::ValueIsNull(t.at(2));
        }));
    const store::PartitionMap& map = with_->cluster()->partition_map();
    for (const auto& [rid, tuple] : rows) {
      ASSERT_OK_AND_ASSIGN(
          uint32_t partition,
          map.PartitionFor(handle->meta->data_table, EncodeOrderedU64(rid)));
      matching_partitions.insert(partition);
    }
    ASSERT_OK(txn.Commit());
  }
  // With LIMIT 1 every partition stops at its first match and ships it; the
  // processing node keeps one row of the merged result.
  uint64_t returned = with_session_->metrics()->scan_rows_returned;
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       with_->AutoCommitSql(
                           with_session_.get(),
                           "SELECT id FROM sale WHERE qty >= 0 LIMIT 1"));
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_GT(matching_partitions.size(), 1u);
  EXPECT_EQ(with_session_->metrics()->scan_rows_returned,
            returned + matching_partitions.size());
}

TEST_F(PushdownParityTest, ErroringPredicateFailsAlike) {
  // qty is 0 on every seventh row: the predicate divides by zero there.
  for (const char* sql : {"SELECT id FROM sale WHERE 10 / qty > 1",
                          "SELECT COUNT(*) FROM sale WHERE 10 / qty > 1"}) {
    auto on = with_->AutoCommitSql(with_session_.get(), sql);
    auto off = without_->AutoCommitSql(without_session_.get(), sql);
    EXPECT_FALSE(off.ok()) << sql;
    EXPECT_EQ(on.status().ToString(), off.status().ToString()) << sql;
  }
}

TEST_F(PushdownParityTest, FilteredSelectReleasesChunkLocks) {
  // 52 rows over the partitions with 4-cell chunks: a filtered row scan
  // drops the stripe locks between chunks like an aggregate fragment.
  const sim::WorkerMetrics& metrics = *with_session_->metrics();
  uint64_t fragments = metrics.scan_fragments;
  uint64_t releases = metrics.scan_chunk_lock_releases;
  ExpectParity("SELECT id, region, amount FROM sale WHERE qty > 2");
  EXPECT_GT(metrics.scan_fragments, fragments);
  EXPECT_GT(metrics.scan_chunk_lock_releases, releases);
}

TEST_F(PushdownParityTest, RidOrderHoldsOnEverySetting) {
  // Over rsale, key order is the reverse of rid order: a setting that
  // scanned in key order would pick other first members of a group and
  // other rows for an unordered LIMIT.
  ExpectParity("SELECT region, note, COUNT(*) FROM rsale GROUP BY region");
  ExpectParity("SELECT id FROM rsale WHERE note <> 'x' LIMIT 3");
  ExpectParity("SELECT * FROM rsale WHERE qty > 2");
  // Both settings return the lowest rids: the last keys loaded.
  ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      without_->AutoCommitSql(without_session_.get(),
                              "SELECT id FROM rsale WHERE note <> 'x' "
                              "LIMIT 3"));
  ExpectRows(rs, {{int64_t{47}}, {int64_t{46}}, {int64_t{45}}}, "LIMIT 3");
}

TEST_F(PushdownParityTest, IndexRangeAggregateFoldsOnProcessingNode) {
  // The primary-key range is the access path on both settings; the plain
  // item `note` comes from each group's lowest-rid member, which in rsale
  // is its highest id, although the range scan meets the lowest id first.
  const std::string sql =
      "SELECT region, note, COUNT(*), SUM(qty) FROM rsale "
      "WHERE id >= 10 AND id < 20 GROUP BY region";
  const std::vector<std::vector<schema::Value>> expected = {
      {std::string("east"), std::string("n3"), int64_t{3}, 7.0},
      {std::string("north"), std::string("n1"), int64_t{2}, 7.0},
      {std::string("south"), std::string("n2"), int64_t{2}, 9.0},
      {std::string("west"), std::string("n4"), int64_t{3}, 10.0}};
  for (auto [db, session] : {std::pair{with_.get(), with_session_.get()},
                             std::pair{without_.get(),
                                       without_session_.get()}}) {
    uint64_t fragments = session->metrics()->scan_fragments;
    ASSERT_OK_AND_ASSIGN(ResultSet rs, db->AutoCommitSql(session, sql));
    ExpectRows(rs, expected, sql);
    // An index path sends no scan fragment.
    EXPECT_EQ(session->metrics()->scan_fragments, fragments);
  }
}

TEST_F(PushdownParityTest, DirtyWritesAggregateFoldsOwnRows) {
  // A GROUP BY over a table this transaction wrote folds on the processing
  // node on both settings, over the committed rows plus the own insert
  // (whose rid is the table's highest).
  const std::vector<std::vector<schema::Value>> expected = {
      {std::string("east"), std::string("n4"), int64_t{3}, 17.0, 850.25},
      {std::string("north"), std::string("n0"), int64_t{4}, 23.0, 5000.25},
      {std::string("south"), std::string("n1"), int64_t{4}, 22.0, 1025.25},
      {std::string("west"), std::string("n2"), int64_t{3}, 16.0, 1175.25}};
  for (auto [db, session] : {std::pair{with_.get(), with_session_.get()},
                             std::pair{without_.get(),
                                       without_session_.get()}}) {
    tx::Transaction txn(session);
    ASSERT_OK(txn.Begin());
    ASSERT_OK(db->ExecuteSql(&txn, 0,
                             "INSERT INTO rsale VALUES (99, 'north', 7, "
                             "5000.25, 'zz')")
                  .status());
    ASSERT_OK_AND_ASSIGN(
        ResultSet rs,
        db->ExecuteSql(&txn, 0,
                       "SELECT region, note, COUNT(*), SUM(qty), "
                       "MAX(amount) FROM rsale WHERE qty >= 5 "
                       "GROUP BY region"));
    ExpectRows(rs, expected, "dirty GROUP BY");
    ASSERT_OK(txn.Abort());
  }
}

TEST_F(PushdownParityTest, FullScanDmlFetchesTargetsInOneRound) {
  // A full-scan UPDATE or DELETE costs its scan plus one batched read of
  // its targets (one message per storage node), not a request per row.
  const uint64_t round = db::TellDbOptions().num_storage_nodes;
  for (auto [db, session] : {std::pair{with_.get(), with_session_.get()},
                             std::pair{without_.get(),
                                       without_session_.get()}}) {
    for (const char* dml : {"UPDATE sale SET note = 'u' WHERE qty >= 0",
                            "DELETE FROM sale WHERE qty >= 0"}) {
      tx::Transaction txn(session);
      ASSERT_OK(txn.Begin());
      const uint64_t* requests = &session->metrics()->storage_requests;
      uint64_t before = *requests;
      ASSERT_OK(db->ExecuteSql(&txn, 0, "SELECT * FROM sale WHERE qty >= 0")
                    .status());
      const uint64_t scan = *requests - before;
      before = *requests;
      ASSERT_OK_AND_ASSIGN(ResultSet rs, db->ExecuteSql(&txn, 0, dml));
      EXPECT_EQ(rs.affected_rows, 48u) << dml;
      EXPECT_LE(*requests - before, scan + round) << dml;
      ASSERT_OK(txn.Abort());
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot consistency of chunked fragment scans under concurrent writers

constexpr int kAccounts = 64;
constexpr int64_t kTotal = kAccounts * 100;

/// Runs `sql` on a reader session at least 50 times, handing each result
/// to `check`, while a writer makes balance-preserving transfers between
/// kAccounts accounts of 100 each. Any snapshot-consistent reader sees the
/// invariants; a scan that mixed chunks from different snapshots would catch
/// a transfer halfway. Chunks of 4 cells make every scan drop its stripe
/// locks many times.
void RunUnderTransfers(const std::string& sql,
                       const std::function<void(const ResultSet&)>& check) {
  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  options.operator_pushdown = true;
  options.scan_chunk_cells = 4;  // many lock drops per fragment scan
  db::TellDb db(options);
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE acct (id INT, bal INT, PRIMARY KEY (id))"));
  auto loader = db.OpenSession(0, 0);
  for (int i = 0; i < kAccounts; ++i) {
    ASSERT_OK(db.AutoCommitSql(loader.get(),
                               "INSERT INTO acct VALUES (" +
                                   std::to_string(i) + ", 100)")
                  .status());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> transfers{0};
  std::thread writer([&] {
    auto session = db.OpenSession(0, 1);
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    while (!stop.load(std::memory_order_relaxed)) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      int from = static_cast<int>((x >> 33) % kAccounts);
      int to = (from + 1 + static_cast<int>((x >> 20) % (kAccounts - 1))) %
               kAccounts;
      tx::Transaction txn(session.get());
      if (!txn.Begin().ok()) continue;
      Status st = db.ExecuteSql(&txn, 0,
                                "UPDATE acct SET bal = bal - 5 WHERE id = " +
                                    std::to_string(from))
                      .status();
      if (st.ok()) {
        st = db.ExecuteSql(&txn, 0,
                           "UPDATE acct SET bal = bal + 5 WHERE id = " +
                               std::to_string(to))
                 .status();
      }
      if (st.ok() && txn.Commit().ok()) {
        transfers.fetch_add(1, std::memory_order_relaxed);
      } else {
        (void)txn.Abort();
      }
    }
  });

  auto reader = db.OpenSession(0, 2);
  for (int i = 0; i < 50 || transfers.load() < 20; ++i) {
    if (i >= 5000) {
      ADD_FAILURE() << "writer made no progress";
      break;
    }
    auto rs = db.AutoCommitSql(reader.get(), sql);
    if (!rs.ok()) {
      ADD_FAILURE() << rs.status().ToString();
      break;
    }
    check(*rs);
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(transfers.load(), 0);
  EXPECT_GT(reader->metrics()->scan_fragments, 0u);
  EXPECT_GT(reader->metrics()->scan_chunk_lock_releases, 0u);
}

TEST(SqlScanConsistencyTest, AggregatesSeeConsistentSnapshotUnderTransfers) {
  RunUnderTransfers(
      "SELECT COUNT(*), SUM(bal), MIN(bal) FROM acct",
      [](const ResultSet& rs) {
        ASSERT_EQ(rs.rows.size(), 1u);
        EXPECT_EQ(std::get<int64_t>(rs.rows[0].at(0)), kAccounts);
        // SUM over ints folds through exactly-representable doubles.
        EXPECT_DOUBLE_EQ(std::get<double>(rs.rows[0].at(1)),
                         static_cast<double>(kTotal));
      });
}

TEST(SqlScanConsistencyTest, FilteredRowsSeeConsistentSnapshotUnderTransfers) {
  // bal is not indexed: a full scan whose WHERE runs in the row sink.
  RunUnderTransfers("SELECT * FROM acct WHERE bal IS NOT NULL",
                    [](const ResultSet& rs) {
                      ASSERT_EQ(rs.rows.size(),
                                static_cast<size_t>(kAccounts));
                      int64_t total = 0;
                      for (const schema::Tuple& row : rs.rows) {
                        total += std::get<int64_t>(row.at(1));
                      }
                      EXPECT_EQ(total, kTotal);
                    });
}

TEST(SqlScanConsistencyTest, OrderLineAggregatesStayCoherentUnderTpcc) {
  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  options.operator_pushdown = true;
  options.scan_chunk_cells = 16;
  db::TellDb db(options);
  tpcc::TpccScale scale;
  scale.warehouses = 2;
  scale.districts_per_warehouse = 2;
  scale.customers_per_district = 8;
  scale.items = 20;
  scale.initial_orders_per_district = 4;
  ASSERT_OK(tpcc::CreateTpccTables(&db));
  ASSERT_OK(tpcc::LoadTpcc(&db, scale));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto session = db.OpenSession(0, 1);
    auto tables = tpcc::OpenTpccTables(&db, 0);
    ASSERT_OK(tables.status());
    tpcc::TpccExecutor exec(session.get(), *tables);
    tpcc::InputGenerator gen(scale, tpcc::Mix::kWriteIntensive, /*seed=*/7,
                             /*home_warehouse=*/1);
    while (!stop.load(std::memory_order_relaxed)) {
      auto outcome = exec.Execute(gen.Next());
      ASSERT_OK(outcome.status());
    }
  });

  // Order lines are append-only and every quantity is in [1, 10]: any
  // snapshot gives count monotone non-decreasing and count <= sum <=
  // 10 * count. A scan mixing chunks from different snapshots could break
  // monotonicity or the sum bounds.
  auto reader = db.OpenSession(0, 2);
  int64_t last_count = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK_AND_ASSIGN(
        ResultSet rs,
        db.AutoCommitSql(reader.get(),
                         "SELECT COUNT(*), SUM(ol_quantity), "
                         "MIN(ol_quantity), MAX(ol_quantity) "
                         "FROM order_line"));
    ASSERT_EQ(rs.rows.size(), 1u);
    int64_t count = std::get<int64_t>(rs.rows[0].at(0));
    double sum = std::get<double>(rs.rows[0].at(1));
    EXPECT_GE(count, last_count);
    last_count = count;
    EXPECT_GE(sum, static_cast<double>(count));
    EXPECT_LE(sum, 10.0 * static_cast<double>(count));
    EXPECT_GE(std::get<int64_t>(rs.rows[0].at(2)), 1);
    EXPECT_LE(std::get<int64_t>(rs.rows[0].at(3)), 10);
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(reader->metrics()->scan_fragments, 0u);
}

}  // namespace
}  // namespace tell::sql
