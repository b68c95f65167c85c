// Robustness scenarios: multiple concurrent failures, filtered scans at the
// store level, push-down cost accounting, and the remaining TPC-C executor
// code paths (remote payment, by-name order status, empty-district
// delivery).
#include <gtest/gtest.h>

#include "common/serde.h"
#include "db/tell_db.h"
#include "tests/test_util.h"
#include "workload/tpcc/tpcc_driver.h"
#include "workload/tpcc/tpcc_loader.h"

namespace tell {
namespace {

using schema::Tuple;
using schema::Value;

// ---------------------------------------------------------------------------
// Store-level filtered scan: raw-cell sinks through the fragment path

class FilteredScanStoreTest : public ::testing::Test {
 protected:
  FilteredScanStoreTest() {
    store::ClusterOptions options;
    options.num_storage_nodes = 3;
    cluster_ = std::make_unique<store::Cluster>(options);
    table_ = *cluster_->CreateTable("t");
    for (int i = 0; i < 100; ++i) {
      std::string value = (i % 2 == 0) ? "even" : "odd";
      EXPECT_TRUE(
          cluster_->Write({.table = table_, .key = EncodeOrderedU64(i),
                           .value = value, .conditional = false}).ok());
    }
    client_ = std::make_unique<store::StorageClient>(
        cluster_.get(), nullptr, store::ClientOptions{}, &clock_, &metrics_);
  }

  /// One MatchSink per partition, fanned out like any scan fragment.
  Result<store::FragmentScanOutcome> ScanMatching(const std::string& match,
                                                  size_t limit = 0) {
    return client_->ExecuteFragmentScan(
        table_, "", "", /*descriptor_bytes=*/64, [&](uint32_t) {
          return std::make_unique<test::MatchSink>(match, limit);
        });
  }

  static const test::MatchSink& Sink(
      const std::unique_ptr<store::FragmentSink>& sink) {
    return static_cast<const test::MatchSink&>(*sink);
  }

  std::unique_ptr<store::Cluster> cluster_;
  store::TableId table_;
  sim::VirtualClock clock_;
  sim::WorkerMetrics metrics_;
  std::unique_ptr<store::StorageClient> client_;
};

TEST_F(FilteredScanStoreTest, PredicateFiltersServerSide) {
  ASSERT_OK_AND_ASSIGN(store::FragmentScanOutcome outcome,
                       ScanMatching("even"));
  EXPECT_EQ(outcome.rows_returned, 50u);
  EXPECT_EQ(outcome.rows_scanned, 100u);  // every cell examined on the nodes
  for (const auto& sink : outcome.sinks) {
    for (const auto& [key, value] : Sink(sink).matches()) {
      EXPECT_EQ(value, "even");
    }
  }
}

TEST_F(FilteredScanStoreTest, LimitStopsEarly) {
  ASSERT_OK_AND_ASSIGN(store::FragmentScanOutcome outcome,
                       ScanMatching("", /*limit=*/5));
  ASSERT_EQ(outcome.sinks.size(), outcome.partitions);
  for (const auto& sink : outcome.sinks) {
    EXPECT_LE(Sink(sink).matches().size(), 5u);
  }
  // Every cell matches, so each partition stopped right at its fifth cell
  // and examined nothing past it.
  EXPECT_EQ(outcome.rows_scanned, outcome.rows_returned);
  EXPECT_LT(outcome.rows_returned, 100u);
}

TEST_F(FilteredScanStoreTest, PushdownChargesOnlyMatchedBytes) {
  uint64_t bytes_before = metrics_.bytes_received;
  ASSERT_OK(ScanMatching("even").status());
  uint64_t selective = metrics_.bytes_received - bytes_before;
  bytes_before = metrics_.bytes_received;
  ASSERT_OK(ScanMatching("").status());
  uint64_t full = metrics_.bytes_received - bytes_before;
  EXPECT_LT(selective, full);
  // Both passes cover the same 100 cells; only the 50 shipped "even"
  // cells of 12 bytes (8-byte key + value) separate them from the full
  // pass's 50 + 50 "odd" cells of 11 bytes.
  EXPECT_EQ(full - selective, 50u * 11);
}

// ---------------------------------------------------------------------------
// Multiple failures

TEST(MultiFailureTest, TwoStorageNodesDieWithRf3) {
  db::TellDbOptions options;
  options.num_processing_nodes = 1;
  options.num_storage_nodes = 5;
  options.replication_factor = 3;
  options.network = sim::NetworkModel::Instant();
  db::TellDb db(options);
  ASSERT_OK(db.CreateTable("t",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {}));
  auto session = db.OpenSession(0, 0);
  auto table = *db.GetTable(0, "t");
  std::vector<uint64_t> rids;
  {
    tx::Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    for (int64_t i = 0; i < 30; ++i) {
      Tuple row(1);
      row.Set(0, i);
      ASSERT_OK_AND_ASSIGN(uint64_t rid, txn.Insert(table, row, false));
      rids.push_back(rid);
    }
    ASSERT_OK(txn.Commit());
  }
  // Kill TWO nodes at once; RF3 still has one copy of everything.
  db.cluster()->node(0)->Kill();
  db.cluster()->node(2)->Kill();
  ASSERT_OK_AND_ASSIGN(uint32_t recovered,
                       db.management()->DetectAndRecover());
  EXPECT_EQ(recovered, 2u);
  tx::Transaction txn(session.get());
  ASSERT_OK(txn.Begin());
  for (uint64_t rid : rids) {
    ASSERT_OK_AND_ASSIGN(auto row, txn.Read(table, rid));
    EXPECT_TRUE(row.has_value());
  }
  ASSERT_OK(txn.Commit());
}

TEST(MultiFailureTest, ClientRetryDrivesFailoverWithoutManualRecovery) {
  // Nobody calls DetectAndRecover here: the first request that hits the
  // dead master comes back Unavailable and the client's retry loop triggers
  // the fail-over itself, which must show up in the retry metrics.
  db::TellDbOptions options;
  options.num_processing_nodes = 1;
  options.num_storage_nodes = 3;
  options.replication_factor = 2;
  options.network = sim::NetworkModel::Instant();
  db::TellDb db(options);
  ASSERT_OK(db.CreateTable("t",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {}));
  auto session = db.OpenSession(0, 0);
  auto table = *db.GetTable(0, "t");
  std::vector<uint64_t> rids;
  {
    tx::Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    for (int64_t i = 0; i < 30; ++i) {
      Tuple row(1);
      row.Set(0, i);
      ASSERT_OK_AND_ASSIGN(uint64_t rid, txn.Insert(table, row, false));
      rids.push_back(rid);
    }
    ASSERT_OK(txn.Commit());
  }
  db.cluster()->node(1)->Kill();
  tx::Transaction txn(session.get());
  ASSERT_OK(txn.Begin());
  for (uint64_t rid : rids) {
    ASSERT_OK_AND_ASSIGN(auto row, txn.Read(table, rid));
    EXPECT_TRUE(row.has_value());
  }
  ASSERT_OK(txn.Commit());
  EXPECT_GT(session->metrics()->storage_retries, 0u);
  EXPECT_GT(session->metrics()->retry_backoff_ns, 0u);
  EXPECT_EQ(session->metrics()->storage_retries_exhausted, 0u);
}

TEST(MultiFailureTest, Rf1MasterLossIsUnrecoverable) {
  // The flip side of §4.4.2: without replication, losing a master loses
  // acknowledged data — and the system says so instead of pretending.
  db::TellDbOptions options;
  options.num_storage_nodes = 2;
  options.replication_factor = 1;
  options.network = sim::NetworkModel::Instant();
  db::TellDb db(options);
  ASSERT_OK(db.CreateTable("t",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {}));
  db.cluster()->node(0)->Kill();
  auto result = db.management()->DetectAndRecover();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable());
}

TEST(MultiFailureTest, PnAndSnFailTogether) {
  db::TellDbOptions options;
  options.num_processing_nodes = 2;
  options.num_storage_nodes = 3;
  options.replication_factor = 2;
  options.network = sim::NetworkModel::Instant();
  db::TellDb db(options);
  ASSERT_OK(db.CreateTable("t",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .AddDouble("v")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {}));
  auto session = db.OpenSession(0, 0);
  auto table = *db.GetTable(0, "t");
  uint64_t rid;
  {
    tx::Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    Tuple row(2);
    row.Set(0, int64_t{1});
    row.Set(1, 1.0);
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table, row));
    ASSERT_OK(txn.Commit());
  }
  // A PN with an in-flight transaction dies, AND a storage node dies.
  auto doomed_session = db.OpenSession(1, 1);
  auto doomed_table = *db.GetTable(1, "t");
  {
    tx::Transaction doomed(doomed_session.get());
    ASSERT_OK(doomed.Begin());
    Tuple row(2);
    row.Set(0, int64_t{2});
    row.Set(1, 2.0);
    ASSERT_OK(doomed.Insert(doomed_table, row, false).status());
    db.cluster()->node(1)->Kill();
    ASSERT_OK(db.KillProcessingNode(1).status());
    // doomed's destructor fires here, after its PN was declared dead —
    // recovery already aborted its tid; the double-abort must be harmless.
  }
  ASSERT_TRUE(db.management()->DetectAndRecover().ok());
  tx::Transaction check(session.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(auto row, check.Read(table, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetDouble(1), 1.0);
  ASSERT_OK_AND_ASSIGN(auto ghost,
                       check.ReadByKey(table, {Value(int64_t{2})}));
  EXPECT_FALSE(ghost.has_value());
  ASSERT_OK(check.Commit());
}

// ---------------------------------------------------------------------------
// TPC-C executor paths not covered elsewhere

class TpccPathsTest : public ::testing::Test {
 protected:
  TpccPathsTest() {
    db::TellDbOptions options;
    options.num_processing_nodes = 1;
    options.network = sim::NetworkModel::Instant();
    db_ = std::make_unique<db::TellDb>(options);
    scale_.warehouses = 2;
    scale_.districts_per_warehouse = 2;
    scale_.customers_per_district = 8;
    scale_.items = 20;
    scale_.initial_orders_per_district = 4;
    EXPECT_OK(tpcc::CreateTpccTables(db_.get()));
    EXPECT_OK(tpcc::LoadTpcc(db_.get(), scale_));
    session_ = db_->OpenSession(0, 0);
    tables_ = *tpcc::OpenTpccTables(db_.get(), 0);
    executor_ = std::make_unique<tpcc::TpccExecutor>(session_.get(), tables_);
  }
  std::unique_ptr<db::TellDb> db_;
  tpcc::TpccScale scale_;
  std::unique_ptr<tx::Session> session_;
  tpcc::TpccTables tables_;
  std::unique_ptr<tpcc::TpccExecutor> executor_;
};

TEST_F(TpccPathsTest, RemotePaymentTouchesBothWarehouses) {
  tpcc::PaymentInput input;
  input.warehouse = 1;
  input.district = 1;
  input.customer_warehouse = 2;  // remote customer
  input.customer_district = 2;
  input.customer_id = 3;
  input.amount = 50.0;
  input.remote = true;
  ASSERT_OK_AND_ASSIGN(tpcc::TxnOutcome outcome, executor_->Payment(input));
  ASSERT_TRUE(outcome.committed);
  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(
      auto home, txn.ReadByKey(tables_.warehouse, {Value(int64_t{1})}));
  ASSERT_TRUE(home.has_value());
  EXPECT_DOUBLE_EQ(home->GetDouble(tpcc::col::kWYtd), 300000.0 + 50.0);
  ASSERT_OK_AND_ASSIGN(
      auto customer,
      txn.ReadByKey(tables_.customer,
                    {Value(int64_t{2}), Value(int64_t{2}), Value(int64_t{3})}));
  ASSERT_TRUE(customer.has_value());
  EXPECT_DOUBLE_EQ(customer->GetDouble(tpcc::col::kCBalance), -10.0 - 50.0);
  ASSERT_OK(txn.Commit());
}

TEST_F(TpccPathsTest, OrderStatusByLastName) {
  tpcc::OrderStatusInput input;
  input.warehouse = 1;
  input.district = 1;
  input.by_last_name = true;
  input.customer_last = tpcc::LastName(0);
  ASSERT_OK_AND_ASSIGN(tpcc::TxnOutcome outcome,
                       executor_->OrderStatus(input));
  EXPECT_TRUE(outcome.committed);
}

TEST_F(TpccPathsTest, DeliveryOnDrainedDistrictsSkips) {
  // Deliver until every new-order row is gone, then once more.
  for (uint32_t i = 0; i < scale_.initial_orders_per_district + 2; ++i) {
    ASSERT_OK_AND_ASSIGN(tpcc::TxnOutcome outcome,
                         executor_->Delivery({1, 3}));
    EXPECT_TRUE(outcome.committed);
  }
  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(
      auto pending,
      txn.ScanIndex(tables_.new_order, -1, {Value(int64_t{1})},
                    {Value(int64_t{2})}, 0));
  EXPECT_TRUE(pending.empty());
  ASSERT_OK(txn.Commit());
}

TEST_F(TpccPathsTest, BackToBackNewOrdersGetSequentialOrderIds) {
  tpcc::NewOrderInput input;
  input.warehouse = 2;
  input.district = 1;
  input.customer = 1;
  input.lines = {{1, 2, 1}};
  ASSERT_OK_AND_ASSIGN(tpcc::TxnOutcome first, executor_->NewOrder(input));
  ASSERT_OK_AND_ASSIGN(tpcc::TxnOutcome second, executor_->NewOrder(input));
  ASSERT_TRUE(first.committed && second.committed);
  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(
      auto district,
      txn.ReadByKey(tables_.district, {Value(int64_t{2}), Value(int64_t{1})}));
  ASSERT_TRUE(district.has_value());
  EXPECT_EQ(district->GetInt(tpcc::col::kDNextOId),
            scale_.initial_orders_per_district + 3);
  ASSERT_OK(txn.Commit());
}

TEST_F(TpccPathsTest, LoaderIsDeterministicPerSeed) {
  // Two clusters loaded with the same seed hold identical district states.
  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  db::TellDb other(options);
  ASSERT_OK(tpcc::CreateTpccTables(&other));
  ASSERT_OK(tpcc::LoadTpcc(&other, scale_));
  auto other_session = other.OpenSession(0, 0);
  auto other_tables = *tpcc::OpenTpccTables(&other, 0);

  tx::Transaction txn_a(session_.get());
  tx::Transaction txn_b(other_session.get());
  ASSERT_OK(txn_a.Begin());
  ASSERT_OK(txn_b.Begin());
  for (int64_t w = 1; w <= scale_.warehouses; ++w) {
    for (int64_t d = 1; d <= scale_.districts_per_warehouse; ++d) {
      ASSERT_OK_AND_ASSIGN(
          auto a, txn_a.ReadByKey(tables_.district, {Value(w), Value(d)}));
      ASSERT_OK_AND_ASSIGN(
          auto b,
          txn_b.ReadByKey(other_tables.district, {Value(w), Value(d)}));
      const schema::Schema& district = tables_.district->meta->schema;
      EXPECT_EQ(a->Serialize(district), b->Serialize(district))
          << "w=" << w << " d=" << d;
    }
  }
  ASSERT_OK(txn_a.Commit());
  ASSERT_OK(txn_b.Commit());
}

}  // namespace
}  // namespace tell
