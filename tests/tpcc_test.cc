#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "workload/tpcc/tpcc_driver.h"
#include "workload/tpcc/tpcc_loader.h"

namespace tell::tpcc {
namespace {

using schema::Tuple;
using schema::Value;

// TpccLoadImageTest's pinned image of a TinyScale load with seed 7.
constexpr size_t kPinnedCells = 972;
constexpr uint64_t kPinnedHash = 0x52fd28edc9acad28ULL;

TpccScale TinyScale() {
  TpccScale scale;
  scale.warehouses = 2;
  scale.districts_per_warehouse = 3;
  scale.customers_per_district = 12;
  scale.items = 50;
  scale.initial_orders_per_district = 9;
  return scale;
}

class TpccTest : public ::testing::Test {
 protected:
  TpccTest() {
    db::TellDbOptions options;
    options.num_processing_nodes = 2;
    options.num_storage_nodes = 3;
    options.network = sim::NetworkModel::Instant();
    db_ = std::make_unique<db::TellDb>(options);
    scale_ = TinyScale();
    EXPECT_OK(CreateTpccTables(db_.get()));
    EXPECT_OK(LoadTpcc(db_.get(), scale_));
    session_ = db_->OpenSession(0, 0);
    auto tables = OpenTpccTables(db_.get(), 0);
    EXPECT_TRUE(tables.ok());
    tables_ = *tables;
    executor_ = std::make_unique<TpccExecutor>(session_.get(), tables_);
  }

  /// Sum over all districts of (d_next_o_id - 1) must equal the number of
  /// orders per district (TPC-C consistency condition 3.3.2.1-ish).
  void CheckOrderConsistency() {
    tx::Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    for (int64_t w = 1; w <= scale_.warehouses; ++w) {
      for (int64_t d = 1; d <= scale_.districts_per_warehouse; ++d) {
        ASSERT_OK_AND_ASSIGN(
            std::optional<Tuple> district,
            txn.ReadByKey(tables_.district, {Value(w), Value(d)}));
        ASSERT_TRUE(district.has_value());
        int64_t next_o_id = district->GetInt(col::kDNextOId);
        ASSERT_OK_AND_ASSIGN(
            auto orders,
            txn.ScanIndex(tables_.orders, -1, {Value(w), Value(d)},
                          {Value(w), Value(d + 1)}, 0));
        int64_t max_o_id = 0;
        for (const auto& [rid, order] : orders) {
          max_o_id = std::max(max_o_id, order.GetInt(col::kOId));
        }
        EXPECT_EQ(next_o_id, max_o_id + 1)
            << "w=" << w << " d=" << d << ": d_next_o_id must equal "
            << "max(o_id)+1";
      }
    }
    ASSERT_OK(txn.Commit());
  }

  std::unique_ptr<db::TellDb> db_;
  TpccScale scale_;
  std::unique_ptr<tx::Session> session_;
  TpccTables tables_;
  std::unique_ptr<TpccExecutor> executor_;
};

TEST_F(TpccTest, LoaderPopulatesAllTables) {
  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  // Every warehouse row exists.
  for (int64_t w = 1; w <= scale_.warehouses; ++w) {
    ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row,
                         txn.ReadByKey(tables_.warehouse, {Value(w)}));
    EXPECT_TRUE(row.has_value());
  }
  // Stock exists for every (warehouse, item).
  ASSERT_OK_AND_ASSIGN(
      std::optional<Tuple> stock,
      txn.ReadByKey(tables_.stock,
                    {Value(int64_t{2}), Value(int64_t{scale_.items})}));
  EXPECT_TRUE(stock.has_value());
  // Customers found by the last-name index.
  ASSERT_OK_AND_ASSIGN(
      auto by_name,
      txn.ScanIndex(tables_.customer, kCustomerByNameIndex,
                    {Value(int64_t{1}), Value(int64_t{1})},
                    {Value(int64_t{1}), Value(int64_t{2})}, 0));
  EXPECT_EQ(by_name.size(), scale_.customers_per_district);
  ASSERT_OK(txn.Commit());
  CheckOrderConsistency();
}

TEST_F(TpccTest, NewOrderCommitsAndAdvancesDistrict) {
  NewOrderInput input;
  input.warehouse = 1;
  input.district = 1;
  input.customer = 3;
  input.lines = {{1, 1, 5}, {2, 1, 3}};
  ASSERT_OK_AND_ASSIGN(TxnOutcome outcome, executor_->NewOrder(input));
  EXPECT_TRUE(outcome.committed);

  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(
      std::optional<Tuple> district,
      txn.ReadByKey(tables_.district, {Value(int64_t{1}), Value(int64_t{1})}));
  ASSERT_TRUE(district.has_value());
  int64_t o_id = district->GetInt(col::kDNextOId) - 1;
  EXPECT_EQ(o_id, scale_.initial_orders_per_district + 1);
  // The order, its lines and the new-order row exist.
  ASSERT_OK_AND_ASSIGN(
      std::optional<Tuple> order,
      txn.ReadByKey(tables_.orders,
                    {Value(int64_t{1}), Value(int64_t{1}), Value(o_id)}));
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->GetInt(col::kOOlCnt), 2);
  ASSERT_OK_AND_ASSIGN(
      std::optional<Tuple> line2,
      txn.ReadByKey(tables_.order_line, {Value(int64_t{1}), Value(int64_t{1}),
                                         Value(o_id), Value(int64_t{2})}));
  ASSERT_TRUE(line2.has_value());
  ASSERT_OK_AND_ASSIGN(
      std::optional<Tuple> new_order,
      txn.ReadByKey(tables_.new_order,
                    {Value(int64_t{1}), Value(int64_t{1}), Value(o_id)}));
  EXPECT_TRUE(new_order.has_value());
  ASSERT_OK(txn.Commit());
  CheckOrderConsistency();
}

TEST_F(TpccTest, NewOrderStockDecremented) {
  tx::Transaction before(session_.get());
  ASSERT_OK(before.Begin());
  ASSERT_OK_AND_ASSIGN(
      std::optional<Tuple> stock_before,
      before.ReadByKey(tables_.stock, {Value(int64_t{1}), Value(int64_t{1})}));
  ASSERT_OK(before.Commit());
  int64_t qty_before = stock_before->GetInt(col::kSQuantity);

  NewOrderInput input;
  input.warehouse = 1;
  input.district = 2;
  input.customer = 1;
  input.lines = {{1, 1, 4}};
  ASSERT_OK_AND_ASSIGN(TxnOutcome outcome, executor_->NewOrder(input));
  ASSERT_TRUE(outcome.committed);

  tx::Transaction after(session_.get());
  ASSERT_OK(after.Begin());
  ASSERT_OK_AND_ASSIGN(
      std::optional<Tuple> stock_after,
      after.ReadByKey(tables_.stock, {Value(int64_t{1}), Value(int64_t{1})}));
  ASSERT_OK(after.Commit());
  int64_t qty_after = stock_after->GetInt(col::kSQuantity);
  int64_t expected = qty_before >= 14 ? qty_before - 4 : qty_before - 4 + 91;
  EXPECT_EQ(qty_after, expected);
  EXPECT_EQ(stock_after->GetInt(col::kSOrderCnt), 1);
}

TEST_F(TpccTest, NewOrderInvalidItemRollsBack) {
  NewOrderInput input;
  input.warehouse = 1;
  input.district = 1;
  input.customer = 1;
  input.lines = {{1, 1, 1},
                 {static_cast<int64_t>(scale_.items) + 1, 1, 1}};
  input.rollback = true;
  ASSERT_OK_AND_ASSIGN(TxnOutcome outcome, executor_->NewOrder(input));
  EXPECT_FALSE(outcome.committed);
  EXPECT_TRUE(outcome.user_abort);
  CheckOrderConsistency();  // no partial effects
}

TEST_F(TpccTest, PaymentUpdatesBalancesAndYtd) {
  PaymentInput input;
  input.warehouse = 1;
  input.district = 1;
  input.customer_warehouse = 1;
  input.customer_district = 1;
  input.customer_id = 2;
  input.amount = 123.0;
  ASSERT_OK_AND_ASSIGN(TxnOutcome outcome, executor_->Payment(input));
  ASSERT_TRUE(outcome.committed);

  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> warehouse,
                       txn.ReadByKey(tables_.warehouse, {Value(int64_t{1})}));
  ASSERT_TRUE(warehouse.has_value());
  EXPECT_DOUBLE_EQ(warehouse->GetDouble(col::kWYtd), 300000.0 + 123.0);
  ASSERT_OK_AND_ASSIGN(
      std::optional<Tuple> customer,
      txn.ReadByKey(tables_.customer,
                    {Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{2})}));
  ASSERT_TRUE(customer.has_value());
  EXPECT_DOUBLE_EQ(customer->GetDouble(col::kCBalance), -10.0 - 123.0);
  EXPECT_EQ(customer->GetInt(col::kCPaymentCnt), 2);
  ASSERT_OK(txn.Commit());
}

TEST_F(TpccTest, PaymentByLastNameFindsMiddleCustomer) {
  PaymentInput input;
  input.warehouse = 1;
  input.district = 1;
  input.customer_warehouse = 1;
  input.customer_district = 1;
  input.by_last_name = true;
  input.customer_last = LastName(0);  // loader names customers 0..n-1
  input.amount = 10.0;
  ASSERT_OK_AND_ASSIGN(TxnOutcome outcome, executor_->Payment(input));
  EXPECT_TRUE(outcome.committed);
}

TEST_F(TpccTest, DeliveryClearsOldestNewOrders) {
  tx::Transaction before(session_.get());
  ASSERT_OK(before.Begin());
  ASSERT_OK_AND_ASSIGN(
      auto pending_before,
      before.ScanIndex(tables_.new_order, -1, {Value(int64_t{1})},
                       {Value(int64_t{2})}, 0));
  ASSERT_OK(before.Commit());
  ASSERT_FALSE(pending_before.empty());

  DeliveryInput input{1, 5};
  ASSERT_OK_AND_ASSIGN(TxnOutcome outcome, executor_->Delivery(input));
  ASSERT_TRUE(outcome.committed);

  tx::Transaction after(session_.get());
  ASSERT_OK(after.Begin());
  ASSERT_OK_AND_ASSIGN(
      auto pending_after,
      after.ScanIndex(tables_.new_order, -1, {Value(int64_t{1})},
                      {Value(int64_t{2})}, 0));
  ASSERT_OK(after.Commit());
  // One new-order per non-empty district was delivered.
  EXPECT_EQ(pending_after.size(),
            pending_before.size() - scale_.districts_per_warehouse);
}

TEST_F(TpccTest, OrderStatusAndStockLevelComplete) {
  OrderStatusInput os;
  os.warehouse = 1;
  os.district = 1;
  os.customer_id = 1;
  ASSERT_OK_AND_ASSIGN(TxnOutcome outcome1, executor_->OrderStatus(os));
  EXPECT_TRUE(outcome1.committed);

  StockLevelInput sl;
  sl.warehouse = 1;
  sl.district = 1;
  sl.threshold = 15;
  ASSERT_OK_AND_ASSIGN(TxnOutcome outcome2, executor_->StockLevel(sl));
  EXPECT_TRUE(outcome2.committed);
}

// ---------------------------------------------------------------------------
// Round budget: the storage calls that issued a message, pinned on a loaded
// one-warehouse database whose node caches a first new-order warmed: its
// inner nodes, and the leaves its unique-key point lookups read.

class TpccRoundBudgetTest : public ::testing::Test {
 protected:
  explicit TpccRoundBudgetTest(
      db::BufferStrategy buffer = db::BufferStrategy::kTransactionOnly) {
    db::TellDbOptions options;
    options.network = sim::NetworkModel::Instant();
    options.buffer_strategy = buffer;
    db_ = std::make_unique<db::TellDb>(options);
    scale_.warehouses = 1;
    EXPECT_OK(CreateTpccTables(db_.get()));
    EXPECT_OK(LoadTpcc(db_.get(), scale_));
    session_ = db_->OpenSession(0, 0);
    auto tables = OpenTpccTables(db_.get(), 0);
    EXPECT_TRUE(tables.ok());
    tables_ = *tables;
    executor_ = std::make_unique<TpccExecutor>(session_.get(), tables_);
  }

  static NewOrderInput Order() {
    NewOrderInput input;
    input.warehouse = 1;
    input.district = 4;
    input.customer = 7;
    input.lines = {{3, 1, 2}, {250, 1, 1}, {777, 1, 4}, {1200, 1, 3},
                   {1999, 1, 5}};
    return input;
  }

  /// Storage calls that issued a message since `before`.
  uint64_t CallsSince(uint64_t before) const {
    return session_->metrics()->pipeline_flushes - before;
  }

  std::unique_ptr<db::TellDb> db_;
  TpccScale scale_;
  std::unique_ptr<tx::Session> session_;
  TpccTables tables_;
  std::unique_ptr<TpccExecutor> executor_;
};

TEST_F(TpccRoundBudgetTest, NewOrderLookupsShareOneRecordRound) {
  ASSERT_OK_AND_ASSIGN(TxnOutcome warm, executor_->NewOrder(Order()));
  ASSERT_TRUE(warm.committed);
  const NewOrderInput input = Order();
  std::vector<tx::TableKey> keys = {
      {tables_.warehouse, {Value(int64_t{1})}},
      {tables_.district, {Value(int64_t{1}), Value(input.district)}},
      {tables_.customer,
       {Value(int64_t{1}), Value(input.district), Value(input.customer)}}};
  for (const NewOrderLine& line : input.lines) {
    keys.push_back({tables_.item, {Value(line.item_id)}});
    keys.push_back(
        {tables_.stock, {Value(line.supply_warehouse), Value(line.item_id)}});
  }
  tx::Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  const uint64_t before = session_->metrics()->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(auto rids, txn.BatchLookupPrimary(keys));
  // Five tables, thirteen keys: the warm order left every key's leaf image
  // in the node cache, so only the records of every table cost a round.
  EXPECT_EQ(CallsSince(before), 1u);
  for (const auto& rid : rids) EXPECT_TRUE(rid.has_value());
  ASSERT_OK(txn.Commit());
}

TEST_F(TpccRoundBudgetTest, NewOrderCostsOneRoundPerDependencyLevel) {
  ASSERT_OK_AND_ASSIGN(TxnOutcome warm, executor_->NewOrder(Order()));
  ASSERT_TRUE(warm.committed);
  const sim::Histogram& rounds = session_->metrics()->storage_rounds;
  const uint64_t samples = rounds.count();
  const double sum = rounds.Mean() * static_cast<double>(samples);
  const uint64_t before = session_->metrics()->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(TxnOutcome outcome, executor_->NewOrder(Order()));
  ASSERT_TRUE(outcome.committed);
  // One lookup round (the records; every leaf is a cached image), then the
  // commit: the log append together with the leaves of orders,
  // orders_by_customer, new_order and order_line, the LL/SC apply together
  // with one write of all the leaves, and the commit flag.
  EXPECT_EQ(CallsSince(before), 4u);
  // tx.storage_rounds took exactly this transaction's count.
  ASSERT_EQ(rounds.count(), samples + 1);
  EXPECT_EQ(rounds.Mean() * static_cast<double>(rounds.count()) - sum, 4.0);
}

TEST_F(TpccRoundBudgetTest, NewOrderWhoseLeafSplitsCostsOneRoundMore) {
  ASSERT_OK_AND_ASSIGN(TxnOutcome warm, executor_->NewOrder(Order()));
  ASSERT_TRUE(warm.committed);
  // Repeat the order until a commit splits a leaf: every order appends five
  // entries to district 4's rightmost order_line leaf, which fills first.
  sim::WorkerMetrics* metrics = session_->metrics();
  for (int i = 0; i < 64; ++i) {
    const uint64_t splits = metrics->index_splits;
    const uint64_t before = metrics->pipeline_flushes;
    ASSERT_OK_AND_ASSIGN(TxnOutcome outcome, executor_->NewOrder(Order()));
    ASSERT_TRUE(outcome.committed);
    if (metrics->index_splits == splits) {
      EXPECT_EQ(CallsSince(before), 4u) << "order " << i;
      continue;
    }
    // The split rides the commit's rounds but one: the fresh right node
    // travels with the apply and the other leaf puts, the shrink in a round
    // of its own — it must not land before the fresh node — and the parent
    // put with the commit flag.
    EXPECT_EQ(CallsSince(before), 5u) << "order " << i;
    EXPECT_EQ(metrics->index_splits - splits, 1u);
    return;
  }
  FAIL() << "no leaf split in 64 orders";
}

TEST_F(TpccRoundBudgetTest, DeliveryCollectsTheDeadEntriesOfTheLastDelivery) {
  sim::WorkerMetrics* metrics = session_->metrics();
  // The first delivery after the load meets no dead entry. The ten
  // new-order scans share one leaf round and one record round; then the
  // orders (leaves, records), their lines and customers (leaves, records),
  // and the commit: log, apply, flag — no index op, so the log goes alone.
  uint64_t before = metrics->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(TxnOutcome first, executor_->Delivery({1, 3}));
  ASSERT_TRUE(first.committed);
  EXPECT_EQ(CallsSince(before), 9u);
  // It deleted the oldest new-order row of each district. Their entries
  // now head the next delivery's ranges, dead below its lav: one more
  // record round meets them, and the commit removes them in one index
  // batch (leaves with the log append, one write with the apply). The next
  // orders sit on the orders leaves the first delivery's lookups cached, so
  // they cost their record round only; some of their lines and customers
  // sit on leaves it did not read, which keeps that leaf round.
  const uint64_t removed = metrics->gc_index_entries;
  before = metrics->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(TxnOutcome second, executor_->Delivery({1, 4}));
  ASSERT_TRUE(second.committed);
  EXPECT_EQ(CallsSince(before), 9u);
  EXPECT_EQ(metrics->gc_index_entries - removed, 10u);
}

TEST_F(TpccRoundBudgetTest, PaymentCostsItsLookupRoundsAndThreeCommitRounds) {
  PaymentInput by_id;
  by_id.warehouse = 1;
  by_id.district = 4;
  by_id.customer_warehouse = 1;
  by_id.customer_district = 4;
  by_id.customer_id = 7;
  by_id.amount = 12.5;
  PaymentInput by_name = by_id;
  by_name.by_last_name = true;
  by_name.customer_last = LastName(6);  // customer 7's
  // The first payment warms the inner nodes of the history tree.
  ASSERT_OK_AND_ASSIGN(TxnOutcome warm, executor_->Payment(by_id));
  ASSERT_TRUE(warm.committed);
  for (const PaymentInput& input : {by_id, by_name}) {
    SCOPED_TRACE(input.by_last_name ? "by name" : "by id");
    const uint64_t before = session_->metrics()->pipeline_flushes;
    ASSERT_OK_AND_ASSIGN(TxnOutcome outcome, executor_->Payment(input));
    ASSERT_TRUE(outcome.committed);
    // Warehouse, district and the customer — a primary-key point or the
    // name-index range — in one leaf round and one record round; then the
    // log append with the history leaf, the apply with the history entry,
    // and the flag. By id every point's leaf is the image the first
    // payment cached, so the leaf round goes; the name range reads its
    // leaf.
    EXPECT_EQ(CallsSince(before), input.by_last_name ? 5u : 4u);
  }
}

TEST_F(TpccRoundBudgetTest, OrderStatusAndStockLevelCalls) {
  ASSERT_OK_AND_ASSIGN(TxnOutcome warm, executor_->NewOrder(Order()));
  ASSERT_TRUE(warm.committed);
  uint64_t before = session_->metrics()->pipeline_flushes;
  OrderStatusInput status;
  status.warehouse = 1;
  status.district = 4;
  status.customer_id = 7;
  ASSERT_OK_AND_ASSIGN(TxnOutcome outcome, executor_->OrderStatus(status));
  ASSERT_TRUE(outcome.committed);
  // The customer and its orders-by-customer scan (one leaf round, one
  // record round), then the last order's lines (leaves, records).
  EXPECT_EQ(CallsSince(before), 4u);
  status.by_last_name = true;
  status.customer_last = LastName(6);  // customer 7's
  before = session_->metrics()->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(outcome, executor_->OrderStatus(status));
  ASSERT_TRUE(outcome.committed);
  // By name the orders scan needs the id the name scan finds: name range
  // (leaf, records), orders (leaf, records), then the lines — whose leaf
  // images the call by id cached — (records).
  EXPECT_EQ(CallsSince(before), 5u);
  before = session_->metrics()->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(outcome, executor_->StockLevel({1, 4, 15}));
  ASSERT_TRUE(outcome.committed);
  // District (its cached leaf image, record), the order_line scan over the
  // last 20 orders (its leaves, all fetched in the descent's round, then
  // records), then the stock rows (leaves — the warm order cached only its
  // own items' — and records).
  EXPECT_EQ(CallsSince(before), 5u);
  before = session_->metrics()->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(outcome, executor_->StockLevel({1, 4, 15}));
  ASSERT_TRUE(outcome.committed);
  // Again: now every stock leaf is a cached image too.
  EXPECT_EQ(CallsSince(before), 4u);
}

// The shared buffers read through the same batched buffer read as TB: a
// new-order costs TB's calls under SB, whether its rows are buffered or
// not — four when its leaves are cached images (the same order again),
// six when its items' leaves are not and it splits its order_line leaf
// (another order). SBVS checks the
// units' version sets in one round before the record round, which a warm
// order skips (every buffered row is still valid), and its write-through
// reads and conditionally puts a unit's cell per written record: 26 calls
// for new-order's 13 writes.
class TpccSharedBufferRoundBudgetTest
    : public TpccRoundBudgetTest,
      public ::testing::WithParamInterface<db::BufferStrategy> {
 protected:
  TpccSharedBufferRoundBudgetTest() : TpccRoundBudgetTest(GetParam()) {}
};

TEST_P(TpccSharedBufferRoundBudgetTest, NewOrderReadsInOneBatchPerLevel) {
  ASSERT_OK_AND_ASSIGN(TxnOutcome warm, executor_->NewOrder(Order()));
  ASSERT_TRUE(warm.committed);
  // The same order again: its rows are buffered now.
  uint64_t before = session_->metrics()->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(TxnOutcome again, executor_->NewOrder(Order()));
  ASSERT_TRUE(again.committed);
  const uint64_t warm_calls = CallsSince(before);
  // Another district, customer and items: no row of it is buffered.
  NewOrderInput fresh = Order();
  fresh.district = 5;
  fresh.customer = 8;
  fresh.lines = {{4, 1, 2}, {251, 1, 1}, {778, 1, 4}, {1201, 1, 3},
                 {1998, 1, 5}};
  before = session_->metrics()->pipeline_flushes;
  const uint64_t splits = session_->metrics()->index_splits;
  ASSERT_OK_AND_ASSIGN(TxnOutcome outcome, executor_->NewOrder(fresh));
  ASSERT_TRUE(outcome.committed);
  const uint64_t fresh_calls = CallsSince(before);
  // Its order_line leaf splits: the shrink costs a round of its own.
  EXPECT_EQ(session_->metrics()->index_splits - splits, 1u);
  const bool sbvs = GetParam() == db::BufferStrategy::kVersionSync;
  EXPECT_EQ(warm_calls, sbvs ? 30u : 4u);
  EXPECT_EQ(fresh_calls, sbvs ? 33u : 6u);
}

INSTANTIATE_TEST_SUITE_P(
    SharedBuffers, TpccSharedBufferRoundBudgetTest,
    ::testing::Values(db::BufferStrategy::kSharedRecord,
                      db::BufferStrategy::kVersionSync),
    [](const ::testing::TestParamInfo<db::BufferStrategy>& info) {
      return info.param == db::BufferStrategy::kSharedRecord ? "SB" : "SBVS";
    });

TEST_F(TpccTest, GeneratorRespectsScaleBounds) {
  InputGenerator generator(scale_, Mix::kWriteIntensive, 11, 1);
  for (int i = 0; i < 500; ++i) {
    TxnInput input = generator.Next();
    if (input.type == TxnType::kNewOrder) {
      EXPECT_EQ(input.new_order.warehouse, 1);
      EXPECT_GE(input.new_order.district, 1);
      EXPECT_LE(input.new_order.district,
                scale_.districts_per_warehouse);
      for (const auto& line : input.new_order.lines) {
        if (!input.new_order.rollback) {
          EXPECT_LE(line.item_id, scale_.items);
        }
        EXPECT_GE(line.quantity, 1);
        EXPECT_LE(line.quantity, 10);
      }
    }
  }
}

TEST_F(TpccTest, GeneratorShardableNeverRemote) {
  InputGenerator generator(scale_, Mix::kShardable, 13, 1);
  for (int i = 0; i < 500; ++i) {
    TxnInput input = generator.Next();
    if (input.type == TxnType::kNewOrder) {
      EXPECT_FALSE(input.new_order.remote);
      for (const auto& line : input.new_order.lines) {
        EXPECT_EQ(line.supply_warehouse, input.new_order.warehouse);
      }
    }
    if (input.type == TxnType::kPayment) {
      EXPECT_FALSE(input.payment.remote);
    }
  }
}

TEST_F(TpccTest, GeneratorMixRatiosApproximatelyCorrect) {
  InputGenerator generator(scale_, Mix::kWriteIntensive, 17, 1);
  int counts[5] = {0};
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    counts[static_cast<int>(generator.Next().type)]++;
  }
  EXPECT_NEAR(counts[0] / double(kSamples), 0.45, 0.02);  // new-order
  EXPECT_NEAR(counts[1] / double(kSamples), 0.43, 0.02);  // payment
  EXPECT_NEAR(counts[2] / double(kSamples), 0.04, 0.01);  // delivery
  EXPECT_NEAR(counts[3] / double(kSamples), 0.04, 0.01);  // order-status
  EXPECT_NEAR(counts[4] / double(kSamples), 0.04, 0.01);  // stock-level
}

TEST_F(TpccTest, DriverRunsMultiWorkerWorkload) {
  TellBackend backend(db_.get());
  DriverOptions options;
  options.scale = scale_;
  options.mix = Mix::kWriteIntensive;
  options.num_workers = 4;
  options.duration_virtual_ms = 20;
  ASSERT_OK_AND_ASSIGN(DriverResult result, RunTpcc(&backend, options));
  EXPECT_GT(result.committed, 0u);
  EXPECT_GT(result.tps, 0.0);
  EXPECT_GT(result.committed_new_order, 0u);
  EXPECT_LT(result.abort_rate, 0.9);
  CheckOrderConsistency();
}

// The figure benches drive one loaded database again for every point of a
// sweep. With one worker nothing legitimately conflicts, so the only
// aborts are new-order's 1% intentional rollbacks; a history id that
// repeats across runs would instead abort the second run's payments on the
// history table's unique primary key (about 43% of the mix).
TEST_F(TpccTest, SecondDriverRunOnOneDatabaseDoesNotRepeatHistoryIds) {
  DriverOptions options;
  options.scale = scale_;
  options.mix = Mix::kWriteIntensive;
  options.num_workers = 1;
  options.duration_virtual_ms = 20;
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(run);
    TellBackend backend(db_.get());
    ASSERT_OK_AND_ASSIGN(DriverResult result, RunTpcc(&backend, options));
    EXPECT_GT(result.committed, 100u);
    EXPECT_LT(result.abort_rate, 0.05);
  }
  CheckOrderConsistency();
}

TEST_F(TpccTest, DriverReadIntensiveMixMostlyReads) {
  TellBackend backend(db_.get());
  DriverOptions options;
  options.scale = scale_;
  options.mix = Mix::kReadIntensive;
  options.num_workers = 2;
  options.duration_virtual_ms = 20;
  ASSERT_OK_AND_ASSIGN(DriverResult result, RunTpcc(&backend, options));
  EXPECT_GT(result.committed, 0u);
  // Read-dominated mix: very few conflicts.
  EXPECT_LT(result.abort_rate, 0.1);
}

// The loaded image, pinned: a hash of every master cell of every table —
// data, index nodes and log, each as (table, key, value, stamp), in (table,
// key) order — after a small fixed-seed load on perfbench's cluster
// configuration. A change to the loader, the record format or the B+tree's
// layout moves it, and with it the virtual numbers perfbench reports.
TEST(TpccLoadImageTest, LoadedImageHashIsPinned) {
  db::TellDbOptions options;
  options.num_processing_nodes = 2;
  options.commit_manager_sync_ms = 0;
  db::TellDb db(options);
  ASSERT_OK(CreateTpccTables(&db));
  ASSERT_OK(LoadTpcc(&db, TinyScale(), /*seed=*/7));
  store::Cluster* cluster = db.cluster();
  std::vector<std::pair<store::TableId, store::KeyCell>> cells;
  for (const auto& [table, partition] :
       cluster->partition_map().AllPartitions()) {
    ASSERT_OK_AND_ASSIGN(store::PartitionPlacement placement,
                         cluster->partition_map().PlacementOf(table, partition));
    ASSERT_OK_AND_ASSIGN(
        std::vector<store::KeyCell> part,
        cluster->node(placement.master)->DumpPartition(table, partition));
    for (store::KeyCell& cell : part) cells.emplace_back(table, std::move(cell));
  }
  std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first, a.second.key) < std::tie(b.first, b.second.key);
  });
  uint64_t hash = 0xCBF29CE484222325ULL;  // 64-bit FNV-1a
  auto mix = [&](const void* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      hash ^= static_cast<const unsigned char*>(data)[i];
      hash *= 0x100000001B3ULL;
    }
  };
  for (const auto& [table, cell] : cells) {
    const uint64_t fields[] = {table, cell.key.size(), cell.value.size(),
                               cell.stamp};
    mix(fields, sizeof(fields));
    mix(cell.key.data(), cell.key.size());
    mix(cell.value.data(), cell.value.size());
  }
  EXPECT_EQ(cells.size(), kPinnedCells);
  EXPECT_EQ(hash, kPinnedHash) << std::hex << "0x" << hash;
}

}  // namespace
}  // namespace tell::tpcc
