#include "workload/tpcc/tpcc_transactions.h"

#include <algorithm>

#include "common/logging.h"
#include "workload/tpcc/tpcc_loader.h"

namespace tell::tpcc {

using schema::Tuple;
using schema::Value;

// ---------------------------------------------------------------------------
// InputGenerator

int64_t InputGenerator::NURandCustomer() {
  int64_t max_c = static_cast<int64_t>(scale_.customers_per_district);
  return rng_.NonUniform(1023, kCId, 1, max_c);
}

std::string InputGenerator::NURandLastName() {
  int64_t max_name =
      std::min<int64_t>(999, scale_.customers_per_district - 1);
  return LastName(rng_.NonUniform(255, kCLast, 0, max_name));
}

NewOrderInput InputGenerator::MakeNewOrder() {
  NewOrderInput input;
  input.warehouse = home_;
  input.district = rng_.UniformInt(1, scale_.districts_per_warehouse);
  input.customer = NURandCustomer();
  int64_t ol_cnt = rng_.UniformInt(5, 15);
  bool allow_remote = mix_ != Mix::kShardable && scale_.warehouses > 1;
  for (int64_t i = 0; i < ol_cnt; ++i) {
    NewOrderLine line;
    line.item_id = rng_.NonUniform(8191, kOlIId, 1,
                                   static_cast<int64_t>(scale_.items));
    line.supply_warehouse = input.warehouse;
    // Clause 2.4.1.5.2: 1% of items come from a remote warehouse.
    if (allow_remote && rng_.Bernoulli(0.01)) {
      do {
        line.supply_warehouse = rng_.UniformInt(1, scale_.warehouses);
      } while (line.supply_warehouse == input.warehouse);
      input.remote = true;
    }
    line.quantity = rng_.UniformInt(1, 10);
    input.lines.push_back(line);
  }
  // Clause 2.4.1.4: 1% of new-orders use an invalid item and roll back.
  if (rng_.Bernoulli(0.01)) {
    input.lines.back().item_id = static_cast<int64_t>(scale_.items) + 1;
    input.rollback = true;
  }
  return input;
}

PaymentInput InputGenerator::MakePayment() {
  PaymentInput input;
  input.warehouse = home_;
  input.district = rng_.UniformInt(1, scale_.districts_per_warehouse);
  bool allow_remote = mix_ != Mix::kShardable && scale_.warehouses > 1;
  // Clause 2.5.1.2: 85% pay through the home warehouse, 15% remote.
  if (allow_remote && rng_.Bernoulli(0.15)) {
    do {
      input.customer_warehouse = rng_.UniformInt(1, scale_.warehouses);
    } while (input.customer_warehouse == input.warehouse);
    input.customer_district =
        rng_.UniformInt(1, scale_.districts_per_warehouse);
    input.remote = true;
  } else {
    input.customer_warehouse = input.warehouse;
    input.customer_district = input.district;
  }
  // 60% select the customer by last name.
  if (rng_.Bernoulli(0.6)) {
    input.by_last_name = true;
    input.customer_last = NURandLastName();
  } else {
    input.customer_id = NURandCustomer();
  }
  input.amount = static_cast<double>(rng_.UniformInt(100, 500000)) / 100.0;
  return input;
}

DeliveryInput InputGenerator::MakeDelivery() {
  return DeliveryInput{home_, rng_.UniformInt(1, 10)};
}

OrderStatusInput InputGenerator::MakeOrderStatus() {
  OrderStatusInput input;
  input.warehouse = home_;
  input.district = rng_.UniformInt(1, scale_.districts_per_warehouse);
  if (rng_.Bernoulli(0.6)) {
    input.by_last_name = true;
    input.customer_last = NURandLastName();
  } else {
    input.customer_id = NURandCustomer();
  }
  return input;
}

StockLevelInput InputGenerator::MakeStockLevel() {
  StockLevelInput input;
  input.warehouse = home_;
  input.district = rng_.UniformInt(1, scale_.districts_per_warehouse);
  input.threshold = rng_.UniformInt(10, 20);
  return input;
}

TxnInput InputGenerator::Next() {
  TxnInput input;
  uint64_t roll = rng_.Uniform(100);
  if (mix_ == Mix::kReadIntensive) {
    // Paper Table 2: 9% new-order, 84% order-status, 7% stock-level.
    if (roll < 9) {
      input.type = TxnType::kNewOrder;
      input.new_order = MakeNewOrder();
    } else if (roll < 93) {
      input.type = TxnType::kOrderStatus;
      input.order_status = MakeOrderStatus();
    } else {
      input.type = TxnType::kStockLevel;
      input.stock_level = MakeStockLevel();
    }
    return input;
  }
  // Standard mix: 45/43/4/4/4.
  if (roll < 45) {
    input.type = TxnType::kNewOrder;
    input.new_order = MakeNewOrder();
  } else if (roll < 88) {
    input.type = TxnType::kPayment;
    input.payment = MakePayment();
  } else if (roll < 92) {
    input.type = TxnType::kDelivery;
    input.delivery = MakeDelivery();
  } else if (roll < 96) {
    input.type = TxnType::kOrderStatus;
    input.order_status = MakeOrderStatus();
  } else {
    input.type = TxnType::kStockLevel;
    input.stock_level = MakeStockLevel();
  }
  return input;
}

// ---------------------------------------------------------------------------
// TpccExecutor

namespace {

/// Commit helper: maps a write-write conflict abort to outcome, propagates
/// real errors.
Result<TxnOutcome> FinishCommit(tx::Transaction* txn) {
  Status st = txn->Commit();
  TxnOutcome outcome;
  if (st.ok()) {
    outcome.committed = true;
    return outcome;
  }
  if (st.IsAborted()) return outcome;  // conflict; counted in metrics
  return st;
}

/// A primary-key point as a BatchScanIndex range: [key, key + '\0') holds
/// the entries under exactly `key`, of which at most one is visible.
/// Unlimited, so every candidate entry is validated in one record round.
Result<tx::IndexRange> KeyRange(tx::TableHandle* table,
                                const std::vector<Value>& key) {
  TELL_ASSIGN_OR_RETURN(std::string lo, schema::EncodeIndexKeyValues(key));
  std::string hi = lo + '\0';
  return tx::IndexRange{table, /*index=*/-1, std::move(lo), std::move(hi),
                        /*limit=*/0};
}

/// Clause 2.5.2.2 case 2: of the customers a CustomerRange found, the row
/// at position ceil(n/2) — by id, the only one.
std::optional<std::pair<uint64_t, Tuple>> PickCustomer(
    std::vector<std::pair<uint64_t, Tuple>> matches) {
  if (matches.empty()) return std::nullopt;
  return std::move(matches[(matches.size() - 1) / 2]);
}

}  // namespace

Result<tx::IndexRange> TpccExecutor::CustomerRange(
    int64_t w, int64_t d, bool by_last_name, int64_t c_id,
    const std::string& c_last) const {
  if (!by_last_name) {
    return KeyRange(tables_.customer, {Value(w), Value(d), Value(c_id)});
  }
  TELL_ASSIGN_OR_RETURN(
      std::string lo,
      schema::EncodeIndexKeyValues({Value(w), Value(d), Value(c_last)}));
  std::string hi = lo + '\xFF';
  return tx::IndexRange{tables_.customer, kCustomerByNameIndex, std::move(lo),
                        std::move(hi), /*limit=*/0};
}

Result<TxnOutcome> TpccExecutor::NewOrder(const NewOrderInput& input) {
  tx::Transaction txn(session_, txn_options_);
  TELL_RETURN_NOT_OK(txn.Begin());
  int64_t w = input.warehouse;
  int64_t d = input.district;
  int64_t now = static_cast<int64_t>(session_->clock()->now_ns());

  // Every lookup whose key is known up front goes out as one batch (paper
  // §5.1: aggressive batching): warehouse, district, customer, and each
  // line's item and stock. Their B+tree descents share one round and their
  // records one more.
  std::vector<tx::TableKey> keys;
  keys.reserve(3 + 2 * input.lines.size());
  keys.push_back({tables_.warehouse, {Value(w)}});
  keys.push_back({tables_.district, {Value(w), Value(d)}});
  keys.push_back(
      {tables_.customer, {Value(w), Value(d), Value(input.customer)}});
  constexpr size_t kFirstItem = 3;
  const size_t first_stock = kFirstItem + input.lines.size();
  for (const NewOrderLine& line : input.lines) {
    keys.push_back({tables_.item, {Value(line.item_id)}});
  }
  for (const NewOrderLine& line : input.lines) {
    keys.push_back(
        {tables_.stock, {Value(line.supply_warehouse), Value(line.item_id)}});
  }
  TELL_ASSIGN_OR_RETURN(std::vector<std::optional<uint64_t>> rids,
                        txn.BatchLookupPrimary(keys));
  if (!rids[0].has_value()) return Status::NotFound("warehouse missing");
  if (!rids[1].has_value()) return Status::NotFound("district missing");
  if (!rids[2].has_value()) return Status::NotFound("customer missing");
  std::vector<uint64_t> item_rids;
  item_rids.reserve(input.lines.size());
  for (size_t i = kFirstItem; i < first_stock; ++i) {
    if (!rids[i].has_value()) {
      // Clause 2.4.2.3: unused item id -> the transaction rolls back.
      TELL_RETURN_NOT_OK(txn.Abort());
      TxnOutcome outcome;
      outcome.user_abort = true;
      return outcome;
    }
    item_rids.push_back(*rids[i]);
  }
  std::vector<uint64_t> stock_rids;
  stock_rids.reserve(input.lines.size());
  for (size_t i = first_stock; i < rids.size(); ++i) {
    if (!rids[i].has_value()) return Status::NotFound("stock row missing");
    stock_rids.push_back(*rids[i]);
  }

  TELL_ASSIGN_OR_RETURN(std::optional<Tuple> warehouse,
                        txn.Read(tables_.warehouse, *rids[0]));
  if (!warehouse.has_value()) return Status::NotFound("warehouse missing");
  double w_tax = warehouse->GetDouble(col::kWTax);
  (void)w_tax;

  TELL_ASSIGN_OR_RETURN(std::optional<Tuple> district,
                        txn.Read(tables_.district, *rids[1]));
  if (!district.has_value()) return Status::NotFound("district missing");
  int64_t o_id = district->GetInt(col::kDNextOId);
  Tuple district_updated = *district;
  district_updated.Set(col::kDNextOId, o_id + 1);
  TELL_RETURN_NOT_OK(txn.Update(tables_.district, *rids[1], district_updated));

  TELL_ASSIGN_OR_RETURN(std::optional<Tuple> customer,
                        txn.Read(tables_.customer, *rids[2]));
  if (!customer.has_value()) return Status::NotFound("customer missing");
  double c_discount = customer->GetDouble(col::kCDiscount);
  (void)c_discount;

  TELL_ASSIGN_OR_RETURN(auto items, txn.BatchRead(tables_.item, item_rids));
  TELL_ASSIGN_OR_RETURN(auto stocks, txn.BatchRead(tables_.stock, stock_rids));

  int64_t all_local = input.remote ? 0 : 1;
  Tuple order(8);
  order.Set(col::kOWId, w);
  order.Set(col::kODId, d);
  order.Set(col::kOId, o_id);
  order.Set(col::kOCId, input.customer);
  order.Set(col::kOEntryD, now);
  order.Set(col::kOCarrierId, std::monostate{});
  order.Set(col::kOOlCnt, static_cast<int64_t>(input.lines.size()));
  order.Set(col::kOAllLocal, all_local);
  TELL_RETURN_NOT_OK(
      txn.Insert(tables_.orders, order, /*check_unique=*/false).status());

  Tuple new_order(3);
  new_order.Set(col::kNoWId, w);
  new_order.Set(col::kNoDId, d);
  new_order.Set(col::kNoOId, o_id);
  TELL_RETURN_NOT_OK(
      txn.Insert(tables_.new_order, new_order, /*check_unique=*/false)
          .status());

  for (size_t i = 0; i < input.lines.size(); ++i) {
    const NewOrderLine& line = input.lines[i];
    if (!items[i].has_value() || !stocks[i].has_value()) {
      return Status::NotFound("item/stock row vanished");
    }
    double price = items[i]->GetDouble(col::kIPrice);
    Tuple stock = std::move(*stocks[i]);
    int64_t quantity = stock.GetInt(col::kSQuantity);
    if (quantity >= line.quantity + 10) {
      quantity -= line.quantity;
    } else {
      quantity = quantity - line.quantity + 91;
    }
    stock.Set(col::kSQuantity, quantity);
    stock.Set(col::kSYtd,
              stock.GetDouble(col::kSYtd) + static_cast<double>(line.quantity));
    stock.Set(col::kSOrderCnt, stock.GetInt(col::kSOrderCnt) + 1);
    if (line.supply_warehouse != w) {
      stock.Set(col::kSRemoteCnt, stock.GetInt(col::kSRemoteCnt) + 1);
    }
    TELL_RETURN_NOT_OK(txn.Update(tables_.stock, stock_rids[i], stock));

    Tuple order_line(10);
    order_line.Set(col::kOlWId, w);
    order_line.Set(col::kOlDId, d);
    order_line.Set(col::kOlOId, o_id);
    order_line.Set(col::kOlNumber, static_cast<int64_t>(i + 1));
    order_line.Set(col::kOlIId, line.item_id);
    order_line.Set(col::kOlSupplyWId, line.supply_warehouse);
    order_line.Set(col::kOlDeliveryD, std::monostate{});
    order_line.Set(col::kOlQuantity, line.quantity);
    order_line.Set(col::kOlAmount,
                   static_cast<double>(line.quantity) * price);
    order_line.Set(col::kOlDistInfo,
                   stock.GetString(col::kSDist01 +
                                   static_cast<size_t>(d - 1)));
    TELL_RETURN_NOT_OK(
        txn.Insert(tables_.order_line, order_line, /*check_unique=*/false)
            .status());
  }
  return FinishCommit(&txn);
}

Result<TxnOutcome> TpccExecutor::Payment(const PaymentInput& input) {
  tx::Transaction txn(session_, txn_options_);
  TELL_RETURN_NOT_OK(txn.Begin());
  int64_t now = static_cast<int64_t>(session_->clock()->now_ns());

  // Warehouse, district and customer — by id or by name — in one
  // multi-range scan: their leaves share one round and their records one
  // more.
  std::vector<tx::IndexRange> ranges(3);
  TELL_ASSIGN_OR_RETURN(ranges[0],
                        KeyRange(tables_.warehouse, {Value(input.warehouse)}));
  TELL_ASSIGN_OR_RETURN(
      ranges[1], KeyRange(tables_.district,
                          {Value(input.warehouse), Value(input.district)}));
  TELL_ASSIGN_OR_RETURN(
      ranges[2],
      CustomerRange(input.customer_warehouse, input.customer_district,
                    input.by_last_name, input.customer_id,
                    input.customer_last));
  TELL_ASSIGN_OR_RETURN(auto rows, txn.BatchScanIndex(ranges));

  if (rows[0].empty()) return Status::NotFound("warehouse missing");
  Tuple w_row = std::move(rows[0][0].second);
  w_row.Set(col::kWYtd, w_row.GetDouble(col::kWYtd) + input.amount);
  TELL_RETURN_NOT_OK(txn.Update(tables_.warehouse, rows[0][0].first, w_row));

  if (rows[1].empty()) return Status::NotFound("district missing");
  Tuple d_row = std::move(rows[1][0].second);
  d_row.Set(col::kDYtd, d_row.GetDouble(col::kDYtd) + input.amount);
  TELL_RETURN_NOT_OK(txn.Update(tables_.district, rows[1][0].first, d_row));

  std::optional<std::pair<uint64_t, Tuple>> customer =
      PickCustomer(std::move(rows[2]));
  if (!customer.has_value()) return Status::NotFound("customer missing");
  Tuple c_row = customer->second;
  c_row.Set(col::kCBalance, c_row.GetDouble(col::kCBalance) - input.amount);
  c_row.Set(col::kCYtdPayment,
            c_row.GetDouble(col::kCYtdPayment) + input.amount);
  c_row.Set(col::kCPaymentCnt, c_row.GetInt(col::kCPaymentCnt) + 1);
  if (c_row.GetString(col::kCCredit) == "BC") {
    // Clause 2.5.2.2: bad-credit customers get the payment prepended to
    // c_data, truncated to 500 characters.
    std::string data = std::to_string(c_row.GetInt(col::kCId)) + " " +
                       std::to_string(input.customer_district) + " " +
                       std::to_string(input.customer_warehouse) + " " +
                       std::to_string(input.district) + " " +
                       std::to_string(input.warehouse) + " " +
                       std::to_string(input.amount) + "|" +
                       c_row.GetString(col::kCData);
    if (data.size() > 500) data.resize(500);
    c_row.Set(col::kCData, std::move(data));
  }
  TELL_RETURN_NOT_OK(txn.Update(tables_.customer, customer->first, c_row));

  // The history id is unique across PNs, sessions and runs on one
  // database: its prefix names the session's (PN, worker) pair, and the
  // sequence behind a prefix belongs to the database, so a later session of
  // the same pair continues where an earlier one stopped.
  const uint32_t pn = session_->pn_id();
  const uint32_t worker = session_->worker_id();
  TELL_CHECK(pn < (1u << 7) && worker < (1u << 16) - 1);
  const int64_t prefix = (int64_t{pn} << 16) + worker + 1;
  Tuple history(9);
  const int64_t h_id =
      prefix * (int64_t{1} << 40) +
      session_->NextInSequence(static_cast<uint64_t>(prefix));
  history.Set(col::kHId, h_id);
  history.Set(col::kHCId, c_row.GetInt(col::kCId));
  history.Set(col::kHCDId, input.customer_district);
  history.Set(col::kHCWId, input.customer_warehouse);
  history.Set(col::kHDId, input.district);
  history.Set(col::kHWId, input.warehouse);
  history.Set(col::kHDate, now);
  history.Set(col::kHAmount, input.amount);
  history.Set(col::kHData, w_row.GetString(col::kWName) + "    " +
                               d_row.GetString(col::kDName));
  TELL_RETURN_NOT_OK(
      txn.Insert(tables_.history, history, /*check_unique=*/false).status());
  return FinishCommit(&txn);
}

Result<TxnOutcome> TpccExecutor::Delivery(const DeliveryInput& input) {
  tx::Transaction txn(session_, txn_options_);
  TELL_RETURN_NOT_OK(txn.Begin());
  int64_t w = input.warehouse;
  int64_t now = static_cast<int64_t>(session_->clock()->now_ns());

  // Clause 2.7.4: the oldest undelivered order of each district; districts
  // without one are skipped. The new-order scans of all districts go out as
  // one multi-range scan, then the orders as one batched lookup, and their
  // lines and customers as one more.
  std::vector<tx::IndexRange> ranges;
  for (int64_t d = 1; d <= 10; ++d) {
    TELL_ASSIGN_OR_RETURN(std::string lo,
                          schema::EncodeIndexKeyValues({Value(w), Value(d)}));
    TELL_ASSIGN_OR_RETURN(
        std::string hi, schema::EncodeIndexKeyValues({Value(w), Value(d + 1)}));
    ranges.push_back({tables_.new_order, /*index=*/-1, std::move(lo),
                      std::move(hi), /*limit=*/1});
  }
  TELL_ASSIGN_OR_RETURN(auto oldest, txn.BatchScanIndex(ranges));
  std::vector<int64_t> districts;
  std::vector<int64_t> order_ids;
  std::vector<tx::TableKey> order_keys;
  for (int64_t d = 1; d <= 10; ++d) {
    const auto& rows = oldest[static_cast<size_t>(d - 1)];
    if (rows.empty()) continue;
    int64_t o_id = rows[0].second.GetInt(col::kNoOId);
    TELL_RETURN_NOT_OK(txn.Delete(tables_.new_order, rows[0].first));
    districts.push_back(d);
    order_ids.push_back(o_id);
    order_keys.push_back({tables_.orders, {Value(w), Value(d), Value(o_id)}});
  }
  TELL_ASSIGN_OR_RETURN(std::vector<std::optional<uint64_t>> order_rids,
                        txn.BatchLookupPrimary(order_keys));

  // A delivered order: its district, customer and line count.
  struct Delivered {
    int64_t district;
    int64_t customer;
    size_t first_line;  // index of its first line key in `keys`
    int64_t line_count;
  };
  std::vector<Delivered> delivered;
  std::vector<tx::TableKey> keys;  // every order's lines, then the customers
  for (size_t i = 0; i < districts.size(); ++i) {
    if (!order_rids[i].has_value()) continue;  // should not happen
    TELL_ASSIGN_OR_RETURN(std::optional<Tuple> order,
                          txn.Read(tables_.orders, *order_rids[i]));
    if (!order.has_value()) continue;
    Tuple o_row = std::move(*order);
    const int64_t d = districts[i];
    delivered.push_back(
        {d, o_row.GetInt(col::kOCId), keys.size(), o_row.GetInt(col::kOOlCnt)});
    o_row.Set(col::kOCarrierId, input.carrier);
    TELL_RETURN_NOT_OK(txn.Update(tables_.orders, *order_rids[i], o_row));
    for (int64_t ol = 1; ol <= delivered.back().line_count; ++ol) {
      keys.push_back(
          {tables_.order_line, {Value(w), Value(d), Value(order_ids[i]),
                                Value(ol)}});
    }
  }
  const size_t first_customer = keys.size();
  for (const Delivered& order : delivered) {
    keys.push_back({tables_.customer,
                    {Value(w), Value(order.district), Value(order.customer)}});
  }
  TELL_ASSIGN_OR_RETURN(std::vector<std::optional<uint64_t>> rids,
                        txn.BatchLookupPrimary(keys));

  for (size_t i = 0; i < delivered.size(); ++i) {
    const Delivered& order = delivered[i];
    double total = 0;
    for (int64_t ol = 0; ol < order.line_count; ++ol) {
      const std::optional<uint64_t>& line_rid =
          rids[order.first_line + static_cast<size_t>(ol)];
      if (!line_rid.has_value()) continue;
      TELL_ASSIGN_OR_RETURN(std::optional<Tuple> line,
                            txn.Read(tables_.order_line, *line_rid));
      if (!line.has_value()) continue;
      Tuple l_row = std::move(*line);
      total += l_row.GetDouble(col::kOlAmount);
      l_row.Set(col::kOlDeliveryD, now);
      TELL_RETURN_NOT_OK(txn.Update(tables_.order_line, *line_rid, l_row));
    }

    const std::optional<uint64_t>& customer_rid = rids[first_customer + i];
    if (!customer_rid.has_value()) continue;
    TELL_ASSIGN_OR_RETURN(std::optional<Tuple> customer,
                          txn.Read(tables_.customer, *customer_rid));
    if (!customer.has_value()) continue;
    Tuple c_row = std::move(*customer);
    c_row.Set(col::kCBalance, c_row.GetDouble(col::kCBalance) + total);
    c_row.Set(col::kCDeliveryCnt, c_row.GetInt(col::kCDeliveryCnt) + 1);
    TELL_RETURN_NOT_OK(txn.Update(tables_.customer, *customer_rid, c_row));
  }
  return FinishCommit(&txn);
}

Result<TxnOutcome> TpccExecutor::OrderStatus(const OrderStatusInput& input) {
  tx::Transaction txn(session_, txn_options_);
  TELL_RETURN_NOT_OK(txn.Begin());
  int64_t w = input.warehouse;
  int64_t d = input.district;

  // Most recent order of the customer (orders-by-customer index). By id
  // that scan goes out with the customer's own; by name it needs the id the
  // name scan finds.
  auto orders_of = [&](int64_t c_id) -> Result<tx::IndexRange> {
    TELL_ASSIGN_OR_RETURN(
        std::string lo,
        schema::EncodeIndexKeyValues({Value(w), Value(d), Value(c_id)}));
    TELL_ASSIGN_OR_RETURN(
        std::string hi,
        schema::EncodeIndexKeyValues({Value(w), Value(d), Value(c_id + 1)}));
    return tx::IndexRange{tables_.orders, kOrdersByCustomerIndex,
                          std::move(lo), std::move(hi), /*limit=*/0};
  };
  TELL_ASSIGN_OR_RETURN(
      tx::IndexRange customer_range,
      CustomerRange(w, d, input.by_last_name, input.customer_id,
                    input.customer_last));
  std::vector<tx::IndexRange> ranges = {std::move(customer_range)};
  if (!input.by_last_name) {
    TELL_ASSIGN_OR_RETURN(tx::IndexRange orders,
                          orders_of(input.customer_id));
    ranges.push_back(std::move(orders));
  }
  TELL_ASSIGN_OR_RETURN(auto rows, txn.BatchScanIndex(ranges));
  std::optional<std::pair<uint64_t, Tuple>> customer =
      PickCustomer(std::move(rows[0]));
  if (!customer.has_value()) {
    // A NURand last name can miss under scaled-down population; that is a
    // completed (empty) read.
    return FinishCommit(&txn);
  }
  if (input.by_last_name) {
    TELL_ASSIGN_OR_RETURN(
        tx::IndexRange range,
        orders_of(customer->second.GetInt(col::kCId)));
    TELL_ASSIGN_OR_RETURN(auto more, txn.BatchScanIndex({range}));
    rows.push_back(std::move(more[0]));
  }
  const std::vector<std::pair<uint64_t, Tuple>>& orders = rows[1];
  if (orders.empty()) return FinishCommit(&txn);
  const Tuple& o_row = orders.back().second;
  int64_t o_id = o_row.GetInt(col::kOId);
  int64_t ol_cnt = o_row.GetInt(col::kOOlCnt);

  std::vector<tx::TableKey> line_keys;
  line_keys.reserve(static_cast<size_t>(ol_cnt));
  for (int64_t ol = 1; ol <= ol_cnt; ++ol) {
    line_keys.push_back(
        {tables_.order_line, {Value(w), Value(d), Value(o_id), Value(ol)}});
  }
  TELL_ASSIGN_OR_RETURN(auto line_rids, txn.BatchLookupPrimary(line_keys));
  for (const auto& line_rid : line_rids) {
    if (!line_rid.has_value()) continue;
    TELL_ASSIGN_OR_RETURN(std::optional<Tuple> line,
                          txn.Read(tables_.order_line, *line_rid));
    (void)line;
  }
  return FinishCommit(&txn);
}

Result<TxnOutcome> TpccExecutor::StockLevel(const StockLevelInput& input) {
  tx::Transaction txn(session_, txn_options_);
  TELL_RETURN_NOT_OK(txn.Begin());
  int64_t w = input.warehouse;
  int64_t d = input.district;

  TELL_ASSIGN_OR_RETURN(std::optional<Tuple> district,
                        txn.ReadByKey(tables_.district, {Value(w), Value(d)}));
  if (!district.has_value()) return Status::NotFound("district missing");
  int64_t next_o_id = district->GetInt(col::kDNextOId);

  // Clause 2.8.2.2: distinct items of the last 20 orders.
  int64_t from = std::max<int64_t>(1, next_o_id - 20);
  TELL_ASSIGN_OR_RETURN(
      auto lines,
      txn.ScanIndex(tables_.order_line, /*index=*/-1,
                    {Value(w), Value(d), Value(from)},
                    {Value(w), Value(d), Value(next_o_id)}, /*limit=*/0));
  std::vector<int64_t> item_ids;
  for (const auto& [rid, line] : lines) {
    item_ids.push_back(line.GetInt(col::kOlIId));
  }
  std::sort(item_ids.begin(), item_ids.end());
  item_ids.erase(std::unique(item_ids.begin(), item_ids.end()),
                 item_ids.end());

  // One batched lookup for every distinct item (clause 2.8.2.2 touches up
  // to 20 orders x 15 lines): the descents and record fetches are batched
  // instead of paying ~200 serial round trips.
  std::vector<tx::TableKey> stock_keys;
  stock_keys.reserve(item_ids.size());
  for (int64_t item : item_ids) {
    stock_keys.push_back({tables_.stock, {Value(w), Value(item)}});
  }
  TELL_ASSIGN_OR_RETURN(auto stock_rid_opts,
                        txn.BatchLookupPrimary(stock_keys));
  std::vector<uint64_t> stock_rids;
  for (const auto& rid : stock_rid_opts) {
    if (rid.has_value()) stock_rids.push_back(*rid);
  }
  TELL_ASSIGN_OR_RETURN(auto stocks, txn.BatchRead(tables_.stock, stock_rids));
  int64_t low_stock = 0;
  for (const auto& stock : stocks) {
    if (stock.has_value() &&
        stock->GetInt(col::kSQuantity) < input.threshold) {
      ++low_stock;
    }
  }
  (void)low_stock;
  return FinishCommit(&txn);
}

Result<TxnOutcome> TpccExecutor::Dispatch(const TxnInput& input) {
  switch (input.type) {
    case TxnType::kNewOrder:
      return NewOrder(input.new_order);
    case TxnType::kPayment:
      return Payment(input.payment);
    case TxnType::kDelivery:
      return Delivery(input.delivery);
    case TxnType::kOrderStatus:
      return OrderStatus(input.order_status);
    case TxnType::kStockLevel:
      return StockLevel(input.stock_level);
  }
  return Status::InvalidArgument("unknown type");
}

Result<TxnOutcome> TpccExecutor::Execute(const TxnInput& input) {
  Result<TxnOutcome> result = Dispatch(input);
  if (!result.ok() && (result.status().IsAborted() ||
                       result.status().IsNotFound())) {
    // Aborted: conflict detected mid-transaction (a newer invisible
    // version). NotFound: the snapshot is stale enough (multi-manager sync
    // delay, §4.2) that rows committed through another commit manager are
    // not visible yet — a legitimate consequence of delayed snapshots; the
    // terminal simply retries. The Transaction destructor notified the
    // commit manager either way.
    return TxnOutcome{};
  }
  return result;
}

}  // namespace tell::tpcc
