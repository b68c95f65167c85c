#ifndef TELL_WORKLOAD_TPCC_TPCC_TRANSACTIONS_H_
#define TELL_WORKLOAD_TPCC_TPCC_TRANSACTIONS_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "tx/transaction.h"
#include "workload/tpcc/tpcc_schema.h"

namespace tell::tpcc {

// ---------------------------------------------------------------------------
// Transaction inputs (shared by the Tell executor and the baseline engines).

struct NewOrderLine {
  int64_t item_id;
  int64_t supply_warehouse;
  int64_t quantity;
};

struct NewOrderInput {
  int64_t warehouse;
  int64_t district;
  int64_t customer;
  std::vector<NewOrderLine> lines;
  /// Clause 2.4.1.4: 1% of new-orders carry an unused item id and must roll
  /// back at the end.
  bool rollback = false;
  /// True if any line supplies from a remote warehouse (clause 2.4.1.5.2).
  bool remote = false;
};

struct PaymentInput {
  int64_t warehouse;
  int64_t district;
  int64_t customer_warehouse;  // != warehouse in 15% of cases
  int64_t customer_district;
  bool by_last_name = false;  // 60% select by last name
  int64_t customer_id = 0;
  std::string customer_last;
  double amount = 0;
  bool remote = false;
};

struct DeliveryInput {
  int64_t warehouse;
  int64_t carrier;
};

struct OrderStatusInput {
  int64_t warehouse;
  int64_t district;
  bool by_last_name = false;
  int64_t customer_id = 0;
  std::string customer_last;
};

struct StockLevelInput {
  int64_t warehouse;
  int64_t district;
  int64_t threshold;  // 10..20
};

enum class TxnType : int {
  kNewOrder = 0,
  kPayment,
  kDelivery,
  kOrderStatus,
  kStockLevel,
};

struct TxnInput {
  TxnType type;
  NewOrderInput new_order;
  PaymentInput payment;
  DeliveryInput delivery;
  OrderStatusInput order_status;
  StockLevelInput stock_level;
};

/// Workload mixes from the paper's Table 2.
enum class Mix {
  /// Standard TPC-C: 45% new-order, 43% payment, 4% delivery,
  /// 4% order-status, 4% stock-level; 35.84% writes.
  kWriteIntensive,
  /// Read-intensive: 9% new-order, 84% order-status, 7% stock-level;
  /// 4.89% writes.
  kReadIntensive,
  /// Standard percentages, but remote new-order and remote payment replaced
  /// with single-warehouse equivalents (§6.4, "TPC-C shardable").
  kShardable,
};

/// Generates transaction inputs per the spec's terminal rules. Each worker
/// owns one generator (deterministic per seed). `home_warehouse` anchors
/// the terminal (clause 2.4.1.1: terminals are bound to a warehouse).
class InputGenerator {
 public:
  InputGenerator(const TpccScale& scale, Mix mix, uint64_t seed,
                 int64_t home_warehouse)
      : scale_(scale), mix_(mix), rng_(seed), home_(home_warehouse) {}

  TxnInput Next();

  Random* rng() { return &rng_; }

 private:
  NewOrderInput MakeNewOrder();
  PaymentInput MakePayment();
  DeliveryInput MakeDelivery();
  OrderStatusInput MakeOrderStatus();
  StockLevelInput MakeStockLevel();
  int64_t NURandCustomer();
  std::string NURandLastName();

  const TpccScale scale_;
  const Mix mix_;
  Random rng_;
  const int64_t home_;
};

// ---------------------------------------------------------------------------
// Tell executor

/// Per-transaction outcome counters the driver aggregates.
struct TxnOutcome {
  bool committed = false;
  bool user_abort = false;  // intentional rollback (1% of new-orders)
};

/// Executes TPC-C transactions on Tell through the native transaction API
/// (the equivalent of pre-compiled plans; no SQL parsing on the hot path).
class TpccExecutor {
 public:
  /// `txn_options` applies to every transaction (e.g. serializable SI for
  /// the ablation bench).
  TpccExecutor(tx::Session* session, const TpccTables& tables,
               const tx::TxnOptions& txn_options = {})
      : session_(session), tables_(tables), txn_options_(txn_options) {}

  /// Runs one transaction; Aborted status = write-write conflict (counted
  /// by the session metrics automatically).
  Result<TxnOutcome> Execute(const TxnInput& input);

  Result<TxnOutcome> NewOrder(const NewOrderInput& input);
  Result<TxnOutcome> Payment(const PaymentInput& input);
  Result<TxnOutcome> Delivery(const DeliveryInput& input);
  Result<TxnOutcome> OrderStatus(const OrderStatusInput& input);
  Result<TxnOutcome> StockLevel(const StockLevelInput& input);

 private:
  /// The BatchScanIndex range that selects a customer per clause 2.5.2.2:
  /// the primary-key point by id, or every customer with the last name
  /// (name index, ordered by first name). The customer is the middle row of
  /// its result.
  Result<tx::IndexRange> CustomerRange(int64_t w, int64_t d,
                                       bool by_last_name, int64_t c_id,
                                       const std::string& c_last) const;

  Result<TxnOutcome> Dispatch(const TxnInput& input);

  tx::Session* const session_;
  TpccTables tables_;
  const tx::TxnOptions txn_options_;
};

}  // namespace tell::tpcc

#endif  // TELL_WORKLOAD_TPCC_TPCC_TRANSACTIONS_H_
