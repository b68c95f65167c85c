#ifndef TELL_SQL_EXECUTOR_H_
#define TELL_SQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sql/planner.h"
#include "tx/transaction.h"

namespace tell::sql {

/// Result of a statement: rows for queries, affected-row count for DML.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<schema::Tuple> rows;
  uint64_t affected_rows = 0;

  std::string ToString() const;  // simple ASCII table (examples / debugging)
};

/// Evaluates a resolved expression against a tuple. Comparison and logic
/// results are int64 0/1; NULL propagates through comparisons and
/// arithmetic (three-valued logic reduced to "NULL is falsy").
Result<schema::Value> EvalExpr(const Expr* expr, const schema::Tuple& tuple);

/// True if `value` counts as true in a WHERE context.
bool ValueIsTruthy(const schema::Value& value);

/// Executes planned statements inside a transaction, using the iterator
/// model over the access paths chosen by the planner ("data is shipped to
/// the query", paper §2.1). Stateless — one instance per PN is fine.
class Executor {
 public:
  /// `pushdown` enables §5.2 operator push-down: full-table scans evaluate
  /// the WHERE clause, and aggregates fold, on the storage nodes.
  explicit Executor(bool pushdown = false) : pushdown_(pushdown) {}

  /// Runs a DML/query plan. DDL plans are rejected (the database layer owns
  /// DDL).
  Result<ResultSet> Execute(tx::Transaction* txn, tx::TableRegistry* registry,
                            const Plan& plan);

 private:
  /// The rows a statement reads, filtered by `where`: the hash join of both
  /// tables, or the plan's access path. A full scan is always
  /// Transaction::FilteredScan; with pushdown the WHERE clause runs inside
  /// it. Full scans return rows in rid order, index paths in index-key
  /// order. `limit` (0 = none) stops storage-side scans early when the
  /// statement's LIMIT can be applied before any residual executor work.
  Result<std::vector<std::pair<uint64_t, schema::Tuple>>> FetchRows(
      tx::Transaction* txn, tx::TableHandle* handle,
      tx::TableRegistry* registry, const Plan& plan, const Expr* where,
      size_t limit = 0);

  Result<ResultSet> ExecuteSelect(tx::Transaction* txn,
                                  tx::TableHandle* handle,
                                  tx::TableRegistry* registry,
                                  const Plan& plan);

  /// Every aggregate and/or GROUP BY SELECT: folds through the plan's
  /// ScanFragment, storage-side (one sink per partition, an O(groups)
  /// response) when pushdown is on, the plan is a full scan without join
  /// and Transaction::CanFoldOnStorage allows it; otherwise one sink on
  /// this node fed FetchRows' unfiltered rows, applying the WHERE clause
  /// itself. Both merge and finalize alike.
  Result<ResultSet> ExecuteAggregate(tx::Transaction* txn,
                                     tx::TableHandle* handle,
                                     tx::TableRegistry* registry,
                                     const Plan& plan);

  /// Materializes both tables in full and hash-joins on the planned
  /// equality; rows keep the left table's rid order.
  Result<std::vector<std::pair<uint64_t, schema::Tuple>>> HashJoin(
      tx::Transaction* txn, tx::TableHandle* left, tx::TableHandle* right,
      const Plan& plan);
  Result<ResultSet> ExecuteInsert(tx::Transaction* txn,
                                  tx::TableHandle* handle, const Plan& plan);
  Result<ResultSet> ExecuteUpdate(tx::Transaction* txn,
                                  tx::TableHandle* handle,
                                  tx::TableRegistry* registry,
                                  const Plan& plan);
  Result<ResultSet> ExecuteDelete(tx::Transaction* txn,
                                  tx::TableHandle* handle,
                                  tx::TableRegistry* registry,
                                  const Plan& plan);

  const bool pushdown_;
};

}  // namespace tell::sql

#endif  // TELL_SQL_EXECUTOR_H_
