#include "sql/executor.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/logging.h"

namespace tell::sql {

using schema::Tuple;
using schema::Value;

bool ValueIsTruthy(const Value& value) {
  if (schema::ValueIsNull(value)) return false;
  if (const int64_t* i = std::get_if<int64_t>(&value)) return *i != 0;
  if (const double* d = std::get_if<double>(&value)) return *d != 0.0;
  return !std::get<std::string>(value).empty();
}

Result<Value> EvalExpr(const Expr* expr, const Tuple& tuple) {
  switch (expr->kind) {
    case Expr::Kind::kLiteral:
      return expr->literal;
    case Expr::Kind::kColumnRef:
      if (expr->column_index >= tuple.size()) {
        return Status::InternalError("unresolved column reference '" +
                                     expr->column_name + "'");
      }
      return tuple.at(expr->column_index);
    case Expr::Kind::kIsNull: {
      TELL_ASSIGN_OR_RETURN(Value child, EvalExpr(expr->child.get(), tuple));
      bool is_null = schema::ValueIsNull(child);
      return Value(static_cast<int64_t>(expr->negated ? !is_null : is_null));
    }
    case Expr::Kind::kNot: {
      TELL_ASSIGN_OR_RETURN(Value child, EvalExpr(expr->child.get(), tuple));
      return Value(static_cast<int64_t>(!ValueIsTruthy(child)));
    }
    case Expr::Kind::kBinary:
      break;
  }
  TELL_ASSIGN_OR_RETURN(Value left, EvalExpr(expr->left.get(), tuple));
  // Short-circuit logic ops.
  if (expr->op == BinaryOp::kAnd) {
    if (!ValueIsTruthy(left)) return Value(int64_t{0});
    TELL_ASSIGN_OR_RETURN(Value right, EvalExpr(expr->right.get(), tuple));
    return Value(static_cast<int64_t>(ValueIsTruthy(right)));
  }
  if (expr->op == BinaryOp::kOr) {
    if (ValueIsTruthy(left)) return Value(int64_t{1});
    TELL_ASSIGN_OR_RETURN(Value right, EvalExpr(expr->right.get(), tuple));
    return Value(static_cast<int64_t>(ValueIsTruthy(right)));
  }
  TELL_ASSIGN_OR_RETURN(Value right, EvalExpr(expr->right.get(), tuple));

  switch (expr->op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (schema::ValueIsNull(left) || schema::ValueIsNull(right)) {
        return Value(int64_t{0});  // NULL comparisons are never true
      }
      int cmp = schema::CompareValues(left, right);
      bool result = false;
      switch (expr->op) {
        case BinaryOp::kEq: result = cmp == 0; break;
        case BinaryOp::kNe: result = cmp != 0; break;
        case BinaryOp::kLt: result = cmp < 0; break;
        case BinaryOp::kLe: result = cmp <= 0; break;
        case BinaryOp::kGt: result = cmp > 0; break;
        case BinaryOp::kGe: result = cmp >= 0; break;
        default: break;
      }
      return Value(static_cast<int64_t>(result));
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (schema::ValueIsNull(left) || schema::ValueIsNull(right)) {
        return Value(std::monostate{});
      }
      bool both_int = std::holds_alternative<int64_t>(left) &&
                      std::holds_alternative<int64_t>(right);
      auto as_double = [](const Value& v) {
        if (const int64_t* i = std::get_if<int64_t>(&v)) {
          return static_cast<double>(*i);
        }
        if (const double* d = std::get_if<double>(&v)) return *d;
        return 0.0;
      };
      if (both_int) {
        int64_t a = std::get<int64_t>(left);
        int64_t b = std::get<int64_t>(right);
        switch (expr->op) {
          case BinaryOp::kAdd: return Value(a + b);
          case BinaryOp::kSub: return Value(a - b);
          case BinaryOp::kMul: return Value(a * b);
          case BinaryOp::kDiv:
            if (b == 0) return Status::InvalidArgument("division by zero");
            return Value(a / b);
          default: break;
        }
      }
      double a = as_double(left);
      double b = as_double(right);
      switch (expr->op) {
        case BinaryOp::kAdd: return Value(a + b);
        case BinaryOp::kSub: return Value(a - b);
        case BinaryOp::kMul: return Value(a * b);
        case BinaryOp::kDiv:
          if (b == 0.0) return Status::InvalidArgument("division by zero");
          return Value(a / b);
        default: break;
      }
      break;
    }
    default:
      break;
  }
  return Status::InternalError("unhandled binary operator");
}

std::string ResultSet::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < columns.size(); ++i) {
    out << (i == 0 ? "" : " | ") << columns[i];
  }
  if (!columns.empty()) out << "\n";
  for (const Tuple& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << (i == 0 ? "" : " | ") << schema::ValueToString(row.at(i));
    }
    out << "\n";
  }
  if (columns.empty()) {
    out << affected_rows << " row(s) affected\n";
  }
  return out.str();
}

Result<std::vector<std::pair<uint64_t, Tuple>>> Executor::FetchRows(
    tx::Transaction* txn, tx::TableHandle* handle,
    tx::TableRegistry* registry, const Plan& plan, const Expr* where,
    size_t limit) {
  std::vector<std::pair<uint64_t, Tuple>> rows;
  if (plan.join_table != nullptr) {
    TELL_ASSIGN_OR_RETURN(tx::TableHandle * right,
                          registry->Find(plan.join_table->name));
    TELL_ASSIGN_OR_RETURN(rows, HashJoin(txn, handle, right, plan));
  } else {
    switch (plan.access.kind) {
      case AccessPath::Kind::kIndexRange: {
        TELL_ASSIGN_OR_RETURN(
            rows, txn->ScanIndexEncoded(handle, plan.access.index,
                                        plan.access.range_lo,
                                        plan.access.range_hi, /*limit=*/0));
        break;
      }
      case AccessPath::Kind::kFullScan: {
        // Every full scan is a storage-side scan fragment. Operator
        // pushdown (§5.2) decides only where the WHERE clause runs: in the
        // fragment, so only matching rows cross the network and a LIMIT
        // stops every partition early, or on this node below.
        if (pushdown_ && where != nullptr) {
          return txn->FilteredScan(
              handle,
              [where](const Tuple& tuple) -> Result<bool> {
                TELL_ASSIGN_OR_RETURN(Value pass, EvalExpr(where, tuple));
                return ValueIsTruthy(pass);
              },
              limit);
        }
        TELL_ASSIGN_OR_RETURN(
            rows, txn->FilteredScan(handle, nullptr,
                                    where == nullptr ? limit : 0));
        break;
      }
    }
  }
  if (where == nullptr) return rows;
  std::vector<std::pair<uint64_t, Tuple>> filtered;
  filtered.reserve(rows.size());
  for (auto& [rid, tuple] : rows) {
    TELL_ASSIGN_OR_RETURN(Value pass, EvalExpr(where, tuple));
    if (ValueIsTruthy(pass)) filtered.emplace_back(rid, std::move(tuple));
  }
  return filtered;
}

namespace {

// ORDER BY, resolved by the planner: select-star orders by source columns
// (identical to output columns for star), projections by output position.
void ApplyOrderByAndLimit(const Plan& plan, ResultSet* result) {
  if (!plan.order_by.empty()) {
    std::stable_sort(
        result->rows.begin(), result->rows.end(),
        [&](const Tuple& a, const Tuple& b) {
          for (const Plan::ResolvedOrderBy& key : plan.order_by) {
            int cmp = schema::CompareValues(a.at(key.index), b.at(key.index));
            if (cmp != 0) return key.descending ? cmp > 0 : cmp < 0;
          }
          return false;
        });
  }
  if (plan.statement.select.limit.has_value() &&
      result->rows.size() > *plan.statement.select.limit) {
    result->rows.resize(*plan.statement.select.limit);
  }
}

// A full scan's rows arrive unbuffered: one batched read buffers an
// UPDATE's or DELETE's targets, so its per-row writes fetch nothing.
Status BufferTargets(tx::Transaction* txn, tx::TableHandle* handle,
                     const Plan& plan,
                     const std::vector<std::pair<uint64_t, Tuple>>& rows) {
  if (plan.access.kind != AccessPath::Kind::kFullScan) return Status::OK();
  std::vector<uint64_t> rids;
  rids.reserve(rows.size());
  for (const auto& [rid, tuple] : rows) rids.push_back(rid);
  return txn->BatchRead(handle, rids).status();
}

}  // namespace

Result<std::vector<std::pair<uint64_t, Tuple>>> Executor::HashJoin(
    tx::Transaction* txn, tx::TableHandle* left, tx::TableHandle* right,
    const Plan& plan) {
  // Materialize both sides ("data is shipped to the query") and hash-join
  // on the equality columns. Any PN can do this over any tables — there is
  // no cross-partition restriction in a shared-data architecture.
  TELL_ASSIGN_OR_RETURN(auto left_rows, txn->FilteredScan(left, nullptr));
  TELL_ASSIGN_OR_RETURN(auto right_rows, txn->FilteredScan(right, nullptr));
  std::unordered_map<std::string, std::vector<const Tuple*>> build;
  build.reserve(right_rows.size());
  for (const auto& [rid, tuple] : right_rows) {
    const Value& key = tuple.at(plan.join_right_column);
    if (schema::ValueIsNull(key)) continue;  // NULL never joins
    auto encoded = schema::EncodeIndexKeyValues({key});
    if (!encoded.ok()) continue;
    build[*encoded].push_back(&tuple);
  }
  std::vector<std::pair<uint64_t, Tuple>> out;
  for (const auto& [rid, tuple] : left_rows) {
    const Value& key = tuple.at(plan.join_left_column);
    if (schema::ValueIsNull(key)) continue;
    auto encoded = schema::EncodeIndexKeyValues({key});
    if (!encoded.ok()) continue;
    auto it = build.find(*encoded);
    if (it == build.end()) continue;
    for (const Tuple* match : it->second) {
      std::vector<Value> combined = tuple.values();
      combined.insert(combined.end(), match->values().begin(),
                      match->values().end());
      out.emplace_back(rid, Tuple(std::move(combined)));
    }
  }
  return out;
}

Result<ResultSet> Executor::ExecuteSelect(tx::Transaction* txn,
                                          tx::TableHandle* handle,
                                          tx::TableRegistry* registry,
                                          const Plan& plan) {
  const SelectStatement& select = plan.statement.select;
  if (plan.fragment.has_value()) {
    return ExecuteAggregate(txn, handle, registry, plan);
  }

  // A LIMIT can stop storage-side scans early only when no executor stage
  // after the scan (join, ORDER BY) can change which rows make the cut.
  size_t fetch_limit = 0;
  if (select.limit.has_value() && plan.join_table == nullptr &&
      plan.order_by.empty()) {
    fetch_limit = *select.limit;
  }
  TELL_ASSIGN_OR_RETURN(auto rows,
                        FetchRows(txn, handle, registry, plan,
                                  select.where.get(), fetch_limit));

  ResultSet result;
  result.columns = plan.output_columns;
  for (const auto& [rid, tuple] : rows) {
    if (select.select_star) {
      result.rows.push_back(tuple);
      continue;
    }
    Tuple out(select.items.size());
    for (size_t i = 0; i < select.items.size(); ++i) {
      TELL_ASSIGN_OR_RETURN(Value v,
                            EvalExpr(select.items[i].expr.get(), tuple));
      out.Set(i, std::move(v));
    }
    result.rows.push_back(std::move(out));
  }
  ApplyOrderByAndLimit(plan, &result);
  return result;
}

Result<ResultSet> Executor::ExecuteAggregate(tx::Transaction* txn,
                                             tx::TableHandle* handle,
                                             tx::TableRegistry* registry,
                                             const Plan& plan) {
  const ScanFragment& fragment = *plan.fragment;
  const schema::Schema& schema = handle->meta->schema;
  std::vector<std::unique_ptr<store::FragmentSink>> sinks;
  // Storage-side fold, one sink per partition.
  if (pushdown_ && plan.join_table == nullptr &&
      plan.access.kind == AccessPath::Kind::kFullScan &&
      txn->CanFoldOnStorage(handle)) {
    // The visibility closure carries the transaction's snapshot to the
    // storage nodes; every chunk of every partition is judged under it, so
    // the fragmented scan sees one consistent snapshot.
    auto visible = txn->VisibilityClosure();
    TELL_ASSIGN_OR_RETURN(
        store::FragmentScanOutcome outcome,
        txn->ExecuteScanFragment(
            handle, fragment.SerializeDescriptor().size(),
            [&schema, &fragment, &visible](uint32_t) {
              return std::unique_ptr<store::FragmentSink>(
                  new AggregateFragmentSink(&schema, &fragment, visible));
            }));
    sinks = std::move(outcome.sinks);
  } else {
    // The fold applies the fragment's predicate, the WHERE clause.
    TELL_ASSIGN_OR_RETURN(auto rows, FetchRows(txn, handle, registry, plan,
                                               /*where=*/nullptr));
    auto sink =
        std::make_unique<AggregateFragmentSink>(&schema, &fragment, nullptr);
    for (const auto& [rid, tuple] : rows) {
      TELL_RETURN_NOT_OK(sink->Fold(rid, tuple).status());
    }
    sinks.push_back(std::move(sink));
  }

  // Merge the partial states; the map orders groups by key.
  std::map<std::string, AggregateFragmentSink::GroupState> merged;
  for (const auto& sink : sinks) {
    MergeGroupStates(static_cast<AggregateFragmentSink*>(sink.get())->groups(),
                     &merged);
  }
  if (merged.empty() && fragment.group_by.empty()) {
    // SELECT COUNT(*) over an empty table still yields one row.
    AggregateFragmentSink::GroupState empty;
    empty.first_values.resize(fragment.items.size());
    empty.folds.resize(fragment.items.size());
    merged.emplace("", std::move(empty));
  }

  ResultSet result;
  result.columns = plan.output_columns;
  for (const auto& [key, state] : merged) {
    Tuple out(fragment.items.size());
    for (size_t i = 0; i < fragment.items.size(); ++i) {
      const ScanFragment::AggSpec& spec = fragment.items[i];
      if (spec.func == AggregateFunc::kNone) {
        // Plain item: the group's lowest-rid member's value (NULL when the
        // group is empty).
        out.Set(i, state.count_star == 0 ? Value(std::monostate{})
                                         : state.first_values[i]);
        continue;
      }
      if (spec.count_star) {
        out.Set(i, static_cast<int64_t>(state.count_star));
        continue;
      }
      out.Set(i, state.folds[i].Final(spec.func));
    }
    result.rows.push_back(std::move(out));
  }
  ApplyOrderByAndLimit(plan, &result);
  return result;
}

Result<ResultSet> Executor::ExecuteInsert(tx::Transaction* txn,
                                          tx::TableHandle* handle,
                                          const Plan& plan) {
  const InsertStatement& insert = plan.statement.insert;
  const schema::Schema& schema = handle->meta->schema;
  ResultSet result;
  for (const auto& row : insert.rows) {
    Tuple tuple(schema.num_columns());
    if (insert.columns.empty()) {
      for (size_t i = 0; i < row.size(); ++i) {
        TELL_ASSIGN_OR_RETURN(Value v, EvalExpr(row[i].get(), tuple));
        tuple.Set(i, std::move(v));
      }
    } else {
      for (size_t i = 0; i < insert.columns.size(); ++i) {
        TELL_ASSIGN_OR_RETURN(uint32_t idx,
                              schema.ColumnIndex(insert.columns[i]));
        TELL_ASSIGN_OR_RETURN(Value v, EvalExpr(row[i].get(), tuple));
        tuple.Set(idx, std::move(v));
      }
    }
    TELL_RETURN_NOT_OK(txn->Insert(handle, tuple).status());
    ++result.affected_rows;
  }
  return result;
}

Result<ResultSet> Executor::ExecuteUpdate(tx::Transaction* txn,
                                          tx::TableHandle* handle,
                                          tx::TableRegistry* registry,
                                          const Plan& plan) {
  const UpdateStatement& update = plan.statement.update;
  const schema::Schema& schema = handle->meta->schema;
  TELL_ASSIGN_OR_RETURN(auto rows, FetchRows(txn, handle, registry, plan,
                                             update.where.get()));
  TELL_RETURN_NOT_OK(BufferTargets(txn, handle, plan, rows));
  ResultSet result;
  for (auto& [rid, tuple] : rows) {
    Tuple updated = tuple;
    for (const auto& [column, expr] : update.assignments) {
      TELL_ASSIGN_OR_RETURN(uint32_t idx, schema.ColumnIndex(column));
      TELL_ASSIGN_OR_RETURN(Value v, EvalExpr(expr.get(), tuple));
      updated.Set(idx, std::move(v));
    }
    TELL_RETURN_NOT_OK(txn->Update(handle, rid, updated));
    ++result.affected_rows;
  }
  return result;
}

Result<ResultSet> Executor::ExecuteDelete(tx::Transaction* txn,
                                          tx::TableHandle* handle,
                                          tx::TableRegistry* registry,
                                          const Plan& plan) {
  const DeleteStatement& del = plan.statement.delete_;
  TELL_ASSIGN_OR_RETURN(
      auto rows, FetchRows(txn, handle, registry, plan, del.where.get()));
  TELL_RETURN_NOT_OK(BufferTargets(txn, handle, plan, rows));
  ResultSet result;
  for (const auto& [rid, tuple] : rows) {
    TELL_RETURN_NOT_OK(txn->Delete(handle, rid));
    ++result.affected_rows;
  }
  return result;
}

Result<ResultSet> Executor::Execute(tx::Transaction* txn,
                                    tx::TableRegistry* registry,
                                    const Plan& plan) {
  if (plan.table == nullptr) {
    return Status::InvalidArgument("DDL statements go through the database");
  }
  TELL_ASSIGN_OR_RETURN(tx::TableHandle * handle,
                        registry->Find(plan.table->name));
  switch (plan.statement.kind) {
    case Statement::Kind::kSelect:
      return ExecuteSelect(txn, handle, registry, plan);
    case Statement::Kind::kInsert:
      return ExecuteInsert(txn, handle, plan);
    case Statement::Kind::kUpdate:
      return ExecuteUpdate(txn, handle, registry, plan);
    case Statement::Kind::kDelete:
      return ExecuteDelete(txn, handle, registry, plan);
    default:
      return Status::InvalidArgument("unsupported statement kind");
  }
}

}  // namespace tell::sql
