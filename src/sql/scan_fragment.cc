#include "sql/scan_fragment.h"

#include <algorithm>
#include <variant>

#include "common/serde.h"
#include "sql/executor.h"

namespace tell::sql {

using schema::Value;

void AggFold::Add(const Value& v) {
  if (schema::ValueIsNull(v)) return;
  double d = std::holds_alternative<int64_t>(v)
                 ? static_cast<double>(std::get<int64_t>(v))
                 : (std::holds_alternative<double>(v) ? std::get<double>(v)
                                                      : 0.0);
  sum += d;
  if (count == 0 || schema::CompareValues(v, min_v) < 0) min_v = v;
  if (count == 0 || schema::CompareValues(v, max_v) > 0) max_v = v;
  ++count;
}

void AggFold::MergeFrom(const AggFold& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  sum += other.sum;
  // Strict comparisons keep the earlier partial's value on ties, matching
  // the sequential fold's first-seen tie-break.
  if (schema::CompareValues(other.min_v, min_v) < 0) min_v = other.min_v;
  if (schema::CompareValues(other.max_v, max_v) > 0) max_v = other.max_v;
  count += other.count;
}

Value AggFold::Final(AggregateFunc func) const {
  switch (func) {
    case AggregateFunc::kCount:
      return Value(count);
    case AggregateFunc::kSum:
      return count == 0 ? Value(std::monostate{}) : Value(sum);
    case AggregateFunc::kAvg:
      return count == 0 ? Value(std::monostate{})
                        : Value(sum / static_cast<double>(count));
    case AggregateFunc::kMin:
      return count == 0 ? Value(std::monostate{}) : min_v;
    case AggregateFunc::kMax:
      return count == 0 ? Value(std::monostate{}) : max_v;
    default:
      return Value(std::monostate{});
  }
}

void AppendGroupKey(const Value& value, std::string* key) {
  *key += schema::ValueToString(value);
  key->push_back('\x1F');
}

namespace {

/// Wire encoding of one Value: a type tag plus the payload. Used for both
/// the descriptor (literal operands) and the partial states; the sizes are
/// what the network model charges.
void SerializeValue(const Value& value, BufferWriter* out) {
  if (std::holds_alternative<std::monostate>(value)) {
    out->PutU8(0);
    return;
  }
  if (const int64_t* i = std::get_if<int64_t>(&value)) {
    out->PutU8(1);
    out->PutI64(*i);
    return;
  }
  if (const double* d = std::get_if<double>(&value)) {
    out->PutU8(2);
    out->PutDouble(*d);
    return;
  }
  out->PutU8(3);
  out->PutString(std::get<std::string>(value));
}

/// Recursive expression encoding: kind byte, then the node's operands.
void SerializeExpr(const Expr* expr, BufferWriter* out) {
  out->PutU8(static_cast<uint8_t>(expr->kind));
  switch (expr->kind) {
    case Expr::Kind::kLiteral:
      SerializeValue(expr->literal, out);
      return;
    case Expr::Kind::kColumnRef:
      out->PutU32(expr->column_index);
      return;
    case Expr::Kind::kIsNull:
      out->PutU8(expr->negated ? 1 : 0);
      SerializeExpr(expr->child.get(), out);
      return;
    case Expr::Kind::kNot:
      SerializeExpr(expr->child.get(), out);
      return;
    case Expr::Kind::kBinary:
      out->PutU8(static_cast<uint8_t>(expr->op));
      SerializeExpr(expr->left.get(), out);
      SerializeExpr(expr->right.get(), out);
      return;
  }
}

void CollectColumns(const Expr* expr, std::vector<uint32_t>* columns) {
  if (expr == nullptr) return;
  switch (expr->kind) {
    case Expr::Kind::kColumnRef:
      columns->push_back(expr->column_index);
      return;
    case Expr::Kind::kIsNull:
    case Expr::Kind::kNot:
      CollectColumns(expr->child.get(), columns);
      return;
    case Expr::Kind::kBinary:
      CollectColumns(expr->left.get(), columns);
      CollectColumns(expr->right.get(), columns);
      return;
    case Expr::Kind::kLiteral:
      return;
  }
}

}  // namespace

std::vector<uint32_t> CollectFragmentColumns(const ScanFragment& fragment) {
  std::vector<uint32_t> columns;
  CollectColumns(fragment.predicate, &columns);
  for (const ScanFragment::AggSpec& item : fragment.items) {
    CollectColumns(item.expr, &columns);
  }
  columns.insert(columns.end(), fragment.group_by.begin(),
                 fragment.group_by.end());
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  return columns;
}

std::string ScanFragment::SerializeDescriptor() const {
  BufferWriter out;
  out.PutU8(predicate != nullptr ? 1 : 0);
  if (predicate != nullptr) SerializeExpr(predicate, &out);
  out.PutU32(static_cast<uint32_t>(items.size()));
  for (const AggSpec& item : items) {
    out.PutU8(static_cast<uint8_t>(item.func));
    out.PutU8(item.count_star ? 1 : 0);
    if (item.expr != nullptr) SerializeExpr(item.expr, &out);
  }
  out.PutU32(static_cast<uint32_t>(group_by.size()));
  for (uint32_t column : group_by) out.PutU32(column);
  out.PutU32(static_cast<uint32_t>(columns_needed.size()));
  for (uint32_t column : columns_needed) out.PutU32(column);
  return out.Release();
}

bool AggregateFragmentSink::Absorb(std::string_view key,
                                   std::string_view value,
                                   uint64_t /*stamp*/) {
  if (!status_.ok()) return false;
  if (key.size() != 8) return true;  // not a rid-keyed data cell
  payload_.clear();
  if (!visible_(value, &payload_)) return true;
  auto tuple = schema::Tuple::Deserialize(*schema_, payload_);
  Result<bool> matched =
      tuple.ok() ? Fold(DecodeOrderedU64(key), *tuple) : tuple.status();
  if (!matched.ok()) {
    status_ = matched.status();
    return false;
  }
  if (*matched) baseline_bytes_ += key.size() + payload_.size() + 16;
  return true;
}

Result<bool> AggregateFragmentSink::Fold(uint64_t rid,
                                         const schema::Tuple& tuple) {
  if (fragment_->predicate != nullptr) {
    TELL_ASSIGN_OR_RETURN(Value pass, EvalExpr(fragment_->predicate, tuple));
    if (!ValueIsTruthy(pass)) return false;
  }
  std::string group_key;
  for (uint32_t column : fragment_->group_by) {
    AppendGroupKey(tuple.at(column), &group_key);
  }
  const std::vector<ScanFragment::AggSpec>& items = fragment_->items;
  auto [it, inserted] = groups_.try_emplace(std::move(group_key));
  GroupState& group = it->second;
  if (inserted) {
    group.first_values.resize(items.size());
    group.folds.resize(items.size());
  }
  // The lowest-rid member supplies the plain items. A storage-side scan
  // feeds cells in rid order, so there only a group's first tuple sets them.
  if (inserted || rid < group.first_rid) {
    group.first_rid = rid;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].func != AggregateFunc::kNone) continue;
      TELL_ASSIGN_OR_RETURN(group.first_values[i],
                            EvalExpr(items[i].expr, tuple));
    }
  }
  ++group.count_star;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].func == AggregateFunc::kNone || items[i].count_star) continue;
    TELL_ASSIGN_OR_RETURN(Value v, EvalExpr(items[i].expr, tuple));
    group.folds[i].Add(v);
  }
  return true;
}

std::string AggregateFragmentSink::Finish() {
  BufferWriter out;
  out.PutU32(static_cast<uint32_t>(groups_.size()));
  for (const auto& [key, group] : groups_) {
    out.PutString(key);
    out.PutU64(group.first_rid);
    out.PutI64(group.count_star);
    for (size_t i = 0; i < fragment_->items.size(); ++i) {
      const ScanFragment::AggSpec& item = fragment_->items[i];
      if (item.func == AggregateFunc::kNone) {
        SerializeValue(group.first_values[i], &out);
      } else if (item.count_star) {
        // COUNT(*) rides on the group's count_star; no extra bytes.
      } else {
        const AggFold& fold = group.folds[i];
        out.PutI64(fold.count);
        out.PutDouble(fold.sum);
        SerializeValue(fold.min_v, &out);
        SerializeValue(fold.max_v, &out);
      }
    }
  }
  return out.Release();
}

void MergeGroupStates(
    const std::map<std::string, AggregateFragmentSink::GroupState>& from,
    std::map<std::string, AggregateFragmentSink::GroupState>* into) {
  for (const auto& [key, group] : from) {
    auto [it, inserted] = into->try_emplace(key, group);
    if (inserted) continue;
    AggregateFragmentSink::GroupState& merged = it->second;
    if (group.first_rid < merged.first_rid) {
      merged.first_rid = group.first_rid;
      merged.first_values = group.first_values;
    }
    merged.count_star += group.count_star;
    for (size_t i = 0; i < merged.folds.size() && i < group.folds.size();
         ++i) {
      merged.folds[i].MergeFrom(group.folds[i]);
    }
  }
}

}  // namespace tell::sql
