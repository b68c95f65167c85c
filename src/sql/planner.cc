#include "sql/planner.h"

#include <algorithm>
#include <map>

#include "schema/tuple.h"

namespace tell::sql {

namespace {

/// Resolves "col" / "table.col" names into positions of the (possibly
/// concatenated) source tuple. For joins, left columns come first and right
/// columns are appended.
class NameResolver {
 public:
  /// `left_name`/`right_name` are the names column refs may qualify with
  /// (the table name, or its alias when the query declares one).
  NameResolver(const tx::TableMeta* left, const std::string& left_name,
               const tx::TableMeta* right, const std::string& right_name) {
    AddTable(left, left_name, 0);
    if (right != nullptr) {
      AddTable(right, right_name,
               static_cast<uint32_t>(left->schema.num_columns()));
    }
  }

  Result<uint32_t> Resolve(const std::string& name) const {
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("no column '" + name + "'");
    }
    if (it->second < 0) {
      return Status::InvalidArgument("ambiguous column '" + name +
                                     "' — qualify it as table.column");
    }
    return static_cast<uint32_t>(it->second);
  }

  /// Column names for SELECT *: plain when unique, table-qualified when the
  /// same name exists on both sides.
  std::vector<std::string> StarColumnNames() const { return star_names_; }

 private:
  void AddTable(const tx::TableMeta* table, const std::string& name,
                uint32_t offset) {
    for (uint32_t i = 0; i < table->schema.num_columns(); ++i) {
      const std::string& column = table->schema.column(i).name;
      std::string qualified = name + "." + column;
      entries_[qualified] = static_cast<int>(offset + i);
      auto [it, inserted] =
          entries_.emplace(column, static_cast<int>(offset + i));
      if (!inserted) it->second = -1;  // ambiguous
      star_names_.push_back(column);
    }
  }

  std::map<std::string, int> entries_;
  std::vector<std::string> star_names_;
};

/// Resolves every column reference in the expression tree through the
/// resolver (join-aware).
Status ResolveExprNames(Expr* expr, const NameResolver& resolver) {
  if (expr == nullptr) return Status::OK();
  switch (expr->kind) {
    case Expr::Kind::kColumnRef: {
      TELL_ASSIGN_OR_RETURN(expr->column_index,
                            resolver.Resolve(expr->column_name));
      return Status::OK();
    }
    case Expr::Kind::kBinary:
      TELL_RETURN_NOT_OK(ResolveExprNames(expr->left.get(), resolver));
      return ResolveExprNames(expr->right.get(), resolver);
    case Expr::Kind::kNot:
    case Expr::Kind::kIsNull:
      return ResolveExprNames(expr->child.get(), resolver);
    case Expr::Kind::kLiteral:
      return Status::OK();
  }
  return Status::OK();
}

/// Resolves every column reference in the expression tree to its positional
/// index in `schema`.
Status ResolveExpr(Expr* expr, const schema::Schema& schema) {
  if (expr == nullptr) return Status::OK();
  switch (expr->kind) {
    case Expr::Kind::kColumnRef: {
      TELL_ASSIGN_OR_RETURN(expr->column_index,
                            schema.ColumnIndex(expr->column_name));
      return Status::OK();
    }
    case Expr::Kind::kBinary:
      TELL_RETURN_NOT_OK(ResolveExpr(expr->left.get(), schema));
      return ResolveExpr(expr->right.get(), schema);
    case Expr::Kind::kNot:
    case Expr::Kind::kIsNull:
      return ResolveExpr(expr->child.get(), schema);
    case Expr::Kind::kLiteral:
      return Status::OK();
  }
  return Status::OK();
}

/// One extracted conjunct of the form <column op literal>.
struct Constraint {
  uint32_t column;
  BinaryOp op;
  schema::Value value;
};

/// Collects `col op literal` / `literal op col` conjuncts from the top-level
/// AND tree. ORs and anything fancier stay in the residual only.
void CollectConstraints(const Expr* expr, std::vector<Constraint>* out) {
  if (expr == nullptr) return;
  if (expr->kind != Expr::Kind::kBinary) return;
  if (expr->op == BinaryOp::kAnd) {
    CollectConstraints(expr->left.get(), out);
    CollectConstraints(expr->right.get(), out);
    return;
  }
  auto flip = [](BinaryOp op) {
    switch (op) {
      case BinaryOp::kLt:
        return BinaryOp::kGt;
      case BinaryOp::kLe:
        return BinaryOp::kGe;
      case BinaryOp::kGt:
        return BinaryOp::kLt;
      case BinaryOp::kGe:
        return BinaryOp::kLe;
      default:
        return op;
    }
  };
  const Expr* left = expr->left.get();
  const Expr* right = expr->right.get();
  if (left == nullptr || right == nullptr) return;
  BinaryOp op = expr->op;
  if (op != BinaryOp::kEq && op != BinaryOp::kLt && op != BinaryOp::kLe &&
      op != BinaryOp::kGt && op != BinaryOp::kGe) {
    return;
  }
  if (left->kind == Expr::Kind::kColumnRef &&
      right->kind == Expr::Kind::kLiteral) {
    out->push_back({left->column_index, op, right->literal});
  } else if (right->kind == Expr::Kind::kColumnRef &&
             left->kind == Expr::Kind::kLiteral) {
    out->push_back({right->column_index, flip(op), left->literal});
  }
}

/// Scores an index against the constraints and fills the candidate path.
/// Returns the score (0 = useless).
uint32_t MatchIndex(const schema::IndexDef& def, int index_position,
                    const std::vector<Constraint>& constraints,
                    AccessPath* path) {
  std::vector<schema::Value> eq_prefix;
  uint32_t matched = 0;
  size_t key_pos = 0;
  for (; key_pos < def.key_columns.size(); ++key_pos) {
    uint32_t column = def.key_columns[key_pos];
    const Constraint* eq = nullptr;
    for (const Constraint& c : constraints) {
      if (c.column == column && c.op == BinaryOp::kEq) {
        eq = &c;
        break;
      }
    }
    if (eq == nullptr) break;
    eq_prefix.push_back(eq->value);
    ++matched;
  }
  // Optional range on the first unmatched key column.
  std::optional<schema::Value> lo, hi;
  bool has_range = false;
  if (key_pos < def.key_columns.size()) {
    uint32_t column = def.key_columns[key_pos];
    for (const Constraint& c : constraints) {
      if (c.column != column) continue;
      if (c.op == BinaryOp::kGt || c.op == BinaryOp::kGe) {
        lo = c.value;
        has_range = true;
      } else if (c.op == BinaryOp::kLt || c.op == BinaryOp::kLe) {
        hi = c.value;
        has_range = true;
      }
    }
  }
  if (matched == 0 && !has_range) return 0;

  path->index = index_position;
  path->matched_columns = matched + (has_range ? 1 : 0);
  path->kind = AccessPath::Kind::kIndexRange;
  if (matched == def.key_columns.size() && def.unique) {
    // One row at most: the range of exactly its key.
    auto key = schema::EncodeIndexKeyValues(eq_prefix);
    if (!key.ok()) return 0;  // e.g. NULL in key
    path->range_lo = *key;
    path->range_hi = *key + '\0';
    return matched * 2 + 1;
  }
  // Build encoded range bounds. The residual re-checks exact semantics, so
  // inclusive bounds everywhere are fine (over-approximation).
  std::vector<schema::Value> lo_values = eq_prefix;
  std::vector<schema::Value> hi_values = eq_prefix;
  if (lo.has_value()) lo_values.push_back(*lo);
  if (hi.has_value()) hi_values.push_back(*hi);
  auto lo_key = schema::EncodeIndexKeyValues(lo_values);
  auto hi_key = schema::EncodeIndexKeyValues(hi_values);
  if (!lo_key.ok() || !hi_key.ok()) return 0;  // e.g. NULL in key
  path->range_lo = *lo_key;
  // Upper bound: extend the last constrained prefix so every key sharing it
  // is included (field encodings start with a tag byte < 0xFF, so appending
  // 0xFF is a strict upper bound for all extensions).
  path->range_hi = *hi_key;
  if (!path->range_hi.empty() || hi.has_value()) {
    path->range_hi.push_back('\xFF');
  } else {
    path->range_hi.clear();  // unbounded above
  }
  return matched * 2 + (has_range ? 1 : 0);
}

Status PickAccessPath(const tx::TableMeta* table, const Expr* where,
                      AccessPath* path) {
  std::vector<Constraint> constraints;
  CollectConstraints(where, &constraints);
  AccessPath best;
  uint32_t best_score = 0;
  AccessPath candidate;
  uint32_t score =
      MatchIndex(table->primary.def, -1, constraints, &candidate);
  if (score > best_score) {
    best = candidate;
    best_score = score;
  }
  for (size_t i = 0; i < table->secondaries.size(); ++i) {
    candidate = AccessPath{};
    score = MatchIndex(table->secondaries[i].def, static_cast<int>(i),
                       constraints, &candidate);
    if (score > best_score) {
      best = candidate;
      best_score = score;
    }
  }
  if (best_score == 0) {
    best = AccessPath{};
    best.kind = AccessPath::Kind::kFullScan;
    best.index = -1;
  }
  *path = std::move(best);
  return Status::OK();
}

}  // namespace

Result<Plan> PlanStatement(Statement statement, const tx::Catalog* catalog) {
  Plan plan;
  plan.statement = std::move(statement);
  Statement& stmt = plan.statement;

  std::string table_name;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      table_name = stmt.select.table;
      break;
    case Statement::Kind::kInsert:
      table_name = stmt.insert.table;
      break;
    case Statement::Kind::kUpdate:
      table_name = stmt.update.table;
      break;
    case Statement::Kind::kDelete:
      table_name = stmt.delete_.table;
      break;
    case Statement::Kind::kCreateTable:
    case Statement::Kind::kCreateIndex:
      // DDL needs no table resolution here (handled by the database layer).
      return plan;
  }
  TELL_ASSIGN_OR_RETURN(plan.table, catalog->Find(table_name));
  const schema::Schema& schema = plan.table->schema;

  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      SelectStatement& select = stmt.select;
      if (!select.join_table.empty()) {
        TELL_ASSIGN_OR_RETURN(plan.join_table,
                              catalog->Find(select.join_table));
      }
      const std::string& left_name = select.table_alias.empty()
                                         ? plan.table->name
                                         : select.table_alias;
      std::string right_name;
      if (plan.join_table != nullptr) {
        right_name = select.join_alias.empty() ? plan.join_table->name
                                               : select.join_alias;
      }
      NameResolver resolver(plan.table, left_name, plan.join_table,
                            right_name);
      if (select.select_star) {
        plan.output_columns = resolver.StarColumnNames();
      } else {
        for (SelectItem& item : select.items) {
          TELL_RETURN_NOT_OK(ResolveExprNames(item.expr.get(), resolver));
          plan.output_columns.push_back(item.alias);
        }
      }
      TELL_RETURN_NOT_OK(ResolveExprNames(select.where.get(), resolver));
      if (plan.join_table != nullptr) {
        TELL_RETURN_NOT_OK(ResolveExprNames(select.join_left.get(), resolver));
        TELL_RETURN_NOT_OK(
            ResolveExprNames(select.join_right.get(), resolver));
        uint32_t a = select.join_left->column_index;
        uint32_t b = select.join_right->column_index;
        uint32_t left_width =
            static_cast<uint32_t>(plan.table->schema.num_columns());
        if ((a < left_width) == (b < left_width)) {
          return Status::InvalidArgument(
              "JOIN condition must relate one column of each table");
        }
        plan.join_left_column = std::min(a, b);
        plan.join_right_column = std::max(a, b) - left_width;
        // Joins materialize both sides: full scans.
        plan.access = AccessPath{};
        plan.access.kind = AccessPath::Kind::kFullScan;
      } else {
        TELL_RETURN_NOT_OK(
            PickAccessPath(plan.table, select.where.get(), &plan.access));
      }
      for (const std::string& column : select.group_by) {
        TELL_ASSIGN_OR_RETURN(uint32_t idx, resolver.Resolve(column));
        plan.group_by_columns.push_back(idx);
      }
      for (const OrderByItem& item : select.order_by) {
        Plan::ResolvedOrderBy resolved;
        resolved.descending = item.descending;
        if (select.select_star) {
          TELL_ASSIGN_OR_RETURN(resolved.index, resolver.Resolve(item.column));
          resolved.on_source = true;
        } else {
          bool found = false;
          for (size_t i = 0; i < plan.output_columns.size(); ++i) {
            if (plan.output_columns[i] == item.column) {
              resolved.index = static_cast<uint32_t>(i);
              found = true;
              break;
            }
          }
          if (!found) {
            return Status::InvalidArgument("ORDER BY column '" + item.column +
                                           "' not in output");
          }
        }
        plan.order_by.push_back(resolved);
      }
      // Lower every aggregate and/or GROUP BY select list into its fold
      // (DESIGN.md "Vectorized scans & aggregate pushdown"); where the fold
      // runs is the executor's choice. ORDER BY and LIMIT apply to the
      // merged O(groups) result.
      bool has_aggregate = false;
      for (const SelectItem& item : select.items) {
        if (item.aggregate != AggregateFunc::kNone) has_aggregate = true;
      }
      if (has_aggregate || !select.group_by.empty()) {
        ScanFragment fragment;
        fragment.predicate = select.where.get();
        for (const SelectItem& item : select.items) {
          fragment.items.push_back(
              {item.aggregate, item.count_star, item.expr.get()});
        }
        fragment.group_by = plan.group_by_columns;
        fragment.columns_needed = CollectFragmentColumns(fragment);
        plan.fragment = std::move(fragment);
      }
      break;
    }
    case Statement::Kind::kInsert: {
      InsertStatement& insert = stmt.insert;
      for (const std::string& column : insert.columns) {
        TELL_RETURN_NOT_OK(schema.ColumnIndex(column).status());
      }
      for (auto& row : insert.rows) {
        size_t expected = insert.columns.empty() ? schema.num_columns()
                                                 : insert.columns.size();
        if (row.size() != expected) {
          return Status::InvalidArgument("INSERT value count mismatch");
        }
        for (ExprPtr& value : row) {
          TELL_RETURN_NOT_OK(ResolveExpr(value.get(), schema));
        }
      }
      break;
    }
    case Statement::Kind::kUpdate: {
      UpdateStatement& update = stmt.update;
      for (auto& [column, value] : update.assignments) {
        TELL_RETURN_NOT_OK(schema.ColumnIndex(column).status());
        TELL_RETURN_NOT_OK(ResolveExpr(value.get(), schema));
      }
      TELL_RETURN_NOT_OK(ResolveExpr(update.where.get(), schema));
      TELL_RETURN_NOT_OK(
          PickAccessPath(plan.table, update.where.get(), &plan.access));
      break;
    }
    case Statement::Kind::kDelete: {
      TELL_RETURN_NOT_OK(ResolveExpr(stmt.delete_.where.get(), schema));
      TELL_RETURN_NOT_OK(
          PickAccessPath(plan.table, stmt.delete_.where.get(), &plan.access));
      break;
    }
    default:
      break;
  }
  return plan;
}

}  // namespace tell::sql
