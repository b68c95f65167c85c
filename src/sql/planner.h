#ifndef TELL_SQL_PLANNER_H_
#define TELL_SQL_PLANNER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "schema/schema.h"
#include "sql/ast.h"
#include "sql/scan_fragment.h"
#include "tx/catalog.h"

namespace tell::sql {

/// How the executor reaches the rows of one table.
struct AccessPath {
  enum class Kind {
    /// Scan the whole table (Transaction::FilteredScan).
    kFullScan,
    /// Range / prefix scan over one index; an exact match on the full key
    /// of a unique index is the one-key range [k, k + '\0').
    kIndexRange,
  };
  Kind kind = Kind::kFullScan;
  /// -1 = primary, otherwise position in TableMeta::secondaries.
  int index = -1;
  /// kIndexRange: encoded byte bounds [lo, hi); empty = unbounded.
  std::string range_lo;
  std::string range_hi;
  /// Number of key columns usefully constrained (diagnostics/tests).
  uint32_t matched_columns = 0;
};

/// A planned statement: the statement with all column references resolved to
/// positional indices, plus the chosen access path for its table.
///
/// For joins, column references resolve into the CONCATENATED tuple
/// (left columns first, right columns appended), and the executor performs
/// a hash join on the resolved equality columns.
struct Plan {
  Statement statement;
  const tx::TableMeta* table = nullptr;
  AccessPath access;
  /// Resolved select-list output names (queries only).
  std::vector<std::string> output_columns;

  /// Join (SELECT only): right-side table, and the equality columns —
  /// join_left_column indexes the left tuple, join_right_column the right.
  const tx::TableMeta* join_table = nullptr;
  uint32_t join_left_column = 0;
  uint32_t join_right_column = 0;

  /// GROUP BY columns resolved into the source (possibly concatenated)
  /// tuple.
  std::vector<uint32_t> group_by_columns;
  /// ORDER BY resolved: `on_source` orders by a source-tuple column
  /// (select-star queries), otherwise by an output-column position.
  struct ResolvedOrderBy {
    uint32_t index = 0;
    bool descending = false;
    bool on_source = false;
  };
  std::vector<ResolvedOrderBy> order_by;

  /// Aggregate spec of an aggregate and/or GROUP BY query, whatever its
  /// access path: the fold the executor runs, fanned out to every
  /// partition when operator pushdown is on and the plan qualifies, on the
  /// processing node otherwise. Expr pointers reach into `statement` (heap
  /// nodes, stable across Plan moves).
  std::optional<ScanFragment> fragment;
};

/// Resolves names against the catalog and picks an index:
/// the index with the longest equality prefix over the WHERE conjuncts wins,
/// with a trailing range on the next key column as a bonus; ties prefer the
/// primary index. The full WHERE is kept as a residual filter, so the access
/// path only needs to over-approximate.
Result<Plan> PlanStatement(Statement statement, const tx::Catalog* catalog);

}  // namespace tell::sql

#endif  // TELL_SQL_PLANNER_H_
