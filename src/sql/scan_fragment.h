#ifndef TELL_SQL_SCAN_FRAGMENT_H_
#define TELL_SQL_SCAN_FRAGMENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "schema/schema.h"
#include "schema/tuple.h"
#include "sql/ast.h"
#include "store/fragment.h"

namespace tell::sql {

/// Running fold of one aggregate item: NULLs are skipped, the running sum is
/// a double (ints widened, strings contribute 0.0), min/max track by
/// schema::CompareValues. Partition-local folds merge commutatively; the
/// double sum reassociates across partitions, so SUM/AVG over values that
/// are not exactly representable may differ from a single-pass fold in the
/// last ulps (DESIGN.md "Vectorized scans & aggregate pushdown").
struct AggFold {
  int64_t count = 0;
  double sum = 0.0;
  schema::Value min_v;
  schema::Value max_v;

  void Add(const schema::Value& v);
  void MergeFrom(const AggFold& other);
  /// COUNT -> count, empty SUM/AVG/MIN/MAX -> NULL, AVG = sum / count.
  schema::Value Final(AggregateFunc func) const;
};

/// Appends one group-by column value to a group key (ValueToString + 0x1F
/// separator).
void AppendGroupKey(const schema::Value& value, std::string* key);

/// Serializable descriptor of an aggregate SELECT: predicate, projection
/// list, and aggregate spec with optional GROUP BY. The planner lowers
/// every aggregate and/or GROUP BY SELECT into one of these; the executor
/// folds through it either storage-side (fanned out to every partition via
/// StorageClient::ExecuteFragmentScan) or on the processing node.
///
/// Expr pointers reach into the owning Plan's Statement (heap AST nodes,
/// stable across Plan moves); the fragment must not outlive its Plan.
struct ScanFragment {
  struct AggSpec {
    AggregateFunc func = AggregateFunc::kNone;
    bool count_star = false;
    const Expr* expr = nullptr;  // null for COUNT(*)
  };

  const Expr* predicate = nullptr;  // null = no WHERE
  std::vector<AggSpec> items;       // one per SELECT item, in output order
  std::vector<uint32_t> group_by;   // source-tuple column indices
  /// Projection list: the source columns the fragment actually reads
  /// (predicate + item expressions + group-by), sorted ascending. Columns
  /// outside this set never leave the storage node.
  std::vector<uint32_t> columns_needed;

  /// Wire encoding of the descriptor; its size is what the client charges
  /// as the per-partition request payload.
  std::string SerializeDescriptor() const;
};

/// Source columns referenced by the fragment's predicate, item expressions
/// and GROUP BY — the projection list, sorted and deduplicated.
std::vector<uint32_t> CollectFragmentColumns(const ScanFragment& fragment);

/// The aggregate fold of every aggregate SELECT. Storage-side it consumes
/// one partition's fragment scan through the schema-agnostic
/// store::FragmentSink: per absorbed cell it applies the transaction's
/// snapshot-visibility closure, decodes the visible payload and hands the
/// tuple to Fold(). Finish() serializes the states — O(groups) bytes, the
/// fragment's whole response. On the processing node one instance is fed
/// already fetched rows through Fold() directly.
class AggregateFragmentSink : public store::FragmentSink {
 public:
  /// Judges a stored cell under the owning transaction's snapshot: returns
  /// true and fills `*payload` with the visible version's bytes, or false
  /// when no live version is visible (tx::Transaction::VisibilityClosure).
  using VisibleFn =
      std::function<bool(std::string_view cell_value, std::string* payload)>;

  /// Per-group partial state. `first_rid`/`first_values` carry the
  /// lowest-rid member's non-aggregate item values, so plain items
  /// evaluate on the group's lowest-rid member wherever the fold runs.
  struct GroupState {
    uint64_t first_rid = 0;
    std::vector<schema::Value> first_values;
    int64_t count_star = 0;
    std::vector<AggFold> folds;  // one per item; unused for kNone/COUNT(*)
  };

  AggregateFragmentSink(const schema::Schema* schema,
                        const ScanFragment* fragment, VisibleFn visible)
      : schema_(schema), fragment_(fragment), visible_(std::move(visible)) {}

  bool Absorb(std::string_view key, std::string_view value,
              uint64_t stamp) override;
  /// Filters one visible tuple by the fragment's predicate and folds it
  /// into its group. Returns whether it matched; an erroring expression
  /// fails the fold. Tuples may come in any order: a member with a lower
  /// `rid` than its group's first member becomes the first member.
  Result<bool> Fold(uint64_t rid, const schema::Tuple& tuple);
  std::string Finish() override;
  uint64_t rows_returned() const override { return groups_.size(); }
  uint64_t baseline_bytes() const override { return baseline_bytes_; }
  Status status() const override { return status_; }

  /// Typed partial states for the coordinator's merge (the serialized form
  /// from Finish() models the wire; the merge reads these directly).
  const std::map<std::string, GroupState>& groups() const { return groups_; }

 private:
  const schema::Schema* const schema_;
  const ScanFragment* const fragment_;
  const VisibleFn visible_;
  std::map<std::string, GroupState> groups_;
  uint64_t baseline_bytes_ = 0;
  Status status_ = Status::OK();
  std::string payload_;  // scratch, reused across cells
};

/// Merges one partition's partial state into the accumulating map:
/// commutative fold merge, keeping the lowest-rid first-member values.
void MergeGroupStates(
    const std::map<std::string, AggregateFragmentSink::GroupState>& from,
    std::map<std::string, AggregateFragmentSink::GroupState>* into);

}  // namespace tell::sql

#endif  // TELL_SQL_SCAN_FRAGMENT_H_
