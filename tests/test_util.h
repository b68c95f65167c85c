#ifndef TELL_TESTS_TEST_UTIL_H_
#define TELL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "index/btree.h"
#include "store/cluster.h"
#include "store/fragment.h"
#include "store/storage_client.h"
#include "store/storage_node.h"
#include "tx/transaction.h"
#include "tx/transaction_log.h"

#define ASSERT_OK(expr)                                   \
  do {                                                    \
    ::tell::Status _st = (expr);                          \
    ASSERT_TRUE(_st.ok()) << _st.ToString();              \
  } while (false)

#define EXPECT_OK(expr)                                   \
  do {                                                    \
    ::tell::Status _st = (expr);                          \
    EXPECT_TRUE(_st.ok()) << _st.ToString();              \
  } while (false)

/// Asserts a Result is OK and assigns its value.
#define ASSERT_OK_AND_ASSIGN(lhs, expr)                   \
  ASSERT_OK_AND_ASSIGN_IMPL(                              \
      TELL_ASSIGN_OR_RETURN_CONCAT(_test_tmp_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, expr)         \
  auto tmp = (expr);                                      \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();       \
  lhs = std::move(tmp).value()

namespace tell::test {

/// Store-level scan fragment sink over raw cells: collects the (key, value)
/// of every cell whose value equals `match` (empty: every cell) and stops
/// after `limit` matches (0 = unlimited). Ships the matched cells.
class MatchSink : public store::FragmentSink {
 public:
  explicit MatchSink(std::string match, size_t limit = 0)
      : match_(std::move(match)), limit_(limit) {}

  bool Absorb(std::string_view key, std::string_view value,
              uint64_t /*stamp*/) override {
    if (!match_.empty() && value != match_) return true;
    matches_.emplace_back(key, value);
    return limit_ == 0 || matches_.size() < limit_;
  }
  std::string Finish() override {
    std::string shipped;
    for (const auto& [key, value] : matches_) shipped += key + value;
    return shipped;
  }
  uint64_t rows_returned() const override { return matches_.size(); }
  uint64_t baseline_bytes() const override { return 0; }
  Status status() const override { return Status::OK(); }

  const std::vector<std::pair<std::string, std::string>>& matches() const {
    return matches_;
  }

 private:
  const std::string match_;
  const size_t limit_;
  std::vector<std::pair<std::string, std::string>> matches_;
};

/// The cells in [start, end) of one partition of a storage node, in key
/// order: its FragmentScan with a CellSink.
inline Result<std::vector<store::KeyCell>> ScanCells(
    const store::StorageNode& node, store::TableId table, uint32_t partition,
    std::string_view start = "", std::string_view end = "") {
  store::CellSink sink;
  TELL_RETURN_NOT_OK(node.FragmentScan(table, partition, start, end,
                                       /*chunk_cells=*/1024, &sink, nullptr));
  return std::move(sink.cells());
}

/// The cells in [start, end) of every partition of a table, in key order.
inline Result<std::vector<store::KeyCell>> ScanCells(
    const store::Cluster& cluster, store::TableId table,
    std::string_view start = "", std::string_view end = "") {
  TELL_ASSIGN_OR_RETURN(uint32_t partitions,
                        cluster.partition_map().NumPartitions(table));
  std::vector<store::KeyCell> cells;
  for (uint32_t p = 0; p < partitions; ++p) {
    store::CellSink sink;
    TELL_RETURN_NOT_OK(cluster.FragmentScan(table, p, start, end,
                                            /*chunk_cells=*/1024, &sink,
                                            nullptr));
    for (store::KeyCell& cell : sink.cells()) cells.push_back(std::move(cell));
  }
  std::sort(cells.begin(), cells.end(),
            [](const store::KeyCell& a, const store::KeyCell& b) {
              return a.key < b.key;
            });
  return cells;
}

/// The cells in [start, end) of a table read through a client, in key
/// order.
inline Result<std::vector<store::KeyCell>> ScanCells(
    store::StorageClient* client, store::TableId table,
    std::string_view start = "", std::string_view end = "") {
  TELL_ASSIGN_OR_RETURN(std::vector<store::KeyCell> cells,
                        store::CollectCells(client, table, start, end));
  std::sort(cells.begin(), cells.end(),
            [](const store::KeyCell& a, const store::KeyCell& b) {
              return a.key < b.key;
            });
  return cells;
}

/// A point lookup of `key` in `tree` as a BTree::BatchScan cursor: the
/// range of exactly `key`, [key, key + '\0'), unlimited. Its leaf comes
/// from the store unless `leaf` says otherwise.
inline index::ScanCursor PointCursor(
    index::BTree* tree, std::string key,
    index::LeafCache leaf = index::LeafCache::kBypass) {
  index::ScanCursor cursor;
  cursor.tree = tree;
  cursor.end = key + '\0';
  cursor.start = std::move(key);
  cursor.leaf = leaf;
  return cursor;
}

/// `keys` as PointCursors on one tree.
inline std::vector<index::ScanCursor> PointCursors(
    index::BTree* tree, const std::vector<std::string>& keys,
    index::LeafCache leaf = index::LeafCache::kBypass) {
  std::vector<index::ScanCursor> cursors;
  for (const std::string& key : keys) {
    cursors.push_back(PointCursor(tree, key, leaf));
  }
  return cursors;
}

/// Advances every cursor in one BTree::BatchScan — a batch of point
/// lookups when each is a PointCursor — and returns the rids each holds.
inline Result<std::vector<std::vector<uint64_t>>> ScanRids(
    store::StorageClient* client, std::vector<index::ScanCursor>* cursors) {
  std::vector<index::ScanCursor*> batch;
  for (index::ScanCursor& cursor : *cursors) batch.push_back(&cursor);
  TELL_RETURN_NOT_OK(index::BTree::BatchScan(client, batch));
  std::vector<std::vector<uint64_t>> rids(cursors->size());
  for (size_t c = 0; c < cursors->size(); ++c) {
    for (const index::IndexEntry& e : (*cursors)[c].entries) {
      rids[c].push_back(e.rid);
    }
  }
  return rids;
}

inline Result<std::vector<std::vector<uint64_t>>> ScanRids(
    store::StorageClient* client, std::vector<index::ScanCursor> cursors) {
  return ScanRids(client, &cursors);
}

/// The visible rids under exactly `key` in index `index` of `table` (-1 =
/// primary), in rid order: a ScanIndexEncoded of the range [key, key + '\0').
inline Result<std::vector<uint64_t>> RidsUnderKey(
    tx::Transaction* txn, tx::TableHandle* table, int index,
    const std::vector<schema::Value>& key) {
  TELL_ASSIGN_OR_RETURN(std::string lo, schema::EncodeIndexKeyValues(key));
  std::string hi = lo + '\0';
  TELL_ASSIGN_OR_RETURN(auto rows,
                        txn->ScanIndexEncoded(table, index, lo, hi, 0));
  std::vector<uint64_t> rids;
  for (const auto& row : rows) rids.push_back(row.first);
  return rids;
}

/// The log entry of `tid`, or nullopt if the tid never logged: the one
/// entry a ScanBackwards over (tid - 1, tid] finds.
inline Result<std::optional<tx::LogEntry>> LogEntryOf(
    const tx::TransactionLog& log, store::StorageClient* client,
    commitmgr::Tid tid) {
  TELL_ASSIGN_OR_RETURN(std::vector<tx::LogEntry> entries,
                        log.ScanBackwards(client, tid, tid - 1));
  if (entries.empty()) return std::optional<tx::LogEntry>{};
  return std::optional<tx::LogEntry>(std::move(entries.front()));
}

}  // namespace tell::test

#endif  // TELL_TESTS_TEST_UTIL_H_
