#include "tx/garbage_collector.h"

#include <algorithm>

#include "common/serde.h"
#include "schema/tuple.h"
#include "schema/versioned_record.h"

namespace tell::tx {

Result<GcStats> GarbageCollector::SweepTable(store::StorageClient* client,
                                             TableHandle* table) {
  GcStats stats;
  Tid lav = commit_managers_->GlobalLav();
  store::TableId data_table = table->meta->data_table;
  TELL_ASSIGN_OR_RETURN(std::vector<store::KeyCell> cells,
                        client->Scan(data_table, "", ""));
  // Judge every record first, then act in two batched rounds whatever the
  // number of records: one BatchInsert removes the index entries of every
  // dead record, then one BatchWrite erases the dead records and rewrites
  // the trimmed ones — index entries before their records.
  std::vector<index::BatchInsertOp> removals;
  std::vector<store::WriteOp> writes;
  std::vector<size_t> versions_of_write;
  for (const store::KeyCell& cell : cells) {
    if (cell.key.size() != sizeof(uint64_t)) continue;  // meta cells
    auto record = schema::VersionedRecord::Deserialize(cell.value);
    if (!record.ok()) continue;
    uint64_t rid = DecodeOrderedU64(cell.key);

    if (record->DeadAt(lav)) {
      // The record's newest version is a tombstone visible to everyone:
      // remove its index entries, then the record itself.
      auto remove_entries = [&](index::BTree* tree,
                                const schema::IndexDef& def) {
        for (const schema::RecordVersion& version : record->versions()) {
          if (version.tombstone) continue;
          auto tuple = schema::Tuple::Deserialize(table->meta->schema,
                                                  version.payload);
          if (!tuple.ok()) continue;
          auto key = schema::EncodeIndexKey(*tuple, def.key_columns);
          if (!key.ok()) continue;
          removals.push_back({tree, std::move(*key), rid, /*unique=*/false,
                              /*remove=*/true});
        }
      };
      remove_entries(&table->primary, table->meta->primary.def);
      for (size_t i = 0; i < table->secondaries.size(); ++i) {
        remove_entries(&table->secondaries[i],
                       table->meta->secondaries[i].def);
      }
      writes.push_back({data_table, cell.key, "", cell.stamp,
                        /*conditional=*/true, /*erase=*/true});
      versions_of_write.push_back(record->NumVersions());
      continue;
    }

    size_t removed = record->CollectGarbage(lav);
    if (removed == 0) continue;
    writes.push_back({data_table, cell.key, record->Serialize(), cell.stamp});
    versions_of_write.push_back(removed);
  }
  if (!removals.empty()) {
    std::vector<bool> removed;
    (void)index::BTree::BatchInsert(client, removals, &removed);
    stats.index_entries_removed += static_cast<size_t>(
        std::count(removed.begin(), removed.end(), true));
  }
  if (!writes.empty()) {
    std::vector<Result<uint64_t>> results = client->BatchWrite(writes);
    for (size_t i = 0; i < writes.size(); ++i) {
      // On ConditionFailed a live writer raced us: an erase waits for the
      // next sweep, and a concurrent update already rewrote the record —
      // performing its own eager GC in the process.
      if (!results[i].ok()) continue;
      ++(writes[i].erase ? stats.records_erased : stats.records_rewritten);
      stats.versions_removed += versions_of_write[i];
    }
  }
  {
    std::lock_guard<std::mutex> lock(totals_mutex_);
    totals_.Accumulate(stats);
  }
  return stats;
}

Result<GcStats> GarbageCollector::Sweep(
    store::StorageClient* client, const std::vector<TableHandle*>& tables,
    const TransactionLog* log) {
  GcStats total;
  for (TableHandle* table : tables) {
    TELL_ASSIGN_OR_RETURN(GcStats stats, SweepTable(client, table));
    total.records_rewritten += stats.records_rewritten;
    total.versions_removed += stats.versions_removed;
    total.records_erased += stats.records_erased;
    total.index_entries_removed += stats.index_entries_removed;
  }
  if (log != nullptr) {
    Tid lav = commit_managers_->GlobalLav();
    TELL_ASSIGN_OR_RETURN(size_t truncated, log->Truncate(client, lav));
    total.log_entries_truncated = truncated;
    std::lock_guard<std::mutex> lock(totals_mutex_);
    totals_.log_entries_truncated += truncated;
  }
  return total;
}

}  // namespace tell::tx
