#include "buffer/version_sync_buffer.h"

#include "common/serde.h"

namespace tell::buffer {

namespace {
// Bound on the read-merge-write rounds of one version-set update; only a
// storm of concurrent committers to one unit gets near it.
constexpr int kMaxCellRetries = 1024;
}  // namespace

void VersionSyncBuffer::OnTransactionStart(
    const tx::SnapshotDescriptor& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  v_max_.MergeFrom(snapshot);
}

std::string VersionSyncBuffer::UnitCellKey(const UnitKey& unit) const {
  BufferWriter writer;
  writer.PutU32(unit.first);
  writer.PutU64(unit.second);
  return writer.Release();
}

Result<tx::FetchedRecord> VersionSyncBuffer::FetchAndCache(
    store::StorageClient* client, store::TableId table, uint64_t rid,
    Unit* unit) {
  client->metrics()->buffer_misses += 1;
  stats_.misses += 1;
  auto cell = client->Get(table, EncodeOrderedU64(rid));
  if (!cell.ok()) return cell.status();
  TELL_ASSIGN_OR_RETURN(schema::VersionedRecord record,
                        schema::VersionedRecord::Deserialize(cell->value));
  if (cached_records_ < capacity_) {
    auto [it, inserted] =
        unit->records.insert_or_assign(rid, CachedRecord{cell->value,
                                                         cell->stamp});
    if (inserted) ++cached_records_;
  }
  return tx::FetchedRecord{std::move(record), cell->stamp};
}

Result<tx::FetchedRecord> VersionSyncBuffer::Read(
    store::StorageClient* client, store::TableId table, uint64_t rid,
    const tx::SnapshotDescriptor& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  UnitKey unit_key = UnitFor(table, rid);
  Unit& unit = units_[unit_key];

  auto serve_cached = [&](const CachedRecord& cached)
      -> Result<tx::FetchedRecord> {
    client->metrics()->buffer_hits += 1;
    stats_.hits += 1;
    TELL_ASSIGN_OR_RETURN(
        schema::VersionedRecord record,
        schema::VersionedRecord::Deserialize(cached.record_bytes));
    return tx::FetchedRecord{std::move(record), cached.stamp};
  };

  auto cached_it = unit.records.find(rid);
  if (cached_it != unit.records.end() && unit.has_version_set &&
      snapshot.IsSubsetOf(unit.valid_for)) {
    // Condition 1: the local B already covers V_tx.
    return serve_cached(cached_it->second);
  }

  // Condition 2: validate via the unit's version set in the store — one
  // small request instead of re-fetching whole records.
  auto vs_cell = client->Get(version_set_table_, UnitCellKey(unit_key));
  if (vs_cell.ok()) {
    auto remote = tx::SnapshotDescriptor::Deserialize(vs_cell->value);
    if (remote.ok()) {
      if (unit.has_version_set && *remote == unit.valid_for &&
          cached_it != unit.records.end()) {
        // 2(a): nothing changed since we cached the unit.
        return serve_cached(cached_it->second);
      }
      // 2(b): the unit changed (or we never had its version set):
      // invalidate every buffered record of the unit and adopt B'.
      cached_records_ -= unit.records.size();
      stats_.evictions += unit.records.size();
      unit.records.clear();
      unit.valid_for = std::move(*remote);
      unit.has_version_set = true;
      return FetchAndCache(client, table, rid, &unit);
    }
  }
  // No version set cell yet (unit never written through SBVS): fall back to
  // labelling with V_max, like the plain shared buffer.
  cached_records_ -= unit.records.size();
  stats_.evictions += unit.records.size();
  unit.records.clear();
  unit.valid_for = v_max_;
  unit.has_version_set = true;
  return FetchAndCache(client, table, rid, &unit);
}

void VersionSyncBuffer::OnApply(store::StorageClient* client,
                                store::TableId table, uint64_t rid,
                                const schema::VersionedRecord& record,
                                uint64_t stamp, tx::Tid tid,
                                const tx::SnapshotDescriptor& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  UnitKey unit_key = UnitFor(table, rid);
  Unit& unit = units_[unit_key];
  // What this transaction itself knows of the unit: its snapshot and its
  // own write. Every tid in there wrote the record before this write did.
  tx::SnapshotDescriptor own = snapshot;
  own.MarkCompleted(tid);
  // B = V_max ∪ {tid}, merged into the store's cell so other PNs see the
  // change (this is the extra update SBVS pays per record update). The cell
  // only grows: a committer whose write-through runs late must not roll
  // back the tids a later committer already put there, or PNs holding that
  // later label would keep serving records older than it.
  tx::SnapshotDescriptor label = v_max_;
  label.MergeFrom(own);
  const std::string cell_key = UnitCellKey(unit_key);
  // Whether the cell may hold writers this transaction did not see; false
  // only once a write proved it held none.
  bool foreign = true;
  for (int attempt = 0; attempt < kMaxCellRetries; ++attempt) {
    auto cell = client->Get(version_set_table_, cell_key);
    if (!cell.ok() && !cell.status().IsNotFound()) break;
    tx::SnapshotDescriptor merged = label;
    uint64_t expected = store::kStampAbsent;
    bool unseen = false;
    if (cell.ok()) {
      auto remote = tx::SnapshotDescriptor::Deserialize(cell->value);
      if (!remote.ok()) break;
      unseen = !remote->IsSubsetOf(own);
      merged.MergeFrom(*remote);
      expected = cell->stamp;
    }
    auto put = client->ConditionalPut(version_set_table_, cell_key, expected,
                                      merged.Serialize());
    if (put.ok()) {
      label = std::move(merged);
      foreign = unseen;
      break;
    }
    if (!put.status().IsConditionFailed()) break;
    // Another committer moved the cell: merge again from a fresh read.
  }
  // Updating the version set invalidates every buffered record of the unit.
  // The freshly written record is re-inserted under the new B — unless the
  // cell held tids of writers this transaction did not see, which may have
  // written the record after it; the next read then fetches it afresh.
  stats_.write_throughs += 1;
  cached_records_ -= unit.records.size();
  stats_.evictions += unit.records.size();
  unit.records.clear();
  unit.valid_for = std::move(label);
  unit.has_version_set = true;
  if (!foreign && cached_records_ < capacity_) {
    unit.records.emplace(rid, CachedRecord{record.Serialize(), stamp});
    ++cached_records_;
  }
}

void VersionSyncBuffer::AccumulateStats(tx::BufferStats* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out->Accumulate(stats_);
}

}  // namespace tell::buffer
