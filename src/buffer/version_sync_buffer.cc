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

std::vector<Result<tx::FetchedRecord>> VersionSyncBuffer::Read(
    store::StorageClient* client, const std::vector<tx::RecordKey>& keys,
    const tx::SnapshotDescriptor& snapshot) {
  std::vector<Result<tx::FetchedRecord>> out(keys.size(), Status::NotFound());
  std::lock_guard<std::mutex> lock(mutex_);
  auto serve = [&](size_t i, const tx::FetchedRecord& cached) {
    client->metrics()->buffer_hits += 1;
    stats_.hits += 1;
    out[i] = cached;
  };
  // Condition 1: the local B already covers V_tx. The other keys wait for
  // their unit's version set.
  std::map<UnitKey, std::vector<size_t>> pending;
  for (size_t i = 0; i < keys.size(); ++i) {
    const UnitKey unit_key = UnitFor(keys[i].first, keys[i].second);
    Unit& unit = units_[unit_key];
    auto cached = unit.records.find(keys[i].second);
    if (cached != unit.records.end() && unit.has_version_set &&
        snapshot.IsSubsetOf(unit.valid_for)) {
      serve(i, cached->second);
    } else {
      pending[unit_key].push_back(i);
    }
  }
  if (pending.empty()) return out;

  // Condition 2: validate via the units' version sets in the store — one
  // batched request of small cells instead of re-fetching whole records.
  std::vector<store::GetOp> cell_ops;
  for (const auto& [unit_key, at] : pending) {
    cell_ops.push_back({version_set_table_, UnitCellKey(unit_key)});
  }
  std::vector<Result<store::VersionedCell>> cells = client->BatchGet(cell_ops);
  std::vector<tx::RecordKey> refetch;
  std::vector<size_t> refetch_at;
  size_t c = 0;
  for (const auto& [unit_key, at] : pending) {
    Unit& unit = units_[unit_key];
    const Result<store::VersionedCell>& cell = cells[c++];
    auto remote = cell.ok() ? tx::SnapshotDescriptor::Deserialize(cell->value)
                            : Result<tx::SnapshotDescriptor>(cell.status());
    bool all_cached = true;
    for (size_t i : at) all_cached &= unit.records.count(keys[i].second) > 0;
    if (remote.ok() && unit.has_version_set && *remote == unit.valid_for &&
        all_cached) {
      // 2(a): nothing changed since we cached the unit.
      for (size_t i : at) serve(i, unit.records.at(keys[i].second));
      continue;
    }
    // 2(b): the unit changed, we never had its version set, or a requested
    // record is not buffered: invalidate every buffered record of the unit
    // and adopt B'. Keeping the unit's other copies would let a stale stamp
    // outlive the check — a rollback changes a stamp without growing the
    // cell — and the unit's writers would keep losing their LL/SC. With no
    // version set cell yet (unit never written through SBVS), label with
    // V_max, like the plain shared buffer.
    cached_records_ -= unit.records.size();
    stats_.evictions += unit.records.size();
    unit.records.clear();
    unit.valid_for = remote.ok() ? std::move(*remote) : v_max_;
    unit.has_version_set = true;
    for (size_t i : at) {
      refetch.push_back(keys[i]);
      refetch_at.push_back(i);
    }
  }
  std::vector<Result<tx::FetchedRecord>> fetched =
      tx::FetchRecords(client, refetch);
  stats_.misses += refetch.size();
  for (size_t f = 0; f < refetch.size(); ++f) {
    if (fetched[f].ok() && cached_records_ < capacity_) {
      Unit& unit = units_[UnitFor(refetch[f].first, refetch[f].second)];
      if (unit.records.insert_or_assign(refetch[f].second, *fetched[f])
              .second) {
        ++cached_records_;
      }
    }
    out[refetch_at[f]] = std::move(fetched[f]);
  }
  return out;
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
    auto put = client->Write({.table = version_set_table_,
                              .key = cell_key,
                              .value = merged.Serialize(),
                              .expected_stamp = expected});
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
    unit.records.emplace(rid, tx::FetchedRecord{record, stamp});
    ++cached_records_;
  }
}

void VersionSyncBuffer::AccumulateStats(tx::BufferStats* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out->Accumulate(stats_);
}

}  // namespace tell::buffer
