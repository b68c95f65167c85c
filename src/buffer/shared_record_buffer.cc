#include "buffer/shared_record_buffer.h"

namespace tell::buffer {

namespace {
// Modelled CPU cost of one shared-buffer interaction (latch + hash probe +
// snapshot subset test + LRU maintenance).
constexpr uint64_t kManagementOverheadNs = 1'000;
}  // namespace

void SharedRecordBuffer::OnTransactionStart(
    const tx::SnapshotDescriptor& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Snapshots grow monotonically; merging keeps V_max the largest set seen.
  v_max_.MergeFrom(snapshot);
}

void SharedRecordBuffer::TouchLocked(const Key& key, Entry& entry) {
  lru_.erase(entry.lru_position);
  lru_.push_front(key);
  entry.lru_position = lru_.begin();
}

void SharedRecordBuffer::InsertLocked(const Key& key, tx::FetchedRecord record,
                                      tx::SnapshotDescriptor valid_for) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.record = std::move(record);
    it->second.valid_for = std::move(valid_for);
    TouchLocked(key, it->second);
    return;
  }
  while (entries_.size() >= capacity_ && !lru_.empty()) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    stats_.evictions += 1;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(record), std::move(valid_for),
                              lru_.begin()});
}

std::vector<Result<tx::FetchedRecord>> SharedRecordBuffer::Read(
    store::StorageClient* client, const std::vector<tx::RecordKey>& keys,
    const tx::SnapshotDescriptor& snapshot) {
  // Buffer management is not free (paper §5.5.2 / Fig. 11: "the overhead of
  // buffer management outweighs the caching benefits"): every probe pays
  // the lock + map lookup + version-set comparison.
  client->ChargeCpu(kManagementOverheadNs * keys.size());
  std::vector<Result<tx::FetchedRecord>> out(keys.size(), Status::NotFound());
  std::vector<Key> misses;
  std::vector<size_t> miss_at;
  tx::SnapshotDescriptor label;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto it = entries_.find(keys[i]);
      if (it != entries_.end() && snapshot.IsSubsetOf(it->second.valid_for)) {
        // Condition 1: V_tx ⊆ B — serve from the buffer, no storage trip.
        client->metrics()->buffer_hits += 1;
        stats_.hits += 1;
        out[i] = it->second.record;
        TouchLocked(keys[i], it->second);
      } else {
        misses.push_back(keys[i]);
        miss_at.push_back(i);
      }
    }
    // B = V_max as of now, before the fetch: a transaction that starts
    // after it may hold a writer whose commit the fetch missed.
    label = v_max_;
  }
  // Condition 2: the copies might be outdated — fetch every miss from the
  // storage system in one batched request and replace the entries.
  std::vector<Result<tx::FetchedRecord>> fetched =
      tx::FetchRecords(client, misses);
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.misses += misses.size();
  for (size_t m = 0; m < misses.size(); ++m) {
    if (fetched[m].ok()) InsertLocked(misses[m], *fetched[m], label);
    out[miss_at[m]] = std::move(fetched[m]);
  }
  return out;
}

void SharedRecordBuffer::OnApply(store::StorageClient* client,
                                 store::TableId table, uint64_t rid,
                                 const schema::VersionedRecord& record,
                                 uint64_t stamp, tx::Tid tid,
                                 const tx::SnapshotDescriptor& snapshot) {
  (void)snapshot;
  client->ChargeCpu(2 * kManagementOverheadNs);  // write-through + B update
  // Write-through: B = V_max ∪ {tid}. The commit runs this before the
  // commit manager learns of it, so no V_max transaction wrote the record
  // after us (it would have had to see us committed), and the image our
  // LL/SC apply installed holds every one that wrote it before us.
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.write_throughs += 1;
  tx::SnapshotDescriptor valid_for = v_max_;
  valid_for.MarkCompleted(tid);
  InsertLocked({table, rid}, tx::FetchedRecord{record, stamp},
               std::move(valid_for));
}

void SharedRecordBuffer::AccumulateStats(tx::BufferStats* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out->Accumulate(stats_);
}

size_t SharedRecordBuffer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace tell::buffer
