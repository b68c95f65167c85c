#ifndef TELL_BUFFER_SHARED_RECORD_BUFFER_H_
#define TELL_BUFFER_SHARED_RECORD_BUFFER_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <vector>

#include "tx/record_buffer.h"

namespace tell::buffer {

/// Strategy SB (paper §5.5.2): a PN-wide record buffer shared by all
/// transactions of the processing node, between the per-transaction buffers
/// and the storage system.
///
/// Every buffered record carries a version number set B (represented as a
/// snapshot descriptor) stating for which snapshots the copy is valid. A
/// transaction with version set V_tx may read the buffered copy iff
/// V_tx ⊆ B; otherwise the record is re-fetched and B is reset to V_max, the
/// version set of the most recently started transaction on this PN, sampled
/// before the fetch (all transactions in it completed before the fetch, so
/// it is certainly valid — and keeping B as large as possible maximizes
/// future hits). One Read serves its hits and fetches all its misses in one
/// batched request. Updates are written through: after a successful commit
/// apply, and before the commit manager learns of the commit, B becomes
/// V_max ∪ {tid}.
class SharedRecordBuffer final : public tx::RecordBuffer {
 public:
  explicit SharedRecordBuffer(size_t capacity = 1 << 18)
      : capacity_(capacity) {}

  std::vector<Result<tx::FetchedRecord>> Read(
      store::StorageClient* client, const std::vector<tx::RecordKey>& keys,
      const tx::SnapshotDescriptor& snapshot) override;

  void OnApply(store::StorageClient* client, store::TableId table,
               uint64_t rid, const schema::VersionedRecord& record,
               uint64_t stamp, tx::Tid tid,
               const tx::SnapshotDescriptor& snapshot) override;

  void OnTransactionStart(const tx::SnapshotDescriptor& snapshot) override;

  void AccumulateStats(tx::BufferStats* out) const override;

  size_t size() const;

 private:
  using Key = tx::RecordKey;

  struct Entry {
    tx::FetchedRecord record;
    tx::SnapshotDescriptor valid_for;  // B
    std::list<Key>::iterator lru_position;
  };

  void TouchLocked(const Key& key, Entry& entry);
  void InsertLocked(const Key& key, tx::FetchedRecord record,
                    tx::SnapshotDescriptor valid_for);

  const size_t capacity_;
  mutable std::mutex mutex_;
  tx::BufferStats stats_;  // guarded by mutex_
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  // front = most recent
  /// V_max: snapshot of the most recently started transaction on this PN.
  tx::SnapshotDescriptor v_max_;
};

}  // namespace tell::buffer

#endif  // TELL_BUFFER_SHARED_RECORD_BUFFER_H_
