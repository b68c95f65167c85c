#ifndef TELL_BUFFER_VERSION_SYNC_BUFFER_H_
#define TELL_BUFFER_VERSION_SYNC_BUFFER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "tx/record_buffer.h"

namespace tell::buffer {

/// Strategy SBVS (paper §5.5.3): a shared record buffer whose validity is
/// synchronized *through the storage system*. Records are grouped into cache
/// units of `unit_size` consecutive rids; each unit has a version number set
/// cell in a dedicated storage table. A PN validates its buffered records by
/// fetching only the unit's (small) version set instead of the records —
/// saving bandwidth at the cost of extra requests:
///
///   1. V_tx ⊆ B(local unit)        -> serve from the buffer.
///   2. otherwise fetch B' from the store:
///      (a) B' == B  -> the buffered records are still valid;
///      (b) B' != B, or a requested record is not buffered -> invalidate
///          the unit and re-fetch its requested records.
///
/// One Read costs at most two batched requests: the version set cells of
/// every unit that condition 1 does not cover, then the records to re-fetch.
///
/// On every record update the committing transaction additionally grows
/// the unit's version set cell by B = V_max ∪ {tid} (read, merge, LL/SC
/// write), which invalidates the unit on every other PN. The higher the
/// write ratio, the more the extra update requests and unit-wide
/// invalidations cost — which is exactly why
/// the paper's Fig. 11 shows SBVS losing to plain TB under TPC-C.
class VersionSyncBuffer final : public tx::RecordBuffer {
 public:
  /// `version_set_table` must be a dedicated storage table for the version
  /// set cells (created by TellDb). `unit_size` is the number of consecutive
  /// rids per cache unit (the paper evaluates 10 and 1000).
  VersionSyncBuffer(store::TableId version_set_table, uint64_t unit_size,
                    size_t capacity = 1 << 18)
      : version_set_table_(version_set_table),
        unit_size_(unit_size),
        capacity_(capacity) {}

  std::vector<Result<tx::FetchedRecord>> Read(
      store::StorageClient* client, const std::vector<tx::RecordKey>& keys,
      const tx::SnapshotDescriptor& snapshot) override;

  void OnApply(store::StorageClient* client, store::TableId table,
               uint64_t rid, const schema::VersionedRecord& record,
               uint64_t stamp, tx::Tid tid,
               const tx::SnapshotDescriptor& snapshot) override;

  void OnTransactionStart(const tx::SnapshotDescriptor& snapshot) override;

  void AccumulateStats(tx::BufferStats* out) const override;

  uint64_t unit_size() const { return unit_size_; }

 private:
  struct Unit {
    tx::SnapshotDescriptor valid_for;  // B of the whole unit
    bool has_version_set = false;
    std::map<uint64_t, tx::FetchedRecord> records;  // rid -> copy
  };
  using UnitKey = std::pair<store::TableId, uint64_t>;

  UnitKey UnitFor(store::TableId table, uint64_t rid) const {
    return {table, rid / unit_size_};
  }
  std::string UnitCellKey(const UnitKey& unit) const;

  const store::TableId version_set_table_;
  const uint64_t unit_size_;
  const size_t capacity_;  // max cached records across all units

  mutable std::mutex mutex_;
  tx::BufferStats stats_;  // guarded by mutex_
  std::map<UnitKey, Unit> units_;
  size_t cached_records_ = 0;
  tx::SnapshotDescriptor v_max_;
};

}  // namespace tell::buffer

#endif  // TELL_BUFFER_VERSION_SYNC_BUFFER_H_
