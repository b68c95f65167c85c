#ifndef TELL_TX_RECORD_BUFFER_H_
#define TELL_TX_RECORD_BUFFER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "commitmgr/snapshot_descriptor.h"
#include "common/result.h"
#include "common/serde.h"
#include "common/stat_table.h"
#include "schema/versioned_record.h"
#include "store/storage_client.h"

namespace tell::tx {

using commitmgr::SnapshotDescriptor;
using commitmgr::Tid;

/// A record as held client-side: the parsed version set plus the LL/SC stamp
/// it was read with.
struct FetchedRecord {
  schema::VersionedRecord record;
  uint64_t stamp = store::kStampAbsent;
};

/// A shared buffer's counters (exported into the
/// obs::MetricsRegistry gauges `buffer.shared.*` by db::TellDb). Unlike the
/// per-worker `buffer_hits`/`buffer_misses` in sim::WorkerMetrics, these are
/// the buffer's own view: they include evictions and write-throughs, which no
/// single worker observes.
struct BufferStats : StatTable<BufferStats> {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t write_throughs = 0;

  static constexpr const char* kGaugePrefix = "buffer.shared.";
  static constexpr StatField<BufferStats> kFields[] = {
      {"hits", "reads", "shared-buffer probes served locally",
       &BufferStats::hits},
      {"misses", "reads", "shared-buffer probes that fetched from storage",
       &BufferStats::misses},
      {"evictions", "records", "records evicted (LRU/capacity)",
       &BufferStats::evictions},
      {"write_throughs", "records",
       "commit write-throughs into the shared buffer",
       &BufferStats::write_throughs},
  };
};

/// A record of a RecordBuffer::Read batch: its data table and rid.
using RecordKey = std::pair<store::TableId, uint64_t>;

/// The record fetch of every buffering strategy: gets the cells under
/// `keys` in one batched request and decodes them, positionally aligned with
/// `keys` (NotFound for an absent record). Counts each key as a buffer miss.
inline std::vector<Result<FetchedRecord>> FetchRecords(
    store::StorageClient* client, const std::vector<RecordKey>& keys) {
  if (keys.empty()) return {};
  std::vector<store::GetOp> ops;
  ops.reserve(keys.size());
  for (const auto& [table, rid] : keys) {
    ops.push_back({table, EncodeOrderedU64(rid)});
  }
  std::vector<Result<store::VersionedCell>> cells = client->BatchGet(ops);
  client->metrics()->buffer_misses += keys.size();
  auto decode = [](const Result<store::VersionedCell>& cell)
      -> Result<FetchedRecord> {
    if (!cell.ok()) return cell.status();
    TELL_ASSIGN_OR_RETURN(schema::VersionedRecord record,
                          schema::VersionedRecord::Deserialize(cell->value));
    return FetchedRecord{std::move(record), cell->stamp};
  };
  std::vector<Result<FetchedRecord>> out;
  out.reserve(keys.size());
  for (const Result<store::VersionedCell>& cell : cells) {
    out.push_back(decode(cell));
  }
  return out;
}

/// PN-level record buffering strategy (paper §5.5). The transaction's own
/// private buffer (strategy TB, §5.5.1) always exists inside Transaction;
/// an implementation of this interface optionally adds a buffer layer shared
/// by all transactions of a processing node:
///   * PassthroughBuffer  — no shared layer (= strategy TB alone),
///   * SharedRecordBuffer — §5.5.2 (strategy SB),
///   * VersionSyncBuffer  — §5.5.3 (strategy SBVS).
class RecordBuffer {
 public:
  virtual ~RecordBuffer() = default;

  /// Produces the records under `keys` in a state valid for a transaction
  /// reading with `snapshot`, positionally aligned with `keys` (NotFound for
  /// a record that does not exist). Serves buffered copies and fetches the
  /// rest from the storage system through `client` in batched requests
  /// (FetchRecords), charging their costs.
  virtual std::vector<Result<FetchedRecord>> Read(
      store::StorageClient* client, const std::vector<RecordKey>& keys,
      const SnapshotDescriptor& snapshot) = 0;

  /// Called after a transaction successfully applied a record at commit,
  /// before the commit manager learns of the commit: write-through so the
  /// buffer stays coherent. `tid` is the writer and `snapshot` its
  /// descriptor; `stamp` the new LL/SC stamp.
  virtual void OnApply(store::StorageClient* client, store::TableId table,
                       uint64_t rid, const schema::VersionedRecord& record,
                       uint64_t stamp, Tid tid,
                       const SnapshotDescriptor& snapshot) = 0;

  /// Called when a new transaction begins on this PN, with its snapshot —
  /// the buffers use the most recent snapshot (V_max) to label fetched
  /// records with the largest valid version set.
  virtual void OnTransactionStart(const SnapshotDescriptor& snapshot) = 0;

  /// Adds this buffer's counters into `*out`. Strategies without PN-level
  /// state contribute nothing (their misses are visible in the per-worker
  /// metrics already).
  virtual void AccumulateStats(BufferStats* out) const { (void)out; }
};

/// No shared buffering: every read (beyond the transaction's private buffer)
/// fetches the latest record from the storage system. This is the paper's
/// default and, per §6.7, the fastest strategy under TPC-C with fast RDMA.
class PassthroughBuffer final : public RecordBuffer {
 public:
  std::vector<Result<FetchedRecord>> Read(
      store::StorageClient* client, const std::vector<RecordKey>& keys,
      const SnapshotDescriptor&) override {
    return FetchRecords(client, keys);
  }

  void OnApply(store::StorageClient*, store::TableId, uint64_t,
               const schema::VersionedRecord&, uint64_t, Tid,
               const SnapshotDescriptor&) override {}

  void OnTransactionStart(const SnapshotDescriptor&) override {}
};

}  // namespace tell::tx

#endif  // TELL_TX_RECORD_BUFFER_H_
