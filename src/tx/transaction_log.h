#ifndef TELL_TX_TRANSACTION_LOG_H_
#define TELL_TX_TRANSACTION_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "commitmgr/snapshot_descriptor.h"
#include "common/result.h"
#include "common/status.h"
#include "store/storage_client.h"

namespace tell::tx {

using commitmgr::Tid;

/// One transaction log entry (paper §4.4.1): identified by tid, carrying the
/// processing node id, a timestamp, the write set (updated record ids) and a
/// flag marking the transaction committed.
struct LogEntry {
  Tid tid = 0;
  uint32_t pn_id = 0;
  uint64_t timestamp_ns = 0;
  bool committed = false;
  /// (data table, rid) of every record the transaction applies.
  std::vector<std::pair<store::TableId, uint64_t>> write_set;

  std::string Serialize() const;
  static Result<LogEntry> Deserialize(std::string_view data);
};

/// The transaction log: an ordered map of log entries in the storage system,
/// keyed by tid. Before a transaction applies its updates it must append an
/// entry here (the Try-Commit step); after the updates and index changes are
/// installed, the committed flag is set. Recovery walks the log backwards
/// from the highest assigned tid down to the lav (which acts as a rolling
/// checkpoint) to find the uncommitted transactions of a failed PN.
class TransactionLog {
 public:
  explicit TransactionLog(store::TableId table) : table_(table) {}

  store::TableId table() const { return table_; }

  /// The put that appends `entry` (it must be the first write for this
  /// tid), for a caller that sends it along with other work in one call
  /// (Transaction::Commit), and the outcome of the append from that put's
  /// result — counted as an append.
  store::WriteOp AppendOp(const LogEntry& entry) const;
  Status Appended(store::StorageClient* client,
                  const Result<uint64_t>& put) const;

  /// The put that sets the committed flag of `entry`, the entry its
  /// transaction appended: an unconditional rewrite with `committed = true`,
  /// without reading it back. Transaction::Commit sends it in the first
  /// round after every index entry is in, next to the splits' separators.
  store::WriteOp MarkCommittedOp(LogEntry entry) const;

  /// Entries with tid in (lav, from_tid], newest first. Used by recovery.
  Result<std::vector<LogEntry>> ScanBackwards(store::StorageClient* client,
                                              Tid from_tid, Tid lav) const;

  /// Deletes entries with tid <= `lav` in one BatchWrite of erases (log
  /// truncation; the lav is a rolling checkpoint so nothing below it is
  /// ever needed again). Returns the number of entries erased.
  Result<size_t> Truncate(store::StorageClient* client, Tid lav) const;

 private:
  store::TableId table_;
};

}  // namespace tell::tx

#endif  // TELL_TX_TRANSACTION_LOG_H_
