#ifndef TELL_TX_TRANSACTION_H_
#define TELL_TX_TRANSACTION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "commitmgr/commit_manager.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/trace.h"
#include "schema/tuple.h"
#include "schema/versioned_record.h"
#include "store/storage_client.h"
#include "tx/catalog.h"
#include "tx/commit_manager_client.h"
#include "tx/record_buffer.h"
#include "tx/transaction_log.h"

namespace tell::tx {

class Transaction;

/// Per-worker execution context on a processing node: the storage client
/// (with this worker's virtual clock and metrics), the commit manager
/// binding, the transaction log, the PN's shared record buffer and the rid
/// allocator. One Session per worker thread; not thread safe.
class Session {
 public:
  Session(uint32_t pn_id, uint32_t worker_id, store::Cluster* cluster,
          store::ManagementNode* management,
          const store::ClientOptions& client_options,
          commitmgr::CommitManagerGroup* commit_managers,
          const TransactionLog* log, RecordBuffer* record_buffer)
      : pn_id_(pn_id),
        worker_id_(worker_id),
        client_(cluster, management, client_options, &clock_, &metrics_),
        commit_managers_(commit_managers),
        cm_client_(commit_managers, &client_),
        log_(log),
        record_buffer_(record_buffer) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint32_t pn_id() const { return pn_id_; }
  uint32_t worker_id() const { return worker_id_; }
  store::StorageClient* client() { return &client_; }
  sim::VirtualClock* clock() { return &clock_; }
  sim::WorkerMetrics* metrics() { return &metrics_; }
  obs::TxnTracer* tracer() { return &tracer_; }
  const TransactionLog* log() const { return log_; }
  RecordBuffer* record_buffer() { return record_buffer_; }
  commitmgr::CommitManagerGroup* commit_managers() {
    return commit_managers_;
  }
  /// The session's window to the commit managers.
  CommitManagerClient* commitmgr_client() { return &cm_client_; }

  /// Allocates a fresh rid for `table` from the session's cached range.
  Result<uint64_t> AllocateRid(const TableMeta* table);

 private:
  friend class Transaction;

  const uint32_t pn_id_;
  const uint32_t worker_id_;
  sim::VirtualClock clock_;
  sim::WorkerMetrics metrics_;
  /// Phase tracer charging this worker's virtual time to transaction phases
  /// (one histogram sample per phase per transaction; see obs/trace.h).
  obs::TxnTracer tracer_{&clock_, &metrics_};
  store::StorageClient client_;
  commitmgr::CommitManagerGroup* const commit_managers_;
  /// Declared after client_: constructed with it alive, destroyed first
  /// (its destructor charges deferred finish costs through the client).
  CommitManagerClient cm_client_;
  const TransactionLog* const log_;
  RecordBuffer* const record_buffer_;
  /// Cached rid ranges per data table: (next, end inclusive).
  std::map<store::TableId, std::pair<uint64_t, uint64_t>> rid_ranges_;
};

enum class TxnState { kPending, kRunning, kCommitted, kAborted };

/// One key of a Transaction::BatchLookupPrimary call: a table and the
/// values of its primary key.
struct TableKey {
  TableHandle* table = nullptr;
  std::vector<schema::Value> key;
};

/// One range of a Transaction::BatchScanIndex call: the visible rows whose
/// key in index `index` of `table` (-1 = primary) lies in [lo, hi), encoded
/// (empty `hi` = unbounded), at most `limit` of them (0 = unlimited).
struct IndexRange {
  TableHandle* table = nullptr;
  int index = -1;
  std::string lo;
  std::string hi;
  size_t limit = 0;
};

/// Per-transaction options.
struct TxnOptions {
  /// Serializable snapshot isolation (the paper's §4.1 "near future" item,
  /// implemented here): at commit, after the writes are installed, the
  /// read set is re-validated against the store — if any record read (but
  /// not written) by this transaction changed since it was read, or the
  /// read missed a version committed after the snapshot was taken, the
  /// transaction aborts. This closes SI's write-skew anomaly: of two
  /// transactions with intersecting read/write sets, at most one can pass
  /// validation (writes install before reads validate, so the later
  /// validator observes the earlier installer's write).
  bool serializable = false;
};

/// Records RevertVersions reverted, and those it left to lazy GC.
struct RevertCounts {
  size_t reverted = 0;
  /// Reads or writes that kept failing on transient errors, corrupt cells,
  /// and records still losing their LL/SC after the last round.
  size_t unresolved = 0;
};

/// Removes version `tid` from each record of `keys` in batched rounds: one
/// BatchGet of every pending record, one BatchWrite of the reverts (an
/// erase once no version remains), and another pair for the records whose
/// LL/SC lost to a concurrent writer. Records without version `tid` are
/// skipped after one read. `riders` travel in the first round's request,
/// best effort. The one revert loop of commit rollback and of processing
/// node recovery (§4.4.1).
RevertCounts RevertVersions(store::StorageClient* client,
                            const std::vector<RecordKey>& keys, Tid tid,
                            const std::vector<store::WriteOp>& riders = {});

/// One ACID transaction under distributed snapshot isolation (paper §4).
///
/// Life-cycle (§4.3): Begin (fetch tid/snapshot/lav from the commit
/// manager) -> Running (reads fetch records and cache them in the private
/// transaction buffer; updates are buffered) -> Commit (append the log
/// entry while the index leaves are read, apply all buffered updates with
/// LL/SC conditional puts — a failed store-conditional is a write-write
/// conflict and aborts the transaction — then write the indexes, set the
/// committed flag and notify the commit manager). Manual Abort never
/// touches the store.
class Transaction {
 public:
  explicit Transaction(Session* session, const TxnOptions& options = {});

  /// A still-running transaction aborts on destruction (the commit manager
  /// must learn about every tid, or the snapshot base would stall).
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Contacts the commit manager; must be called exactly once, first.
  Status Begin();

  Tid tid() const { return tid_; }
  Tid lav() const { return lav_; }
  const SnapshotDescriptor& snapshot() const { return snapshot_; }
  TxnState state() const { return state_; }

  // --- Record operations --------------------------------------------------

  /// Reads the version of record `rid` visible in this snapshot. nullopt if
  /// the record does not exist (or is deleted) in this snapshot.
  Result<std::optional<schema::Tuple>> Read(TableHandle* table, uint64_t rid);

  /// Reads many records of one table; fetches not yet buffered records in
  /// one batched request. Results positionally match `rids`.
  Result<std::vector<std::optional<schema::Tuple>>> BatchRead(
      TableHandle* table, const std::vector<uint64_t>& rids);

  /// Inserts a new record, allocating its rid (returned). With
  /// `check_unique` the primary key is probed first (costs one index
  /// lookup); racing duplicate inserts are additionally caught by the unique
  /// index at commit.
  Result<uint64_t> Insert(TableHandle* table, const schema::Tuple& tuple,
                          bool check_unique = true);

  /// Replaces the record's content (a new version with this transaction's
  /// tid). The record must be visible in this snapshot.
  Status Update(TableHandle* table, uint64_t rid, const schema::Tuple& tuple);

  /// Deletes the record (writes a tombstone version).
  Status Delete(TableHandle* table, uint64_t rid);

  // --- Index operations ---------------------------------------------------

  /// Rid under the primary key, if the record is visible. One index lookup
  /// plus one record fetch (the fetch stays buffered for a following Read).
  /// A one-key BatchLookupPrimary.
  Result<std::optional<uint64_t>> LookupPrimary(
      TableHandle* table, const std::vector<schema::Value>& key);

  /// Primary-key lookups for many keys at once, of one table or many,
  /// positionally aligned with `keys`. The B+tree descents of every table
  /// share their rounds (BTree::BatchLookup) and the candidate records of
  /// every table are prefetched in one batched request, so K independent
  /// lookups cost about two round trips with warm inner-node caches: one
  /// for the leaves, one for the records. The fetched records stay
  /// buffered for following Reads.
  Result<std::vector<std::optional<uint64_t>>> BatchLookupPrimary(
      const std::vector<TableKey>& keys);

  /// All visible rids under `key` in the given index (-1 = primary): one
  /// index lookup plus one batched fetch of every candidate record.
  /// Version-unaware index entries are validated against the fetched
  /// records; obsolete entries are garbage collected on the way (§5.4).
  Result<std::vector<uint64_t>> LookupIndex(
      TableHandle* table, int index, const std::vector<schema::Value>& key);

  /// Visible (rid, tuple) pairs with index key in [start, end); empty end =
  /// unbounded. Merges this transaction's own pending inserts.
  Result<std::vector<std::pair<uint64_t, schema::Tuple>>> ScanIndex(
      TableHandle* table, int index, const std::vector<schema::Value>& start,
      const std::vector<schema::Value>& end, size_t limit);

  /// Same, with pre-encoded byte bounds (used by the SQL planner for prefix
  /// and range scans over composite keys). A one-range BatchScanIndex.
  Result<std::vector<std::pair<uint64_t, schema::Tuple>>> ScanIndexEncoded(
      TableHandle* table, int index, const std::string& start,
      const std::string& end, size_t limit);

  /// Index range scans, of one table or many, in shared rounds; results are
  /// positionally aligned with `ranges`. One batched descent serves every
  /// range's start key and each further leaf round fetches the next right
  /// sibling of every range that still needs entries
  /// (BTree::BatchScan). Each record round fetches, for every range, only
  /// its next `limit` unvalidated candidates — all of them for unlimited
  /// ranges — in one batched request across tables. A range whose
  /// candidates validate to nothing (invisible versions, index garbage)
  /// continues past them rather than returning a truncated result. Merges
  /// this transaction's own pending inserts; obsolete entries found on the
  /// way are queued for GC (see LookupIndex).
  Result<std::vector<std::vector<std::pair<uint64_t, schema::Tuple>>>>
  BatchScanIndex(const std::vector<IndexRange>& ranges);

  /// Row predicate of FilteredScan; an error fails the scan with it.
  using RowPredicate = std::function<Result<bool>(const schema::Tuple&)>;

  /// Full-table scan, the only one: one row-collecting scan fragment per
  /// partition, run through the same chunked, lock-releasing path as
  /// ExecuteScanFragment. With a `predicate` the selection is pushed down
  /// to the storage nodes (§5.2) and only records whose snapshot-visible
  /// version satisfies it travel over the network; an empty predicate
  /// ships every visible record and, pushing no operator down, leaves the
  /// sql.scan.* counters alone. Either way only visible payloads travel,
  /// not the stored version history. Own buffered writes are merged in
  /// afterwards and the result is sorted by rid. `limit` (0 = unlimited)
  /// stops each partition's scan after that many matches and cuts the
  /// merged result; it is ignored while this transaction holds dirty writes
  /// on the table, because the private overlay could displace server-chosen
  /// rows. A serializable transaction then reads the returned records into
  /// its buffer in one batched round, so they join the read set validated
  /// at commit (one committed between the scan and that read fails the
  /// newest-version check). Designed for the OLAP side of mixed workloads.
  Result<std::vector<std::pair<uint64_t, schema::Tuple>>> FilteredScan(
      TableHandle* table, const RowPredicate& predicate, size_t limit = 0);

  /// Snapshot-visibility closure for storage-side scan execution: maps raw
  /// VersionedRecord bytes to the payload of the version visible under this
  /// transaction's snapshot (false when none is live). FilteredScan and the
  /// vectorized fragment path (sql::AggregateFragmentSink) are both built
  /// on it, so chunked scans judge visibility identically to point reads.
  std::function<bool(std::string_view cell_value, std::string* payload)>
  VisibilityClosure() const;

  /// Fans a vectorized scan fragment out to every partition of the table
  /// (DESIGN.md "Vectorized scans & aggregate pushdown") and returns the
  /// per-partition sinks with partial-aggregate states plus the traffic
  /// accounting. `make_sink` builds one sink per partition (and per retry);
  /// `descriptor_bytes` is the serialized fragment size charged per
  /// request. Updates the sql.scan.* worker counters. Fails with
  /// InvalidArgument while the transaction holds dirty writes on the
  /// table, or is serializable (the fold's rows would escape read-set
  /// validation); the caller must then fold FilteredScan's rows on the
  /// processing node instead.
  Result<store::FragmentScanOutcome> ExecuteScanFragment(
      TableHandle* table, uint64_t descriptor_bytes,
      const store::FragmentSinkFactory& make_sink);

  /// Whether ExecuteScanFragment may fold `table` on the storage nodes:
  /// the transaction holds no dirty writes on it (the storage nodes cannot
  /// see them) and is not serializable (the folded records would escape
  /// read-set validation). Otherwise the executor's fold runs on the
  /// processing node over FilteredScan's rows.
  bool CanFoldOnStorage(const TableHandle* table) const;

  /// Convenience: LookupPrimary + Read.
  Result<std::optional<schema::Tuple>> ReadByKey(
      TableHandle* table, const std::vector<schema::Value>& key);

  /// Rid variant of ReadByKey returning both pieces.
  Result<std::optional<std::pair<uint64_t, schema::Tuple>>> ReadByKeyWithRid(
      TableHandle* table, const std::vector<schema::Value>& key);

  // --- Completion -----------------------------------------------------------

  /// Try-Commit + Commit (§4.3). Returns OK, or Aborted on a write-write
  /// conflict (all partially applied updates rolled back).
  Status Commit();

  /// Manual abort; no updates were applied, only the commit manager is
  /// notified.
  Status Abort();

 private:
  struct RecordState {
    schema::VersionedRecord record;
    uint64_t stamp = store::kStampAbsent;
    bool exists = false;  // present in the store when fetched
    bool dirty = false;
    bool is_new = false;  // first version written by this transaction
    TableHandle* table = nullptr;
  };

  /// Fetches (or returns the buffered) record state: a one-record
  /// PrefetchMissing.
  Result<RecordState*> EnsureFetched(TableHandle* table, uint64_t rid);

  /// The version of `state` visible in this transaction's snapshot (its
  /// own write included).
  const schema::RecordVersion* Visible(const RecordState& state) const {
    return state.record.VisibleVersion(snapshot_, tid_);
  }

  /// Fills the transaction buffer with the (table, rid) records not yet
  /// buffered through one RecordBuffer::Read across tables, and returns
  /// them (each once, in (data table, rid) order). Every record fetch of
  /// the transaction goes through here.
  Result<std::vector<std::pair<TableHandle*, uint64_t>>> PrefetchMissing(
      const std::vector<std::pair<TableHandle*, uint64_t>>& records);

  /// Registers index insertions for the new tuple (vs. the previously
  /// visible tuple for updates; `old_tuple` null for inserts).
  Status QueueIndexInserts(TableHandle* table, uint64_t rid,
                           const schema::Tuple& tuple,
                           const schema::Tuple* old_tuple);

  /// Commit step 3a: prepares the queued index GC removals, then
  /// index_ops_, as one multi-tree BTree::PrepareInsert — the descents of
  /// all trees share their rounds and `riders` travel in the first, next
  /// to its leaf reads. Writes nothing of the index; fails with
  /// AlreadyExists on a unique violation.
  Status PrepareIndexOps(const std::vector<store::WriteOp>& riders,
                         std::vector<Result<uint64_t>>* rider_results,
                         index::BTree::Prepared* prepared);

  /// Commit step 3b: writes what PrepareIndexOps prepared, every touched
  /// leaf of every tree in one BatchWrite, then the separators of their
  /// splits with `riders` (see BTree::WriteInsert). On failure the inserted
  /// entries that did make it in are removed again before the error is
  /// returned, and the riders were not sent.
  Status WriteIndexOps(index::BTree::Prepared* prepared,
                       std::vector<store::WriteOp> riders = {},
                       std::vector<Result<uint64_t>>* rider_results = nullptr);

  /// Queues the removal of an obsolete index entry that ValidateIndexHit
  /// found; the commit sends it with its index batch (once per entry).
  void QueueIndexRemoval(index::BTree* tree, const std::string& key,
                         uint64_t rid);

  /// Rolls back a failed commit attempt: RevertVersions of this
  /// transaction's version over the full dirty set (not just the ops that
  /// reported success), so that a conditional put whose response was lost
  /// but that DID apply is reverted too. Unresolved keys are counted in
  /// tx.rollback_unresolved. `riders` (erases of unreachable fresh B+tree
  /// nodes) travel in the first round, best effort.
  void RollbackApplied(const std::vector<RecordKey>& dirty,
                       const std::vector<store::WriteOp>& riders = {});

  /// Removes the entries of index_ops_ flagged in `applied` from their
  /// B-trees in one BatchInsert of removes (undo of commit step 3 when an
  /// index insert or the commit flag write fails).
  void RollbackIndexInserts(const std::vector<bool>& applied);

  /// Write-write conflict check for scenario 1 of §4.1: fails with Aborted
  /// if the record holds a version that is neither ours nor visible in our
  /// snapshot (a concurrent transaction already applied an update).
  Status CheckWritable(const RecordState& state) const;

  /// Serializable mode: re-reads the stamps of all records in the read set
  /// (fetched but not written). OK if every read returned the newest
  /// version in its cell and no stamp changed since; Aborted otherwise.
  Status ValidateReadSet();
  /// Whether this transaction has buffered dirty writes on `table`.
  bool HasDirtyWrites(const TableHandle* table) const;

  /// The lookup core of LookupIndex and BatchLookupPrimary, for keys of any
  /// index of any table (`tables[i]` owns `keys[i].tree`): one shared
  /// descent (BTree::BatchLookup), this transaction's pending inserts
  /// merged in, every candidate record prefetched in one batched request,
  /// then each candidate validated (ValidateIndexHit). Returns the visible
  /// rids of each key, in rid order.
  Result<std::vector<std::vector<uint64_t>>> LookupVisible(
      const std::vector<TableHandle*>& tables,
      const std::vector<index::TreeKey>& keys);

  /// Validates an index hit: fetches the record, checks some version still
  /// carries `key` and the record is not dead below the lav (else queues
  /// the entry for GC), and returns the tuple if the visible version
  /// matches the key.
  Result<std::optional<schema::Tuple>> ValidateIndexHit(
      TableHandle* table, index::BTree* tree, const std::string& key,
      uint64_t rid);

  /// Shared storage step of FilteredScan and ExecuteScanFragment: fans one
  /// sink per partition out through StorageClient::ExecuteFragmentScan and,
  /// when the fragment pushes an operator down, updates the sql.scan.*
  /// counters.
  Result<store::FragmentScanOutcome> FanOutFragment(
      TableHandle* table, uint64_t descriptor_bytes,
      const store::FragmentSinkFactory& make_sink, bool pushed_down);

  Status FinishCommitEmpty();
  /// The one abort tail of Commit once step 1 ran: tells the commit manager,
  /// marks the transaction aborted and counts it, and returns `cause` with
  /// a lost LL/SC or a unique-index violation reported as Aborted.
  Status AbortCommit(const Status& cause);

  Session* const session_;
  store::StorageClient* const client_;
  obs::TxnTracer* const tracer_;
  const TxnOptions options_;
  TxnState state_ = TxnState::kPending;
  Tid tid_ = 0;
  Tid lav_ = 0;
  SnapshotDescriptor snapshot_;
  commitmgr::CommitManager* commit_manager_ = nullptr;

  std::map<RecordKey, RecordState> buffer_;
  std::vector<index::BatchInsertOp> index_ops_;
  /// Index GC found by this transaction's reads (remove ops), and the
  /// (index table, key, rid) entries they name.
  std::vector<index::BatchInsertOp> gc_removals_;
  std::set<std::tuple<store::TableId, std::string, uint64_t>> gc_queued_;
  /// Own pending index inserts, visible to this transaction's lookups:
  /// (index store table, key) -> rids.
  std::map<std::pair<store::TableId, std::string>, std::vector<uint64_t>>
      pending_index_;
};

}  // namespace tell::tx

#endif  // TELL_TX_TRANSACTION_H_
