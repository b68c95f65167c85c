#ifndef TELL_SIM_METRICS_H_
#define TELL_SIM_METRICS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "sim/histogram.h"

namespace tell::sim {

/// The phases of a transaction's life-cycle that the tracer attributes
/// virtual time to (paper §4.3 / Table 4). Each committed or aborted
/// transaction contributes at most one histogram sample per phase: the total
/// virtual time spent in that phase during the transaction.
enum class TxnPhase : uint32_t {
  kBegin = 0,      // commit manager start() round trip
  kIndexLookup,    // B+tree lookups and range scans
  kRead,           // record fetches (buffer probes + storage gets)
  kWrite,          // buffering updates client-side
  kValidate,       // LL/SC apply of the write set (+ serializable read-set
                   // validation)
  kCommit,         // log append, index maintenance, commit flag, manager
                   // notification
  kBufferSync,     // shared-buffer write-through
};

inline constexpr size_t kNumTxnPhases = 7;

inline constexpr std::array<const char*, kNumTxnPhases> kTxnPhaseNames = {
    "begin",  "index_lookup", "read",       "write",
    "validate", "commit",     "buffer_sync",
};

/// Per-worker counters accumulated while driving transactions. Workers each
/// own one (no synchronization); the harness merges them at the end of a run.
///
/// The authoritative list of fields (names, units, help text) lives in the
/// descriptor tables below (WorkerCounterFields / WorkerHistogramFields);
/// Merge and the obs::MetricsRegistry are both driven by those tables, so a
/// new field only needs to be added in two places: the struct and its table
/// row. docs/METRICS.md documents every descriptor (enforced by obs_test).
struct WorkerMetrics {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  /// Committed new-order transactions only (the TpmC numerator).
  uint64_t committed_new_order = 0;
  /// Storage requests issued (after batching).
  uint64_t storage_requests = 0;
  /// Logical storage operations (before batching).
  uint64_t storage_ops = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  /// Store-conditional failures observed by this worker (LL/SC conflicts,
  /// including rollback retries).
  uint64_t llsc_failures = 0;
  /// Transaction log entries appended (one per non-empty commit attempt).
  uint64_t log_appends = 0;
  /// B+tree point lookups + range scans issued.
  uint64_t index_lookups = 0;
  /// Record versions removed by eager GC while serializing the write set
  /// (§5.4: "record GC is part of the update process").
  uint64_t eager_gc_versions = 0;
  /// Storage requests re-issued after an Unavailable response (fail-over or
  /// injected fault) by the client's RetryPolicy.
  uint64_t storage_retries = 0;
  /// Requests that stayed Unavailable after the retry budget was spent.
  uint64_t storage_retries_exhausted = 0;
  /// Virtual time spent backing off between retry attempts.
  uint64_t retry_backoff_ns = 0;
  /// Ambiguous conditional writes/erases whose outcome was settled by a
  /// re-read instead of a blind re-issue.
  uint64_t ambiguous_resolved = 0;
  /// Commit rollbacks that abandoned at least one record revert after
  /// exhausting retries (leaves a version for lazy GC to collect).
  uint64_t rollback_unresolved = 0;
  /// Commits whose log commit-flag write failed after retries; the
  /// transaction is rolled back and aborted (the log flag is the source of
  /// truth for commit).
  uint64_t commit_flag_failures = 0;
  /// Index entries removed while rolling back a failed commit.
  uint64_t index_rollbacks = 0;
  /// B+tree nodes split (a node cut into any number of pieces counts once).
  uint64_t index_splits = 0;
  /// Serialized B+tree node cells written (share of bytes_sent).
  uint64_t index_node_bytes_sent = 0;
  /// Serialized B+tree node cells read (share of bytes_received).
  uint64_t index_node_bytes_received = 0;
  /// B+tree leaves a range scan read by a right-sibling hop round rather
  /// than with its descent.
  uint64_t index_scan_hop_leaves = 0;
  /// Obsolete index entries removed by the read path's index GC (§5.4),
  /// sent with the transaction's commit.
  uint64_t gc_index_entries = 0;
  /// Storage calls (single-op or batched) that issued at least one message:
  /// every pass through StorageClient's request path that was not answered
  /// entirely from the record cache.
  uint64_t pipeline_flushes = 0;
  /// Virtual time saved by overlapping the messages of one call versus
  /// issuing them one synchronous round trip at a time.
  uint64_t pipeline_overlap_saved_ns = 0;
  /// Coalesced commit-manager messages sent (a begin plus any piggybacked
  /// finish notifications count as one).
  uint64_t cm_messages = 0;
  /// Logical commit-manager ops (begins + finish notifications) carried in
  /// those messages.
  uint64_t cm_ops = 0;
  /// Request + response bytes of commit-manager messages (incl. framing).
  uint64_t cm_bytes = 0;
  /// Commit-manager begins re-issued after Unavailable (RetryPolicy).
  uint64_t cm_retries = 0;
  /// Begins answered with a delta-encoded snapshot.
  uint64_t cm_delta_syncs = 0;
  /// Begins answered with the full descriptor (first contact, manager
  /// generation change, or delta not smaller).
  uint64_t cm_full_syncs = 0;
  /// Response bytes avoided by delta-encoded snapshots vs shipping the full
  /// descriptor on every begin.
  uint64_t cm_delta_bytes_saved = 0;
  /// Virtual time saved by carrying finish notifications on the next begin
  /// versus paying each op its own round trip.
  uint64_t cm_batch_saved_ns = 0;
  /// Record reads served from the client record cache (lease epochs valid).
  uint64_t cache_hits = 0;
  /// Record reads that missed (or lease-invalidated) the client record cache.
  uint64_t cache_misses = 0;
  /// Reads completed as one-sided (RDMA READ-style) fetches: no storage-node
  /// CPU involved, validated client-side against the partition lease epoch.
  uint64_t onesided_reads = 0;
  /// One-sided fetches whose lease-epoch validation failed (concurrent write
  /// or injected fault); each one fell back to the two-sided path.
  uint64_t onesided_validation_failures = 0;
  /// Reads that fell back to the two-sided RPC path after a one-sided
  /// attempt (validation failure, fault, or unroutable partition).
  uint64_t onesided_fallbacks = 0;
  /// Scan fragments executed on storage nodes (one per partition per
  /// pushed-down scan: an aggregate or a filtered row scan).
  uint64_t scan_fragments = 0;
  /// Cells scan fragments fed to their sinks on the storage nodes.
  uint64_t scan_rows_scanned = 0;
  /// Rows (matching rows, or aggregate groups) shipped back by scan
  /// fragments, counted per partition.
  uint64_t scan_rows_returned = 0;
  /// Response bytes avoided by shipping partial-aggregate states instead of
  /// matching rows (row-shipping baseline minus actual partial-state bytes).
  uint64_t scan_bytes_saved = 0;
  /// Times a chunked fragment scan released every stripe lock mid-partition
  /// (the "never holds a table for a full pass" counter).
  uint64_t scan_chunk_lock_releases = 0;

  /// Transaction response time distribution (virtual ns).
  Histogram response_time;
  /// Logical ops per coalesced storage message (one sample per message).
  Histogram batch_size;
  /// Ops of one storage call that needed the network (past the cache).
  Histogram pipeline_in_flight;
  /// Logical ops per coalesced commit-manager message.
  Histogram cm_batch_size;
  /// Storage calls that issued a message (pipeline_flushes) per finished
  /// transaction: the transaction's round budget.
  Histogram storage_rounds;
  /// Per-phase virtual time, one sample per transaction per touched phase.
  std::array<Histogram, kNumTxnPhases> phase_ns;

  void Merge(const WorkerMetrics& other);

  double AbortRate() const {
    uint64_t total = committed + aborted;
    return total == 0 ? 0.0 : static_cast<double>(aborted) /
                                  static_cast<double>(total);
  }

  double BufferHitRate() const {
    uint64_t total = buffer_hits + buffer_misses;
    return total == 0 ? 0.0 : static_cast<double>(buffer_hits) /
                                  static_cast<double>(total);
  }
};

/// Descriptor of one WorkerMetrics counter: registry name, unit, help and
/// the member it lives in. The table drives Merge() and the builtin catalog
/// of obs::MetricsRegistry.
struct WorkerCounterField {
  const char* name;
  const char* unit;
  const char* help;
  uint64_t WorkerMetrics::*field;
};

/// Descriptor of one WorkerMetrics histogram. `phase` >= 0 selects
/// phase_ns[phase]; otherwise `member` names the histogram.
struct WorkerHistogramField {
  const char* name;
  const char* unit;
  const char* help;
  Histogram WorkerMetrics::*member;
  int phase;
};

inline const std::vector<WorkerCounterField>& WorkerCounterFields() {
  static const std::vector<WorkerCounterField> kFields = {
      {"tx.committed", "txns", "committed transactions",
       &WorkerMetrics::committed},
      {"tx.aborted", "txns", "aborted transactions", &WorkerMetrics::aborted},
      {"tx.committed_new_order", "txns",
       "committed TPC-C new-order transactions (TpmC numerator)",
       &WorkerMetrics::committed_new_order},
      {"store.requests", "requests", "storage requests (after batching)",
       &WorkerMetrics::storage_requests},
      {"store.ops", "ops", "logical storage operations (before batching)",
       &WorkerMetrics::storage_ops},
      {"net.bytes_sent", "bytes", "request payload + framing bytes sent",
       &WorkerMetrics::bytes_sent},
      {"net.bytes_received", "bytes", "response payload bytes received",
       &WorkerMetrics::bytes_received},
      {"buffer.hits", "reads", "record reads served from a buffer",
       &WorkerMetrics::buffer_hits},
      {"buffer.misses", "reads", "record reads that hit the storage system",
       &WorkerMetrics::buffer_misses},
      {"store.llsc_failures", "ops",
       "store-conditional failures observed client-side",
       &WorkerMetrics::llsc_failures},
      {"txlog.appends", "entries", "transaction log entries appended",
       &WorkerMetrics::log_appends},
      {"index.lookups", "lookups", "B+tree point lookups and range scans",
       &WorkerMetrics::index_lookups},
      {"gc.eager_versions_removed", "versions",
       "record versions removed by eager GC at commit",
       &WorkerMetrics::eager_gc_versions},
      {"store.retries", "requests",
       "storage requests re-issued after Unavailable (RetryPolicy)",
       &WorkerMetrics::storage_retries},
      {"store.retries_exhausted", "requests",
       "requests still Unavailable after the retry budget",
       &WorkerMetrics::storage_retries_exhausted},
      {"store.retry_backoff_ns", "ns",
       "virtual time spent in retry backoff",
       &WorkerMetrics::retry_backoff_ns},
      {"store.ambiguous_resolved", "ops",
       "ambiguous conditional writes settled by re-read",
       &WorkerMetrics::ambiguous_resolved},
      {"tx.rollback_unresolved", "records",
       "record reverts abandoned after retries during commit rollback",
       &WorkerMetrics::rollback_unresolved},
      {"tx.commit_flag_failures", "txns",
       "commits aborted because the log commit flag could not be written",
       &WorkerMetrics::commit_flag_failures},
      {"tx.index_rollbacks", "entries",
       "index entries removed while rolling back a failed commit",
       &WorkerMetrics::index_rollbacks},
      {"index.splits", "nodes", "B+tree nodes split",
       &WorkerMetrics::index_splits},
      {"index.node_bytes_sent", "bytes", "serialized B+tree node cells written",
       &WorkerMetrics::index_node_bytes_sent},
      {"index.node_bytes_received", "bytes",
       "serialized B+tree node cells read",
       &WorkerMetrics::index_node_bytes_received},
      {"index.scan_hop_leaves", "leaves",
       "B+tree leaves a range scan read by a right-sibling hop round",
       &WorkerMetrics::index_scan_hop_leaves},
      {"gc.eager_index_entries_removed", "entries",
       "obsolete index entries removed by read-path index GC",
       &WorkerMetrics::gc_index_entries},
      {"store.pipeline.flushes", "flushes",
       "storage calls that issued at least one message",
       &WorkerMetrics::pipeline_flushes},
      {"store.pipeline.overlap_saved_ns", "ns",
       "virtual time saved by overlapping a call's messages vs serial issue",
       &WorkerMetrics::pipeline_overlap_saved_ns},
      {"commitmgr.rpc_messages", "messages",
       "coalesced commit-manager messages (begin + piggybacked finishes)",
       &WorkerMetrics::cm_messages},
      {"commitmgr.rpc_ops", "ops",
       "logical commit-manager ops carried in those messages",
       &WorkerMetrics::cm_ops},
      {"commitmgr.rpc_bytes", "bytes",
       "request + response bytes of commit-manager messages",
       &WorkerMetrics::cm_bytes},
      {"commitmgr.retries", "requests",
       "commit-manager begins re-issued after Unavailable",
       &WorkerMetrics::cm_retries},
      {"commitmgr.delta.syncs", "begins",
       "begins answered with a delta-encoded snapshot",
       &WorkerMetrics::cm_delta_syncs},
      {"commitmgr.delta.full_syncs", "begins",
       "begins answered with the full snapshot descriptor",
       &WorkerMetrics::cm_full_syncs},
      {"commitmgr.delta.bytes_saved", "bytes",
       "response bytes avoided by delta-encoded snapshots vs full descriptors",
       &WorkerMetrics::cm_delta_bytes_saved},
      {"commitmgr.batch.saved_ns", "ns",
       "virtual time saved by piggybacking finish notifications on begins",
       &WorkerMetrics::cm_batch_saved_ns},
      {"store.cache.hits", "reads",
       "record reads served from the client record cache",
       &WorkerMetrics::cache_hits},
      {"store.cache.misses", "reads",
       "record reads that missed or were lease-invalidated in the client "
       "record cache",
       &WorkerMetrics::cache_misses},
      {"store.onesided.reads", "reads",
       "reads completed as one-sided (RDMA READ-style) fetches",
       &WorkerMetrics::onesided_reads},
      {"store.onesided.validation_failures", "reads",
       "one-sided fetches whose lease-epoch validation failed",
       &WorkerMetrics::onesided_validation_failures},
      {"store.onesided.fallbacks", "reads",
       "reads that fell back to the two-sided path after a one-sided attempt",
       &WorkerMetrics::onesided_fallbacks},
      {"sql.scan.fragments", "fragments",
       "scan fragments that pushed a predicate or an aggregate down to "
       "storage nodes",
       &WorkerMetrics::scan_fragments},
      {"sql.scan.rows_scanned", "rows",
       "cells examined by scan fragments",
       &WorkerMetrics::scan_rows_scanned},
      {"sql.scan.rows_returned", "rows",
       "rows or aggregate groups shipped back by scan fragments",
       &WorkerMetrics::scan_rows_returned},
      {"sql.scan.bytes_saved", "bytes",
       "response bytes avoided by shipping partial-aggregate states instead "
       "of rows",
       &WorkerMetrics::scan_bytes_saved},
      {"sql.scan.chunk_lock_releases", "releases",
       "stripe-lock releases between chunks of fragment scans",
       &WorkerMetrics::scan_chunk_lock_releases},
  };
  return kFields;
}

inline const std::vector<WorkerHistogramField>& WorkerHistogramFields() {
  static const std::vector<WorkerHistogramField> kFields = [] {
    std::vector<WorkerHistogramField> fields = {
        {"tx.response_time", "ns", "transaction response time (virtual)",
         &WorkerMetrics::response_time, -1},
        {"store.batch_size", "ops", "logical ops per coalesced storage message",
         &WorkerMetrics::batch_size, -1},
        {"store.pipeline.in_flight", "ops",
         "ops of one storage call that needed the network",
         &WorkerMetrics::pipeline_in_flight, -1},
        {"commitmgr.batch.size", "ops",
         "logical ops per coalesced commit-manager message",
         &WorkerMetrics::cm_batch_size, -1},
        {"tx.storage_rounds", "calls",
         "storage calls that issued a message, per finished transaction",
         &WorkerMetrics::storage_rounds, -1},
    };
    static const std::array<const char*, kNumTxnPhases> kPhaseMetricNames = {
        "tx.phase.begin",    "tx.phase.index_lookup", "tx.phase.read",
        "tx.phase.write",    "tx.phase.validate",     "tx.phase.commit",
        "tx.phase.buffer_sync",
    };
    static const std::array<const char*, kNumTxnPhases> kPhaseHelp = {
        "virtual time per txn in begin (commit manager start)",
        "virtual time per txn in index lookups/scans",
        "virtual time per txn fetching records",
        "virtual time per txn buffering writes",
        "virtual time per txn in LL/SC apply + read-set validation",
        "virtual time per txn in commit bookkeeping",
        "virtual time per txn in shared-buffer write-through",
    };
    for (size_t p = 0; p < kNumTxnPhases; ++p) {
      fields.push_back({kPhaseMetricNames[p], "ns", kPhaseHelp[p], nullptr,
                        static_cast<int>(p)});
    }
    return fields;
  }();
  return kFields;
}

inline const Histogram& GetWorkerHistogram(const WorkerMetrics& m,
                                           const WorkerHistogramField& f) {
  return f.phase >= 0 ? m.phase_ns[static_cast<size_t>(f.phase)] : m.*f.member;
}

inline Histogram& GetWorkerHistogram(WorkerMetrics& m,
                                     const WorkerHistogramField& f) {
  return f.phase >= 0 ? m.phase_ns[static_cast<size_t>(f.phase)] : m.*f.member;
}

inline void WorkerMetrics::Merge(const WorkerMetrics& other) {
  for (const WorkerCounterField& f : WorkerCounterFields()) {
    this->*f.field += other.*f.field;
  }
  for (const WorkerHistogramField& f : WorkerHistogramFields()) {
    GetWorkerHistogram(*this, f).Merge(GetWorkerHistogram(other, f));
  }
}

}  // namespace tell::sim

#endif  // TELL_SIM_METRICS_H_
