#ifndef TELL_TX_GARBAGE_COLLECTOR_H_
#define TELL_TX_GARBAGE_COLLECTOR_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "commitmgr/commit_manager.h"
#include "common/result.h"
#include "common/stat_table.h"
#include "store/storage_client.h"
#include "tx/catalog.h"
#include "tx/transaction_log.h"

namespace tell::tx {

struct GcStats : StatTable<GcStats> {
  uint64_t records_rewritten = 0;
  uint64_t versions_removed = 0;
  uint64_t records_erased = 0;
  uint64_t index_entries_removed = 0;
  uint64_t log_entries_truncated = 0;

  static constexpr const char* kGaugePrefix = "gc.";
  static constexpr StatField<GcStats> kFields[] = {
      {"records_rewritten", "records",
       "records rewritten with pruned version chains by lazy GC sweeps",
       &GcStats::records_rewritten},
      {"versions_removed", "versions",
       "record versions removed by lazy GC sweeps",
       &GcStats::versions_removed},
      {"records_erased", "records", "empty records erased by lazy GC sweeps",
       &GcStats::records_erased},
      {"index_entries_removed", "entries",
       "obsolete index entries removed by lazy GC sweeps",
       &GcStats::index_entries_removed},
      {"log_entries_truncated", "entries",
       "transaction log entries truncated below the lav",
       &GcStats::log_entries_truncated},
  };
};

/// The lazy garbage collection strategy (paper §5.4): a background task that
/// sweeps all records in regular intervals and removes versions (and whole
/// records, and their index entries) that can never be accessed again
/// because they are older than the lowest active version number. Complements
/// the eager strategy, which runs inline with updates (Transaction::Commit)
/// and reads (index entry validation).
class GarbageCollector {
 public:
  explicit GarbageCollector(commitmgr::CommitManagerGroup* commit_managers)
      : commit_managers_(commit_managers) {}

  GarbageCollector(const GarbageCollector&) = delete;
  GarbageCollector& operator=(const GarbageCollector&) = delete;

  /// One sweep over a table's records at the current global lav.
  Result<GcStats> SweepTable(store::StorageClient* client, TableHandle* table);

  /// Sweeps all given tables and truncates the transaction log below the
  /// lav.
  Result<GcStats> Sweep(store::StorageClient* client,
                        const std::vector<TableHandle*>& tables,
                        const TransactionLog* log);

  /// Cumulative totals across every sweep since construction (exported into
  /// the obs::MetricsRegistry gauges `gc.*` by db::TellDb).
  GcStats totals() const {
    std::lock_guard<std::mutex> lock(totals_mutex_);
    return totals_;
  }

 private:
  commitmgr::CommitManagerGroup* const commit_managers_;
  mutable std::mutex totals_mutex_;
  GcStats totals_;
};

}  // namespace tell::tx

#endif  // TELL_TX_GARBAGE_COLLECTOR_H_
