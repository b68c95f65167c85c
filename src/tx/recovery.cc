#include "tx/recovery.h"

#include <algorithm>

#include "common/logging.h"
#include "tx/transaction.h"

namespace tell::tx {

Result<RecoveryStats> RecoveryManager::RecoverProcessingNode(
    store::StorageClient* client, uint32_t failed_pn) {
  RecoveryStats stats;

  // Bound the log walk: highest tid handed out anywhere, down to the lav
  // (no transaction below the lav can still be active — rolling checkpoint).
  Tid highest = 0;
  for (uint32_t i = 0; i < commit_managers_->size(); ++i) {
    highest = std::max(highest,
                       commit_managers_->manager(i)->HighestAssignedTid());
  }
  Tid lav = commit_managers_->GlobalLav();

  TELL_ASSIGN_OR_RETURN(std::vector<LogEntry> entries,
                        log_->ScanBackwards(client, highest, lav));
  for (const LogEntry& entry : entries) {
    if (entry.pn_id != failed_pn || entry.committed) continue;
    RevertCounts counts = RevertVersions(client, entry.write_set, entry.tid);
    if (counts.unresolved > 0) {
      TELL_LOG(kError) << "recovery: " << counts.unresolved
                       << " record(s) of tid " << entry.tid
                       << " left to lazy GC";
    }
    stats.versions_removed += counts.reverted;
    if (counts.reverted > 0) ++stats.transactions_rolled_back;
    // The transaction is finished (aborted) from the system's perspective.
    for (uint32_t i = 0; i < commit_managers_->size(); ++i) {
      if (commit_managers_->manager(i)->alive()) {
        (void)commit_managers_->manager(i)->SetAborted(entry.tid);
      }
    }
  }

  // Transactions that began but never logged: nothing to revert, but their
  // tids must be completed or the snapshot base stalls forever.
  for (uint32_t i = 0; i < commit_managers_->size(); ++i) {
    if (!commit_managers_->manager(i)->alive()) continue;
    std::vector<Tid> abandoned =
        commit_managers_->manager(i)->AbortActiveOf(failed_pn);
    stats.transactions_abandoned += abandoned.size();
  }
  return stats;
}

}  // namespace tell::tx
