#ifndef TELL_TX_RECOVERY_H_
#define TELL_TX_RECOVERY_H_

#include <cstdint>

#include "commitmgr/commit_manager.h"
#include "common/result.h"
#include "common/status.h"
#include "store/storage_client.h"
#include "tx/transaction_log.h"

namespace tell::tx {

struct RecoveryStats {
  /// Transactions of the failed PN found uncommitted in the log and rolled
  /// back.
  size_t transactions_rolled_back = 0;
  /// Record versions removed while rolling back.
  size_t versions_removed = 0;
  /// Transactions of the failed PN that never logged (nothing applied);
  /// their tids were completed at the commit managers so the snapshot base
  /// can advance.
  size_t transactions_abandoned = 0;
};

/// The recovery process for processing node failures (paper §4.4.1).
///
/// PNs are crash-stop: when one dies, its committing transactions may have
/// partially applied updates that must be reverted. Recovery discovers the
/// failed node's transactions by walking the transaction log backwards from
/// the highest assigned tid down to the lowest active version number (the
/// lav acts as a rolling checkpoint), reverts the write set of every
/// uncommitted entry belonging to the failed PN (removing the version with
/// number tid from each record, in RevertVersions' batched rounds), and
/// finally aborts the node's still-active
/// tids at the commit managers. The management node ensures only one
/// recovery process runs at a time; this class is driven by TellDb.
class RecoveryManager {
 public:
  RecoveryManager(const TransactionLog* log,
                  commitmgr::CommitManagerGroup* commit_managers)
      : log_(log), commit_managers_(commit_managers) {}

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Rolls back everything the failed PN left behind. `client` is the
  /// storage client of whatever node runs the recovery (its costs are
  /// charged there). Idempotent: re-running for the same PN is a no-op.
  Result<RecoveryStats> RecoverProcessingNode(store::StorageClient* client,
                                              uint32_t failed_pn);

 private:

  const TransactionLog* const log_;
  commitmgr::CommitManagerGroup* const commit_managers_;
};

}  // namespace tell::tx

#endif  // TELL_TX_RECOVERY_H_
