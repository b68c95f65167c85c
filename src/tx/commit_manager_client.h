#ifndef TELL_TX_COMMIT_MANAGER_CLIENT_H_
#define TELL_TX_COMMIT_MANAGER_CLIENT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "commitmgr/commit_manager.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "store/storage_client.h"

namespace tell::tx {

/// The session's window to its commit managers (paper §4.2's start() /
/// setCommitted() / setAborted() calls), owning the wire-cost model for
/// them the way StorageClient does for storage requests.
///
/// One protocol (DESIGN.md, "Snapshot delta sync & group begin/commit")
/// keeps the hot path cheap in bytes and round trips:
///
///  * **Delta sync** — the client caches, per manager, the last descriptor
///    it received and its (generation, epoch); begins acknowledge that
///    state, and the manager answers with only the base advance plus the
///    tids completed since (a full descriptor on first contact, after a
///    manager recovery, or when the delta would not be smaller).
///  * **Group begin/finish** — setCommitted/setAborted apply at the manager
///    immediately (the simulated manager is shared memory; snapshot and GC
///    semantics are identical to the synchronous protocol), but their
///    message cost is deferred and piggybacked onto the worker's next begin
///    to the same manager: one coalesced round trip carries the finish
///    notifications and the start, like the storage client's one message
///    per storage node.
///
/// Begins are fault-injectable (FaultOpClass::kCommitMgrStart on the
/// manager's state table, plus kCommitMgrFinish for every finish the
/// message carries) and retried under the client's RetryPolicy.
/// A retried begin whose response was lost re-sends its idempotency token,
/// so it reuses the already-assigned tid instead of leaking an active entry
/// that would hold the snapshot base (and with it the GC horizon) back
/// forever. Per-worker, like StorageClient: no synchronization needed.
class CommitManagerClient {
 public:
  CommitManagerClient(commitmgr::CommitManagerGroup* group,
                      store::StorageClient* client);
  /// Charges any finish-notification costs still waiting for a begin.
  ~CommitManagerClient();

  CommitManagerClient(const CommitManagerClient&) = delete;
  CommitManagerClient& operator=(const CommitManagerClient&) = delete;

  /// start(): one coalesced message carrying the deferred finish
  /// notifications and the begin; reconstructs the snapshot from the
  /// returned delta. Fails over to the next live manager between retries.
  Result<commitmgr::TxnBegin> Begin(uint32_t pn_id);

  /// Manager that served the last successful Begin().
  commitmgr::CommitManager* last_manager() { return last_manager_; }

  /// setCommitted(tid) / setAborted(tid). State applies immediately; the
  /// message cost is deferred onto the next begin.
  Status Finish(commitmgr::CommitManager* manager, commitmgr::Tid tid,
                bool committed);

  /// Charges every deferred finish notification now (teardown, tests).
  void FlushPendingAccounting();

 private:
  struct ManagerCache {
    uint32_t generation = 0;  // 0 = nothing cached (first contact)
    uint64_t epoch = 0;
    commitmgr::SnapshotDescriptor snapshot;
  };

  uint64_t NextToken();
  /// Charges one coalesced commit-manager message built from per-op
  /// (request, response) payload bytes.
  void ChargeMessage(const std::vector<std::pair<uint64_t, uint64_t>>& ops);
  /// Charges deferred finishes destined to managers other than `manager_id`
  /// as their own messages (they cannot ride on a begin to a different
  /// manager after a fail-over).
  void FlushPendingExcept(uint32_t manager_id);

  commitmgr::CommitManagerGroup* const group_;
  store::StorageClient* const client_;
  /// Private RNG for begin-retry backoff jitter; NOT the StorageClient's
  /// rng_, so storage retry streams stay bit-identical with this feature.
  Random rng_;
  uint64_t token_counter_ = 0;
  const uint64_t token_salt_;
  /// Per-manager descriptor cache keyed by manager id.
  std::map<uint32_t, ManagerCache> cache_;
  /// Manager ids of finish notifications whose cost is still deferred.
  std::vector<uint32_t> pending_;
  commitmgr::CommitManager* last_manager_ = nullptr;
};

}  // namespace tell::tx

#endif  // TELL_TX_COMMIT_MANAGER_CLIENT_H_
