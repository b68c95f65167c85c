#ifndef TELL_COMMITMGR_COMMIT_MANAGER_H_
#define TELL_COMMITMGR_COMMIT_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "commitmgr/replication.h"
#include "commitmgr/snapshot_descriptor.h"
#include "common/result.h"
#include "common/status.h"
#include "store/cluster.h"

namespace tell::commitmgr {

/// Role of one replica inside a replicated manager slot (docs/RECOVERY.md).
/// Standalone managers (replication off) are leaders with no change log.
enum class ReplicaRole { kLeader, kFollower };

/// What a transaction receives from start() (paper §4.2): a system-wide
/// unique tid, the snapshot it may read, and the lowest active version
/// number (the GC horizon).
struct TxnBegin {
  Tid tid = 0;
  SnapshotDescriptor snapshot;
  Tid lav = 0;
};

/// Request half of start() (DESIGN.md, "Snapshot delta sync & group
/// begin/commit"): carries the snapshot state the client already holds, so
/// the manager can answer with an incremental update instead of the full
/// bitset.
struct BeginRequest {
  uint32_t pn_id = 0;
  /// Idempotency token (0 = none): a begin retried after a lost response
  /// re-sends the same token and receives the previously assigned tid
  /// instead of leaking a second active entry that would hold the snapshot
  /// base back forever.
  uint64_t start_token = 0;
  /// (generation, epoch) of the client's cached descriptor; generation 0
  /// means first contact and always gets a full descriptor.
  uint32_t ack_generation = 0;
  uint64_t ack_epoch = 0;
};

/// start() response: the snapshot arrives as a delta or, when that is not
/// smaller or the client's ack is stale, as the full descriptor.
struct TxnBeginDelta {
  Tid tid = 0;
  SnapshotDelta delta;
  Tid lav = 0;
};

/// One commit manager's request counters (exported into the
/// obs::MetricsRegistry gauges `commitmgr.*` by db::TellDb).
struct CommitManagerStats : StatTable<CommitManagerStats> {
  uint64_t starts = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t syncs = 0;
  uint64_t tid_range_refills = 0;
  /// StartDelta() calls answered with an incremental delta.
  uint64_t delta_starts = 0;
  /// StartDelta() calls answered with the full descriptor (first contact,
  /// generation change, or delta not smaller than the bitset).
  uint64_t full_starts = 0;

  static constexpr const char* kGaugePrefix = "commitmgr.";
  static constexpr StatField<CommitManagerStats> kFields[] = {
      {"starts", "txns", "start() calls served", &CommitManagerStats::starts},
      {"commits", "txns", "setCommitted() calls served",
       &CommitManagerStats::commits},
      {"aborts", "txns", "setAborted() calls served",
       &CommitManagerStats::aborts},
      {"syncs", "rounds", "peer synchronization rounds",
       &CommitManagerStats::syncs},
      {"tid_range_refills", "refills",
       "tid ranges acquired from the storage counter",
       &CommitManagerStats::tid_range_refills},
      {"delta_starts", "txns",
       "delta-protocol starts answered with an incremental snapshot delta",
       &CommitManagerStats::delta_starts},
      {"full_starts", "txns",
       "delta-protocol starts answered with the full descriptor",
       &CommitManagerStats::full_starts},
  };
};

struct CommitManagerOptions {
  /// Tids are acquired from the storage system's atomic counter in
  /// continuous ranges of this size, so the counter is not a bottleneck
  /// (paper §4.2; they use e.g. 256).
  uint32_t tid_range_size = 256;
};

/// The lightweight service managing global transaction state (paper §4.2).
///
/// Supports exactly the paper's three calls: StartDelta() hands out a tid, a
/// snapshot descriptor and the lav; SetCommitted()/SetAborted() record a
/// transaction's completion. Several commit managers can run against the
/// same storage cluster: tid uniqueness comes from the store's atomic
/// counter (incremented in ranges), and snapshots are synchronized by
/// writing each manager's state to the store and merging the peers' states
/// (SyncWithPeers), at a configurable interval. Operating on snapshots that
/// are stale by the sync interval is legitimate — it can only raise the
/// abort rate, never break consistency.
///
/// Thread safe: many PN workers call into one manager concurrently.
class CommitManager {
 public:
  /// `state_table` must be a table created on `cluster` for commit manager
  /// state + the tid counter (use CommitManagerGroup to set everything up).
  CommitManager(uint32_t manager_id, store::Cluster* cluster,
                store::TableId state_table,
                const CommitManagerOptions& options);

  CommitManager(const CommitManager&) = delete;
  CommitManager& operator=(const CommitManager&) = delete;

  uint32_t manager_id() const { return manager_id_; }

  /// Crash-stop failure injection: a dead manager rejects all calls.
  void Kill() { alive_.store(false, std::memory_order_release); }
  void Revive() { alive_.store(true, std::memory_order_release); }
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  /// Wires this instance into a replicated slot (CommitManagerGroup does
  /// this once at construction). The leader appends a ChangeRecord for every
  /// state change while holding its own mutex; followers replay the log.
  void AttachReplication(ReplicationLog* log, ReplicaRole role);

  /// Demotes to follower (election bookkeeping: a revived old leader must
  /// not serve — the slot's current leader owns the tid stream).
  void Demote();

  /// Follower side: installs the latest log snapshot if this replica fell
  /// behind it, then replays the log tail. No-op without replication.
  Status CatchUpFromLog();

  /// Promotes this replica to slot leader: catch up from the log, complete
  /// the dead leader's granted-but-never-assigned tid range (so the snapshot
  /// base and GC horizon can advance past it), bump the generation so every
  /// cached client re-syncs, and publish a fresh snapshot to the log.
  /// KEEPS active transactions and start tokens: a begin retried against the
  /// new leader resolves to the tid the old leader assigned (BeginRequest
  /// token idempotency), so fail-over cannot leak active tids.
  Status PromoteToLeader();

  /// Catch-up counters of this replica (aggregated by the group).
  GroupReplicationStats ReplStats() const { return LoadRelaxed(repl_stats_); }

  /// start(): the next tid of the manager's continuous range, the snapshot
  /// and the lav. The snapshot comes back as an incremental update relative
  /// to the client's acknowledged (generation, epoch) — or as a full
  /// descriptor on first contact (generation 0), generation change, or when
  /// the delta would not be smaller. `request.pn_id` identifies the
  /// processing node starting the transaction, so that a PN failure can
  /// abort its in-flight transactions (otherwise their tids would block the
  /// snapshot base forever). Idempotent per `request.start_token` (see
  /// BeginRequest).
  Result<TxnBeginDelta> StartDelta(const BeginRequest& request);

  /// Marks every active transaction started by `pn_id` as aborted. Called
  /// by the recovery process after it rolled back the PN's applied writes.
  /// Returns the tids aborted.
  std::vector<Tid> AbortActiveOf(uint32_t pn_id);

  /// setCommitted(tid): the transaction applied all updates and committed.
  Status SetCommitted(Tid tid);

  /// setAborted(tid): the transaction rolled back.
  Status SetAborted(Tid tid);

  /// Writes this manager's state to the store and merges the peers' states
  /// (called periodically by CommitManagerGroup's sync thread, or directly
  /// by tests).
  Status SyncWithPeers(uint32_t num_peers);

  /// Current lowest active version number as this manager sees it.
  Tid Lav() const;

  /// Current snapshot (copy) — recovery and tests.
  SnapshotDescriptor CurrentSnapshot() const;

  /// Highest tid this manager has handed out (recovery: bound for the
  /// backwards log scan).
  Tid HighestAssignedTid() const;

  /// Current (generation, epoch) of the delta protocol (tests).
  std::pair<uint32_t, uint64_t> SyncState() const;

  /// Table holding this manager's published state and the tid counter
  /// (clients use it to label injected faults on commit-manager messages).
  store::TableId state_table() const { return state_table_; }

  /// Copy of this manager's request counters. Relaxed atomics, so a snapshot
  /// racing live traffic is approximate but never torn per-counter.
  CommitManagerStats stats() const { return LoadRelaxed(stats_); }

 private:
  Status RefillTidRangeLocked();
  /// Leader side: appends one change record (no-op for standalone and
  /// follower roles) and snapshots the state into the log when due. Called
  /// AFTER the state change it describes, so a log snapshot taken here is
  /// always consistent.
  void EmitLocked(const ChangeRecord& record);
  /// Follower side: applies one leader change record in log order.
  void ApplyChangeLocked(const ChangeRecord& record);
  Status CatchUpLocked();
  /// Full replica state (descriptor, active txns, tokens, range mirror) for
  /// log snapshots.
  std::string SerializeReplicaStateLocked() const;
  Status InstallReplicaStateLocked(std::string_view blob);
  /// Resets completed_epoch_ to "every readable tid became readable at the
  /// current epoch" — used when the epoch history is discarded (promotion,
  /// snapshot install), always together with a generation change.
  void RebuildCompletedEpochsLocked();
  /// Shared completion path of SetCommitted / SetAborted. `*newly` reports
  /// whether the tid was newly completed (false for a duplicate delivery,
  /// so retried finish notifications do not double-count stats).
  Status Complete(Tid tid, bool* newly);
  Tid ComputeLavLocked() const;
  std::string SerializeStateLocked() const;
  /// Records `tid` as completed at a fresh epoch and prunes entries the
  /// base has swept past. Callers must have already marked it in snapshot_.
  void RecordCompletionLocked(Tid tid);
  /// After a peer merge changed snapshot_: tags every tid that became
  /// readable (and is still above the new base) with a fresh epoch, so
  /// deltas cover merged-in completions too.
  void NoteMergedCompletionsLocked(const SnapshotDescriptor& before);
  void PruneCompletedEpochsLocked();
  /// Builds the delta (or full) response for a client acked at
  /// (request.ack_generation, request.ack_epoch).
  SnapshotDelta DeltaSinceLocked(const BeginRequest& request) const;

  const uint32_t manager_id_;
  store::Cluster* const cluster_;
  const store::TableId state_table_;
  const CommitManagerOptions options_;
  std::atomic<bool> alive_{true};

  /// Bumped with AddRelaxed; read without mutex_.
  mutable CommitManagerStats stats_;

  mutable std::mutex mutex_;
  SnapshotDescriptor snapshot_;
  /// Next tid to hand out and end of the currently owned range (inclusive).
  Tid range_next_ = 1;
  Tid range_end_ = 0;
  struct ActiveTxn {
    Tid snapshot_base;
    uint32_t pn_id;
    uint64_t start_token = 0;
  };
  /// Active transactions started here, keyed by tid.
  std::map<Tid, ActiveTxn> active_;
  /// Lav view published by peers (merged on sync).
  Tid peers_lav_ = 0;
  bool has_peer_lav_ = false;
  Tid highest_assigned_ = 0;

  // Delta-sync bookkeeping. Invariant: completed_epoch_'s keys are exactly
  // the set bits of snapshot_ above its current base, each tagged with the
  // epoch at which it became readable here. A client acked at epoch E holds
  // our descriptor as of E, so {current base} ∪ {tids with epoch > E}
  // reconstructs the current descriptor exactly.
  uint32_t generation_ = 1;
  uint64_t epoch_ = 0;
  std::map<Tid, uint64_t> completed_epoch_;
  /// Start-token dedup map (entries die with their active transaction).
  std::map<uint64_t, Tid> token_tids_;

  // Replication (docs/RECOVERY.md). Lock order: mutex_ before the log's own
  // mutex — the leader appends while holding mutex_, which makes log order
  // identical to state-machine order.
  ReplicationLog* repl_log_ = nullptr;
  ReplicaRole role_ = ReplicaRole::kLeader;
  /// Next log index this replica has not applied yet.
  uint64_t repl_applied_ = 0;
  /// snapshot_installs and records_replayed, bumped with AddRelaxed.
  mutable GroupReplicationStats repl_stats_;
};

/// A cluster of commit managers sharing one storage-backed state, with an
/// optional background synchronization thread (default interval 1 ms, the
/// paper's setting). PN workers are assigned managers round-robin.
///
/// With `replication.replicas` > 1 each manager slot is a replicated state
/// machine (docs/RECOVERY.md): one leader serves requests and streams a
/// change log; when a kill is detected the group deterministically elects a
/// live follower (seeded tie-break), which catches up from the log — bounded
/// by periodic snapshots — and takes over the slot's tid stream. A slot is
/// unavailable only when ALL of its replicas are dead.
class CommitManagerGroup {
 public:
  /// Creates `num_managers` manager slots over `cluster`. Creates the state
  /// table. `sync_interval` <= 0 disables the background thread (callers
  /// then drive SyncAll() manually; single-manager setups need no sync).
  CommitManagerGroup(store::Cluster* cluster, uint32_t num_managers,
                     const CommitManagerOptions& options,
                     double sync_interval_ms = 1.0,
                     const ReplicationOptions& replication = {});
  ~CommitManagerGroup();

  CommitManagerGroup(const CommitManagerGroup&) = delete;
  CommitManagerGroup& operator=(const CommitManagerGroup&) = delete;

  uint32_t size() const { return static_cast<uint32_t>(slots_.size()); }

  /// Replicas per slot (1 = replication off).
  uint32_t num_replicas() const { return replication_.replicas; }

  /// Manager serving a given PN worker (round-robin by worker id). Skips
  /// dead slots — PNs "automatically switch to the next one" (§4.4.3). If
  /// the probed slot's leader is dead but a live follower exists, an
  /// election promotes it first; `election_ns` (when non-null) accumulates
  /// the virtual election timeout so the caller can charge its clock.
  CommitManager* ManagerFor(uint32_t worker_id, uint64_t* election_ns);
  CommitManager* ManagerFor(uint32_t worker_id) {
    return ManagerFor(worker_id, nullptr);
  }

  /// Current leader of a slot.
  CommitManager* manager(uint32_t id) {
    Slot& slot = *slots_[id];
    return slot.replicas[slot.leader.load(std::memory_order_acquire)].get();
  }

  /// A specific replica of a slot (tests).
  CommitManager* replica(uint32_t slot, uint32_t index) {
    return slots_[slot]->replicas[index].get();
  }

  /// Index of a slot's current leader replica (tests).
  uint32_t leader_index(uint32_t slot) const {
    return slots_[slot]->leader.load(std::memory_order_acquire);
  }

  /// One synchronization round: live slot leaders publish + merge peer
  /// state, followers catch up from their slot's change log.
  Status SyncAll();

  /// Global lav (min across slot leaders) — used by the lazy GC task.
  Tid GlobalLav() const;

  /// Aggregated replication counters (commitmgr.repl.* gauges).
  GroupReplicationStats ReplStats() const;

 private:
  struct Slot {
    std::vector<std::unique_ptr<CommitManager>> replicas;
    std::unique_ptr<ReplicationLog> log;  // null when replication is off
    std::atomic<uint32_t> leader{0};
    uint64_t term = 0;  // guarded by election_mutex
    std::mutex election_mutex;
  };

  /// Returns the slot's live leader, electing one first if the current
  /// leader is dead and a live follower exists; nullptr when all replicas
  /// of the slot are dead.
  CommitManager* EnsureLeader(Slot& slot, uint64_t* election_ns);
  void SyncLoop();

  store::Cluster* const cluster_;
  store::TableId state_table_ = 0;
  std::vector<std::unique_ptr<Slot>> slots_;
  ReplicationOptions replication_;
  /// elections and the highest term, updated through std::atomic_ref.
  mutable GroupReplicationStats election_stats_;
  std::atomic<bool> stop_{false};
  double sync_interval_ms_;
  std::thread sync_thread_;
};

}  // namespace tell::commitmgr

#endif  // TELL_COMMITMGR_COMMIT_MANAGER_H_
