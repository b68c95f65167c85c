#ifndef TELL_COMMITMGR_REPLICATION_H_
#define TELL_COMMITMGR_REPLICATION_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "commitmgr/snapshot_descriptor.h"
#include "common/stat_table.h"

namespace tell::commitmgr {

/// Replication settings of a commit-manager group (docs/RECOVERY.md). With
/// `replicas` == 1 the group behaves exactly as before this layer existed:
/// one instance per manager slot, no change log, no elections.
struct ReplicationOptions {
  /// Total copies of each manager slot (leader + followers). 1 = off.
  uint32_t replicas = 1;
  /// Change-log records between two state snapshots in the log. Bounds a
  /// follower's catch-up replay at promotion time.
  uint64_t snapshot_interval = 256;
};

/// Seed of the deterministic election tie-break: every observer computes
/// the same winner from (seed, term, candidate id) with no communication.
inline constexpr uint64_t kElectionSeed = 0x5EED;
/// Virtual nanoseconds a client is charged when its request triggered an
/// election (the timeout a real deployment would wait before claiming the
/// leader dead).
inline constexpr uint64_t kElectionTimeoutNs = 200'000;

/// Replication counters of a CommitManagerGroup, exported as the
/// commitmgr.repl.* gauges by db::TellDb. A ReplicationLog fills the log_*
/// and snapshots fields, each replica the catch-up fields and the group the
/// election fields; the group's ReplStats() accumulates them.
struct GroupReplicationStats : StatTable<GroupReplicationStats> {
  uint64_t log_appends = 0;
  uint64_t log_bytes = 0;
  uint64_t snapshots = 0;
  uint64_t log_truncated = 0;
  uint64_t snapshot_installs = 0;
  uint64_t records_replayed = 0;
  uint64_t elections = 0;
  uint64_t term = 0;

  static constexpr const char* kGaugePrefix = "commitmgr.repl.";
  static constexpr StatField<GroupReplicationStats> kFields[] = {
      {"log_appends", "records",
       "change records appended to replication logs by slot leaders",
       &GroupReplicationStats::log_appends},
      {"log_bytes", "bytes", "wire bytes of appended change records",
       &GroupReplicationStats::log_bytes},
      {"snapshots", "snapshots",
       "replica-state snapshots installed into replication logs",
       &GroupReplicationStats::snapshots},
      {"log_truncated", "records",
       "change records truncated below a log snapshot",
       &GroupReplicationStats::log_truncated},
      {"snapshot_installs", "snapshots",
       "log snapshots installed into follower state (catch-up shortcuts)",
       &GroupReplicationStats::snapshot_installs},
      {"records_replayed", "records",
       "change records replayed by followers catching up",
       &GroupReplicationStats::records_replayed},
      {"elections", "elections",
       "leader elections run by commit-manager slots",
       &GroupReplicationStats::elections},
      {"term", "term", "highest election term reached by any slot",
       &GroupReplicationStats::term, StatKind::kMax},
  };
};

/// One entry of a manager slot's change log. The leader appends a record for
/// every state change it makes while holding its own mutex, so log order is
/// exactly state-machine order: replaying the records from any snapshot
/// reproduces the leader's state sequence (docs/RECOVERY.md, "Change log").
struct ChangeRecord {
  enum class Type : uint8_t {
    kRangeGrant = 0,  ///< leader drew tids [tid, tid_end] from the counter
    kBegin,           ///< tid assigned to a transaction (pn_id, token)
    kComplete,        ///< tid completed: commit or abort
    kEpochBump,       ///< peer merge changed the descriptor (payload)
  };
  Type type = Type::kComplete;
  Tid tid = 0;
  Tid tid_end = 0;
  uint32_t pn_id = 0;
  uint64_t token = 0;
  /// kEpochBump only: the post-merge descriptor, SnapshotDescriptor wire
  /// format. Merging is not replayable from (tid, tid_end) alone.
  std::string payload;

  /// Modelled wire footprint (metrics; nothing is actually sent in-process).
  size_t WireBytes() const { return 1 + 8 + 8 + 4 + 8 + payload.size(); }
};

/// Counters of one slot's log, exported as commitmgr.repl.* gauges.

/// The shared change log of one replicated manager slot. The leader appends
/// and periodically installs a full-state snapshot (which truncates the
/// records it covers); followers read the snapshot plus the tail to catch
/// up. Thread safe: the leader appends while followers read.
class ReplicationLog {
 public:
  explicit ReplicationLog(uint64_t snapshot_interval)
      : snapshot_interval_(snapshot_interval) {}

  ReplicationLog(const ReplicationLog&) = delete;
  ReplicationLog& operator=(const ReplicationLog&) = delete;

  /// Appends one record; returns its log index.
  uint64_t Append(const ChangeRecord& record);

  /// True when `snapshot_interval` records accumulated since the last
  /// snapshot — the leader then serializes its state into the log.
  bool SnapshotDue() const;

  /// Installs a full replica-state snapshot covering every record below
  /// `through_index` and truncates those records.
  void InstallSnapshot(std::string replica_state, uint64_t through_index);

  /// Index one past the last appended record.
  uint64_t TailIndex() const;

  /// Records below this index are covered by the current snapshot.
  uint64_t SnapshotIndex() const;

  /// Current snapshot blob (empty if none was ever installed).
  std::string SnapshotBlob() const;

  /// Records with index >= `from_index` (clamped to what is retained).
  std::vector<ChangeRecord> ReadFrom(uint64_t from_index) const;

  /// The log_* and snapshots counters.
  GroupReplicationStats stats() const;

 private:
  const uint64_t snapshot_interval_;
  mutable std::mutex mutex_;
  std::deque<ChangeRecord> records_;
  /// Log index of records_.front().
  uint64_t first_index_ = 0;
  uint64_t snapshot_index_ = 0;
  std::string snapshot_blob_;
  uint64_t appends_since_snapshot_ = 0;
  GroupReplicationStats stats_;
};

/// Deterministic election tie-break: mixes (seed, term, candidate) into a
/// rank; the live, caught-up candidate with the smallest rank wins. Pure, so
/// every node (and every test) computes the same winner.
uint64_t ElectionRank(uint64_t seed, uint64_t term, uint32_t candidate);

}  // namespace tell::commitmgr

#endif  // TELL_COMMITMGR_REPLICATION_H_
