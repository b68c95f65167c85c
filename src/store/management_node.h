#ifndef TELL_STORE_MANAGEMENT_NODE_H_
#define TELL_STORE_MANAGEMENT_NODE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/stat_table.h"
#include "common/status.h"
#include "store/cluster.h"

namespace tell::store {

/// Running totals of live partition migrations (exported as the
/// `store.migration.*` gauges by db::TellDb::ExportStats).
struct MigrationStats : StatTable<MigrationStats> {
  uint64_t started = 0;
  uint64_t completed = 0;
  /// Cells moved by the first round of each copy (the bulk copy).
  uint64_t cells_copied = 0;
  /// Rounds run after the bulk copy, the sealed final round included.
  uint64_t delta_rounds = 0;
  /// Put cells shipped by catch-up deltas.
  uint64_t delta_cells = 0;
  /// Journaled erases the destination actually applied.
  uint64_t erases_applied = 0;

  static constexpr const char* kGaugePrefix = "store.migration.";
  static constexpr StatField<MigrationStats> kFields[] = {
      {"started", "migrations", "live partition migrations started",
       &MigrationStats::started},
      {"completed", "migrations",
       "live partition migrations completed (master moved)",
       &MigrationStats::completed},
      {"cells_copied", "cells", "cells moved by migration bulk copies",
       &MigrationStats::cells_copied},
      {"delta_rounds", "rounds",
       "migration catch-up delta rounds (including the sealed final round)",
       &MigrationStats::delta_rounds},
      {"delta_cells", "cells", "put cells shipped by migration catch-up deltas",
       &MigrationStats::delta_cells},
      {"erases_applied", "erases",
       "journaled erases applied on migration destinations",
       &MigrationStats::erases_applied},
  };
};

/// The management node of the storage layer (paper §4.4.2): detects storage
/// node failures, fails partitions over to their replicas and restores the
/// replication level on the surviving nodes.
///
/// Failure detection in the paper is an eventually perfect detector based on
/// timeouts; in the in-process reproduction a node's crash-stop state is its
/// `alive()` flag, and DetectAndRecover() plays the role of the detector
/// firing. Only one recovery process runs at a time (§4.4.1), enforced with
/// a mutex; a single pass handles any number of concurrently failed nodes.
class ManagementNode {
 public:
  explicit ManagementNode(Cluster* cluster) : cluster_(cluster) {}

  ManagementNode(const ManagementNode&) = delete;
  ManagementNode& operator=(const ManagementNode&) = delete;

  /// Scans for storage nodes killed since the last pass — dead now, or
  /// revived meanwhile with a copy that missed the writes of its downtime —
  /// and recovers each: it leaves every placement, every partition whose
  /// master it was is failed over to a surviving replica (which already
  /// holds all acknowledged writes, thanks to synchronous replication), and
  /// partitions below the configured replication factor are re-replicated
  /// onto other live nodes, a revived one re-seeded from scratch. A revived
  /// master with no live replica stays master: no write could be
  /// acknowledged without it. Returns the number of nodes recovered.
  Result<uint32_t> DetectAndRecover();

  /// True if every live partition currently has `replication_factor` copies
  /// on live nodes (test hook).
  bool ReplicationLevelRestored() const;

  /// Moves one partition's master copy to `dest_node` while writes continue
  /// (live migration): CopyPartition, cut over by re-pointing the master.
  /// Readers and writers follow the partition map to the destination; the
  /// source copy stays sealed. Runs under the recovery mutex — one topology
  /// change at a time.
  Status MigratePartition(TableId table, uint32_t partition,
                          uint32_t dest_node);

  MigrationStats migration_stats() const;

 private:
  /// How a partition copy ends once the destination holds the sealed image.
  enum class CutOver {
    kMoveMaster,  // the destination becomes master; the source stays sealed
    kAddReplica,  // the destination joins as a backup; the source reopens
  };

  Status RecoverNode(uint32_t node_id);
  Status RestoreReplicationLevel();

  /// The one partition-copy protocol of migration and re-replication
  /// (docs/RECOVERY.md): empty the destination, watermarked rounds from 0,
  /// seal, final delta, then `cut_over`. A backup destination already holds
  /// every write (synchronous replication) and takes only the seal, unless
  /// it was killed since the last DetectAndRecover pass. A copy
  /// that fails before the route changes leaves the source master and open.
  Status CopyPartition(TableId table, uint32_t partition, uint32_t dest_node,
                       CutOver cut_over, MigrationStats* stats);

  Cluster* const cluster_;
  std::mutex recovery_mutex_;
  /// Per node, the incarnation the last pass saw (grown lazily; guarded by
  /// recovery_mutex_).
  std::vector<uint64_t> seen_incarnation_;

  mutable std::mutex migration_mutex_;  // guards migration_stats_
  MigrationStats migration_stats_;
};

}  // namespace tell::store

#endif  // TELL_STORE_MANAGEMENT_NODE_H_
