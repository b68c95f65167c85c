#include "store/management_node.h"

#include <algorithm>
#include <mutex>

#include "common/logging.h"

namespace tell::store {

Result<uint32_t> ManagementNode::DetectAndRecover() {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  if (seen_incarnation_.size() < cluster_->num_nodes()) {
    seen_incarnation_.resize(cluster_->num_nodes(), 0);
  }
  uint32_t recovered = 0;
  for (uint32_t id = 0; id < cluster_->num_nodes(); ++id) {
    StorageNode* node = cluster_->node(id);
    const uint64_t incarnation = node->incarnation();
    if (incarnation == seen_incarnation_[id]) continue;
    const bool was_alive = node->alive();
    Status st = RecoverNode(id);
    if (!st.ok()) return st;
    // Kill() bumps the incarnation before the node stops, so a node
    // recovered as revived may be dying: left unseen, the next pass
    // recovers it as dead.
    if (!was_alive || node->alive()) seen_incarnation_[id] = incarnation;
    ++recovered;
  }
  if (recovered > 0) {
    TELL_RETURN_NOT_OK(RestoreReplicationLevel());
  }
  return recovered;
}

Status ManagementNode::RecoverNode(uint32_t node_id) {
  TELL_LOG(kInfo) << "recovering failed storage node " << node_id;
  PartitionMap& map = cluster_->partition_map();
  // Drop the dead node from every placement; collect partitions that lost
  // their master copy.
  std::vector<std::pair<TableId, uint32_t>> orphaned = map.RemoveNode(node_id);
  for (const auto& [table, partition] : orphaned) {
    // Re-read the placement: replicas of this partition, now master-less.
    TELL_ASSIGN_OR_RETURN(PartitionPlacement placement,
                          map.PlacementOf(table, partition));
    uint32_t promoted = UINT32_MAX;
    for (uint32_t replica : placement.replicas) {
      if (cluster_->node(replica)->alive()) {
        promoted = replica;
        break;
      }
    }
    if (promoted == UINT32_MAX) {
      // A revived master missed no acknowledged write: it stays master.
      if (cluster_->node(node_id)->alive()) continue;
      // With RF1 (or all replicas dead) acknowledged data is lost — exactly
      // the risk the paper's synchronous replication exists to avoid.
      return Status::Unavailable(
          "partition lost all copies; data unrecoverable (table " +
          std::to_string(table) + " partition " + std::to_string(partition) +
          ")");
    }
    TELL_RETURN_NOT_OK(map.MovePartitionMaster(table, partition, promoted));
  }
  return Status::OK();
}

Status ManagementNode::RestoreReplicationLevel() {
  PartitionMap& map = cluster_->partition_map();
  uint32_t target_rf = cluster_->options().replication_factor;
  for (const auto& [table, partition] : map.AllPartitions()) {
    TELL_ASSIGN_OR_RETURN(PartitionPlacement placement,
                          map.PlacementOf(table, partition));
    StorageNode* master = cluster_->node(placement.master);
    if (!master->alive()) continue;  // unrecoverable; reported elsewhere
    uint32_t live_copies = 1;
    for (uint32_t replica : placement.replicas) {
      if (cluster_->node(replica)->alive()) ++live_copies;
    }
    while (live_copies < target_rf) {
      // Pick a live node not yet hosting this partition.
      uint32_t candidate = UINT32_MAX;
      for (uint32_t id = 0; id < cluster_->num_nodes(); ++id) {
        if (!cluster_->node(id)->alive()) continue;
        if (id == placement.master) continue;
        if (std::find(placement.replicas.begin(), placement.replicas.end(),
                      id) != placement.replicas.end()) {
          continue;
        }
        candidate = id;
        break;
      }
      if (candidate == UINT32_MAX) break;  // not enough live nodes
      MigrationStats copied;
      TELL_RETURN_NOT_OK(CopyPartition(table, partition, candidate,
                                       CutOver::kAddReplica, &copied));
      placement.replicas.push_back(candidate);
      ++live_copies;
      TELL_LOG(kInfo) << "re-replicated table " << table << " partition "
                      << partition << " onto node " << candidate;
    }
  }
  return Status::OK();
}

namespace {

/// Rounds before the seal; the first, from watermark 0, is the bulk copy.
/// Under steady load the delta stops shrinking, so the count is bounded.
constexpr uint32_t kCopyRounds = 5;

/// A dump watermark above every stamp: a seal that ships no cell.
constexpr uint64_t kNoCells = UINT64_MAX;

/// Copies `src`'s partition onto `dest` up to the sealed final delta.
/// Migration logging must be on at `src`.
Status CopyUntilSealed(StorageNode* src, StorageNode* dest, TableId table,
                       uint32_t partition, MigrationStats* stats) {
  uint64_t watermark = 0;
  for (uint32_t round = 0; round < kCopyRounds; ++round) {
    // Watermark before the dump: any write the dump misses carries a stamp
    // >= `next_watermark` and is caught by the next round.
    TELL_ASSIGN_OR_RETURN(uint64_t next_watermark,
                          src->PartitionNextStamp(table, partition));
    TELL_ASSIGN_OR_RETURN(std::vector<KeyCell> delta,
                          src->DumpPartition(table, partition, watermark));
    TELL_ASSIGN_OR_RETURN(std::vector<MigrationOp> erases,
                          src->ErasesSince(table, partition, watermark));
    if (delta.empty() && erases.empty()) break;
    const size_t puts = delta.size();
    std::vector<MigrationOp> ops;
    ops.reserve(delta.size() + erases.size());
    for (KeyCell& cell : delta) {
      ops.push_back(
          {std::move(cell.key), std::move(cell.value), cell.stamp, false});
    }
    ops.insert(ops.end(), std::make_move_iterator(erases.begin()),
               std::make_move_iterator(erases.end()));
    std::sort(ops.begin(), ops.end(),
              [](const MigrationOp& a, const MigrationOp& b) {
                return a.stamp < b.stamp;
              });
    TELL_RETURN_NOT_OK(dest->InstallMigrationDelta(table, partition, ops,
                                                   &stats->erases_applied));
    if (round == 0) {
      stats->cells_copied += puts;
    } else {
      ++stats->delta_rounds;
      stats->delta_cells += puts;
    }
    watermark = next_watermark;
  }
  // The seal waits out in-flight writes, so the final delta includes them.
  TELL_ASSIGN_OR_RETURN(std::vector<MigrationOp> final_ops,
                        src->SealPartitionAndDump(table, partition, watermark));
  TELL_RETURN_NOT_OK(dest->InstallMigrationDelta(table, partition, final_ops,
                                                 &stats->erases_applied));
  ++stats->delta_rounds;
  for (const MigrationOp& op : final_ops) {
    if (!op.is_erase) ++stats->delta_cells;
  }
  return Status::OK();
}

}  // namespace

Status ManagementNode::CopyPartition(TableId table, uint32_t partition,
                                     uint32_t dest_node, CutOver cut_over,
                                     MigrationStats* stats) {
  PartitionMap& map = cluster_->partition_map();
  TELL_ASSIGN_OR_RETURN(PartitionPlacement placement,
                        map.PlacementOf(table, partition));
  StorageNode* src = cluster_->node(placement.master);
  StorageNode* dest = cluster_->node(dest_node);
  // A backup killed since the last recovery pass missed the writes of its
  // downtime: it is copied like a node outside the placement.
  const bool in_sync_backup =
      std::find(placement.replicas.begin(), placement.replicas.end(),
                dest_node) != placement.replicas.end() &&
      dest->incarnation() == (dest_node < seen_incarnation_.size()
                                  ? seen_incarnation_[dest_node]
                                  : 0);
  Status st;
  if (in_sync_backup) {
    // A backup already holds every acknowledged write, and the seal waits
    // out the writes in flight, which reach it before they finish. A copy
    // round could only put back a cell the backup erased after the round's
    // dump.
    st = src->SealPartitionAndDump(table, partition, kNoCells).status();
  } else {
    // Any other destination may hold a stale copy (an old sealed source, or
    // a revived node), so it starts empty.
    TELL_RETURN_NOT_OK(dest->ResetPartition(table, partition));
    // Erase journaling starts BEFORE the first watermark read and dump, so
    // nothing disappearing after this point goes unrecorded.
    TELL_RETURN_NOT_OK(src->BeginMigrationLogging(table, partition));
    st = CopyUntilSealed(src, dest, table, partition, stats);
  }
  if (st.ok()) {
    st = cut_over == CutOver::kMoveMaster
             ? map.MovePartitionMaster(table, partition, dest_node)
             : map.AddReplica(table, partition, dest_node);
  }
  if (!st.ok()) {
    // The route did not change: the source stays master and takes writes
    // again on the routes it took them on before.
    (void)src->EndMigrationLogging(table, partition);
    (void)src->OpenPartition(table, partition, placement.version);
    return st;
  }
  if (cut_over == CutOver::kMoveMaster) return Status::OK();
  // Reopen the source only to routes that name the new backup: a write
  // routed before AddReplica would skip it, so it bounces and retries.
  TELL_ASSIGN_OR_RETURN(PartitionPlacement grown,
                        map.PlacementOf(table, partition));
  return src->OpenPartition(table, partition, grown.version);
}

Status ManagementNode::MigratePartition(TableId table, uint32_t partition,
                                        uint32_t dest_node) {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  PartitionMap& map = cluster_->partition_map();
  TELL_ASSIGN_OR_RETURN(PartitionPlacement placement,
                        map.PlacementOf(table, partition));
  if (placement.master == dest_node) {
    return Status::InvalidArgument("destination already masters the partition");
  }
  if (dest_node >= cluster_->num_nodes()) {
    return Status::InvalidArgument("no such destination node");
  }
  if (!cluster_->node(placement.master)->alive() ||
      !cluster_->node(dest_node)->alive()) {
    return Status::Unavailable("migration needs both endpoints alive");
  }
  {
    std::lock_guard<std::mutex> mlock(migration_mutex_);
    ++migration_stats_.started;
  }
  TELL_LOG(kInfo) << "migrating table " << table << " partition " << partition
                  << " from node " << placement.master << " to node "
                  << dest_node;
  MigrationStats copied;
  Status st = CopyPartition(table, partition, dest_node, CutOver::kMoveMaster,
                            &copied);
  {
    std::lock_guard<std::mutex> mlock(migration_mutex_);
    migration_stats_.Accumulate(copied);
    if (st.ok()) ++migration_stats_.completed;
  }
  TELL_RETURN_NOT_OK(st);
  TELL_LOG(kInfo) << "migration of table " << table << " partition "
                  << partition << " complete (" << copied.cells_copied
                  << " cells bulk-copied)";
  return Status::OK();
}

MigrationStats ManagementNode::migration_stats() const {
  std::lock_guard<std::mutex> lock(migration_mutex_);
  return migration_stats_;
}

bool ManagementNode::ReplicationLevelRestored() const {
  const PartitionMap& map = cluster_->partition_map();
  uint32_t target_rf = cluster_->options().replication_factor;
  uint32_t live_nodes = 0;
  for (uint32_t id = 0; id < cluster_->num_nodes(); ++id) {
    if (cluster_->node(id)->alive()) ++live_nodes;
  }
  uint32_t achievable = std::min(target_rf, live_nodes);
  for (const auto& [table, partition] : map.AllPartitions()) {
    auto placement = map.PlacementOf(table, partition);
    if (!placement.ok()) return false;
    if (!cluster_->node(placement->master)->alive()) return false;
    uint32_t live_copies = 1;
    for (uint32_t replica : placement->replicas) {
      if (cluster_->node(replica)->alive()) ++live_copies;
    }
    if (live_copies < achievable) return false;
  }
  return true;
}

}  // namespace tell::store
