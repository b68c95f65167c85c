#include "store/management_node.h"

#include <algorithm>
#include <mutex>

#include "common/logging.h"

namespace tell::store {

Result<uint32_t> ManagementNode::DetectAndRecover() {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  if (handled_.size() < cluster_->num_nodes()) {
    handled_.resize(cluster_->num_nodes(), false);
  }
  uint32_t recovered = 0;
  for (uint32_t id = 0; id < cluster_->num_nodes(); ++id) {
    StorageNode* node = cluster_->node(id);
    if (node->alive()) {
      handled_[id] = false;  // a revived node can fail again later
      continue;
    }
    if (handled_[id]) continue;
    Status st = RecoverNode(id);
    if (!st.ok()) return st;
    handled_[id] = true;
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
      // With RF1 (or all replicas dead) acknowledged data is lost — exactly
      // the risk the paper's synchronous replication exists to avoid.
      return Status::Unavailable(
          "partition lost all copies; data unrecoverable (table " +
          std::to_string(table) + " partition " + std::to_string(partition) +
          ")");
    }
    TELL_RETURN_NOT_OK(map.PromoteReplica(table, partition, promoted));
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
      TELL_ASSIGN_OR_RETURN(std::vector<KeyCell> cells,
                            master->DumpPartition(table, partition));
      TELL_RETURN_NOT_OK(
          cluster_->node(candidate)->InstallPartition(table, partition, cells));
      TELL_RETURN_NOT_OK(map.AddReplica(table, partition, candidate));
      placement.replicas.push_back(candidate);
      ++live_copies;
      TELL_LOG(kInfo) << "re-replicated table " << table << " partition "
                      << partition << " onto node " << candidate;
    }
  }
  return Status::OK();
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
  StorageNode* src = cluster_->node(placement.master);
  StorageNode* dest = cluster_->node(dest_node);
  if (!src->alive() || !dest->alive()) {
    return Status::Unavailable("migration needs both endpoints alive");
  }
  {
    std::lock_guard<std::mutex> mlock(migration_mutex_);
    ++migration_stats_.started;
  }
  TELL_LOG(kInfo) << "migrating table " << table << " partition " << partition
                  << " from node " << placement.master << " to node "
                  << dest_node;

  // Phase 1 — bulk copy. Erase journaling starts BEFORE the watermark read
  // and the dump, so nothing disappearing after this point goes unrecorded.
  TELL_RETURN_NOT_OK(src->BeginMigrationLogging(table, partition));
  // Watermark before the dump: any write the dump misses carries a stamp
  // >= `watermark` and is caught by the next round.
  TELL_ASSIGN_OR_RETURN(uint64_t watermark,
                        src->PartitionNextStamp(table, partition));
  TELL_ASSIGN_OR_RETURN(std::vector<KeyCell> cells,
                        src->DumpPartition(table, partition));
  Status st = dest->InstallPartition(table, partition, cells);
  if (!st.ok()) {
    (void)src->EndMigrationLogging(table, partition);
    return st;
  }
  {
    std::lock_guard<std::mutex> mlock(migration_mutex_);
    migration_stats_.cells_copied += cells.size();
  }

  // Phase 2 — catch-up rounds while writes continue. Each round ships what
  // changed since the previous watermark; under steady load the delta stops
  // shrinking, so the round count is bounded and the remainder moves inside
  // the freeze.
  for (uint32_t round = 0; round < 4; ++round) {
    TELL_ASSIGN_OR_RETURN(uint64_t next_watermark,
                          src->PartitionNextStamp(table, partition));
    TELL_ASSIGN_OR_RETURN(std::vector<KeyCell> delta,
                          src->DumpPartition(table, partition, watermark));
    TELL_ASSIGN_OR_RETURN(std::vector<MigrationOp> erases,
                          src->ErasesSince(table, partition, watermark));
    if (delta.empty() && erases.empty()) break;
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
    uint64_t erases_applied = 0;
    st = dest->InstallMigrationDelta(table, partition, ops, &erases_applied);
    if (!st.ok()) {
      (void)src->EndMigrationLogging(table, partition);
      return st;
    }
    {
      std::lock_guard<std::mutex> mlock(migration_mutex_);
      ++migration_stats_.delta_rounds;
      migration_stats_.delta_cells += delta.size();
      migration_stats_.erases_applied += erases_applied;
    }
    watermark = next_watermark;
  }

  // Phase 3 — cut-over. Freeze routes (new writes bounce and retry), then
  // seal the source under every stripe lock: in-flight writes that raced
  // the freeze have finished by the time the seal holds all locks, and the
  // sealed final delta includes them. After this the source image is final.
  TELL_RETURN_NOT_OK(map.FreezeWrites(table, partition));
  auto final_ops = src->SealPartitionAndDump(table, partition, watermark);
  if (!final_ops.ok()) {
    (void)map.UnfreezeWrites(table, partition);
    (void)src->EndMigrationLogging(table, partition);
    return final_ops.status();
  }
  uint64_t erases_applied = 0;
  st = dest->InstallMigrationDelta(table, partition, *final_ops,
                                   &erases_applied);
  if (!st.ok()) {
    // The source is sealed and the map frozen — this partition cannot
    // accept writes until an operator intervenes. Surface the error rather
    // than unfreeze onto a sealed master.
    return st;
  }
  TELL_RETURN_NOT_OK(map.MovePartitionMaster(table, partition, dest_node));
  TELL_RETURN_NOT_OK(map.UnfreezeWrites(table, partition));
  {
    std::lock_guard<std::mutex> mlock(migration_mutex_);
    ++migration_stats_.delta_rounds;
    for (const MigrationOp& op : *final_ops) {
      if (!op.is_erase) ++migration_stats_.delta_cells;
    }
    migration_stats_.erases_applied += erases_applied;
    ++migration_stats_.completed;
  }
  TELL_LOG(kInfo) << "migration of table " << table << " partition "
                  << partition << " complete (" << cells.size()
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
