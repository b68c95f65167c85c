#include "store/partition_map.h"

#include <algorithm>
#include <mutex>

namespace tell::store {

uint64_t PartitionMap::HashKey(std::string_view key) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (char c : key) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

Status PartitionMap::AddTable(TableId table, uint32_t num_partitions,
                              const std::vector<uint32_t>& node_ids,
                              uint32_t replication_factor) {
  if (num_partitions == 0 || node_ids.empty()) {
    return Status::InvalidArgument("table needs partitions and nodes");
  }
  if (replication_factor == 0 || replication_factor > node_ids.size()) {
    return Status::InvalidArgument(
        "replication factor must be in [1, num nodes]");
  }
  std::unique_lock lock(mutex_);
  if (tables_.find(table) != tables_.end()) {
    return Status::AlreadyExists("table already mapped");
  }
  TableInfo info;
  info.num_partitions = num_partitions;
  info.placements.resize(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    PartitionPlacement& placement = info.placements[p];
    placement.master = node_ids[p % node_ids.size()];
    for (uint32_t r = 1; r < replication_factor; ++r) {
      placement.replicas.push_back(node_ids[(p + r) % node_ids.size()]);
    }
  }
  tables_.emplace(table, std::move(info));
  return Status::OK();
}

Result<uint32_t> PartitionMap::PartitionFor(TableId table,
                                            std::string_view key) const {
  std::shared_lock lock(mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table not mapped");
  return static_cast<uint32_t>(HashKey(key) % it->second.num_partitions);
}

Result<uint32_t> PartitionMap::NumPartitions(TableId table) const {
  std::shared_lock lock(mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table not mapped");
  return it->second.num_partitions;
}

Result<PartitionPlacement> PartitionMap::PlacementOf(TableId table,
                                                     uint32_t partition) const {
  std::shared_lock lock(mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table not mapped");
  if (partition >= it->second.num_partitions) {
    return Status::InvalidArgument("partition out of range");
  }
  return it->second.placements[partition];
}

Status PartitionMap::AddReplica(TableId table, uint32_t partition,
                                uint32_t node_id) {
  std::unique_lock lock(mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table not mapped");
  if (partition >= it->second.num_partitions) {
    return Status::InvalidArgument("partition out of range");
  }
  PartitionPlacement& placement = it->second.placements[partition];
  if (placement.master == node_id ||
      std::find(placement.replicas.begin(), placement.replicas.end(),
                node_id) != placement.replicas.end()) {
    return Status::AlreadyExists("node already hosts this partition");
  }
  placement.replicas.push_back(node_id);
  ++placement.version;
  return Status::OK();
}

Status PartitionMap::MovePartitionMaster(TableId table, uint32_t partition,
                                         uint32_t new_master) {
  std::unique_lock lock(mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table not mapped");
  if (partition >= it->second.num_partitions) {
    return Status::InvalidArgument("partition out of range");
  }
  PartitionPlacement& placement = it->second.placements[partition];
  if (placement.master == new_master) {
    return Status::InvalidArgument("node is already the master");
  }
  placement.replicas.erase(std::remove(placement.replicas.begin(),
                                       placement.replicas.end(), new_master),
                           placement.replicas.end());
  placement.master = new_master;
  ++placement.version;
  return Status::OK();
}

std::vector<std::pair<TableId, uint32_t>> PartitionMap::RemoveNode(
    uint32_t node_id) {
  std::unique_lock lock(mutex_);
  std::vector<std::pair<TableId, uint32_t>> orphaned_masters;
  for (auto& [table, info] : tables_) {
    for (uint32_t p = 0; p < info.num_partitions; ++p) {
      PartitionPlacement& placement = info.placements[p];
      auto gone = std::remove(placement.replicas.begin(),
                              placement.replicas.end(), node_id);
      if (placement.master == node_id) {
        orphaned_masters.emplace_back(table, p);
      } else if (gone == placement.replicas.end()) {
        continue;
      }
      placement.replicas.erase(gone, placement.replicas.end());
      ++placement.version;
    }
  }
  return orphaned_masters;
}

std::vector<std::pair<TableId, uint32_t>> PartitionMap::AllPartitions() const {
  std::shared_lock lock(mutex_);
  std::vector<std::pair<TableId, uint32_t>> out;
  for (const auto& [table, info] : tables_) {
    for (uint32_t p = 0; p < info.num_partitions; ++p) out.emplace_back(table, p);
  }
  return out;
}

}  // namespace tell::store
