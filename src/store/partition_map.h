#ifndef TELL_STORE_PARTITION_MAP_H_
#define TELL_STORE_PARTITION_MAP_H_

#include <cstdint>
#include <map>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "store/storage_node.h"

namespace tell::store {

/// Placement of one table partition: the master copy plus RF-1 backups.
struct PartitionPlacement {
  uint32_t master = 0;
  std::vector<uint32_t> replicas;  // backup node ids, excludes master
  /// Bumped by every change to this placement. Writes carry the version
  /// they were routed by to the master's fence (StorageNode::OpenPartition).
  uint64_t version = 0;
};

/// The lookup service of the storage layer (paper §2.1: "a mechanism is
/// provided to retrieve data location ... that enables the processing nodes
/// to directly contact the storage node holding the required data").
///
/// The key space of each table is split into a fixed number of partitions by
/// hashing the key into a 64-bit space that is range-partitioned — the same
/// scheme RamCloud uses for its tables. Each partition has a master copy and
/// RF-1 synchronously maintained backups on distinct nodes.
///
/// The map changes only on fail-over, migration and elasticity events; each
/// change bumps the version of every placement it touches.
class PartitionMap {
 public:
  PartitionMap() = default;

  /// Registers a table spread over `num_partitions` partitions on the given
  /// nodes with the given replication factor. Masters round-robin across
  /// nodes; replicas go to the following nodes.
  Status AddTable(TableId table, uint32_t num_partitions,
                  const std::vector<uint32_t>& node_ids,
                  uint32_t replication_factor);

  /// Partition index that owns `key` within `table`.
  Result<uint32_t> PartitionFor(TableId table, std::string_view key) const;

  Result<uint32_t> NumPartitions(TableId table) const;

  /// Current placement of a table partition.
  Result<PartitionPlacement> PlacementOf(TableId table,
                                         uint32_t partition) const;

  /// Adds a backup node to a partition (re-replication after a failure).
  Status AddReplica(TableId table, uint32_t partition, uint32_t node_id);

  /// Re-points a partition's master at `new_master`, removing it from the
  /// backups; the old master leaves the placement. Fail-over promotes a
  /// backup this way, and a migration's cut-over the node its copy just
  /// filled (the old master's copy stays sealed there).
  Status MovePartitionMaster(TableId table, uint32_t partition,
                             uint32_t new_master);

  /// Removes a (dead) node from every placement it appears in. Returns the
  /// list of partitions that lost their *master* copy and need promotion.
  std::vector<std::pair<TableId, uint32_t>> RemoveNode(uint32_t node_id);

  /// All (table, partition) pairs currently mapped (management / tests).
  std::vector<std::pair<TableId, uint32_t>> AllPartitions() const;

  /// 64-bit FNV-1a; exposed so tests can verify placement determinism.
  static uint64_t HashKey(std::string_view key);

 private:
  struct TableInfo {
    uint32_t num_partitions = 0;
    std::vector<PartitionPlacement> placements;
  };

  mutable std::shared_mutex mutex_;
  std::map<TableId, TableInfo> tables_;
};

}  // namespace tell::store

#endif  // TELL_STORE_PARTITION_MAP_H_
