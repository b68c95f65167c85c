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
  /// Writes are fenced off (Unavailable, clients retry) — the cut-over
  /// window of a live migration. Reads stay allowed: the data is static
  /// while frozen.
  bool write_frozen = false;
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
/// The map changes only on fail-over, migration and elasticity events.
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

  /// Promotes `new_master` (must be a current replica) to master of the
  /// partition, removing it from the replica list. Used on fail-over.
  Status PromoteReplica(TableId table, uint32_t partition,
                        uint32_t new_master);

  /// Adds a backup node to a partition (re-replication after a failure).
  Status AddReplica(TableId table, uint32_t partition, uint32_t node_id);

  /// Fences writes to one partition (live-migration cut-over; see
  /// docs/RECOVERY.md). Routed writes fail Unavailable until unfrozen and
  /// retry through the client RetryPolicy.
  Status FreezeWrites(TableId table, uint32_t partition);
  Status UnfreezeWrites(TableId table, uint32_t partition);

  /// Re-points a partition's master at `new_master` (live migration
  /// cut-over). Unlike PromoteReplica, `new_master` need not be a current
  /// replica — the migration just copied the data onto it — and the OLD
  /// master is dropped from the placement entirely (its copy stays sealed
  /// on the source node).
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
