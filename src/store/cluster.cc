#include "store/cluster.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/logging.h"

namespace tell::store {

Cluster::Cluster(const ClusterOptions& options) : options_(options) {
  TELL_CHECK(options_.num_storage_nodes > 0);
  TELL_CHECK(options_.replication_factor >= 1);
  TELL_CHECK(options_.replication_factor <= options_.num_storage_nodes);
  nodes_.reserve(options_.num_storage_nodes);
  for (uint32_t i = 0; i < options_.num_storage_nodes; ++i) {
    nodes_.push_back(std::make_unique<StorageNode>(
        i, options_.memory_per_node_bytes, options_.stripes_per_partition));
    nodes_.back()->set_lease_epochs(&lease_epochs_);
  }
}

Result<TableId> Cluster::CreateTable(const std::string& name) {
  std::lock_guard lock(catalog_mutex_);
  if (catalog_.find(name) != catalog_.end()) {
    return Status::AlreadyExists("table '" + name + "' exists");
  }
  TableId id = next_table_id_++;
  uint32_t num_partitions =
      options_.num_storage_nodes * options_.partitions_per_node;
  std::vector<uint32_t> node_ids;
  for (const auto& node : nodes_) {
    if (node->alive()) node_ids.push_back(node->node_id());
  }
  TELL_RETURN_NOT_OK(partition_map_.AddTable(id, num_partitions, node_ids,
                                             options_.replication_factor));
  // Materialize the partitions on every hosting node (master and backups).
  for (uint32_t p = 0; p < num_partitions; ++p) {
    auto placement = partition_map_.PlacementOf(id, p);
    TELL_CHECK(placement.ok());
    nodes_[placement->master]->CreatePartition(id, p);
    for (uint32_t replica : placement->replicas) {
      nodes_[replica]->CreatePartition(id, p);
    }
  }
  catalog_.emplace(name, id);
  return id;
}

Result<Cluster::Route> Cluster::RouteFor(TableId table,
                                         std::string_view key) const {
  TELL_ASSIGN_OR_RETURN(uint32_t partition,
                        partition_map_.PartitionFor(table, key));
  return RouteForPartition(table, partition);
}

Result<Cluster::Route> Cluster::RouteForPartition(TableId table,
                                                  uint32_t partition) const {
  TELL_ASSIGN_OR_RETURN(PartitionPlacement placement,
                        partition_map_.PlacementOf(table, partition));
  Route route;
  route.partition = partition;
  route.write_frozen = placement.write_frozen;
  route.master = const_cast<StorageNode*>(nodes_[placement.master].get());
  if (!route.master->alive()) {
    return Status::Unavailable("master of partition is down");
  }
  for (uint32_t replica : placement.replicas) {
    StorageNode* node = const_cast<StorageNode*>(nodes_[replica].get());
    if (node->alive()) route.replicas.push_back(node);
  }
  return route;
}

Result<VersionedCell> Cluster::Get(TableId table, std::string_view key) const {
  TELL_ASSIGN_OR_RETURN(Route route, RouteFor(table, key));
  return route.master->Get(table, route.partition, key);
}

Result<VersionedCell> Cluster::OneSidedGet(TableId table,
                                           std::string_view key) const {
  TELL_ASSIGN_OR_RETURN(Route route, RouteFor(table, key));
  return route.master->OneSidedRead(table, route.partition, key);
}

Result<uint64_t> Cluster::Write(const WriteOp& op) {
  TELL_ASSIGN_OR_RETURN(Route route, RouteFor(op.table, op.key));
  if (route.write_frozen) {
    return Status::Unavailable("partition write-frozen for migration");
  }
  return route.master->Write(route.partition, op, route.replicas);
}

Result<int64_t> Cluster::AtomicIncrement(TableId table, std::string_view key,
                                         int64_t delta) {
  TELL_ASSIGN_OR_RETURN(Route route, RouteFor(table, key));
  if (route.write_frozen) {
    return Status::Unavailable("partition write-frozen for migration");
  }
  // The counter cell is replicated so it survives master failure.
  return route.master->AtomicIncrement(table, route.partition, key, delta,
                                       route.replicas);
}

Result<std::vector<KeyCell>> Cluster::Scan(TableId table,
                                           std::string_view start_key,
                                           std::string_view end_key) const {
  TELL_ASSIGN_OR_RETURN(uint32_t num_partitions,
                        partition_map_.NumPartitions(table));
  std::vector<KeyCell> merged;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    TELL_ASSIGN_OR_RETURN(Route route, RouteForPartition(table, p));
    TELL_ASSIGN_OR_RETURN(
        std::vector<KeyCell> part,
        route.master->Scan(table, p, start_key, end_key));
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  std::sort(merged.begin(), merged.end(),
            [](const KeyCell& a, const KeyCell& b) { return a.key < b.key; });
  return merged;
}

Status Cluster::FragmentScan(TableId table, uint32_t partition,
                             size_t chunk_cells, FragmentSink* sink,
                             FragmentScanStats* stats) const {
  TELL_ASSIGN_OR_RETURN(Route route, RouteForPartition(table, partition));
  return route.master->FragmentScan(table, partition, chunk_cells, sink,
                                    stats);
}

StorageNode* Cluster::node(uint32_t node_id) {
  TELL_CHECK(node_id < nodes_.size());
  return nodes_[node_id].get();
}

Result<uint32_t> Cluster::MasterOf(TableId table, std::string_view key) const {
  TELL_ASSIGN_OR_RETURN(uint32_t partition,
                        partition_map_.PartitionFor(table, key));
  TELL_ASSIGN_OR_RETURN(PartitionPlacement placement,
                        partition_map_.PlacementOf(table, partition));
  return placement.master;
}

uint64_t Cluster::TotalMemoryUsed() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    if (node->alive()) total += node->memory_used();
  }
  return total;
}

}  // namespace tell::store
