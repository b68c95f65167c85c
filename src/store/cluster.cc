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
  Route route;
  route.partition = partition;
  TELL_ASSIGN_OR_RETURN(route.placement,
                        partition_map_.PlacementOf(table, partition));
  return route;
}

Result<StorageNode*> Cluster::LiveMaster(const Route& route) const {
  StorageNode* master = nodes_[route.placement.master].get();
  if (!master->alive()) {
    return Status::Unavailable("master of partition is down");
  }
  return master;
}

std::vector<StorageNode*> Cluster::LiveBackups(const Route& route) const {
  std::vector<StorageNode*> backups;
  for (uint32_t replica : route.placement.replicas) {
    StorageNode* node = nodes_[replica].get();
    if (node->alive()) backups.push_back(node);
  }
  return backups;
}

Result<VersionedCell> Cluster::Get(TableId table, std::string_view key) const {
  TELL_ASSIGN_OR_RETURN(Route route, RouteFor(table, key));
  return Get(route, table, key);
}

Result<VersionedCell> Cluster::Get(const Route& route, TableId table,
                                   std::string_view key) const {
  TELL_ASSIGN_OR_RETURN(StorageNode * master, LiveMaster(route));
  return master->Get(table, route.partition, key);
}

Result<VersionedCell> Cluster::OneSidedGet(const Route& route, TableId table,
                                           std::string_view key) const {
  TELL_ASSIGN_OR_RETURN(StorageNode * master, LiveMaster(route));
  return master->OneSidedRead(table, route.partition, key);
}

Result<uint64_t> Cluster::Write(const WriteOp& op) {
  TELL_ASSIGN_OR_RETURN(Route route, RouteFor(op.table, op.key));
  return Write(route, op);
}

Result<uint64_t> Cluster::Write(const Route& route, const WriteOp& op,
                                std::string* movable_value) {
  TELL_ASSIGN_OR_RETURN(StorageNode * master, LiveMaster(route));
  return master->Write(route.partition, op, LiveBackups(route),
                       route.placement.version, movable_value);
}

Result<int64_t> Cluster::AtomicIncrement(TableId table, std::string_view key,
                                         int64_t delta) {
  TELL_ASSIGN_OR_RETURN(Route route, RouteFor(table, key));
  TELL_ASSIGN_OR_RETURN(StorageNode * master, LiveMaster(route));
  // The counter cell is replicated so it survives master failure.
  return master->AtomicIncrement(table, route.partition, key, delta,
                                 LiveBackups(route), route.placement.version);
}

Status Cluster::FragmentScan(TableId table, uint32_t partition,
                             std::string_view start_key,
                             std::string_view end_key, size_t chunk_cells,
                             FragmentSink* sink,
                             FragmentScanStats* stats) const {
  TELL_ASSIGN_OR_RETURN(Route route, RouteForPartition(table, partition));
  TELL_ASSIGN_OR_RETURN(StorageNode * master, LiveMaster(route));
  return master->FragmentScan(table, partition, start_key, end_key,
                              chunk_cells, sink, stats);
}

StorageNode* Cluster::node(uint32_t node_id) {
  TELL_CHECK(node_id < nodes_.size());
  return nodes_[node_id].get();
}

uint64_t Cluster::TotalMemoryUsed() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    if (node->alive()) total += node->memory_used();
  }
  return total;
}

}  // namespace tell::store
