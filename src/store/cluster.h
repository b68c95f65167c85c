#ifndef TELL_STORE_CLUSTER_H_
#define TELL_STORE_CLUSTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "store/partition_map.h"
#include "store/record_cache.h"
#include "store/storage_node.h"

namespace tell::store {

/// Configuration of the distributed storage system.
struct ClusterOptions {
  uint32_t num_storage_nodes = 3;
  uint32_t replication_factor = 1;
  /// Partitions per table = num_storage_nodes * partitions_per_node, so load
  /// spreads evenly and fail-over moves 1/Nth of the data.
  uint32_t partitions_per_node = 4;
  /// DRAM budget per storage node.
  uint64_t memory_per_node_bytes = 4ULL << 30;
  /// Lock stripes per table partition on each storage node (rounded up to a
  /// power of two). 1 reproduces the old monolithic per-partition lock.
  uint32_t stripes_per_partition = kDefaultStripesPerPartition;
};

/// The distributed storage system: a set of storage nodes, the partition
/// map (lookup service) and the routing/replication logic that in a real
/// deployment would live in the RamCloud coordinator and servers.
///
/// This class is the *server side*; processing nodes talk to it through
/// StorageClient, which layers network-cost accounting and batching on top.
/// Every write is synchronously replicated to all backups of the partition
/// before it is acknowledged (paper §4.4.2: in-memory storage mandates
/// synchronous replication), and reads are always served by the master copy
/// (§6.1: "all requests to a particular partition are sent to the master
/// copy").
class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterOptions& options() const { return options_; }

  /// Creates a table spread across all live storage nodes. Returns its id.
  Result<TableId> CreateTable(const std::string& name);

  // --- Record operations (routed to the master copy, replicated) ---------

  Result<VersionedCell> Get(TableId table, std::string_view key) const;
  /// One-sided read of the master copy: routes like Get but reads through
  /// StorageNode::OneSidedRead, which skips the node's request counters (an
  /// RDMA READ never touches the server CPU). Clients must validate the
  /// result against the partition's lease epoch before trusting it.
  Result<VersionedCell> OneSidedGet(TableId table, std::string_view key) const;
  /// The one write: routes `op` to its partition's master, applies it there
  /// (StorageNode::Write) and, once it succeeded, synchronously on every
  /// live backup while the master still holds the key's stripe lock.
  /// Returns the new stamp of a put, 0 for an erase.
  Result<uint64_t> Write(const WriteOp& op);
  Result<int64_t> AtomicIncrement(TableId table, std::string_view key,
                                  int64_t delta);

  /// Ordered scan of [start_key, end_key) merged across all partitions of
  /// the table.
  Result<std::vector<KeyCell>> Scan(TableId table, std::string_view start_key,
                                    std::string_view end_key) const;

  /// Runs a vectorized scan fragment over ONE partition of a table on its
  /// master node (DESIGN.md "Vectorized scans & aggregate pushdown"). The
  /// caller owns the sink and merges partial states across partitions.
  Status FragmentScan(TableId table, uint32_t partition, size_t chunk_cells,
                      FragmentSink* sink, FragmentScanStats* stats) const;

  // --- Topology ----------------------------------------------------------

  StorageNode* node(uint32_t node_id);
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  PartitionMap& partition_map() { return partition_map_; }
  const PartitionMap& partition_map() const { return partition_map_; }

  /// Per-partition lease epochs for the client record cache. Storage nodes
  /// bump them on every write; StorageClient samples them around cache
  /// fills and probes (store/record_cache.h).
  LeaseEpochTable& lease_epochs() { return lease_epochs_; }
  const LeaseEpochTable& lease_epochs() const { return lease_epochs_; }

  /// Number of storage nodes a request for `key` would touch (always 1;
  /// exposed for the client's batching logic: ops are grouped per master).
  Result<uint32_t> MasterOf(TableId table, std::string_view key) const;

  /// Sum of memory used across live nodes (capacity experiments, Fig 7).
  uint64_t TotalMemoryUsed() const;

 private:
  friend class ManagementNode;

  /// Resolves (table, key) to its partition and current master node, failing
  /// with Unavailable when the master is down (clients retry after the
  /// management node has failed over).
  struct Route {
    uint32_t partition;
    StorageNode* master;
    std::vector<StorageNode*> replicas;
    /// Migration cut-over window: write ops bounce with Unavailable (the
    /// client RetryPolicy re-routes them after the map unfreezes).
    bool write_frozen = false;
  };
  Result<Route> RouteFor(TableId table, std::string_view key) const;
  Result<Route> RouteForPartition(TableId table, uint32_t partition) const;

  const ClusterOptions options_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  PartitionMap partition_map_;
  LeaseEpochTable lease_epochs_;

  std::mutex catalog_mutex_;
  std::map<std::string, TableId> catalog_;
  TableId next_table_id_ = 1;
};

}  // namespace tell::store

#endif  // TELL_STORE_CLUSTER_H_
