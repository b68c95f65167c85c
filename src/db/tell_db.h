#ifndef TELL_DB_TELL_DB_H_
#define TELL_DB_TELL_DB_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "buffer/shared_record_buffer.h"
#include "buffer/version_sync_buffer.h"
#include "commitmgr/commit_manager.h"
#include "common/result.h"
#include "index/btree.h"
#include "obs/metrics_registry.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "store/cluster.h"
#include "store/management_node.h"
#include "store/storage_client.h"
#include "tx/catalog.h"
#include "tx/garbage_collector.h"
#include "tx/recovery.h"
#include "tx/transaction.h"
#include "tx/transaction_log.h"

namespace tell::db {

/// Which record buffering strategy the processing nodes use (paper §5.5,
/// evaluated in Fig. 11).
enum class BufferStrategy {
  kTransactionOnly,  // TB: private per-transaction buffers only (default)
  kSharedRecord,     // SB: PN-wide shared record buffer
  kVersionSync,      // SBVS: shared buffer with version set synchronization
};

/// Full cluster configuration. Defaults give a small single-box cluster
/// with the paper's technique choices (InfiniBand model, batching, inner
/// node caching, TB buffering, RF1).
struct TellDbOptions {
  uint32_t num_processing_nodes = 1;
  uint32_t num_storage_nodes = 3;
  uint32_t num_commit_managers = 1;
  uint32_t replication_factor = 1;

  sim::NetworkModel network = sim::NetworkModel::InfiniBand();
  sim::CpuModel cpu;
  bool batching = true;

  index::BTreeOptions btree;
  /// Per-PN client record cache under lease epochs (store/record_cache.h;
  /// DESIGN.md "One-sided reads & client caching"). Off by default.
  store::RecordCacheOptions record_cache;
  /// Model reads as one-sided RDMA READs where the NetworkModel supports
  /// them (see ClientOptions::one_sided_reads). Off by default; a no-op on
  /// kernel-TCP models either way.
  bool one_sided_reads = false;
  /// §5.2 operator push-down: full-scan WHERE clauses evaluate on the
  /// storage nodes (the paper's mixed-workload direction, implemented).
  /// Also enables the vectorized aggregate path: eligible aggregate queries
  /// run as storage-side scan fragments (DESIGN.md "Vectorized scans &
  /// aggregate pushdown").
  bool operator_pushdown = false;
  /// Batch size (cells) a storage node decodes per stripe-lock acquisition
  /// during a fragment scan; between chunks the locks drop so OLTP point
  /// ops are never blocked behind an analytical scan.
  uint32_t scan_chunk_cells = 1024;
  BufferStrategy buffer_strategy = BufferStrategy::kTransactionOnly;
  uint64_t buffer_unit_size = 10;  // SBVS cache unit size

  commitmgr::CommitManagerOptions commit_manager;
  /// <= 0 disables the background sync thread (then call SyncCommitManagers
  /// manually; irrelevant with one manager).
  double commit_manager_sync_ms = 1.0;
  /// Commit-manager replication (docs/RECOVERY.md): `replicas` > 1 runs
  /// each commit-manager slot as a leader + followers group with a change
  /// log and deterministic re-election on leader death.
  commitmgr::ReplicationOptions commit_replication;

  uint64_t memory_per_storage_node = 4ULL << 30;
  /// Lock stripes per partition on each storage node (power of two; see
  /// DESIGN.md "Storage engine"). More stripes let concurrent workers write
  /// disjoint keys of one partition in parallel; 1 = one lock per partition.
  uint32_t stripes_per_partition = store::kDefaultStripesPerPartition;

  /// Retry/backoff policy every worker's StorageClient uses on Unavailable
  /// (fail-over, injected faults).
  store::RetryPolicy retry;
  /// Optional fault injector (not owned; must outlive the database). Worker
  /// sessions consult it on every storage request; the admin session (DDL,
  /// recovery, GC) is exempt so recovery itself stays deterministic.
  sim::FaultInjector* fault_injector = nullptr;
};

/// The Tell database: a complete shared-data cluster in one process —
/// storage nodes, commit managers, a management node, the transaction log,
/// and any number of processing nodes, each with its own index caches and
/// shared record buffer. Worker threads open Sessions against a PN and run
/// Transactions; the SQL front-end sits on top.
class TellDb {
 public:
  explicit TellDb(const TellDbOptions& options);
  ~TellDb();

  TellDb(const TellDb&) = delete;
  TellDb& operator=(const TellDb&) = delete;

  const TellDbOptions& options() const { return options_; }

  // --- DDL -----------------------------------------------------------------

  /// Creates a relational table with a unique primary key index and the
  /// given secondary indexes.
  Status CreateTable(const std::string& name, schema::Schema schema,
                     const std::vector<schema::IndexDef>& secondary_indexes);

  /// Executes a DDL statement (CREATE TABLE / CREATE [UNIQUE] INDEX).
  /// CREATE INDEX backfills from existing data; it must run before the
  /// table is first used on any processing node.
  Status ExecuteDdl(const std::string& sql);

  // --- Sessions / transactions ----------------------------------------------

  /// Opens a worker session bound to processing node `pn_id`. `worker_id`
  /// must be unique per live session (it picks the commit manager and seeds
  /// determinism). The caller owns the session; a session is single-owner:
  /// driven by one OS thread (legacy drivers) or by one executor fiber task
  /// (exec::Runtime — the task may migrate across executor threads between
  /// parks, but never runs on two at once; see docs/RUNTIME.md).
  std::unique_ptr<tx::Session> OpenSession(uint32_t pn_id,
                                           uint32_t worker_id);

  /// Per-PN table handle (opens it on first use).
  Result<tx::TableHandle*> GetTable(uint32_t pn_id, const std::string& name);

  /// Parses, plans and executes one DML/query statement inside `txn`
  /// (running on PN `pn_id`). DDL is executed immediately, outside any
  /// transaction.
  Result<sql::ResultSet> ExecuteSql(tx::Transaction* txn, uint32_t pn_id,
                                    const std::string& sql);

  /// Convenience: runs `sql` in its own transaction (begin/commit) on the
  /// given session.
  Result<sql::ResultSet> AutoCommitSql(tx::Session* session,
                                       const std::string& sql);

  // --- Elasticity & fault injection -----------------------------------------

  /// Adds a processing node at runtime; returns its id. This is the cheap
  /// elasticity the shared-data architecture promises — no data moves.
  uint32_t AddProcessingNode();

  uint32_t num_processing_nodes() const;

  /// Crash-stops a processing node and runs the recovery process (rolls
  /// back its in-flight transactions). Sessions bound to it must not be
  /// used afterwards.
  Result<tx::RecoveryStats> KillProcessingNode(uint32_t pn_id);

  /// Crash-stops a storage node and lets the management node fail over.
  Status KillStorageNode(uint32_t node_id);

  /// One lazy-GC sweep over all tables opened on PN 0 plus log truncation.
  Result<tx::GcStats> RunGarbageCollection();

  // --- Observability --------------------------------------------------------

  /// Exports the node-side counters into the registry's gauges, each stats
  /// struct summed over its nodes: storage nodes (`store.node.*`),
  /// migrations (`store.migration.*`), commit managers (`commitmgr.*`,
  /// `commitmgr.repl.*`), PN record caches, node caches and shared buffers
  /// (`store.cache.*`, `index.cache.*`, `buffer.shared.*`), lazy-GC totals
  /// (`gc.*`) and the fault injector (`fault.*`).
  void ExportStats(obs::MetricsRegistry* registry) const;

  /// Per-node breakdown for the JSON artifact's "nodes" object: one row per
  /// storage node ("sn0", ...), commit manager ("cm0", ...), and PN shared
  /// buffer and record cache that counted anything ("pn0.buffer",
  /// "pn0.cache", ...).
  obs::NodeRows PerNodeStats() const;

  // --- Internals exposed for tests and benches ------------------------------

  store::Cluster* cluster() { return cluster_.get(); }
  store::ManagementNode* management() { return management_.get(); }
  commitmgr::CommitManagerGroup* commit_managers() {
    return commit_managers_.get();
  }
  const tx::TransactionLog* transaction_log() const { return log_.get(); }
  tx::Catalog* catalog() { return &catalog_; }
  tx::RecoveryManager* recovery() { return recovery_.get(); }

 private:
  struct ProcessingNode {
    bool alive = true;
    tx::TableRegistry registry;
    std::unique_ptr<tx::RecordBuffer> buffer;
    /// Shared record cache of this PN's workers; null when disabled.
    std::unique_ptr<store::RecordCache> record_cache;
  };

  std::unique_ptr<tx::RecordBuffer> MakeBuffer();
  store::StorageClient* admin_client() { return admin_session_->client(); }

  const TellDbOptions options_;
  std::unique_ptr<store::Cluster> cluster_;
  std::unique_ptr<store::ManagementNode> management_;
  std::unique_ptr<commitmgr::CommitManagerGroup> commit_managers_;
  std::unique_ptr<tx::TransactionLog> log_;
  tx::Catalog catalog_;
  std::unique_ptr<tx::RecoveryManager> recovery_;
  std::unique_ptr<tx::GarbageCollector> gc_;
  store::TableId version_set_table_ = 0;
  tx::KeySequences key_sequences_;

  mutable std::mutex pns_mutex_;
  std::vector<std::unique_ptr<ProcessingNode>> pns_;

  // Admin context (DDL, recovery, GC) — its costs are not part of any
  // benchmark worker's virtual time.
  std::unique_ptr<tx::PassthroughBuffer> admin_buffer_;
  std::unique_ptr<tx::Session> admin_session_;

  sql::Executor executor_;
};

}  // namespace tell::db

#endif  // TELL_DB_TELL_DB_H_
