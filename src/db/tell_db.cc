#include "db/tell_db.h"

#include "common/logging.h"
#include "common/serde.h"
#include "schema/versioned_record.h"

namespace tell::db {

namespace {

store::ClientOptions MakeClientOptions(const TellDbOptions& options,
                                       uint32_t pn_id, uint32_t worker_id,
                                       bool with_faults) {
  store::ClientOptions client;
  client.network = options.network;
  client.cpu = options.cpu;
  client.batching = options.batching;
  client.replication_extra_hops = options.replication_factor - 1;
  client.retry = options.retry;
  // Distinct per-worker jitter streams that stay reproducible run-to-run.
  client.retry_seed = options.retry_seed ^
                      (static_cast<uint64_t>(pn_id) * 0x9E3779B97F4A7C15ULL) ^
                      (static_cast<uint64_t>(worker_id) << 32);
  client.fault_injector = with_faults ? options.fault_injector : nullptr;
  // The record cache is per-PN and attached by OpenSession; the admin
  // session stays uncached and two-sided so DDL/recovery/GC accounting is
  // independent of the read-path configuration.
  client.one_sided_reads = with_faults && options.one_sided_reads;
  client.scan_chunk_cells = options.scan_chunk_cells;
  return client;
}

}  // namespace

TellDb::TellDb(const TellDbOptions& options)
    : options_(options), executor_(options.operator_pushdown) {
  store::ClusterOptions cluster_options;
  cluster_options.num_storage_nodes = options_.num_storage_nodes;
  cluster_options.replication_factor = options_.replication_factor;
  cluster_options.partitions_per_node = options_.partitions_per_storage_node;
  cluster_options.memory_per_node_bytes = options_.memory_per_storage_node;
  cluster_options.stripes_per_partition = options_.stripes_per_partition;
  cluster_ = std::make_unique<store::Cluster>(cluster_options);
  management_ = std::make_unique<store::ManagementNode>(cluster_.get());
  commit_managers_ = std::make_unique<commitmgr::CommitManagerGroup>(
      cluster_.get(), options_.num_commit_managers, options_.commit_manager,
      options_.commit_manager_sync_ms, options_.commit_replication);

  auto log_table = cluster_->CreateTable("__transaction_log");
  TELL_CHECK(log_table.ok());
  log_ = std::make_unique<tx::TransactionLog>(*log_table);

  if (options_.buffer_strategy == BufferStrategy::kVersionSync) {
    auto vs_table = cluster_->CreateTable("__version_sets");
    TELL_CHECK(vs_table.ok());
    version_set_table_ = *vs_table;
  }

  recovery_ =
      std::make_unique<tx::RecoveryManager>(log_.get(), commit_managers_.get());
  gc_ = std::make_unique<tx::GarbageCollector>(commit_managers_.get());

  admin_buffer_ = std::make_unique<tx::PassthroughBuffer>();
  admin_session_ = std::make_unique<tx::Session>(
      /*pn_id=*/UINT32_MAX, /*worker_id=*/0, cluster_.get(),
      management_.get(),
      MakeClientOptions(options_, /*pn_id=*/UINT32_MAX, /*worker_id=*/0,
                        /*with_faults=*/false),
      commit_managers_.get(), log_.get(), admin_buffer_.get());

  for (uint32_t i = 0; i < options_.num_processing_nodes; ++i) {
    AddProcessingNode();
  }
}

TellDb::~TellDb() = default;

std::unique_ptr<tx::RecordBuffer> TellDb::MakeBuffer() {
  switch (options_.buffer_strategy) {
    case BufferStrategy::kTransactionOnly:
      return std::make_unique<tx::PassthroughBuffer>();
    case BufferStrategy::kSharedRecord:
      return std::make_unique<buffer::SharedRecordBuffer>();
    case BufferStrategy::kVersionSync:
      return std::make_unique<buffer::VersionSyncBuffer>(
          version_set_table_, options_.buffer_unit_size);
  }
  return std::make_unique<tx::PassthroughBuffer>();
}

uint32_t TellDb::AddProcessingNode() {
  std::lock_guard<std::mutex> lock(pns_mutex_);
  auto pn = std::make_unique<ProcessingNode>();
  pn->buffer = MakeBuffer();
  if (options_.record_cache.enabled) {
    pn->record_cache =
        std::make_unique<store::RecordCache>(options_.record_cache);
  }
  pns_.push_back(std::move(pn));
  return static_cast<uint32_t>(pns_.size() - 1);
}

uint32_t TellDb::num_processing_nodes() const {
  std::lock_guard<std::mutex> lock(pns_mutex_);
  return static_cast<uint32_t>(pns_.size());
}

Status TellDb::CreateTable(
    const std::string& name, schema::Schema schema,
    const std::vector<schema::IndexDef>& secondary_indexes) {
  if (schema.primary_key().empty()) {
    return Status::InvalidArgument("table needs a primary key");
  }
  tx::TableMeta meta;
  meta.name = name;
  TELL_ASSIGN_OR_RETURN(meta.data_table, cluster_->CreateTable(name));

  meta.primary.def.name = name + "_pk";
  meta.primary.def.key_columns = schema.primary_key();
  meta.primary.def.unique = true;
  TELL_ASSIGN_OR_RETURN(meta.primary.store_table,
                        cluster_->CreateTable("__index_" + name + "_pk"));
  TELL_RETURN_NOT_OK(
      index::BTree::Create(admin_client(), meta.primary.store_table));

  for (const schema::IndexDef& def : secondary_indexes) {
    tx::IndexMeta index;
    index.def = def;
    for (uint32_t column : def.key_columns) {
      if (column >= schema.num_columns()) {
        return Status::InvalidArgument("index key column out of range");
      }
    }
    TELL_ASSIGN_OR_RETURN(
        index.store_table,
        cluster_->CreateTable("__index_" + name + "_" + def.name));
    TELL_RETURN_NOT_OK(
        index::BTree::Create(admin_client(), index.store_table));
    meta.secondaries.push_back(std::move(index));
  }
  meta.schema = std::move(schema);
  return catalog_.Register(std::move(meta));
}

std::unique_ptr<tx::Session> TellDb::OpenSession(uint32_t pn_id,
                                                 uint32_t worker_id) {
  std::lock_guard<std::mutex> lock(pns_mutex_);
  TELL_CHECK(pn_id < pns_.size());
  TELL_CHECK(pns_[pn_id]->alive);
  store::ClientOptions client =
      MakeClientOptions(options_, pn_id, worker_id, /*with_faults=*/true);
  client.record_cache = pns_[pn_id]->record_cache.get();
  return std::make_unique<tx::Session>(
      pn_id, worker_id, cluster_.get(), management_.get(), client,
      commit_managers_.get(), log_.get(), pns_[pn_id]->buffer.get());
}

Result<tx::TableHandle*> TellDb::GetTable(uint32_t pn_id,
                                          const std::string& name) {
  TELL_ASSIGN_OR_RETURN(const tx::TableMeta* meta, catalog_.Find(name));
  std::lock_guard<std::mutex> lock(pns_mutex_);
  if (pn_id >= pns_.size() || !pns_[pn_id]->alive) {
    return Status::InvalidArgument("no live processing node " +
                                   std::to_string(pn_id));
  }
  return pns_[pn_id]->registry.Open(meta, options_.btree);
}

Status TellDb::ExecuteDdl(const std::string& sql) {
  TELL_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (stmt.kind == sql::Statement::Kind::kCreateTable) {
    const sql::CreateTableStatement& create = stmt.create_table;
    schema::SchemaBuilder builder;
    for (const schema::Column& column : create.columns) {
      switch (column.type) {
        case schema::ColumnType::kInt64:
          builder.AddInt64(column.name);
          break;
        case schema::ColumnType::kDouble:
          builder.AddDouble(column.name);
          break;
        case schema::ColumnType::kString:
          builder.AddString(column.name);
          break;
      }
    }
    builder.SetPrimaryKey(create.primary_key);
    return CreateTable(create.table, builder.Build(), {});
  }
  if (stmt.kind == sql::Statement::Kind::kCreateIndex) {
    const sql::CreateIndexStatement& create = stmt.create_index;
    TELL_ASSIGN_OR_RETURN(const tx::TableMeta* existing,
                          catalog_.Find(create.table));
    // Build the new index meta.
    schema::IndexDef def;
    def.name = create.index_name;
    def.unique = create.unique;
    for (const std::string& column : create.columns) {
      TELL_ASSIGN_OR_RETURN(uint32_t idx,
                            existing->schema.ColumnIndex(column));
      def.key_columns.push_back(idx);
    }
    tx::IndexMeta index;
    index.def = def;
    TELL_ASSIGN_OR_RETURN(index.store_table,
                          cluster_->CreateTable("__index_" + create.table +
                                                "_" + create.index_name));
    TELL_RETURN_NOT_OK(
        index::BTree::Create(admin_client(), index.store_table));
    // Backfill from existing records (all versions — the index is
    // version-unaware).
    index::NodeCache backfill_cache;
    index::BTree tree(index.store_table, options_.btree, &backfill_cache);
    TELL_ASSIGN_OR_RETURN(
        std::vector<store::KeyCell> cells,
        admin_client()->Scan(existing->data_table, "", ""));
    for (const store::KeyCell& cell : cells) {
      if (cell.key.size() != sizeof(uint64_t)) continue;  // meta cells
      auto record = schema::VersionedRecord::Deserialize(cell.value);
      if (!record.ok()) continue;
      uint64_t rid = DecodeOrderedU64(cell.key);
      for (const schema::RecordVersion& version : record->versions()) {
        if (version.tombstone) continue;
        auto tuple =
            schema::Tuple::Deserialize(existing->schema, version.payload);
        if (!tuple.ok()) continue;
        auto key = schema::EncodeIndexKey(*tuple, def.key_columns);
        if (!key.ok()) continue;
        TELL_RETURN_NOT_OK(
            tree.Insert(admin_client(), *key, rid, def.unique));
      }
    }
    // Publish: the catalog owns the metas, so re-register a copy with the
    // new index appended. (CREATE INDEX must precede first use on a PN.)
    const_cast<tx::TableMeta*>(existing)->secondaries.push_back(
        std::move(index));
    return Status::OK();
  }
  return Status::InvalidArgument("not a DDL statement");
}

Result<sql::ResultSet> TellDb::ExecuteSql(tx::Transaction* txn,
                                          uint32_t pn_id,
                                          const std::string& sql_text) {
  TELL_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql_text));
  if (stmt.kind == sql::Statement::Kind::kCreateTable ||
      stmt.kind == sql::Statement::Kind::kCreateIndex) {
    TELL_RETURN_NOT_OK(ExecuteDdl(sql_text));
    return sql::ResultSet{};
  }
  if (txn == nullptr) {
    return Status::InvalidArgument("DML needs a transaction");
  }
  // SQL text path: charge the parse/plan cost (the TPC-C drivers use
  // pre-compiled plans instead, like VoltDB stored procedures).
  txn->snapshot();  // (txn must be running)
  TELL_ASSIGN_OR_RETURN(sql::Plan plan,
                        sql::PlanStatement(std::move(stmt), &catalog_));
  // Make sure the table(s) are open on this PN.
  TELL_RETURN_NOT_OK(GetTable(pn_id, plan.table->name).status());
  if (plan.join_table != nullptr) {
    TELL_RETURN_NOT_OK(GetTable(pn_id, plan.join_table->name).status());
  }
  tx::TableRegistry* registry;
  {
    std::lock_guard<std::mutex> lock(pns_mutex_);
    registry = &pns_[pn_id]->registry;  // ProcessingNode storage is stable
  }
  return executor_.Execute(txn, registry, plan);
}

Result<sql::ResultSet> TellDb::AutoCommitSql(tx::Session* session,
                                             const std::string& sql_text) {
  session->client()->ChargeCpu(options_.cpu.per_parse_ns);
  tx::Transaction txn(session);
  TELL_RETURN_NOT_OK(txn.Begin());
  auto result = ExecuteSql(&txn, session->pn_id(), sql_text);
  if (!result.ok()) {
    if (txn.state() == tx::TxnState::kRunning) (void)txn.Abort();
    return result.status();
  }
  TELL_RETURN_NOT_OK(txn.Commit());
  return result;
}

Result<tx::RecoveryStats> TellDb::KillProcessingNode(uint32_t pn_id) {
  {
    std::lock_guard<std::mutex> lock(pns_mutex_);
    if (pn_id >= pns_.size() || !pns_[pn_id]->alive) {
      return Status::InvalidArgument("no live processing node");
    }
    pns_[pn_id]->alive = false;
  }
  // The management node's failure detector fires and starts the recovery
  // process (§4.4.1).
  return recovery_->RecoverProcessingNode(admin_client(), pn_id);
}

Status TellDb::KillStorageNode(uint32_t node_id) {
  cluster_->node(node_id)->Kill();
  TELL_ASSIGN_OR_RETURN(uint32_t recovered, management_->DetectAndRecover());
  (void)recovered;
  return Status::OK();
}

Result<tx::GcStats> TellDb::RunGarbageCollection() {
  std::vector<tx::TableHandle*> handles;
  {
    std::lock_guard<std::mutex> lock(pns_mutex_);
    TELL_CHECK(!pns_.empty());
    // Open every catalog table on PN 0 for the sweep.
    for (const tx::TableMeta* meta : catalog_.AllTables()) {
      handles.push_back(pns_[0]->registry.Open(meta, options_.btree));
    }
  }
  return gc_->Sweep(admin_client(), handles, log_.get());
}

void TellDb::ExportStats(obs::MetricsRegistry* registry) const {
  store::StorageNodeStats sn;
  for (uint32_t i = 0; i < cluster_->num_nodes(); ++i) {
    sn.Accumulate(cluster_->node(i)->stats());
  }
  registry->SetGauge("store.node.gets", sn.gets);
  registry->SetGauge("store.node.puts", sn.puts);
  registry->SetGauge("store.node.conditional_puts", sn.conditional_puts);
  registry->SetGauge("store.node.llsc_failures", sn.llsc_failures);
  registry->SetGauge("store.node.erases", sn.erases);
  registry->SetGauge("store.node.scans", sn.scans);
  registry->SetGauge("store.node.cells_scanned", sn.cells_scanned);
  registry->SetGauge("store.node.atomic_increments", sn.atomic_increments);
  registry->SetGauge("store.node.stripe_conflicts", sn.stripe_conflicts);
  registry->SetGauge("store.node.lock_wait_ns", sn.lock_wait_ns);

  commitmgr::CommitManagerStats cm;
  for (uint32_t i = 0; i < commit_managers_->size(); ++i) {
    cm.Accumulate(commit_managers_->manager(i)->stats());
  }
  registry->SetGauge("commitmgr.starts", cm.starts);
  registry->SetGauge("commitmgr.commits", cm.commits);
  registry->SetGauge("commitmgr.aborts", cm.aborts);
  registry->SetGauge("commitmgr.syncs", cm.syncs);
  registry->SetGauge("commitmgr.tid_range_refills", cm.tid_range_refills);
  registry->SetGauge("commitmgr.delta_starts", cm.delta_starts);
  registry->SetGauge("commitmgr.full_starts", cm.full_starts);

  commitmgr::GroupReplicationStats repl = commit_managers_->ReplStats();
  registry->SetGauge("commitmgr.repl.log_appends", repl.log_appends);
  registry->SetGauge("commitmgr.repl.log_bytes", repl.log_bytes);
  registry->SetGauge("commitmgr.repl.snapshots", repl.snapshots);
  registry->SetGauge("commitmgr.repl.log_truncated", repl.log_truncated);
  registry->SetGauge("commitmgr.repl.snapshot_installs",
                     repl.snapshot_installs);
  registry->SetGauge("commitmgr.repl.records_replayed",
                     repl.records_replayed);
  registry->SetGauge("commitmgr.repl.elections", repl.elections);
  registry->SetGauge("commitmgr.repl.term", repl.term);

  store::MigrationStats mig = management_->migration_stats();
  registry->SetGauge("store.migration.started", mig.started);
  registry->SetGauge("store.migration.completed", mig.completed);
  registry->SetGauge("store.migration.cells_copied", mig.cells_copied);
  registry->SetGauge("store.migration.delta_rounds", mig.delta_rounds);
  registry->SetGauge("store.migration.delta_cells", mig.delta_cells);
  registry->SetGauge("store.migration.erases_applied", mig.erases_applied);

  tx::BufferStats buf;
  store::RecordCacheStats cache;
  uint64_t index_cache_entries = 0;
  {
    std::lock_guard<std::mutex> lock(pns_mutex_);
    for (const std::unique_ptr<ProcessingNode>& pn : pns_) {
      pn->buffer->AccumulateStats(&buf);
      if (pn->record_cache != nullptr) {
        store::RecordCacheStats s = pn->record_cache->stats();
        cache.hits += s.hits;
        cache.misses += s.misses;
        cache.evictions += s.evictions;
        cache.invalidations += s.invalidations;
        cache.entries += s.entries;
      }
      index_cache_entries += pn->registry.IndexCacheStats().entries;
    }
  }
  registry->SetGauge("store.cache.entries", cache.entries);
  registry->SetGauge("store.cache.evictions", cache.evictions);
  registry->SetGauge("store.cache.invalidations", cache.invalidations);
  registry->SetGauge("index.cache.entries", index_cache_entries);
  registry->SetGauge("buffer.shared.hits", buf.hits);
  registry->SetGauge("buffer.shared.misses", buf.misses);
  registry->SetGauge("buffer.shared.evictions", buf.evictions);
  registry->SetGauge("buffer.shared.write_throughs", buf.write_throughs);

  tx::GcStats gc = gc_->totals();
  registry->SetGauge("gc.records_rewritten", gc.records_rewritten);
  registry->SetGauge("gc.versions_removed", gc.versions_removed);
  registry->SetGauge("gc.records_erased", gc.records_erased);
  registry->SetGauge("gc.index_entries_removed", gc.index_entries_removed);
  registry->SetGauge("gc.log_entries_truncated", gc.log_entries_truncated);

  if (options_.fault_injector != nullptr) {
    sim::FaultStats fs = options_.fault_injector->stats();
    registry->SetGauge("fault.requests_seen", fs.requests_seen);
    registry->SetGauge("fault.injected", fs.injected);
    registry->SetGauge("fault.dropped_requests", fs.dropped_requests);
    registry->SetGauge("fault.dropped_responses", fs.dropped_responses);
    registry->SetGauge("fault.latency_spikes", fs.latency_spikes);
    registry->SetGauge("fault.node_kills", fs.node_kills);
    registry->SetGauge("fault.leader_kills", fs.leader_kills);
  }
}

std::vector<std::pair<std::string,
                      std::vector<std::pair<std::string, uint64_t>>>>
TellDb::PerNodeStats() const {
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, uint64_t>>>> rows;
  for (uint32_t i = 0; i < cluster_->num_nodes(); ++i) {
    store::StorageNodeStats s = cluster_->node(i)->stats();
    rows.emplace_back(
        "sn" + std::to_string(i),
        std::vector<std::pair<std::string, uint64_t>>{
            {"gets", s.gets},
            {"puts", s.puts},
            {"conditional_puts", s.conditional_puts},
            {"llsc_failures", s.llsc_failures},
            {"erases", s.erases},
            {"scans", s.scans},
            {"cells_scanned", s.cells_scanned},
            {"atomic_increments", s.atomic_increments},
            {"stripe_conflicts", s.stripe_conflicts},
            {"lock_wait_ns", s.lock_wait_ns},
        });
  }
  for (uint32_t i = 0; i < commit_managers_->size(); ++i) {
    commitmgr::CommitManagerStats s = commit_managers_->manager(i)->stats();
    rows.emplace_back("cm" + std::to_string(i),
                      std::vector<std::pair<std::string, uint64_t>>{
                          {"starts", s.starts},
                          {"commits", s.commits},
                          {"aborts", s.aborts},
                          {"syncs", s.syncs},
                          {"tid_range_refills", s.tid_range_refills},
                          {"delta_starts", s.delta_starts},
                          {"full_starts", s.full_starts},
                      });
  }
  {
    std::lock_guard<std::mutex> lock(pns_mutex_);
    for (size_t i = 0; i < pns_.size(); ++i) {
      tx::BufferStats s;
      pns_[i]->buffer->AccumulateStats(&s);
      if (s.hits == 0 && s.misses == 0 && s.evictions == 0 &&
          s.write_throughs == 0) {
        continue;  // PassthroughBuffer (TB) keeps no PN-level stats
      }
      rows.emplace_back("pn" + std::to_string(i) + ".buffer",
                        std::vector<std::pair<std::string, uint64_t>>{
                            {"hits", s.hits},
                            {"misses", s.misses},
                            {"evictions", s.evictions},
                            {"write_throughs", s.write_throughs},
                        });
    }
    for (size_t i = 0; i < pns_.size(); ++i) {
      if (pns_[i]->record_cache == nullptr) continue;
      store::RecordCacheStats s = pns_[i]->record_cache->stats();
      if (s.hits == 0 && s.misses == 0 && s.evictions == 0 &&
          s.invalidations == 0 && s.entries == 0) {
        continue;
      }
      rows.emplace_back("pn" + std::to_string(i) + ".cache",
                        std::vector<std::pair<std::string, uint64_t>>{
                            {"hits", s.hits},
                            {"misses", s.misses},
                            {"evictions", s.evictions},
                            {"invalidations", s.invalidations},
                            {"entries", s.entries},
                        });
    }
  }
  return rows;
}

}  // namespace tell::db
