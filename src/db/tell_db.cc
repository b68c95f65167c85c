#include "db/tell_db.h"

#include "common/logging.h"
#include "common/serde.h"
#include "schema/versioned_record.h"

namespace tell::db {

namespace {

/// Base seed for the per-worker retry-jitter RNGs; each session derives its
/// own seed from (base, pn_id, worker_id).
constexpr uint64_t kRetrySeed = 0x7E11;
/// Partitions of each table on every storage node.
constexpr uint32_t kPartitionsPerStorageNode = 4;

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
  client.retry_seed = kRetrySeed ^
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
  cluster_options.partitions_per_node = kPartitionsPerStorageNode;
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
      commit_managers_.get(), log_.get(), admin_buffer_.get(),
      &key_sequences_);

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
      commit_managers_.get(), log_.get(), pns_[pn_id]->buffer.get(),
      &key_sequences_);
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
    // version-unaware), in one batch.
    index::NodeCache backfill_cache;
    index::BTree tree(index.store_table, options_.btree, &backfill_cache);
    TELL_ASSIGN_OR_RETURN(
        std::vector<store::KeyCell> cells,
        store::CollectCells(admin_client(), existing->data_table, "", ""));
    std::vector<index::BatchInsertOp> inserts;
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
        inserts.push_back({&tree, std::move(*key), rid, def.unique});
      }
    }
    std::vector<bool> inserted;
    TELL_RETURN_NOT_OK(
        index::BTree::BatchInsert(admin_client(), inserts, &inserted));
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
  registry->SetGauges(sn);
  registry->SetGauges(management_->migration_stats());
  commitmgr::CommitManagerStats cm;
  for (uint32_t i = 0; i < commit_managers_->size(); ++i) {
    cm.Accumulate(commit_managers_->manager(i)->stats());
  }
  registry->SetGauges(cm);
  registry->SetGauges(commit_managers_->ReplStats());

  store::RecordCacheStats cache;
  index::NodeCache::Stats index_cache;
  tx::BufferStats buf;
  {
    std::lock_guard<std::mutex> lock(pns_mutex_);
    for (const std::unique_ptr<ProcessingNode>& pn : pns_) {
      if (pn->record_cache != nullptr) {
        cache.Accumulate(pn->record_cache->stats());
      }
      index_cache.Accumulate(pn->registry.IndexCacheStats());
      pn->buffer->AccumulateStats(&buf);
    }
  }
  registry->SetGauges(cache);
  registry->SetGauges(index_cache);
  registry->SetGauges(buf);
  registry->SetGauges(gc_->totals());
  if (options_.fault_injector != nullptr) {
    registry->SetGauges(options_.fault_injector->stats());
  }
}

obs::NodeRows TellDb::PerNodeStats() const {
  obs::NodeRows rows;
  for (uint32_t i = 0; i < cluster_->num_nodes(); ++i) {
    rows.emplace_back("sn" + std::to_string(i),
                      obs::StatRow(cluster_->node(i)->stats()));
  }
  for (uint32_t i = 0; i < commit_managers_->size(); ++i) {
    rows.emplace_back("cm" + std::to_string(i),
                      obs::StatRow(commit_managers_->manager(i)->stats()));
  }
  std::lock_guard<std::mutex> lock(pns_mutex_);
  for (size_t i = 0; i < pns_.size(); ++i) {
    tx::BufferStats s;
    pns_[i]->buffer->AccumulateStats(&s);
    // PassthroughBuffer (TB) keeps no PN-level stats.
    if (!s.AllZero()) {
      rows.emplace_back("pn" + std::to_string(i) + ".buffer", obs::StatRow(s));
    }
  }
  for (size_t i = 0; i < pns_.size(); ++i) {
    if (pns_[i]->record_cache == nullptr) continue;
    store::RecordCacheStats s = pns_[i]->record_cache->stats();
    if (!s.AllZero()) {
      rows.emplace_back("pn" + std::to_string(i) + ".cache", obs::StatRow(s));
    }
  }
  return rows;
}

}  // namespace tell::db
