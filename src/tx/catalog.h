#ifndef TELL_TX_CATALOG_H_
#define TELL_TX_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "index/btree.h"
#include "schema/schema.h"
#include "store/storage_node.h"

namespace tell::tx {

/// One index of a table as recorded in the shared catalog: its definition
/// plus the storage table that holds the B+tree nodes.
struct IndexMeta {
  schema::IndexDef def;
  store::TableId store_table = 0;
};

/// Shared (cluster-wide) description of a relational table: schema, the
/// storage table holding the versioned records (keyed by rid), and its
/// indexes. The first index is always the unique primary-key index.
struct TableMeta {
  std::string name;
  schema::Schema schema;
  store::TableId data_table = 0;
  IndexMeta primary;
  std::vector<IndexMeta> secondaries;
};

/// Cluster-wide catalog of tables (paper Fig. 3 "Schema"). Populated at DDL
/// time; read-mostly afterwards.
class Catalog {
 public:
  Status Register(TableMeta meta) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = tables_.emplace(meta.name, std::move(meta));
    if (!inserted) return Status::AlreadyExists("table already in catalog");
    return Status::OK();
  }

  Result<const TableMeta*> Find(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("table '" + std::string(name) + "'");
    }
    return &it->second;
  }

  std::vector<const TableMeta*> AllTables() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const TableMeta*> out;
    out.reserve(tables_.size());
    for (const auto& [name, meta] : tables_) out.push_back(&meta);
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, TableMeta, std::less<>> tables_;
};

/// Per-processing-node view of one table: the shared metadata plus B+tree
/// handles bound to this PN's node caches.
struct TableHandle {
  const TableMeta* meta = nullptr;
  index::BTree primary;
  std::vector<index::BTree> secondaries;

  TableHandle(const TableMeta* m, const index::BTreeOptions& options,
              index::NodeCache* primary_cache,
              const std::vector<index::NodeCache*>& secondary_caches)
      : meta(m), primary(m->primary.store_table, options, primary_cache) {
    secondaries.reserve(m->secondaries.size());
    for (size_t i = 0; i < m->secondaries.size(); ++i) {
      secondaries.emplace_back(m->secondaries[i].store_table, options,
                               secondary_caches[i]);
    }
  }

  /// Appends a B+tree handle for a secondary index added to the catalog
  /// after this handle was built (CREATE INDEX on a live table).
  void AppendSecondary(const index::BTreeOptions& options,
                       index::NodeCache* cache) {
    secondaries.emplace_back(meta->secondaries[secondaries.size()].store_table,
                             options, cache);
  }
};

/// Per-processing-node registry of table handles (owns the node caches).
class TableRegistry {
 public:
  TableRegistry() = default;
  TableRegistry(const TableRegistry&) = delete;
  TableRegistry& operator=(const TableRegistry&) = delete;

  /// Builds a handle for `meta` with fresh per-PN node caches. If the
  /// catalog gained secondary indexes since the handle was built (CREATE
  /// INDEX on a live table), the handle grows matching B+tree bindings.
  /// DDL must not run concurrently with queries on the same table.
  TableHandle* Open(const TableMeta* meta, const index::BTreeOptions& options) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_.find(meta->name);
    if (it != handles_.end()) {
      TableHandle* handle = it->second.get();
      while (handle->secondaries.size() < meta->secondaries.size()) {
        caches_.push_back(std::make_unique<index::NodeCache>());
        handle->AppendSecondary(options, caches_.back().get());
      }
      return handle;
    }
    auto primary_cache = std::make_unique<index::NodeCache>();
    std::vector<index::NodeCache*> secondary_caches;
    std::vector<std::unique_ptr<index::NodeCache>> owned;
    for (size_t i = 0; i < meta->secondaries.size(); ++i) {
      owned.push_back(std::make_unique<index::NodeCache>());
      secondary_caches.push_back(owned.back().get());
    }
    auto handle = std::make_unique<TableHandle>(meta, options,
                                                primary_cache.get(),
                                                secondary_caches);
    caches_.push_back(std::move(primary_cache));
    for (auto& cache : owned) caches_.push_back(std::move(cache));
    TableHandle* raw = handle.get();
    handles_.emplace(meta->name, std::move(handle));
    return raw;
  }

  Result<TableHandle*> Find(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_.find(name);
    if (it == handles_.end()) {
      return Status::NotFound("table '" + std::string(name) +
                              "' not open on this PN");
    }
    return it->second.get();
  }

  std::vector<TableHandle*> AllHandles() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TableHandle*> out;
    for (auto& [name, handle] : handles_) out.push_back(handle.get());
    return out;
  }

  /// Node-cache statistics summed over every cache this registry owns
  /// (feeds the `index.cache.*` gauges).
  index::NodeCache::Stats IndexCacheStats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    index::NodeCache::Stats stats;
    for (const auto& cache : caches_) stats.Accumulate(cache->stats());
    return stats;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<TableHandle>, std::less<>> handles_;
  std::vector<std::unique_ptr<index::NodeCache>> caches_;
};

}  // namespace tell::tx

#endif  // TELL_TX_CATALOG_H_
