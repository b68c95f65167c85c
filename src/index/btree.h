#ifndef TELL_INDEX_BTREE_H_
#define TELL_INDEX_BTREE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "store/storage_client.h"

namespace tell::index {

/// One index entry: encoded key -> rid.
struct IndexEntry {
  std::string key;
  uint64_t rid = 0;
};

class BTree;

/// One key of a BTree::BatchLookup call: the tree to look in and the key.
struct TreeKey {
  BTree* tree = nullptr;
  std::string key;
};

/// One operation of a BTree::BatchInsert call.
struct BatchInsertOp {
  BTree* tree = nullptr;
  std::string key;
  uint64_t rid = 0;
  bool unique = false;
};

struct BTreeOptions {
  /// Max entries per node before it splits.
  uint32_t fanout = 64;
  /// Paper §5.3.1: all index nodes except the leaf level are cached on the
  /// processing node; leaves are always fetched from the storage system.
  /// Disabled by the index-cache ablation bench.
  bool cache_inner_nodes = true;
};

/// Per-processing-node cache of inner B+tree nodes. Shared by all workers of
/// one PN; thread safe. Entries are (node id -> serialized node + stamp).
///
/// Bounded: at most `max_entries` nodes are held, evicted least-recently-used
/// (Get refreshes recency). An evicted inner node is simply re-fetched on the
/// next descent, so the bound affects cost only, never correctness — and the
/// LRU order naturally pins the root and upper levels, which every descent
/// touches. Entry count is exported as the `index.cache.entries` gauge.
class NodeCache {
 public:
  /// Default entry bound. At the default fanout (64) this caches the entire
  /// inner-node set of trees with ~4096*64 leaves — far past what the
  /// benchmarks build — while capping memory for adversarial workloads.
  static constexpr size_t kDefaultMaxEntries = 4096;

  explicit NodeCache(size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}
  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;

  bool Get(uint64_t node_id, std::string* value, uint64_t* stamp);
  void Put(uint64_t node_id, std::string value, uint64_t stamp);
  void Erase(uint64_t node_id);
  void Clear();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  size_t entries() const;
  size_t max_entries() const { return max_entries_; }

 private:
  struct Entry {
    std::string value;
    uint64_t stamp = 0;
    std::list<uint64_t>::iterator lru_it;
  };

  const size_t max_entries_;
  mutable std::mutex mutex_;
  std::map<uint64_t, Entry> nodes_;
  std::list<uint64_t> lru_;  // front = most recently used
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

/// Latch-free distributed B+tree (paper §5.3).
///
/// Every tree node is one key-value pair in the storage system, updated with
/// LL/SC conditional puts; a failed store-conditional simply retries from a
/// fresh read, so no latches are held anywhere and system-wide progress is
/// guaranteed. Structure modifications use the B-link technique (Lehman &
/// Yao, the paper's reference [33]): a split first publishes the new right
/// node, then shrinks the left node (which carries a right-sibling link and
/// a high key), and only then inserts the separator into the parent — a
/// traversal that lands left of its key follows sibling links, so lookups
/// stay correct even when a parent update is still in flight (or was lost to
/// a crashed processing node).
///
/// Indexes are version-unaware (§5.3.2): one entry per record, no version
/// information, so readers must validate fetched records against their
/// snapshot and may GC obsolete entries via Remove().
///
/// The BTree object itself is a cheap per-PN handle: tree identity is the
/// storage table, the inner-node cache is shared per PN, and every method
/// takes the calling worker's StorageClient for cost accounting.
class BTree {
 public:
  /// Initializes an empty tree in `table` (root = empty leaf). Call once at
  /// index creation time.
  static Status Create(store::StorageClient* client, store::TableId table);

  BTree(store::TableId table, const BTreeOptions& options, NodeCache* cache)
      : table_(table), options_(options), cache_(cache) {}

  store::TableId table() const { return table_; }

  /// Inserts key -> rid. With `unique`, fails with AlreadyExists if the key
  /// is already present under a different rid. Idempotent for the same
  /// (key, rid) pair.
  Status Insert(store::StorageClient* client, std::string_view key,
                uint64_t rid, bool unique);

  /// Inserts many entries, possibly into many trees, in one batched pass:
  /// the descents of every tree share their rounds (see BatchLookup) and
  /// the entries are grouped by target leaf: each touched leaf is rewritten
  /// with ONE conditional put carrying all of its new entries, and the puts
  /// of all leaves of all trees travel in one StorageClient::BatchWrite.
  /// Entries whose path turned stale, that no longer fit into their leaf
  /// (split needed) or whose LL/SC lost a race fall back to the serial
  /// Insert; the entries of a full leaf's group that still fit are put in
  /// the batch. Unique violations in any tree are detected during
  /// preparation, before any put is issued. A batch of one op is a plain
  /// Insert. `inserted` (resized to ops.size()) reports per op whether the
  /// entry is durably in its tree when the call returns — on failure the
  /// caller uses it to undo a partial batch (Remove is idempotent).
  static Status BatchInsert(store::StorageClient* client,
                            const std::vector<BatchInsertOp>& ops,
                            std::vector<bool>* inserted);

  /// Removes the entry (key, rid). OK even if absent (idempotent — index GC
  /// races are benign).
  Status Remove(store::StorageClient* client, std::string_view key,
                uint64_t rid);

  /// All rids stored under exactly `key`.
  Result<std::vector<uint64_t>> Lookup(store::StorageClient* client,
                                       std::string_view key);

  /// Point lookups for many keys, possibly of many trees, positionally
  /// aligned with `keys`. The descents share rounds: a key walks through
  /// cached inner nodes without a request, and each round fetches every
  /// key's next uncached node — in particular the leaves, which are never
  /// cached — through one StorageClient::BatchGet, whatever tree it belongs
  /// to. With warm inner caches K lookups over any number of trees cost one
  /// round instead of K descents. A batch of one key is a plain Lookup;
  /// keys whose path turns stale under a concurrent split fall back to a
  /// single-key descent.
  static Result<std::vector<std::vector<uint64_t>>> BatchLookup(
      store::StorageClient* client, const std::vector<TreeKey>& keys);

  /// Entries with key in [start, end); empty `end` = unbounded. `limit` 0 =
  /// unlimited.
  Result<std::vector<IndexEntry>> RangeScan(store::StorageClient* client,
                                            std::string_view start,
                                            std::string_view end,
                                            size_t limit);

  /// Tree height (root to leaf, 1 = root is a leaf). Test/diagnostic helper.
  Result<uint32_t> Height(store::StorageClient* client);

 private:
  struct Node;

  Result<Node> ReadNode(store::StorageClient* client, uint64_t node_id,
                        bool is_inner_level);
  /// Lookup without the index_lookups metric (callers count themselves).
  Result<std::vector<uint64_t>> LookupRids(store::StorageClient* client,
                                           std::string_view key);
  Result<Node> ReadNodeUncached(store::StorageClient* client,
                                uint64_t node_id);

  /// Descends to the leaf that should hold `key`. Fills `path` with the
  /// inner node ids visited (root first). Retries with the cache disabled
  /// when a stale cached path is detected.
  Result<Node> DescendToLeaf(store::StorageClient* client,
                             std::string_view key,
                             std::vector<uint64_t>* path);

  /// A fetched node, shared by every key of a batch whose descent visits it.
  using NodeRef = std::shared_ptr<const Node>;

  /// One key of a batched descent.
  struct DescentKey {
    BTree* tree;
    std::string_view key;
  };

  /// The shared descent behind BatchLookup and BatchInsert. Every key walks
  /// down through the nodes its tree's cache (or this batch) already holds,
  /// until it needs a node from the store; each round fetches the distinct
  /// needed nodes of all keys — deduplicated by (table, node id), since node
  /// ids restart at 1 in every tree — through one StorageClient::BatchGet.
  /// On return, `leaf_of_key[i]` indexes into `leaves` for keys[i] — or
  /// kNoLeaf when that key's batched path turned stale (concurrent split,
  /// missing child, failed fetch) and the caller must use the single-key
  /// descent, which owns the full B-link right-hop and cache-refresh
  /// machinery. A root that cannot be read fails the call.
  static constexpr size_t kNoLeaf = static_cast<size_t>(-1);
  static Status BatchDescendToLeaves(store::StorageClient* client,
                                     const std::vector<DescentKey>& keys,
                                     std::vector<NodeRef>* leaves,
                                     std::vector<size_t>* leaf_of_key);

  /// The cached copy of inner node `node_id`, or nullptr.
  NodeRef CachedInner(uint64_t node_id);
  /// Caches `node` if it is an inner node and caching is on.
  void CacheIfInner(const Node& node);

  /// Splits `node` (already full) and publishes both halves; then inserts
  /// the separator into the parent level best-effort. Retries internally.
  Status SplitNode(store::StorageClient* client, Node& node,
                   const std::vector<uint64_t>& path);

  /// Inserts the separator at exactly `target_level` (the split node's
  /// level + 1), descending from the remembered ancestor if the root has
  /// since grown taller.
  Status InsertIntoParent(store::StorageClient* client,
                          const std::vector<uint64_t>& path,
                          std::string_view separator, uint64_t right_id,
                          uint32_t target_level);

  Result<uint64_t> AllocateNodeId(store::StorageClient* client);

  const store::TableId table_;
  const BTreeOptions options_;
  NodeCache* const cache_;
};

}  // namespace tell::index

#endif  // TELL_INDEX_BTREE_H_
