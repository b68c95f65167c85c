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

/// One operation of a BTree::BatchInsert call: inserts (key, rid), or with
/// `remove` set removes it.
struct BatchInsertOp {
  BTree* tree = nullptr;
  std::string key;
  uint64_t rid = 0;
  bool unique = false;
  bool remove = false;
};

/// One range of a BTree::BatchScan call: the entries of `tree` with key in
/// [start, end) (empty `end` = unbounded), read leaf by leaf. The cursor
/// remembers where a call stopped, so the next call continues at the next
/// leaf instead of descending again.
struct ScanCursor {
  BTree* tree = nullptr;
  std::string start;
  std::string end;
  /// Entries the next BatchScan call should add: it reads whole leaves until
  /// at least this many more entries were appended or the range is
  /// exhausted. 0 = read the whole range.
  size_t want = 0;
  /// The entries read so far, in key order (BatchScan appends).
  std::vector<IndexEntry> entries;
  bool exhausted = false;
  /// The leaf to read next (a right sibling); 0 = descend to `start`.
  uint64_t next_leaf = 0;
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
///
/// The cache also holds the PN's block of reserved node ids for its tree's
/// splits (see BTree::AllocateNodeIds).
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

  /// Moves up to `n` node ids of this PN's id block into `ids`.
  void TakeNodeIds(size_t n, std::vector<uint64_t>* ids);
  /// Replaces the id block with [first, end). Ids left in the old block are
  /// never handed out: a racing refill leaks at most one block.
  void SetNodeIdBlock(uint64_t first, uint64_t end);

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
  // Node ids reserved for this PN's splits: [next_id_, end_id_).
  uint64_t next_id_ = 0;
  uint64_t end_id_ = 0;
};

/// Latch-free distributed B+tree (paper §5.3).
///
/// Every tree node is one key-value pair in the storage system, updated with
/// LL/SC conditional puts; a failed store-conditional simply retries from a
/// fresh read, so no latches are held anywhere and system-wide progress is
/// guaranteed. Structure modifications use the B-link technique (Lehman &
/// Yao, the paper's reference [33]): a split first publishes the new right
/// nodes, then shrinks the left node (which carries a right-sibling link and
/// a high key), and only then inserts the separators into the parent — a
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
  /// (key, rid) pair. A one-op BatchInsert.
  Status Insert(store::StorageClient* client, std::string_view key,
                uint64_t rid, bool unique);

  /// Inserts and removes many entries, possibly of many trees, in batched
  /// rounds: the descents of every tree share their rounds (see
  /// BatchLookup), the ops are grouped by target leaf, and each touched leaf
  /// is rewritten with ONE conditional put carrying all of its changes.
  /// A leaf that overflows is cut into as many nodes as it needs, and the
  /// splits of all trees share their B-link rounds: one BatchWrite publishes
  /// the fresh right nodes, one round of LL/SC puts then rewrites the plain
  /// leaves and shrinks the split nodes (the linearisation point), and one
  /// more round rewrites each parent with all of its new separators. A
  /// parent that overflows splits the same way one level up; a root split
  /// rewrites the fixed-id root last. Ops whose leaf lost its LL/SC race are
  /// retried as a batch. Unique violations in any tree are detected during
  /// preparation, before any put is issued.
  /// `inserted` (resized to ops.size()) reports per op whether it took
  /// effect when the call returns — an insert's entry is durably in its
  /// tree, a remove's entry is gone. On failure the caller uses it to undo
  /// a partial batch (Remove is idempotent). PrepareInsert + WriteInsert.
  static Status BatchInsert(store::StorageClient* client,
                            const std::vector<BatchInsertOp>& ops,
                            std::vector<bool>* inserted);

  /// A BatchInsert between its steps.
  class Prepared;

  /// BatchInsert's first step, for callers with other storage work to do
  /// before the puts: descends to the leaf of every op — `riders` travel in
  /// the descent's first round, next to its node reads, even when there is
  /// no op — applies the ops to copies of their leaves, and plans every
  /// split: its cut points and fresh node ids. Fails with AlreadyExists on
  /// a unique violation; nothing of the batch is written either way. The
  /// riders are sent whatever the outcome, and their results go to
  /// `rider_results` (may be null without riders), positionally.
  static Status PrepareInsert(store::StorageClient* client,
                              std::vector<BatchInsertOp> ops,
                              const std::vector<store::WriteOp>& riders,
                              std::vector<Result<uint64_t>>* rider_results,
                              Prepared* prepared);

  /// The round that publishes the fresh nodes of the planned splits, with
  /// `riders` in the same BatchWrite — sent even when nothing splits — and
  /// their results in `rider_results`. Nothing of the batch is reachable
  /// yet: a fresh node's id is known only to the shrink of its split node
  /// and to its separator, which WriteInsert writes (B-link). Fails on a
  /// storage failure of a fresh node's put. WriteInsert sends this round
  /// itself when the caller did not.
  static Status PublishFresh(store::StorageClient* client, Prepared* prepared,
                             std::vector<store::WriteOp> riders,
                             std::vector<Result<uint64_t>>* rider_results);

  /// Erases of the fresh nodes PublishFresh sent, for a caller that
  /// abandons the batch before WriteInsert: they are unreachable and only
  /// hold their cells.
  static std::vector<store::WriteOp> FreshNodeErases(const Prepared& prepared);

  /// BatchInsert's remaining steps: the fresh nodes (unless PublishFresh
  /// sent them), one round of LL/SC puts of every leaf rewrite and split
  /// shrink, then the separators the splits owe their parents. A leaf that
  /// changed since PrepareInsert read it loses its LL/SC, and its ops are
  /// prepared again — a unique violation found then fails the call like
  /// BatchInsert's. `riders` travel in the first round after every op is
  /// in effect — next to the separators, or alone — so the call returns OK
  /// exactly when it sent them, with their results in `rider_results`. Once
  /// every op is in effect a separator that cannot be written is given up:
  /// its node stays reachable through its left neighbour's right link.
  /// `prepared->inserted()` reports the ops in effect.
  static Status WriteInsert(store::StorageClient* client, Prepared* prepared,
                            std::vector<store::WriteOp> riders = {},
                            std::vector<Result<uint64_t>>* rider_results =
                                nullptr);

  /// Removes the entry (key, rid). OK even if absent (idempotent — index GC
  /// races are benign). A one-op BatchInsert.
  Status Remove(store::StorageClient* client, std::string_view key,
                uint64_t rid);

  /// All rids stored under exactly `key`. A one-key BatchLookup.
  Result<std::vector<uint64_t>> Lookup(store::StorageClient* client,
                                       std::string_view key);

  /// Point lookups for many keys, possibly of many trees, positionally
  /// aligned with `keys`. The descents share rounds: a key walks through
  /// cached inner nodes without a request, and each round fetches every
  /// key's next uncached node — in particular the leaves, which are never
  /// cached — through one StorageClient::BatchGet, whatever tree it belongs
  /// to. With warm inner caches K lookups over any number of trees cost one
  /// round instead of K descents. Keys whose path a concurrent split made
  /// stale recover inside the same rounds (see BatchDescendToLeaves).
  static Result<std::vector<std::vector<uint64_t>>> BatchLookup(
      store::StorageClient* client, const std::vector<TreeKey>& keys);

  /// Advances every cursor that is not exhausted, possibly of many trees,
  /// until it has appended its `want` entries or reached the end of its
  /// range. Cursors that have not started share one batched descent to
  /// their start keys (see BatchLookup); each further round fetches the
  /// next right sibling of every cursor that still needs entries in one
  /// StorageClient::BatchGet.
  static Status BatchScan(store::StorageClient* client,
                          const std::vector<ScanCursor*>& cursors);

  /// Entries with key in [start, end); empty `end` = unbounded. `limit` 0 =
  /// unlimited. A one-cursor BatchScan.
  Result<std::vector<IndexEntry>> RangeScan(store::StorageClient* client,
                                            std::string_view start,
                                            std::string_view end,
                                            size_t limit);

  /// Tree height (root to leaf, 1 = root is a leaf). Test/diagnostic helper.
  Result<uint32_t> Height(store::StorageClient* client);

 private:
  struct Node;
  /// A fetched node, shared by every key of a batch whose descent visits it.
  using NodeRef = std::shared_ptr<const Node>;
  /// A node of one tree: node ids restart at 1 in every tree.
  using NodeId = std::pair<store::TableId, uint64_t>;
  struct NodeEdit;
  struct Separator;
  struct Riders;

  Result<Node> ReadNodeUncached(store::StorageClient* client,
                                uint64_t node_id);

  /// One key of a batched descent.
  struct DescentKey {
    BTree* tree;
    std::string_view key;
  };

  /// The one B+tree traversal, behind BatchLookup, BatchInsert and
  /// BatchScan. Every key walks down through the nodes its tree's cache (or
  /// this batch) already holds, until it needs a node from the store; each
  /// round fetches the distinct needed nodes of all keys — deduplicated by
  /// (table, node id), since node ids restart at 1 in every tree — through
  /// one StorageClient::BatchGet. A stale path recovers inside the rounds,
  /// while the other keys keep sharing them (B-link, §5.3.1):
  ///   * a key whose node does not cover it follows the right sibling,
  ///     read from the store, at most kMaxRightHops times; a leaf reached
  ///     after a hop drops the key's inner path from the tree's cache;
  ///   * a key that runs out of hops, finds no child, or whose node fetch
  ///     failed drops its cached path and restarts at the root, reading
  ///     every node from the store; a restart whose fetch fails returns the
  ///     error, and the 16th attempt fails the call.
  /// On return `leaf_of_key[i]` indexes into `leaves` for keys[i]; each
  /// leaf image appears once. `leaf_paths` (if not null) receives each
  /// leaf's inner nodes, root first. A root that cannot be read fails the
  /// call. `riders` (if not null) travel in the first round, which is sent
  /// for them even without keys; their results go to `rider_results`.
  static Status BatchDescendToLeaves(
      store::StorageClient* client, const std::vector<DescentKey>& keys,
      std::vector<NodeRef>* leaves, std::vector<size_t>* leaf_of_key,
      std::vector<std::vector<NodeRef>>* leaf_paths = nullptr,
      const std::vector<store::WriteOp>* riders = nullptr,
      std::vector<Result<uint64_t>>* rider_results = nullptr);

  /// The cached copy of inner node `node_id`, or nullptr.
  NodeRef CachedInner(uint64_t node_id);
  /// Caches `node` if it is an inner node and caching is on.
  void CacheIfInner(const Node& node);

  /// BatchInsert's preparation: descends to the leaves of ops[pending] —
  /// with `riders` in the first round, see BatchDescendToLeaves — and
  /// appends one edit per touched leaf, carrying all of its ops in op order.
  /// Ops already in effect (idempotent) are flagged in `inserted` right
  /// away. Fails with AlreadyExists on a unique violation.
  static Status PrepareLeafEdits(
      store::StorageClient* client, const std::vector<BatchInsertOp>& ops,
      const std::vector<size_t>& pending, std::vector<bool>* inserted,
      std::vector<NodeEdit>* edits,
      const std::vector<store::WriteOp>* riders = nullptr,
      std::vector<Result<uint64_t>>* rider_results = nullptr);

  /// Appends one edit per parent node that receives `separators`, based on
  /// the freshest image known of it (parents that lost an LL/SC are re-read
  /// first, in one BatchGet). Separators that a race left uncovered by
  /// their parent's freshest image go to `retry`.
  static Status PrepareSeparatorEdits(store::StorageClient* client,
                                      std::vector<Separator> separators,
                                      std::map<NodeId, NodeRef>* known,
                                      std::vector<NodeEdit>* edits,
                                      std::vector<Separator>* retry);

  /// Plans every edit: cuts each one that overflows its node into pieces —
  /// fresh nodes from one id allocation per tree — and consumes its entry
  /// list.
  static Status PlanEdits(store::StorageClient* client,
                          std::vector<NodeEdit>* edits);

  /// The edits of WriteInsert's next round: the ops whose leaf lost its
  /// LL/SC, prepared again, and the separators the landed splits owe.
  static Status PrepareNextEdits(store::StorageClient* client,
                                 Prepared* prepared);

  /// One BatchWrite of `puts`, with the riders (if not null and not sent
  /// yet) in front; their results go to the riders. No round without
  /// either.
  static std::vector<Result<uint64_t>> SendWrites(
      store::StorageClient* client, std::vector<store::WriteOp> puts,
      Riders* riders);

  /// Sends the fresh nodes of every edit that has not sent them, with
  /// `riders`; an edit with a fresh node that did not land is not
  /// published. No round without fresh nodes: the riders wait.
  static Status PublishRound(store::StorageClient* client,
                             std::vector<NodeEdit>* edits, Riders* riders);

  /// One round of LL/SC puts at the node ids of every published edit, with
  /// `riders`. A landed edit's ops are in effect and its splits' separators
  /// are owed; a lost one's ops are pending again. Consumes the edits.
  static Status WriteEdits(store::StorageClient* client, Prepared* prepared,
                           Riders* riders);

  /// Finds the node at `level` whose range covers `key`, starting from node
  /// `start_id` (an ancestor or left neighbour) and re-reading every node:
  /// right hops follow concurrent splits, a start above `level` (the root
  /// grew) descends by key, and a long hop chain restarts from the root.
  /// Inner nodes descended through are appended to `path`.
  Result<Node> LocateNode(store::StorageClient* client, uint64_t start_id,
                          std::string_view key, uint32_t level,
                          std::vector<NodeRef>* path);

  /// `n` fresh node ids, from the PN's id block when it holds enough; a
  /// refill is one AtomicIncrement of the tree's id counter.
  Result<std::vector<uint64_t>> AllocateNodeIds(store::StorageClient* client,
                                                size_t n);

  const store::TableId table_;
  const BTreeOptions options_;
  NodeCache* const cache_;
};

class BTree::Prepared {
 public:
  Prepared();
  ~Prepared();
  Prepared(Prepared&&) noexcept;
  Prepared& operator=(Prepared&&) noexcept;

  /// Per op: whether it is in effect — after PrepareInsert the ops that
  /// needed no change, after WriteInsert also every op that landed.
  const std::vector<bool>& inserted() const { return inserted_; }

 private:
  friend class BTree;
  std::vector<BatchInsertOp> ops_;
  std::vector<bool> inserted_;
  /// The next round's edits, planned.
  std::vector<NodeEdit> edits_;
  /// Ops whose leaf lost its LL/SC race, to prepare again.
  std::vector<size_t> pending_;
  /// Separators the landed splits owe their parents.
  std::vector<Separator> separators_;
  /// The freshest image of every inner node this batch read or wrote.
  std::map<NodeId, NodeRef> known_;
  /// A unique violation found on a retry, returned once the splits already
  /// published are linked into their parents.
  Status failure_;
};

}  // namespace tell::index

#endif  // TELL_INDEX_BTREE_H_
