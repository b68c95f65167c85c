#ifndef TELL_INDEX_BTREE_H_
#define TELL_INDEX_BTREE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/stat_table.h"
#include "common/status.h"
#include "store/storage_client.h"

namespace tell::index {

/// One index entry: encoded key -> rid, tagged in a leaf with the tid of
/// the transaction that inserted it (0 for a writer outside a transaction,
/// and in inner nodes). A reader collects an entry as garbage only once its
/// tag is at or below the reader's lav: a higher tag's writer may be in
/// flight.
struct IndexEntry {
  std::string key;
  uint64_t rid = 0;
  uint64_t tag = 0;
};

class BTree;

/// A decoded B+tree node (defined in btree.cc): its keys in one arena, which
/// its entries view. An image never changes once decoded, so a batch's keys
/// and the PN's NodeCache share it.
struct Node;
using NodeRef = std::shared_ptr<const Node>;

/// How a point lookup uses the leaf images in its PN's NodeCache.
enum class LeafCache : uint8_t {
  /// Reads the leaf from the store and leaves the cache alone.
  kBypass,
  /// Takes a cached image of the leaf if that covers the key and holds it,
  /// else reads the leaf from the store and caches it. Only for a key of a
  /// unique tree whose caller validates every rid against its record: an
  /// image may be stale, so it only proposes rids.
  kUse,
  /// A cached image's rids all failed validation: reads the leaf from the
  /// store and caches it in place of the stale image. Counted as a stale
  /// leaf, not as a lookup.
  kRefresh,
};

/// One operation of a BTree::BatchInsert call: inserts (key, rid) tagged
/// `tag`, or with `remove` set removes it. Tags never go down: inserting a
/// present (key, rid) with a lower tag raises its tag, and a remove takes
/// out the entry only while its tag is at most `tag` — a removal decided on
/// the tag an entry showed leaves it alone once a later writer raised it.
struct BatchInsertOp {
  BTree* tree = nullptr;
  std::string key;
  uint64_t rid = 0;
  bool unique = false;
  bool remove = false;
  uint64_t tag = 0;
};

/// One range of a BTree::BatchScan call: the entries of `tree` with key in
/// [start, end) (empty `end` = unbounded), read in whole leaves. The cursor
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
  /// The start leaf's source, as for a point lookup of `start`. Anything
  /// but kBypass only for a range of exactly one key, [k, k + '\0'), which
  /// then descends as a point key whatever its `want`.
  LeafCache leaf = LeafCache::kBypass;
  /// The entries read so far, in key order (BatchScan appends).
  std::vector<IndexEntry> entries;
  bool exhausted = false;
  /// The leaf to read next (a right sibling); 0 = descend to `start`.
  uint64_t next_leaf = 0;
  /// The start leaf was a cached image (LeafCache::kUse).
  bool from_cache = false;
};

struct BTreeOptions {
  /// Max entries per node before it splits.
  uint32_t fanout = 64;
  /// Caching of index nodes on the processing node: inner nodes serve
  /// every descent (paper §5.3.1), leaf images only validated unique-key
  /// point lookups (LeafCache::kUse; the paper fetches every leaf from the
  /// storage system). Off disables both; the index-cache ablation bench
  /// turns it off.
  bool cache_inner_nodes = true;
};

/// Per-processing-node cache of decoded B+tree node images, shared by all
/// workers of one PN; thread safe. A hit costs no decode: the cache hands
/// out the immutable image itself.
///
/// Inner nodes and leaves have a bound each, both least-recently-used (Get
/// refreshes recency), so leaves never evict inner nodes. An evicted node
/// is simply re-fetched on the next descent, so the bounds affect cost
/// only, never correctness — and the LRU order naturally pins the root and
/// upper levels, which every descent touches. A leaf image may be stale:
/// it only proposes rids to a caller that validates them (LeafCache). The
/// counters are exported as the `index.cache.*` gauges.
///
/// The cache also holds the PN's block of reserved node ids for its tree's
/// splits (see BTree::AllocateNodeIds).
class NodeCache {
 public:
  /// Default bound of each kind. At the default fanout (64) this caches
  /// the entire inner-node set of trees with ~4096*64 leaves — far past
  /// what the benchmarks build — and every leaf of a tree of up to ~100k
  /// entries, while capping memory for adversarial workloads.
  static constexpr size_t kDefaultMaxEntries = 4096;

  explicit NodeCache(size_t max_inner = kDefaultMaxEntries,
                     size_t max_leaves = kDefaultMaxEntries);
  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;

  /// The image of `node_id` if it is an inner node, or a leaf and `leaf`
  /// is set; nullptr otherwise. Counts an inner hit, or an inner miss when
  /// `leaf` is not set; leaf lookups are counted by CountLeafLookup.
  NodeRef Get(uint64_t node_id, bool leaf);
  /// Caches `node` under its id, within the bound of its kind.
  void Put(NodeRef node);
  void Erase(uint64_t node_id);

  /// How a unique-key point lookup (LeafCache::kUse) found its leaf.
  enum class LeafLookup {
    kHit,    // a cached image answered it
    kMiss,   // no image was cached: the leaf came from the store
    kStale,  // the image lacked the key or did not cover it: the store
    /// The image's rids all failed validation (LeafCache::kRefresh): a
    /// hit turns stale.
    kInvalid,
  };
  void CountLeafLookup(LeafLookup lookup);

  /// Moves up to `n` node ids of this PN's id block into `ids`.
  void TakeNodeIds(size_t n, std::vector<uint64_t>* ids);
  /// Replaces the id block with [first, end). Ids left in the old block are
  /// never handed out: a racing refill leaks at most one block.
  void SetNodeIdBlock(uint64_t first, uint64_t end);

  /// The counters of the cache. For leaves, hits and misses count
  /// unique-key point lookups (CountLeafLookup).
  struct Stats : StatTable<Stats> {
    uint64_t inner_entries = 0;
    uint64_t inner_hits = 0;
    uint64_t inner_misses = 0;
    uint64_t inner_evictions = 0;
    uint64_t leaf_entries = 0;
    uint64_t leaf_hits = 0;
    uint64_t leaf_misses = 0;
    uint64_t leaf_evictions = 0;
    /// Unique-key point lookups whose cached leaf image was stale — the
    /// key was absent or past the high key, or no rid validated — and
    /// that read the leaf from the store. Hits, misses and these add up
    /// to every such lookup.
    uint64_t stale_leaves = 0;

    static constexpr const char* kGaugePrefix = "index.cache.";
    static constexpr StatField<Stats> kFields[] = {
        {"inner_entries", "entries",
         "inner B+tree nodes held by per-PN node caches",
         &Stats::inner_entries},
        {"inner_hits", "nodes",
         "descent steps served an inner node by a node cache",
         &Stats::inner_hits},
        {"inner_misses", "nodes",
         "node-cache probes for an inner node that found none",
         &Stats::inner_misses},
        {"inner_evictions", "nodes",
         "inner nodes evicted from node caches (LRU/capacity)",
         &Stats::inner_evictions},
        {"leaf_entries", "entries",
         "B+tree leaf images held by per-PN node caches",
         &Stats::leaf_entries},
        {"leaf_hits", "lookups",
         "unique-key point lookups a cached leaf image answered",
         &Stats::leaf_hits},
        {"leaf_misses", "lookups",
         "unique-key point lookups that found no cached leaf image",
         &Stats::leaf_misses},
        {"leaf_evictions", "leaves",
         "leaf images evicted from node caches (LRU/capacity)",
         &Stats::leaf_evictions},
        {"leaf_stale", "lookups",
         "unique-key point lookups whose cached leaf image was stale",
         &Stats::stale_leaves},
    };
  };
  Stats stats() const;

 private:
  struct Entry {
    NodeRef node;
    bool leaf = false;
    std::list<uint64_t>::iterator lru_it;
  };
  /// The nodes of one kind, front = most recently used.
  struct Kind {
    size_t max_entries;
    std::list<uint64_t> lru;
  };
  Kind& KindOf(bool leaf) { return leaf ? leaves_ : inner_; }

  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, Entry> nodes_;
  Kind inner_;
  Kind leaves_;
  Stats stats_;  // entries are read off the LRU lists
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
/// snapshot and may GC obsolete entries (a BatchInsert op with `remove`).
/// A leaf entry does carry the tid of its writer (IndexEntry::tag), which
/// tells a reader whether that writer may still be in flight.
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

  /// Inserts key -> rid with tag 0. With `unique`, fails with AlreadyExists
  /// if the key is already present under a different rid. Idempotent for
  /// the same (key, rid) pair. A one-op BatchInsert.
  Status Insert(store::StorageClient* client, std::string_view key,
                uint64_t rid, bool unique);

  /// Inserts and removes many entries, possibly of many trees, in batched
  /// rounds: the descents of every tree share their rounds (see
  /// BatchScan), the ops are grouped by target leaf, and each touched leaf
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
  /// tree, a remove's entry is gone or carries a higher tag. On failure the
  /// caller uses it to undo a partial batch. `removed` (optional) reports
  /// per op whether it is a remove that took its entry out (see
  /// Prepared::removed). PrepareInsert + WriteInsert.
  static Status BatchInsert(store::StorageClient* client,
                            const std::vector<BatchInsertOp>& ops,
                            std::vector<bool>* inserted,
                            std::vector<bool>* removed = nullptr);

  /// A BatchInsert between its steps.
  class Prepared;

  /// BatchInsert's first step, for callers with other storage work to do
  /// before the puts. The ops are those of the spans of `ops`, in order, and
  /// are read in place: they must stay unchanged until the caller is done
  /// with `prepared`. Descends to the leaf of every op — `riders` travel in
  /// the descent's first round, next to its node reads, even when there is
  /// no op — applies the ops to copies of their leaves, and plans every
  /// split: its cut points and fresh node ids. Fails with AlreadyExists on
  /// a unique violation, with every entry that holds a violated key under
  /// another rid in `prepared->conflicts()`; nothing of the batch is
  /// written either way. The riders are sent whatever the outcome, and
  /// their results go to `rider_results` (may be null without riders),
  /// positionally.
  static Status PrepareInsert(
      store::StorageClient* client,
      const std::vector<std::span<const BatchInsertOp>>& ops,
      const std::vector<store::WriteOp>& riders,
      std::vector<Result<uint64_t>>* rider_results, Prepared* prepared);

  /// The batch's first write round, with `riders` in the same BatchWrite —
  /// sent even when the batch writes nothing: the fresh nodes of every
  /// planned split, which nothing reaches yet (a fresh node's id is known
  /// only to the shrink of its split node and to its separator, which later
  /// rounds write: B-link), and the LL/SC put of every leaf that splits
  /// nothing, whose ops are then in effect. Fails on a storage failure of
  /// any of the batch's puts. WriteInsert sends the rounds that remain.
  static Status WriteFirstRound(store::StorageClient* client,
                                Prepared* prepared,
                                std::vector<store::WriteOp> riders,
                                std::vector<Result<uint64_t>>* rider_results);

  /// What a caller that abandons the batch right after WriteFirstRound
  /// writes to take it back: the erase of every fresh node sent — no shrink
  /// went out, so nothing reaches them — and, per leaf put that landed and
  /// created entries, a put of its image without them, conditional on the
  /// stamp the leaf got. `undone[i]` lists the ops the i-th write takes
  /// back (none for an erase); a put that loses its LL/SC leaves its ops
  /// to a BatchInsert of removes. Entries whose tag the batch only raised
  /// stay, as created() says.
  static std::vector<store::WriteOp> UndoFirstRound(
      store::StorageClient* client, const Prepared& prepared,
      std::vector<std::vector<size_t>>* undone);

  /// BatchInsert's remaining steps: write rounds until every op is in
  /// effect — the puts of the leaves, the shrinks of the splits once their
  /// fresh nodes are out — then the separators the splits owe their
  /// parents. A leaf that changed since PrepareInsert read it loses its
  /// LL/SC, and its ops are prepared again — a unique violation found then
  /// fails the call like BatchInsert's. `riders` travel in the first round
  /// after every op is in effect — next to the separators, or alone — so
  /// the call returns OK exactly when it sent them, with their results in
  /// `rider_results`. Once every op is in effect a separator that cannot be
  /// written is given up: its node stays reachable through its left
  /// neighbour's right link. `prepared->inserted()` reports the ops in
  /// effect.
  static Status WriteInsert(store::StorageClient* client, Prepared* prepared,
                            std::vector<store::WriteOp> riders = {},
                            std::vector<Result<uint64_t>>* rider_results =
                                nullptr);

  /// All rids stored under exactly `key`: a one-key RangeScan of
  /// [key, key + '\0').
  Result<std::vector<uint64_t>> Lookup(store::StorageClient* client,
                                       std::string_view key);

  /// Advances every cursor that is not exhausted, possibly of many trees,
  /// until it has appended its `want` entries or reached the end of its
  /// range. Cursors that have not started share one batched descent to
  /// their start keys (see BatchDescendToLeaves): a cursor walks through
  /// cached inner nodes without a request, and each round fetches every
  /// cursor's next uncached node, whatever tree it belongs to, through one
  /// StorageClient::BatchGet — with warm inner caches K cursors over any
  /// number of trees cost one round instead of K descents, and none when
  /// every cursor's leaf image is cached. A cursor whose `leaf` is not
  /// kBypass descends as a point key (its leaf may be a cached image,
  /// which serves no other cursor's chain walk; `from_cache` says so). Any
  /// other unlimited cursor (`want` 0) descends as a range key, which
  /// fetches every leaf its cached inner nodes name for the range in the
  /// same rounds. Each cursor then follows the right-sibling links from
  /// its start leaf through the leaves the call has fetched, for any
  /// cursor; each further round fetches the next right sibling of every
  /// cursor whose link leads to a leaf none fetched — a leaf split after
  /// the parent image was cached, or the next leaf of a limited cursor —
  /// in one StorageClient::BatchGet.
  static Status BatchScan(store::StorageClient* client,
                          const std::vector<ScanCursor*>& cursors);

  /// Entries with key in [start, end); empty `end` = unbounded. `limit` 0 =
  /// unlimited. A one-cursor BatchScan.
  Result<std::vector<IndexEntry>> RangeScan(store::StorageClient* client,
                                            std::string_view start,
                                            std::string_view end,
                                            size_t limit);

 private:
  /// A node of one tree: node ids restart at 1 in every tree.
  using NodeId = std::pair<store::TableId, uint64_t>;
  struct NodeEdit;
  struct Separator;
  struct Riders;

  Result<Node> ReadNodeUncached(store::StorageClient* client,
                                uint64_t node_id);

  /// One key of a batched descent. A range key (`range` set) stands for
  /// the keys of [key, end), empty `end` = unbounded: its descent also
  /// fetches the leaves of the range (see BatchDescendToLeaves). `leaf`
  /// applies to a point key.
  struct DescentKey {
    BTree* tree;
    std::string_view key;
    bool range = false;
    std::string_view end = {};
    LeafCache leaf = LeafCache::kBypass;
  };

  /// One leaf image a batched descent reached: its tree, the inner nodes
  /// the walk that first reached it descended through, root first, and
  /// whether the image came from the tree's cache.
  struct DescentLeaf {
    BTree* tree;
    NodeRef node;
    std::vector<NodeRef> path;
    bool cached = false;
  };

  /// The one B+tree traversal, behind BatchScan and BatchInsert. Every key
  /// walks down through the nodes its tree's cache (or this batch) already
  /// holds, until it needs a node from the store; each round fetches the
  /// distinct needed nodes of all keys — deduplicated by (table, node id),
  /// since node ids restart at 1 in every tree — through one
  /// StorageClient::BatchGet. A stale path recovers inside the rounds,
  /// while the other keys keep sharing them (B-link, §5.3.1):
  ///   * a key whose node does not cover it follows the right sibling,
  ///     read from the store, at most kMaxRightHops times; a leaf reached
  ///     after a hop drops the key's inner path from the tree's cache;
  ///   * a key that runs out of hops, finds no child, or whose node fetch
  ///     failed drops its cached path and restarts at the root, reading
  ///     every node from the store; a restart whose fetch fails returns the
  ///     error, and the 16th attempt fails the call.
  /// A range key also walks every inner node that overlaps [key, end):
  /// at each one it follows, besides the child for `key`, every later child
  /// whose separator is below `end`, in the same rounds — cached nodes cost
  /// none. So a warm range's leaves all arrive in the round of its first
  /// leaf. These walks only prefetch what the images name: one that would
  /// restart stops, and a key that restarts walks no range again;
  /// BatchScan's chain walk reads whatever they missed.
  /// A point key with LeafCache::kUse also takes a cached leaf image at
  /// attempt 0, unless the image does not cover the key (a right hop) or
  /// lacks it: a negative answer never comes from a cached image, so the
  /// leaf is read again from the store in the next round and replaces the
  /// image. Every other walk that meets a cached leaf image reads the leaf
  /// from the store. A leaf fetched at attempt 0 for a key with a leaf
  /// mode other than kBypass enters the cache.
  /// On return `leaves` holds every leaf image reached, each once — a range
  /// walk's too — and `leaf_of_key[i]` indexes into it for keys[i]. A root
  /// that cannot be read fails the call. `riders` (if not null) travel in
  /// the first round, which is sent for them even without keys; their
  /// results go to `rider_results`.
  static Status BatchDescendToLeaves(
      store::StorageClient* client, const std::vector<DescentKey>& keys,
      std::vector<DescentLeaf>* leaves, std::vector<size_t>* leaf_of_key,
      const std::vector<store::WriteOp>* riders = nullptr,
      std::vector<Result<uint64_t>>* rider_results = nullptr);

  /// The cached image of node `node_id` if caching is on: an inner node,
  /// or with `leaf` set also a leaf (see NodeCache::Get); else nullptr.
  NodeRef Cached(uint64_t node_id, bool leaf);
  /// Caches `node` if caching is on.
  void Cache(const NodeRef& node);
  /// Counts a unique-key point lookup's leaf in the cache if caching is on.
  void CountLeafLookup(NodeCache::LeafLookup lookup);

  /// BatchInsert's preparation: descends to the leaves of the ops of
  /// `prepared` listed in `pending` — with `riders` in the first round, see
  /// BatchDescendToLeaves — and appends one edit per touched leaf to its
  /// edits, carrying all of its ops in op order. Ops already in effect
  /// (idempotent) are flagged inserted right away. Fails with AlreadyExists
  /// on a unique violation, once every violated key's holders are in its
  /// conflicts.
  static Status PrepareLeafEdits(
      store::StorageClient* client, Prepared* prepared,
      const std::vector<size_t>& pending,
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

  /// One write round of the planned edits, with `riders`: the fresh nodes
  /// of every edit that has not sent them, whose put then waits for the
  /// next round, and the LL/SC put at the node id of every edit whose fresh
  /// nodes are out (plain rewrites, and the shrinks that linearise the
  /// splits) — unless fresh nodes go out and `puts_with_fresh` is not set:
  /// then the puts wait for the next round too. A landed put's ops are in
  /// effect and its splits' separators are owed; a lost one's ops are
  /// pending again, and so are an edit's whose fresh node did not land.
  /// After a storage failure the edits that sent fresh nodes wait no more.
  static Status WriteRound(store::StorageClient* client, Prepared* prepared,
                           Riders* riders, bool puts_with_fresh);

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
  Prepared& operator=(Prepared&&) noexcept;

  /// Per op: whether it is in effect — after PrepareInsert the ops that
  /// needed no change, after WriteInsert also every op that landed.
  const std::vector<bool>& inserted() const { return inserted_; }
  /// Per op: an insert in effect whose entry this batch added — absent when
  /// its leaf was read. An entry that was present, its tag maybe raised,
  /// is not: a caller that abandons the batch leaves it, since it may name
  /// a version some snapshot reads.
  const std::vector<bool>& created() const { return created_; }
  /// Per op: a remove in effect whose entry this batch took out. A remove
  /// that found its entry absent, or tagged above the tag it names, is in
  /// effect but removed nothing.
  const std::vector<bool>& removed() const { return removed_; }
  /// After PrepareInsert failed on a unique violation: every entry that
  /// holds a violated key under another rid, as the remove op that would
  /// take it out (its tree, key, rid and tag).
  const std::vector<BatchInsertOp>& conflicts() const { return conflicts_; }

 private:
  friend class BTree;
  /// The caller's ops (PrepareInsert), in batch order.
  std::vector<const BatchInsertOp*> ops_;
  std::vector<bool> inserted_;
  std::vector<bool> created_;
  std::vector<bool> removed_;
  std::vector<BatchInsertOp> conflicts_;
  /// The next round's edits, planned.
  std::vector<NodeEdit> edits_;
  /// The leaf rewrites that landed and created entries, with the stamp
  /// each got (UndoFirstRound).
  std::vector<NodeEdit> landed_;
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
