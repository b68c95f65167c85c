#include "index/btree.h"

#include <cstddef>
#include <algorithm>
#include <deque>
#include <optional>
#include <set>

#include "common/logging.h"
#include "common/serde.h"

namespace tell::index {

namespace {

constexpr uint64_t kRootId = 1;
constexpr std::string_view kNextIdKey = "meta/next_id";
// Bounded retries: LL/SC failures retry from fresh reads; the bound only
// guards against bugs, not expected contention levels.
constexpr int kMaxRetries = 1024;
// Right-sibling hops tolerated before declaring the cached path stale.
constexpr int kMaxRightHops = 64;
// Attempts of one key's descent: the walk through the cache, then restarts
// that re-read every node. Concurrent structure modifications can derail
// even a fresh walk, so it retries a few times before declaring the tree
// corrupt.
constexpr int kMaxDescentAttempts = 16;
// Node ids a processing node reserves per refill of a tree's id counter.
constexpr uint64_t kNodeIdBlock = 64;

std::string NodeKey(uint64_t id) { return tell::EncodeOrderedU64(id); }

/// An entry of a node. Its key views bytes that outlive it: the key arena of
/// a decoded node, an op of a BatchInsert, or a separator an edit carries.
struct EntryRef {
  std::string_view key;
  uint64_t rid = 0;
  uint64_t tag = 0;
};

// Sorted-insert position for (key, rid) in `entries`, sorted by (key, rid).
size_t PositionIn(const std::vector<EntryRef>& entries, std::string_view key,
                  uint64_t rid) {
  return static_cast<size_t>(
      std::lower_bound(entries.begin(), entries.end(),
                       std::make_pair(key, rid),
                       [](const EntryRef& e,
                          const std::pair<std::string_view, uint64_t>& p) {
                         if (e.key != p.first) return e.key < p.first;
                         return e.rid < p.second;
                       }) -
      entries.begin());
}

// Where to cut `entries` (sorted) so that no piece holds more than about
// `fanout` entries: as few pieces as that allows, of even size. A cut never
// separates duplicates of one key — a descent by key must find them all in
// one node — so a cut moves to the next key boundary, else the previous
// one, and is dropped when there is none. Empty when nothing overflows or
// nothing can be cut (every entry shares one key: the node grows instead).
std::vector<size_t> CutPoints(const std::vector<EntryRef>& entries,
                              size_t fanout) {
  const size_t n = entries.size();
  std::vector<size_t> cuts;
  if (n <= fanout) return cuts;
  const size_t pieces = (n + fanout - 1) / fanout;
  auto boundary = [&](size_t c) {
    return entries[c].key != entries[c - 1].key;
  };
  size_t prev = 0;
  for (size_t j = 1; j < pieces; ++j) {
    const size_t target = std::max(j * n / pieces, prev + 1);
    size_t c = target;
    while (c < n && !boundary(c)) ++c;
    if (c == n) {
      c = target - 1;
      while (c > prev && !boundary(c)) --c;
      if (c <= prev) continue;
    }
    cuts.push_back(c);
    prev = c;
  }
  return cuts;
}

// `entries` cut at `cuts` (as CutPoints returns them).
std::vector<std::vector<EntryRef>> CutAt(const std::vector<EntryRef>& entries,
                                         const std::vector<size_t>& cuts) {
  std::vector<std::vector<EntryRef>> pieces;
  pieces.reserve(cuts.size() + 1);
  size_t from = 0;
  for (size_t i = 0; i <= cuts.size(); ++i) {
    const size_t to = i < cuts.size() ? cuts[i] : entries.size();
    pieces.emplace_back(entries.begin() + static_cast<ptrdiff_t>(from),
                        entries.begin() + static_cast<ptrdiff_t>(to));
    from = to;
  }
  return pieces;
}

}  // namespace

/// A node's fields, with a high key and entries that view bytes held
/// elsewhere. The nodes a BatchInsert plans and writes are these; a decoded
/// Node is one that views its own key arena.
struct NodePlan {
  uint64_t id = 0;
  uint64_t stamp = 0;
  /// Distance from the leaf level (leaves are 0). A node's level never
  /// changes — except for the fixed-id root, which is rewritten in place one
  /// level higher on a root split; parent insertion therefore locates its
  /// target by LEVEL, not by remembered id (see LocateNode).
  uint32_t level = 0;
  uint64_t right_sibling = 0;
  std::string_view high_key;  // empty = +inf (only when right_sibling == 0)
  std::vector<EntryRef> entries;

  bool is_leaf() const { return level == 0; }

  /// The node's cell, every integer a varint (common/serde.h): the level,
  /// the right sibling, the high key's length and bytes, the entry count,
  /// then per entry the length of the prefix its key shares with the
  /// previous key (the first entry's previous key is empty), the length and
  /// bytes of the rest of the key, and the zigzag delta of its rid from the
  /// previous rid (the first entry's from 0). Keys of one node share most
  /// of their bytes, and neighbouring rids are close. Only when some entry
  /// has a tag, the tags follow: runs of equal tags in entry order, each as
  /// its length and the zigzag delta of its tag from the previous run's
  /// (the first from 0). A node whose tags are all 0 — every inner node,
  /// and every leaf written outside a transaction — has no tag bytes.
  std::string Serialize() const {
    BufferWriter writer;
    writer.Reserve(16 + high_key.size() + 8 * entries.size());
    writer.PutVarint(level);
    writer.PutVarint(right_sibling);
    writer.PutVarString(high_key);
    writer.PutVarint(entries.size());
    std::string_view prev;
    uint64_t prev_rid = 0;
    for (const EntryRef& e : entries) {
      const size_t shared = static_cast<size_t>(
          std::mismatch(prev.begin(), prev.end(), e.key.begin(), e.key.end())
              .first -
          prev.begin());
      writer.PutVarint(shared);
      writer.PutVarString(e.key.substr(shared));
      writer.PutVarint(ZigZagEncode(static_cast<int64_t>(e.rid - prev_rid)));
      prev = e.key;
      prev_rid = e.rid;
    }
    const bool tagged =
        std::any_of(entries.begin(), entries.end(),
                    [](const EntryRef& e) { return e.tag != 0; });
    uint64_t prev_tag = 0;
    for (size_t i = 0; tagged && i < entries.size();) {
      size_t end = i + 1;
      while (end < entries.size() && entries[end].tag == entries[i].tag) ++end;
      writer.PutVarint(end - i);
      writer.PutVarint(
          ZigZagEncode(static_cast<int64_t>(entries[i].tag - prev_tag)));
      prev_tag = entries[i].tag;
      i = end;
    }
    return writer.Release();
  }

  /// The put of this node's cell at its id, expecting `stamp`
  /// (store::kStampAbsent for a fresh node); counted in
  /// index.node_bytes_sent.
  store::WriteOp Write(store::StorageClient* client, store::TableId table,
                       uint64_t stamp) const {
    std::string value = Serialize();
    client->metrics()->index_node_bytes_sent += value.size();
    return {table, NodeKey(id), std::move(value), stamp};
  }
};

/// A node decoded from its cell: the keys rebuilt back to back in one arena,
/// which the high key and the entries view — two allocations per node,
/// whatever its entry count. Move-only; a move leaves the arena where it is.
struct Node : NodePlan {
  std::unique_ptr<char[]> keys;

  /// Decodes a cell written by NodePlan::Serialize. Any length that runs
  /// past the cell or past the previous key, a tag run that does not end
  /// with the entries, and any byte left over, is Corruption.
  static Result<Node> Deserialize(uint64_t id, uint64_t stamp,
                                  std::string_view data) {
    BufferReader reader(data);
    Node node;
    node.id = id;
    node.stamp = stamp;
    TELL_ASSIGN_OR_RETURN(uint64_t level, reader.GetVarint());
    if (level > UINT32_MAX) return Status::Corruption("B+tree node level");
    node.level = static_cast<uint32_t>(level);
    TELL_ASSIGN_OR_RETURN(node.right_sibling, reader.GetVarint());
    TELL_ASSIGN_OR_RETURN(std::string_view high_key, reader.GetVarString());
    TELL_ASSIGN_OR_RETURN(uint64_t count, reader.GetVarint());
    // An entry takes at least three bytes.
    if (count > reader.remaining() / 3) {
      return Status::Corruption("B+tree node entry count exceeds its cell");
    }
    // First the entries as coded: each key views the rest of it in the
    // cell, and the length it shares with the previous key waits in its tag.
    node.entries.resize(count);
    size_t bytes = high_key.size();
    size_t prev_size = 0;
    uint64_t rid = 0;
    for (EntryRef& e : node.entries) {
      TELL_ASSIGN_OR_RETURN(uint64_t shared, reader.GetVarint());
      if (shared > prev_size) {
        return Status::Corruption("B+tree key shares more than its previous key");
      }
      TELL_ASSIGN_OR_RETURN(e.key, reader.GetVarString());
      e.tag = shared;
      prev_size = shared + e.key.size();
      bytes += prev_size;
      TELL_ASSIGN_OR_RETURN(uint64_t delta, reader.GetVarint());
      rid += static_cast<uint64_t>(ZigZagDecode(delta));
      e.rid = rid;
    }
    // Then every key whole, in the arena.
    if (bytes > 0) node.keys = std::make_unique_for_overwrite<char[]>(bytes);
    char* out = std::copy(high_key.begin(), high_key.end(), node.keys.get());
    node.high_key = {node.keys.get(), high_key.size()};
    std::string_view prev;
    for (EntryRef& e : node.entries) {
      char* const key = out;
      out = std::copy_n(prev.begin(), e.tag, out);
      out = std::copy(e.key.begin(), e.key.end(), out);
      e.key = prev = {key, static_cast<size_t>(out - key)};
      e.tag = 0;
    }
    uint64_t tag = 0;
    for (size_t i = 0; i < count && !reader.AtEnd();) {
      TELL_ASSIGN_OR_RETURN(uint64_t run, reader.GetVarint());
      if (run == 0 || run > count - i) {
        return Status::Corruption("B+tree tag run past the node's entries");
      }
      TELL_ASSIGN_OR_RETURN(uint64_t delta, reader.GetVarint());
      tag += static_cast<uint64_t>(ZigZagDecode(delta));
      for (; run > 0; --run) node.entries[i++].tag = tag;
      if (i < count && reader.AtEnd()) {
        return Status::Corruption("B+tree tag runs end before the entries");
      }
    }
    if (!reader.AtEnd()) {
      return Status::Corruption("trailing bytes after a B+tree node");
    }
    return node;
  }

  /// Node `id` from a fetched cell; counted in index.node_bytes_received.
  static Result<Node> Read(store::StorageClient* client, uint64_t id,
                           const Result<store::VersionedCell>& cell) {
    if (!cell.ok()) return cell.status();
    client->metrics()->index_node_bytes_received += cell->value.size();
    return Deserialize(id, cell->stamp, cell->value);
  }

  /// True if `key` belongs in this node's range ([_, high_key)).
  bool CoversKey(std::string_view key) const {
    return high_key.empty() || key < high_key;
  }

  /// True if an entry of this node has exactly `key`.
  bool HoldsKey(std::string_view key) const {
    const size_t pos = PositionIn(entries, key, 0);
    return pos < entries.size() && entries[pos].key == key;
  }

  /// In an inner node, the index of the entry whose child covers `key`: the
  /// last entry at or below it; -1 if none qualifies (stale).
  ptrdiff_t ChildIndex(std::string_view key) const {
    auto above = std::upper_bound(
        entries.begin(), entries.end(), key,
        [](std::string_view k, const EntryRef& e) { return k < e.key; });
    return (above - entries.begin()) - 1;
  }

  /// Child id for `key` in an inner node; 0 if no entry qualifies (stale).
  uint64_t ChildFor(std::string_view key) const {
    const ptrdiff_t child = ChildIndex(key);
    return child < 0 ? 0 : entries[static_cast<size_t>(child)].rid;
  }
};

// --------------------------------------------------------------------------
// NodeCache

NodeCache::NodeCache(size_t max_inner, size_t max_leaves)
    : inner_{max_inner == 0 ? 1 : max_inner, {}},
      leaves_{max_leaves == 0 ? 1 : max_leaves, {}} {}

NodeRef NodeCache::Get(uint64_t node_id, bool leaf) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(node_id);
  if (it == nodes_.end() || (it->second.leaf && !leaf)) {
    if (!leaf) ++stats_.inner_misses;
    return nullptr;
  }
  Entry& entry = it->second;
  Kind& kind = KindOf(entry.leaf);
  if (!entry.leaf) ++stats_.inner_hits;
  kind.lru.splice(kind.lru.begin(), kind.lru, entry.lru_it);
  return entry.node;
}

void NodeCache::Put(NodeRef node) {
  const uint64_t id = node->id;
  const bool leaf = node->is_leaf();
  std::lock_guard<std::mutex> lock(mutex_);
  Kind& kind = KindOf(leaf);
  auto [it, fresh] = nodes_.try_emplace(id);
  Entry& entry = it->second;
  if (fresh) {
    kind.lru.push_front(id);
  } else if (entry.leaf != leaf) {
    // The fixed-id root grew from a leaf into an inner node.
    KindOf(entry.leaf).lru.erase(entry.lru_it);
    kind.lru.push_front(id);
  } else {
    kind.lru.splice(kind.lru.begin(), kind.lru, entry.lru_it);
  }
  entry.node = std::move(node);
  entry.leaf = leaf;
  entry.lru_it = kind.lru.begin();
  while (kind.lru.size() > kind.max_entries) {
    nodes_.erase(kind.lru.back());
    kind.lru.pop_back();
    ++(leaf ? stats_.leaf_evictions : stats_.inner_evictions);
  }
}

void NodeCache::Erase(uint64_t node_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return;
  KindOf(it->second.leaf).lru.erase(it->second.lru_it);
  nodes_.erase(it);
}

void NodeCache::CountLeafLookup(LeafLookup lookup) {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (lookup) {
    case LeafLookup::kHit:
      ++stats_.leaf_hits;
      break;
    case LeafLookup::kMiss:
      ++stats_.leaf_misses;
      break;
    case LeafLookup::kInvalid:
      if (stats_.leaf_hits > 0) --stats_.leaf_hits;
      [[fallthrough]];
    case LeafLookup::kStale:
      ++stats_.stale_leaves;
      break;
  }
}

NodeCache::Stats NodeCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.inner_entries = inner_.lru.size();
  stats.leaf_entries = leaves_.lru.size();
  return stats;
}

void NodeCache::TakeNodeIds(size_t n, std::vector<uint64_t>* ids) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (; n > 0 && next_id_ < end_id_; --n) ids->push_back(next_id_++);
}

void NodeCache::SetNodeIdBlock(uint64_t first, uint64_t end) {
  std::lock_guard<std::mutex> lock(mutex_);
  next_id_ = first;
  end_id_ = end;
}

// --------------------------------------------------------------------------
// BTree

/// A separator a split owes the level above: the right node's first key and
/// id, to be inserted into the node at `level` that covers the key.
struct BTree::Separator {
  BTree* tree = nullptr;
  IndexEntry entry;
  uint32_t level = 0;
  /// Inner nodes above the split node, root first: the last one is the
  /// parent as the descent saw it.
  std::vector<NodeRef> path;
  /// The parent image lost an LL/SC race: re-read it before the next try.
  bool stale = false;
};

/// One node rewrite of a BatchInsert round: the image it is based on (its
/// stamp is the LL/SC base), the node's complete new entry list, and — once
/// PlanEdits cut it — the nodes it writes. The entries view the base image,
/// the batch's ops and the edit's separators, which all outlive the edit.
struct BTree::NodeEdit {
  BTree* tree = nullptr;
  NodeRef base;
  std::vector<EntryRef> entries;
  /// Inner nodes above `base`, root first.
  std::vector<NodeRef> path;
  /// The BatchInsert ops a leaf edit carries, those of them whose entry it
  /// adds, and the removes whose entry it takes out.
  std::vector<size_t> ops;
  std::vector<size_t> created;
  std::vector<size_t> removed;
  /// The separators an inner edit carries.
  std::vector<Separator> separators;
  /// The plan: the nodes a split publishes first under fresh ids, then the
  /// put at the edited node's own id — a plain rewrite, the shrunk left
  /// piece of a split, or the new root of a root split.
  std::vector<NodePlan> fresh;
  NodePlan rewrite;
  /// The separators the split owes the level above, once it landed.
  std::vector<Separator> owed;
  uint64_t splits = 0;
  /// Every fresh node is out (trivially without fresh nodes), so the put at
  /// the node's own id may follow.
  bool published = true;
  /// The fresh nodes were sent, and the stamps they got.
  bool sent = false;
  std::vector<uint64_t> fresh_stamps;
};

/// Caller writes that travel in a round of a BatchInsert: the first round
/// allowed to carry them sends them ahead of its own puts.
struct BTree::Riders {
  std::vector<store::WriteOp> writes;
  std::vector<Result<uint64_t>>* results = nullptr;
  bool sent = false;
};

BTree::Prepared::Prepared() = default;
BTree::Prepared::~Prepared() = default;
BTree::Prepared& BTree::Prepared::operator=(Prepared&&) noexcept = default;

Status BTree::Create(store::StorageClient* client, store::TableId table) {
  NodePlan root;
  root.id = kRootId;
  std::vector<Result<uint64_t>> put =
      client->BatchWrite({root.Write(client, table, store::kStampAbsent)});
  if (put.front().status().IsConditionFailed()) {
    return Status::AlreadyExists("index already initialized");
  }
  TELL_RETURN_NOT_OK(put.front().status());
  // Node id 1 is the root; the counter hands out the rest.
  auto counter = client->AtomicIncrement(table, kNextIdKey, 1);
  return counter.status();
}

Result<std::vector<uint64_t>> BTree::AllocateNodeIds(
    store::StorageClient* client, size_t n) {
  std::vector<uint64_t> ids;
  ids.reserve(n);
  if (cache_ != nullptr) cache_->TakeNodeIds(n, &ids);
  if (ids.size() == n) return ids;
  const uint64_t missing = n - ids.size();
  const uint64_t block =
      cache_ == nullptr ? missing : std::max(kNodeIdBlock, missing);
  TELL_ASSIGN_OR_RETURN(int64_t counter,
                        client->AtomicIncrement(table_, kNextIdKey, block));
  // The counter now ends the new block; ids run one above the counter
  // (it started at 1 = the root).
  const uint64_t first = static_cast<uint64_t>(counter) - block + 2;
  for (uint64_t id = first; id < first + missing; ++id) ids.push_back(id);
  if (cache_ != nullptr) cache_->SetNodeIdBlock(first + missing, first + block);
  return ids;
}

Result<Node> BTree::ReadNodeUncached(store::StorageClient* client,
                                            uint64_t node_id) {
  return Node::Read(client, node_id, client->Get(table_, NodeKey(node_id)));
}

Result<Node> BTree::LocateNode(store::StorageClient* client,
                                      uint64_t start_id, std::string_view key,
                                      uint32_t level,
                                      std::vector<NodeRef>* path) {
  for (int retry = 0; retry < kMaxRetries; ++retry) {
    TELL_ASSIGN_OR_RETURN(Node node, ReadNodeUncached(client, start_id));
    int hops = 0;
    while (true) {
      while (!node.CoversKey(key) && hops <= kMaxRightHops) {
        if (node.right_sibling == 0) {
          // A rightmost node always covers up to +inf; this cannot happen.
          return Status::InternalError("separator key out of parent range");
        }
        ++hops;
        TELL_ASSIGN_OR_RETURN(node,
                              ReadNodeUncached(client, node.right_sibling));
      }
      // A storm of concurrent splits moved the target far right of the
      // start; restart from the root, which descends close to it directly.
      if (hops > kMaxRightHops) break;
      if (node.level == level) return node;
      if (node.level < level) {
        // Levels only grow at the root: the start is BELOW the target.
        return Status::InternalError("parent level below separator level");
      }
      // The start sits above the target level (the fixed-id root grew):
      // descend by key — inserting at any other level corrupts the tree.
      const uint64_t child = node.ChildFor(key);
      if (child == 0) return Status::InternalError("no route to parent level");
      path->push_back(std::make_shared<const Node>(std::move(node)));
      TELL_ASSIGN_OR_RETURN(node, ReadNodeUncached(client, child));
    }
    start_id = kRootId;
    path->clear();
  }
  return Status::InternalError("parent search retries exhausted");
}

Status BTree::Insert(store::StorageClient* client, std::string_view key,
                     uint64_t rid, bool unique) {
  std::vector<bool> inserted;
  return BatchInsert(client, {{this, std::string(key), rid, unique}},
                     &inserted);
}

Result<std::vector<uint64_t>> BTree::Lookup(store::StorageClient* client,
                                            std::string_view key) {
  TELL_ASSIGN_OR_RETURN(
      std::vector<IndexEntry> entries,
      RangeScan(client, key, std::string(key) + '\0', /*limit=*/0));
  std::vector<uint64_t> rids;
  rids.reserve(entries.size());
  for (const IndexEntry& e : entries) rids.push_back(e.rid);
  return rids;
}

NodeRef BTree::Cached(uint64_t node_id, bool leaf) {
  if (!options_.cache_inner_nodes || cache_ == nullptr) return nullptr;
  return cache_->Get(node_id, leaf);
}

void BTree::Cache(const NodeRef& node) {
  if (options_.cache_inner_nodes && cache_ != nullptr) cache_->Put(node);
}

void BTree::CountLeafLookup(NodeCache::LeafLookup lookup) {
  if (options_.cache_inner_nodes && cache_ != nullptr) {
    cache_->CountLeafLookup(lookup);
  }
}

Status BTree::BatchDescendToLeaves(
    store::StorageClient* client, const std::vector<DescentKey>& keys,
    std::vector<DescentLeaf>* leaves, std::vector<size_t>* leaf_of_key,
    const std::vector<store::WriteOp>* riders,
    std::vector<Result<uint64_t>>* rider_results) {
  leaves->clear();
  leaf_of_key->assign(keys.size(), 0);
  if (riders != nullptr && riders->empty()) riders = nullptr;
  if (keys.empty() && riders == nullptr) return Status::OK();

  // Every node image this batch holds or requested, by (table, node id) and
  // the attempt whose keys read it: attempt 0 walks through the cached
  // inner nodes, a restart (attempt 1, 2, ...) through images it read from
  // the store itself.
  using SlotId = std::pair<NodeId, int>;
  struct Slot {
    NodeRef node;             // nullptr when the fetch failed: `status`
    Status status;
    bool requested = false;   // in the current round's fetch
    bool cached = false;      // `node` came from the tree's cache
    bool fill_cache = false;  // a fetched inner image enters the cache
    bool fill_leaf = false;   // a fetched leaf image enters the cache
  };
  std::map<SlotId, Slot> nodes;
  // The images the current round fetches, in first-request order, and the
  // tree each belongs to.
  std::vector<SlotId> wanted;
  std::vector<BTree*> wanted_tree;
  // Makes the batch hold image `id` of `key`'s tree. Attempt 0 descends
  // through the tree's cache — an inner node there needs no request, nor
  // does a leaf image for a key that takes them (LeafCache::kUse); a
  // fetched inner node enters the cache, and so does a fetched leaf for a
  // key whose leaf mode is not kBypass — while right hops and restarts
  // read the store only and leave the cache alone. `inner`: the node is an
  // inner node or the root, which may be the tree's only leaf. A slot
  // holding a cached image is requested again by a want that may not use
  // the cache.
  auto want = [&](const DescentKey& key, const SlotId& id, bool descent,
                  bool inner) {
    BTree* tree = key.tree;
    const bool use_cache = descent && id.second == 0;
    auto [it, fresh] = nodes.try_emplace(id);
    Slot& slot = it->second;
    if (use_cache && key.leaf != LeafCache::kBypass) slot.fill_leaf = true;
    if (!fresh && (slot.requested || use_cache || !slot.cached)) return;
    const bool leaf = key.leaf == LeafCache::kUse &&
                      (!inner || id.first.second == kRootId);
    if (fresh && use_cache && (inner || leaf)) {
      slot.node = tree->Cached(id.first.second, leaf);
      slot.cached = slot.node != nullptr;
      if (slot.cached) return;
    }
    slot.requested = true;
    slot.cached = false;
    slot.fill_cache = use_cache;
    wanted.push_back(id);
    wanted_tree.push_back(tree);
  };

  // The keys in walk order: a point key that bypasses the leaf cache walks
  // together with the other such keys of its tree, sorted by key, so keys
  // that share a leaf share one walk to it; every other key walks alone.
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) order[i] = i;
  auto shares = [&](size_t i) {
    return !keys[i].range && keys[i].leaf == LeafCache::kBypass;
  };
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (shares(a) != shares(b)) return shares(a);
    if (!shares(a)) return false;
    if (keys[a].tree->table_ != keys[b].tree->table_) {
      return keys[a].tree->table_ < keys[b].tree->table_;
    }
    return keys[a].key < keys[b].key;
  });

  // One walk down the tree: the walk of the keys order[first, last), led by
  // the first — each key would take it on its own, so one walk stands for
  // all — or a walk of a range key's range by the separator of a later
  // child. A walk knows the image it stands on or waits for (nullopt once
  // it is done), its right hops in this attempt, and the inner nodes it
  // descended through, root first — which keep alive the node whose
  // separator `from` views. Where a key's own walk would part from its
  // walk's, a walk of it and the keys after it splits off (Split).
  struct Walk {
    size_t first = 0;
    size_t last = 0;
    std::string_view from;
    bool range_walk = false;
    std::optional<SlotId> at;
    int hops = 0;
    std::vector<NodeRef> path;
    bool rejected_image = false;  // a cached leaf image was stale for it
  };
  // A deque: walks spawn walks while they are walked.
  std::deque<Walk> walks;
  for (size_t k = 0; k < order.size();) {
    const size_t i = order[k];
    size_t last = k + 1;
    while (shares(i) && last < order.size() && shares(order[last]) &&
           keys[order[last]].tree == keys[i].tree) {
      ++last;
    }
    Walk& walk = walks.emplace_back();
    walk.first = k;
    walk.last = last;
    walk.from = keys[i].key;
    walk.at = SlotId{{keys[i].tree->table_, kRootId}, 0};
    want(keys[i], *walk.at, /*descent=*/true, /*inner=*/true);
    if (keys[i].leaf == LeafCache::kRefresh) {
      keys[i].tree->CountLeafLookup(NodeCache::LeafLookup::kInvalid);
    }
    k = last;
  }
  // Splits the keys from `bound` on (empty: none) off `walk` into a walk of
  // their own at the same image, which the current pass walks on.
  auto split = [&](Walk& walk, std::string_view bound) {
    if (bound.empty() || walk.last - walk.first < 2) return;
    const auto begin = order.begin() + static_cast<ptrdiff_t>(walk.first);
    const auto end = order.begin() + static_cast<ptrdiff_t>(walk.last);
    const size_t at = static_cast<size_t>(
        std::partition_point(begin, end,
                             [&](size_t i) { return keys[i].key < bound; }) -
        order.begin());
    if (at == walk.last) return;
    Walk& rest = walks.emplace_back();
    rest.first = at;
    rest.last = walk.last;
    rest.from = keys[order[at]].key;
    rest.at = walk.at;
    rest.hops = walk.hops;
    rest.path = walk.path;
    walk.last = at;
  };
  // A stale path: drop it from the cache and start the keys over at the
  // root, reading every node from the store. A walk of a range only
  // prefetches: it stops instead, and the scan's right links read the
  // leaves it did not reach.
  auto restart = [&](Walk& walk) -> Status {
    if (walk.range_walk) {
      walk.at.reset();
      return Status::OK();
    }
    const DescentKey& key = keys[order[walk.first]];
    BTree* tree = key.tree;
    if (tree->cache_ != nullptr) {
      tree->cache_->Erase(kRootId);
      for (const NodeRef& node : walk.path) tree->cache_->Erase(node->id);
    }
    const int attempt = walk.at->second + 1;
    if (attempt == kMaxDescentAttempts) {
      return Status::InternalError(
          "B+tree descent keeps finding stale paths (corrupt tree?)");
    }
    walk.at = SlotId{{tree->table_, kRootId}, attempt};
    walk.hops = 0;
    walk.path.clear();
    want(key, *walk.at, /*descent=*/true, /*inner=*/true);
    return Status::OK();
  };
  // The nodes each range key's walks went to.
  std::set<std::pair<size_t, SlotId>> reached;
  // Distinct leaf images -> `leaves` index.
  std::map<const Node*, size_t> leaf_index;
  auto add_leaf = [&](const NodeRef& leaf, Walk& walk, bool cached) {
    auto [it, fresh] = leaf_index.try_emplace(leaf.get(), leaves->size());
    if (fresh) {
      leaves->push_back({keys[order[walk.first]].tree, leaf,
                         std::move(walk.path), cached});
    }
    return it->second;
  };
  while (true) {
    // Walk every walk through the images the batch holds, until it is done
    // or waits for an image of this round.
    for (size_t w = 0; w < walks.size(); ++w) {
      Walk& walk = walks[w];
      const size_t lead = order[walk.first];
      const DescentKey& key = keys[lead];
      BTree* tree = key.tree;
      while (walk.at.has_value()) {
        const Slot& slot = nodes[*walk.at];
        if (slot.requested) break;  // resumes after the round
        const int attempt = walk.at->second;
        const NodeRef node = slot.node;
        if (node == nullptr) {
          if (attempt > 0) return slot.status;
          TELL_RETURN_NOT_OK(restart(walk));
          continue;
        }
        // A cached leaf image answers only a point key that takes it; any
        // other walk reads the leaf from the store.
        const bool cached_leaf = slot.cached && node->is_leaf();
        if (cached_leaf && key.leaf != LeafCache::kUse) {
          want(key, *walk.at, /*descent=*/false, /*inner=*/false);
          break;
        }
        if (!node->CoversKey(walk.from)) {
          if (cached_leaf) walk.rejected_image = true;
          // B-link move right: a split shifted the key's range into a right
          // sibling before the parent — or this PN's cache — learned of it.
          // The later keys are past the high key too.
          if (node->right_sibling == 0 || ++walk.hops > kMaxRightHops) {
            TELL_RETURN_NOT_OK(restart(walk));
            continue;
          }
          walk.at = SlotId{{tree->table_, node->right_sibling}, attempt};
          want(key, *walk.at, /*descent=*/false, /*inner=*/false);
          continue;
        }
        if (cached_leaf && !node->HoldsKey(walk.from)) {
          // A negative answer never comes from a cached image: the leaf is
          // read again, and its image replaces this one.
          walk.rejected_image = true;
          want(key, *walk.at, /*descent=*/false, /*inner=*/false);
          break;
        }
        if (node->is_leaf()) {
          // The keys at or past the high key move right on their own.
          split(walk, node->high_key);
          // Paper §5.3.1: a leaf that does not match its parent's
          // expectation means the cached path is outdated — refresh it.
          if (walk.hops > 0 && !walk.range_walk && tree->cache_ != nullptr) {
            for (const NodeRef& inner : walk.path) {
              tree->cache_->Erase(inner->id);
            }
          }
          if (key.leaf == LeafCache::kUse) {
            tree->CountLeafLookup(cached_leaf ? NodeCache::LeafLookup::kHit
                                  : walk.rejected_image
                                      ? NodeCache::LeafLookup::kStale
                                      : NodeCache::LeafLookup::kMiss);
          }
          const size_t leaf = add_leaf(node, walk, cached_leaf);
          if (!walk.range_walk) {
            for (size_t k = walk.first; k < walk.last; ++k) {
              (*leaf_of_key)[order[k]] = leaf;
            }
          }
          walk.at.reset();
          break;
        }
        // The keys at or past the next separator (or the high key) take
        // another child, or move right, on their own.
        const ptrdiff_t index = node->ChildIndex(walk.from);
        const size_t next_entry = static_cast<size_t>(index + 1);
        std::string_view bound = node->high_key;
        if (next_entry < node->entries.size() &&
            (bound.empty() || node->entries[next_entry].key < bound)) {
          bound = node->entries[next_entry].key;
        }
        split(walk, bound);
        if (index < 0) {
          TELL_RETURN_NOT_OK(restart(walk));
          continue;
        }
        const uint64_t child = node->entries[static_cast<size_t>(index)].rid;
        walk.path.push_back(node);
        const SlotId next{{tree->table_, child}, attempt};
        if (key.range && attempt == 0) {
          // The later children that may hold keys of the range, each walked
          // once per key even when two images name it.
          for (const EntryRef& e : node->entries) {
            if (e.key <= walk.from) continue;
            if (!key.end.empty() && e.key >= key.end) break;
            const SlotId later{{tree->table_, e.rid}, 0};
            if (!reached.emplace(lead, later).second) continue;
            Walk& sub = walks.emplace_back();
            sub.first = walk.first;
            sub.last = walk.last;
            sub.from = e.key;
            sub.range_walk = true;
            sub.at = later;
            sub.path = walk.path;
            want(key, later, /*descent=*/true, /*inner=*/node->level > 1);
          }
          if (!reached.emplace(lead, next).second && walk.range_walk) {
            walk.at.reset();
            break;
          }
        }
        walk.at = next;
        want(key, next, /*descent=*/true, /*inner=*/node->level > 1);
      }
    }
    if (wanted.empty() && riders == nullptr) break;

    // One round: every wanted image of every tree in one BatchGet — the
    // first round with the riders. An unreadable root fails the call.
    std::vector<store::GetOp> gets;
    gets.reserve(wanted.size());
    for (const SlotId& id : wanted) {
      gets.push_back({id.first.first, NodeKey(id.first.second)});
    }
    static const std::vector<store::WriteOp> kNoRiders;
    store::BatchResults round = client->BatchReadWrite(
        gets, riders != nullptr ? *riders : kNoRiders);
    if (riders != nullptr) {
      *rider_results = std::move(round.writes);
      riders = nullptr;
    }
    std::vector<Result<store::VersionedCell>>& cells = round.gets;
    for (size_t g = 0; g < cells.size(); ++g) {
      Slot& slot = nodes[wanted[g]];
      slot.requested = false;
      const uint64_t id = wanted[g].first.second;
      Result<Node> node = Node::Read(client, id, cells[g]);
      if (!node.ok()) {
        if (id == kRootId) return node.status();
        slot.status = node.status();
        continue;
      }
      slot.node = std::make_shared<const Node>(std::move(*node));
      if (slot.node->is_leaf() ? slot.fill_leaf : slot.fill_cache) {
        wanted_tree[g]->Cache(slot.node);
      }
    }
    wanted.clear();
    wanted_tree.clear();
  }
  return Status::OK();
}

Status BTree::PrepareLeafEdits(
    store::StorageClient* client, Prepared* prepared,
    const std::vector<size_t>& pending,
    const std::vector<store::WriteOp>* riders,
    std::vector<Result<uint64_t>>* rider_results) {
  const std::vector<const BatchInsertOp*>& ops = prepared->ops_;
  // The leaf each pending op lands in, and the inner nodes above it.
  std::vector<DescentKey> descents;
  descents.reserve(pending.size());
  for (size_t i : pending) descents.push_back({ops[i]->tree, ops[i]->key});
  std::vector<DescentLeaf> leaves;
  std::vector<size_t> leaf_of_key;
  TELL_RETURN_NOT_OK(BatchDescendToLeaves(client, descents, &leaves,
                                          &leaf_of_key, riders,
                                          rider_results));

  // Group the ops by leaf, in the order of their first op.
  constexpr size_t kNoGroup = static_cast<size_t>(-1);
  std::vector<size_t> group_of(leaves.size(), kNoGroup);
  std::vector<NodeEdit> groups;
  for (size_t k = 0; k < pending.size(); ++k) {
    const size_t leaf = leaf_of_key[k];
    if (group_of[leaf] == kNoGroup) {
      group_of[leaf] = groups.size();
      NodeEdit& group = groups.emplace_back();
      group.tree = ops[pending[k]]->tree;
      group.base = leaves[leaf].node;
      group.path = std::move(leaves[leaf].path);
    }
    groups[group_of[leaf]].ops.push_back(pending[k]);
  }

  // Apply every group's ops to its leaf, BEFORE any put is issued: a unique
  // violation must surface while there is still nothing to undo — with
  // every holder of a violated key, which the caller may find dead. The new
  // entry list merges the leaf's entries with the ops sorted by key: the
  // ops of one key apply in op order to the leaf's entries of that key.
  std::vector<size_t> by_key;
  std::vector<EntryRef> run;  // the entries of one key, by rid
  std::vector<std::pair<size_t, BatchInsertOp>> conflicts;
  for (NodeEdit& group : groups) {
    const std::vector<EntryRef>& base = group.base->entries;
    by_key = group.ops;
    std::stable_sort(by_key.begin(), by_key.end(), [&](size_t a, size_t b) {
      return ops[a]->key < ops[b]->key;
    });
    std::vector<EntryRef> entries;
    entries.reserve(base.size() + by_key.size());
    std::vector<size_t> applied;
    bool changed = false;
    size_t next = 0;  // the first base entry not yet merged
    for (size_t k = 0; k < by_key.size();) {
      const std::string_view key = ops[by_key[k]]->key;
      for (; next < base.size() && base[next].key < key; ++next) {
        entries.push_back(base[next]);
      }
      run.clear();
      for (; next < base.size() && base[next].key == key; ++next) {
        run.push_back(base[next]);
      }
      for (; k < by_key.size() && ops[by_key[k]]->key == key; ++k) {
        const size_t i = by_key[k];
        const BatchInsertOp& op = *ops[i];
        const size_t pos = PositionIn(run, op.key, op.rid);
        EntryRef* present =
            pos < run.size() && run[pos].rid == op.rid ? &run[pos] : nullptr;
        if (op.remove) {
          if (present != nullptr && present->tag <= op.tag) {
            run.erase(run.begin() + static_cast<ptrdiff_t>(pos));
            group.removed.push_back(i);
            changed = true;
          }
          applied.push_back(i);
          continue;
        }
        if (op.unique) {
          bool held = false;
          for (const EntryRef& holder : run) {
            if (holder.rid == op.rid) continue;
            conflicts.push_back({i,
                                 {op.tree, op.key, holder.rid,
                                  /*unique=*/false, /*remove=*/true,
                                  holder.tag}});
            held = true;
          }
          if (held) continue;
        }
        applied.push_back(i);
        if (present != nullptr) {
          // Idempotent, unless the tag rises.
          if (present->tag < op.tag) {
            present->tag = op.tag;
            changed = true;
          }
          continue;
        }
        run.insert(run.begin() + static_cast<ptrdiff_t>(pos),
                   {op.key, op.rid, op.tag});
        group.created.push_back(i);
        changed = true;
      }
      entries.insert(entries.end(), run.begin(), run.end());
    }
    // Each list in op order, as the ops' indices are.
    std::sort(applied.begin(), applied.end());
    std::sort(group.created.begin(), group.created.end());
    std::sort(group.removed.begin(), group.removed.end());
    std::stable_sort(conflicts.begin(), conflicts.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (auto& [i, holder] : conflicts) {
      prepared->conflicts_.push_back(std::move(holder));
    }
    conflicts.clear();
    if (!changed) {
      for (size_t i : applied) prepared->inserted_[i] = true;
      continue;
    }
    entries.insert(entries.end(), base.begin() + static_cast<ptrdiff_t>(next),
                   base.end());
    group.entries = std::move(entries);
    group.ops = std::move(applied);
    prepared->edits_.push_back(std::move(group));
  }
  if (!prepared->conflicts_.empty()) {
    return Status::AlreadyExists("duplicate key in unique index");
  }
  return Status::OK();
}

Status BTree::PrepareSeparatorEdits(store::StorageClient* client,
                                    std::vector<Separator> separators,
                                    std::map<NodeId, NodeRef>* known,
                                    std::vector<NodeEdit>* edits,
                                    std::vector<Separator>* retry) {
  if (separators.empty()) return Status::OK();
  // A stale stamp re-reads its parent: all of them in one BatchGet.
  std::vector<NodeId> reread;
  std::vector<BTree*> reread_tree;
  for (Separator& sep : separators) {
    if (!sep.stale || sep.path.empty()) continue;
    const NodeId id{sep.tree->table_, sep.path.back()->id};
    known->erase(id);
    if (std::find(reread.begin(), reread.end(), id) == reread.end()) {
      reread.push_back(id);
      reread_tree.push_back(sep.tree);
    }
  }
  if (!reread.empty()) {
    std::vector<store::GetOp> gets;
    gets.reserve(reread.size());
    for (const NodeId& id : reread) {
      gets.push_back({id.first, NodeKey(id.second)});
    }
    std::vector<Result<store::VersionedCell>> cells = client->BatchGet(gets);
    for (size_t g = 0; g < cells.size(); ++g) {
      TELL_ASSIGN_OR_RETURN(Node node,
                            Node::Read(client, reread[g].second, cells[g]));
      NodeRef image = std::make_shared<const Node>(std::move(node));
      if (!image->is_leaf()) reread_tree[g]->Cache(image);
      (*known)[reread[g]] = std::move(image);
    }
  }

  // The node that takes each separator: the freshest image of its parent —
  // from the descent, this batch's own writes or the tree's cache — if that
  // still covers the key at the right level, else a fresh search (the
  // parent split meanwhile, or the root grew above it).
  std::vector<NodeRef> target(separators.size());
  for (size_t s = 0; s < separators.size(); ++s) {
    Separator& sep = separators[s];
    NodeRef best;
    if (!sep.path.empty()) {
      best = sep.path.back();
      auto it = known->find({sep.tree->table_, best->id});
      if (it != known->end() &&
          (sep.stale || it->second->stamp > best->stamp)) {
        best = it->second;
      }
      NodeRef cached = sep.tree->Cached(best->id, /*leaf=*/false);
      if (!sep.stale && cached != nullptr && cached->stamp > best->stamp) {
        best = cached;
      }
    }
    sep.stale = false;
    if (best != nullptr && best->level == sep.level &&
        best->CoversKey(sep.entry.key)) {
      target[s] = std::move(best);
      continue;
    }
    const uint64_t start = best == nullptr ? kRootId : best->id;
    if (!sep.path.empty()) sep.path.pop_back();
    TELL_ASSIGN_OR_RETURN(Node node,
                          sep.tree->LocateNode(client, start, sep.entry.key,
                                               sep.level, &sep.path));
    target[s] = std::make_shared<const Node>(std::move(node));
    (*known)[{sep.tree->table_, target[s]->id}] = target[s];
    sep.path.push_back(target[s]);
  }

  // One edit per parent with all of its separators, based on the freshest
  // image any of them found.
  std::map<NodeId, size_t> edit_of;
  std::vector<NodeEdit> parents;
  for (size_t s = 0; s < separators.size(); ++s) {
    Separator& sep = separators[s];
    auto [it, fresh] = edit_of.try_emplace(
        NodeId{sep.tree->table_, target[s]->id}, parents.size());
    if (fresh) {
      NodeEdit& edit = parents.emplace_back();
      edit.tree = sep.tree;
      edit.base = target[s];
      edit.path.assign(sep.path.begin(), sep.path.end() - 1);
    }
    NodeEdit& edit = parents[it->second];
    if (target[s]->stamp > edit.base->stamp) edit.base = target[s];
    edit.separators.push_back(std::move(sep));
  }
  for (NodeEdit& edit : parents) {
    std::vector<Separator> placed;
    for (Separator& sep : edit.separators) {
      // Two images of one node disagreed (a race split it between them):
      // a separator the freshest no longer covers waits for a re-read.
      if (edit.base->level != sep.level ||
          !edit.base->CoversKey(sep.entry.key)) {
        sep.stale = true;
        retry->push_back(std::move(sep));
        continue;
      }
      placed.push_back(std::move(sep));
    }
    if (placed.empty()) continue;
    // The entries view the separators where the edit keeps them.
    edit.separators = std::move(placed);
    edit.entries = edit.base->entries;
    for (const Separator& sep : edit.separators) {
      const size_t at = PositionIn(edit.entries, sep.entry.key, sep.entry.rid);
      if (at == edit.entries.size() || edit.entries[at].key != sep.entry.key ||
          edit.entries[at].rid != sep.entry.rid) {
        edit.entries.insert(edit.entries.begin() + static_cast<ptrdiff_t>(at),
                            {sep.entry.key, sep.entry.rid, sep.entry.tag});
      }
    }
    edits->push_back(std::move(edit));
  }
  return Status::OK();
}

namespace {

// Cuts `edit` (PlanEdits), drawing the fresh ids from `next_id`.
template <typename Edit, typename NextId>
void PlanEdit(Edit& edit, std::vector<EntryRef> entries, size_t fanout,
              NextId&& next_id) {
  const auto& base = *edit.base;
  edit.rewrite.id = base.id;
  edit.rewrite.level = base.level;
  edit.rewrite.right_sibling = base.right_sibling;
  edit.rewrite.high_key = base.high_key;
  if (base.id != kRootId) {
    const std::vector<size_t> cuts = CutPoints(entries, fanout);
    if (cuts.empty()) {
      edit.rewrite.entries = std::move(entries);
      return;
    }
    std::vector<std::vector<EntryRef>> pieces = CutAt(entries, cuts);
    std::vector<uint64_t> ids = {base.id};
    for (size_t j = 1; j < pieces.size(); ++j) ids.push_back(next_id());
    for (size_t j = 0; j < pieces.size(); ++j) {
      auto& node = j == 0 ? edit.rewrite : edit.fresh.emplace_back();
      node.id = ids[j];
      node.level = base.level;
      const bool last = j + 1 == pieces.size();
      node.right_sibling = last ? base.right_sibling : ids[j + 1];
      node.high_key = last ? base.high_key : pieces[j + 1].front().key;
      if (j > 0) {
        edit.owed.push_back({edit.tree,
                             {std::string(pieces[j].front().key), ids[j]},
                             base.level + 1,
                             edit.path});
      }
      node.entries = std::move(pieces[j]);
    }
    edit.splits = 1;
    return;
  }
  // The root keeps its fixed id: every piece moves to a fresh node and the
  // root becomes their parent, one level up — or a taller tower of fresh
  // inner nodes when the pieces overflow one root.
  edit.rewrite.entries = std::move(entries);
  while (true) {
    const std::vector<size_t> cuts = CutPoints(edit.rewrite.entries, fanout);
    if (cuts.empty()) return;
    std::vector<std::vector<EntryRef>> pieces =
        CutAt(edit.rewrite.entries, cuts);
    std::vector<uint64_t> ids;
    for (size_t j = 0; j < pieces.size(); ++j) ids.push_back(next_id());
    edit.rewrite.entries.clear();
    for (size_t j = 0; j < pieces.size(); ++j) {
      edit.rewrite.entries.push_back(
          {j == 0 ? std::string_view() : pieces[j].front().key, ids[j]});
      auto& node = edit.fresh.emplace_back();
      node.id = ids[j];
      node.level = edit.rewrite.level;
      const bool last = j + 1 == pieces.size();
      node.right_sibling = last ? 0 : ids[j + 1];
      node.high_key = last ? std::string_view() : pieces[j + 1].front().key;
      node.entries = std::move(pieces[j]);
    }
    edit.rewrite.level += 1;
    ++edit.splits;
  }
}

}  // namespace

Status BTree::PlanEdits(store::StorageClient* client,
                        std::vector<NodeEdit>* edits) {
  // Count the fresh ids of every tree in a dry run, take them in one
  // allocation per tree, then cut for real.
  std::vector<std::pair<BTree*, size_t>> ids_needed;  // first-use order
  for (NodeEdit& edit : *edits) {
    const size_t fanout = edit.tree->options_.fanout;
    if (edit.entries.size() <= fanout) continue;
    NodeEdit dry;
    dry.tree = edit.tree;
    dry.base = edit.base;
    size_t count = 0;
    PlanEdit(dry, edit.entries, fanout, [&count] {
      ++count;
      return uint64_t{0};
    });
    if (count == 0) continue;
    auto it = std::find_if(ids_needed.begin(), ids_needed.end(),
                           [&](const auto& t) { return t.first == edit.tree; });
    if (it == ids_needed.end()) {
      ids_needed.emplace_back(edit.tree, count);
    } else {
      it->second += count;
    }
  }
  std::map<BTree*, std::vector<uint64_t>> ids;
  for (const auto& [tree, count] : ids_needed) {
    TELL_ASSIGN_OR_RETURN(ids[tree], tree->AllocateNodeIds(client, count));
  }
  std::map<BTree*, size_t> ids_used;
  for (NodeEdit& edit : *edits) {
    BTree* tree = edit.tree;
    PlanEdit(edit, std::move(edit.entries), tree->options_.fanout,
             [&] { return ids[tree][ids_used[tree]++]; });
    edit.published = edit.fresh.empty();
  }
  return Status::OK();
}

std::vector<Result<uint64_t>> BTree::SendWrites(
    store::StorageClient* client, std::vector<store::WriteOp> puts,
    Riders* riders) {
  if (riders == nullptr || riders->sent) {
    if (puts.empty()) return {};
    return client->BatchWrite(std::move(puts));
  }
  riders->sent = true;
  const size_t n = riders->writes.size();
  puts.insert(puts.begin(), std::make_move_iterator(riders->writes.begin()),
              std::make_move_iterator(riders->writes.end()));
  std::vector<Result<uint64_t>> results = client->BatchWrite(std::move(puts));
  riders->results->assign(std::make_move_iterator(results.begin()),
                          std::make_move_iterator(results.begin() + n));
  results.erase(results.begin(), results.begin() + static_cast<ptrdiff_t>(n));
  return results;
}

Status BTree::WriteRound(store::StorageClient* client, Prepared* prepared,
                         Riders* riders, bool puts_with_fresh) {
  std::vector<NodeEdit>& edits = prepared->edits_;
  std::map<NodeId, NodeRef>& known = prepared->known_;
  // Records a written node: inner nodes enter the cache and `known` with
  // their new stamp, decoded from their cell like any node read, so later
  // edits of this batch and later descents start from the current image.
  auto wrote = [&](BTree* tree, const NodePlan& node, uint64_t stamp) {
    if (node.is_leaf()) return;
    NodeRef image = std::make_shared<const Node>(
        Node::Deserialize(node.id, stamp, node.Serialize()).value());
    tree->Cache(image);
    known[{tree->table_, node.id}] = std::move(image);
  };
  // A lost LL/SC: the cached image of the node is stale.
  auto lost = [&](const NodeEdit& edit) {
    if (edit.tree->cache_ != nullptr) edit.tree->cache_->Erase(edit.base->id);
    known.erase({edit.tree->table_, edit.base->id});
  };

  // One LL/SC put per edit whose fresh nodes are all out — plain rewrites
  // and the shrinks that linearise the splits; a lost race leaves only
  // unreferenced fresh nodes behind — and the fresh nodes of every edit
  // that has not sent them. Per write: its edit, and its fresh node (-1 for
  // the put at the edit's own id). `done`: the edits that leave the plan
  // this round — every put sent, every edit with a fresh node that did not
  // land, and one a storage failure stopped after its fresh nodes.
  const bool fresh_round =
      !puts_with_fresh &&
      std::any_of(edits.begin(), edits.end(), [](const NodeEdit& edit) {
        return !edit.published && !edit.sent;
      });
  std::vector<bool> done(edits.size(), false);
  std::vector<bool> sent_now(edits.size(), false);
  std::vector<store::WriteOp> writes;
  std::vector<std::pair<size_t, ptrdiff_t>> write_of;
  for (size_t e = 0; e < edits.size(); ++e) {
    NodeEdit& edit = edits[e];
    if (edit.published) {
      if (fresh_round) continue;
      writes.push_back(
          edit.rewrite.Write(client, edit.tree->table_, edit.base->stamp));
      write_of.emplace_back(e, -1);
      continue;
    }
    if (edit.sent) {
      done[e] = true;
      continue;
    }
    edit.sent = true;
    sent_now[e] = true;
    for (size_t f = 0; f < edit.fresh.size(); ++f) {
      writes.push_back(
          edit.fresh[f].Write(client, edit.tree->table_, store::kStampAbsent));
      write_of.emplace_back(e, static_cast<ptrdiff_t>(f));
    }
  }
  std::vector<Result<uint64_t>> results =
      SendWrites(client, std::move(writes), riders);
  std::vector<bool> landed(edits.size(), false);
  Status failure;
  for (size_t w = 0; w < results.size(); ++w) {
    const auto [e, fresh] = write_of[w];
    NodeEdit& edit = edits[e];
    if (fresh >= 0 && results[w].ok()) {
      edit.fresh_stamps.push_back(*results[w]);
      continue;
    }
    if (!results[w].ok() && !results[w].status().IsConditionFailed()) {
      if (failure.ok()) failure = results[w].status();
      if (fresh >= 0) continue;  // decided below
    }
    done[e] = true;
    if (!results[w].ok()) {
      if (fresh < 0 && results[w].status().IsConditionFailed()) lost(edit);
      continue;
    }
    landed[e] = true;
    edit.rewrite.stamp = *results[w];
    client->metrics()->index_splits += edit.splits;
    wrote(edit.tree, edit.rewrite, *results[w]);
    for (size_t f = 0; f < edit.fresh.size(); ++f) {
      wrote(edit.tree, edit.fresh[f], edit.fresh_stamps[f]);
    }
    for (Separator& sep : edit.owed) {
      prepared->separators_.push_back(std::move(sep));
    }
  }
  std::vector<NodeEdit> waiting;
  for (size_t e = 0; e < edits.size(); ++e) {
    NodeEdit& edit = edits[e];
    // Its put waits, or its fresh nodes went out and the put follows next
    // round. After a storage failure such an edit stays unpublished, for
    // UndoFirstRound to erase its fresh nodes.
    if (!done[e]) {
      if (sent_now[e]) {
        edit.published = failure.ok() &&
                         edit.fresh_stamps.size() == edit.fresh.size();
      }
      waiting.push_back(std::move(edit));
      continue;
    }
    if (landed[e]) {
      for (size_t i : edit.ops) prepared->inserted_[i] = true;
      for (size_t i : edit.created) prepared->created_[i] = true;
      for (size_t i : edit.removed) prepared->removed_[i] = true;
      if (!edit.created.empty() && edit.fresh.empty()) {
        prepared->landed_.push_back(std::move(edit));
      }
      continue;
    }
    // Lost the LL/SC race on this node, or a fresh node did not land: its
    // ops re-descend, its separators re-read their parent.
    prepared->pending_.insert(prepared->pending_.end(), edit.ops.begin(),
                              edit.ops.end());
    for (Separator& sep : edit.separators) {
      sep.stale = true;
      prepared->separators_.push_back(std::move(sep));
    }
  }
  edits = std::move(waiting);
  return failure;
}

Status BTree::PrepareNextEdits(store::StorageClient* client,
                               Prepared* prepared) {
  std::vector<NodeEdit>& edits = prepared->edits_;
  if (!prepared->pending_.empty()) {
    std::sort(prepared->pending_.begin(), prepared->pending_.end());
    Status st = PrepareLeafEdits(client, prepared, prepared->pending_);
    if (!st.ok()) {
      // A unique violation found on a retry is returned once the splits
      // already published are linked into their parents.
      if (!st.IsAlreadyExists() || prepared->separators_.empty()) return st;
      prepared->failure_ = st;
      edits.clear();
    }
    prepared->pending_.clear();
  }
  std::vector<Separator> retry;
  TELL_RETURN_NOT_OK(PrepareSeparatorEdits(client,
                                           std::move(prepared->separators_),
                                           &prepared->known_, &edits, &retry));
  prepared->separators_ = std::move(retry);
  return PlanEdits(client, &edits);
}

Status BTree::BatchInsert(store::StorageClient* client,
                          const std::vector<BatchInsertOp>& ops,
                          std::vector<bool>* inserted,
                          std::vector<bool>* removed) {
  Prepared prepared;
  Status st = PrepareInsert(client, {ops}, {}, nullptr, &prepared);
  if (st.ok()) st = WriteInsert(client, &prepared);
  *inserted = std::move(prepared.inserted_);
  if (removed != nullptr) *removed = std::move(prepared.removed_);
  return st;
}

Status BTree::PrepareInsert(
    store::StorageClient* client,
    const std::vector<std::span<const BatchInsertOp>>& ops,
    const std::vector<store::WriteOp>& riders,
    std::vector<Result<uint64_t>>* rider_results, Prepared* prepared) {
  *prepared = Prepared();
  size_t n = 0;
  for (std::span<const BatchInsertOp> part : ops) n += part.size();
  prepared->ops_.reserve(n);
  for (std::span<const BatchInsertOp> part : ops) {
    for (const BatchInsertOp& op : part) prepared->ops_.push_back(&op);
  }
  prepared->inserted_.assign(prepared->ops_.size(), false);
  prepared->created_.assign(prepared->ops_.size(), false);
  prepared->removed_.assign(prepared->ops_.size(), false);
  std::vector<size_t> all(prepared->ops_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  TELL_RETURN_NOT_OK(
      PrepareLeafEdits(client, prepared, all, &riders, rider_results));
  return PlanEdits(client, &prepared->edits_);
}

Status BTree::WriteFirstRound(store::StorageClient* client,
                              Prepared* prepared,
                              std::vector<store::WriteOp> riders,
                              std::vector<Result<uint64_t>>* rider_results) {
  Riders with{std::move(riders), rider_results};
  with.sent = with.writes.empty();
  return WriteRound(client, prepared, &with, /*puts_with_fresh=*/true);
}

std::vector<store::WriteOp> BTree::UndoFirstRound(
    store::StorageClient* client, const Prepared& prepared,
    std::vector<std::vector<size_t>>* undone) {
  std::vector<store::WriteOp> writes;
  undone->clear();
  for (const NodeEdit& edit : prepared.landed_) {
    NodePlan image = edit.rewrite;
    for (size_t i : edit.created) {
      const BatchInsertOp& op = *prepared.ops_[i];
      const size_t pos = PositionIn(image.entries, op.key, op.rid);
      if (pos < image.entries.size() && image.entries[pos].key == op.key &&
          image.entries[pos].rid == op.rid) {
        image.entries.erase(image.entries.begin() +
                            static_cast<ptrdiff_t>(pos));
      }
    }
    writes.push_back(
        image.Write(client, edit.tree->table_, edit.rewrite.stamp));
    undone->push_back(edit.created);
  }
  for (const NodeEdit& edit : prepared.edits_) {
    if (!edit.sent) continue;
    for (const NodePlan& node : edit.fresh) {
      writes.push_back({edit.tree->table_, NodeKey(node.id), std::string(),
                        store::kStampAbsent, /*conditional=*/false,
                        /*erase=*/true});
      undone->emplace_back();
    }
  }
  return writes;
}

Status BTree::WriteInsert(store::StorageClient* client, Prepared* prepared,
                          std::vector<store::WriteOp> riders,
                          std::vector<Result<uint64_t>>* rider_results) {
  Riders waiting{std::move(riders), rider_results};
  waiting.sent = waiting.writes.empty();
  // Every op is in effect, or failed for good with a unique violation.
  auto settled = [&] {
    return prepared->pending_.empty() &&
           std::none_of(prepared->edits_.begin(), prepared->edits_.end(),
                        [](const NodeEdit& e) { return !e.ops.empty(); });
  };
  for (int round = 0; round < kMaxRetries; ++round) {
    Status st;
    if (prepared->edits_.empty()) {
      if (prepared->pending_.empty() && prepared->separators_.empty()) break;
      st = PrepareNextEdits(client, prepared);
    }
    if (st.ok()) {
      // The riders go once every op is in effect — with the separators,
      // which a lost write would only leave reachable by right links.
      st = WriteRound(
          client, prepared,
          settled() && prepared->failure_.ok() ? &waiting : nullptr,
          /*puts_with_fresh=*/false);
    }
    if (!st.ok()) {
      if (!settled()) return st;
      // Every op is in effect: a separator that cannot be written is
      // given up, and its node stays reachable through its left
      // neighbour's right link.
      prepared->edits_.clear();
      prepared->separators_.clear();
      break;
    }
  }
  if (!prepared->pending_.empty()) {
    return Status::InternalError("B+tree batch retries exhausted");
  }
  TELL_RETURN_NOT_OK(prepared->failure_);
  if (!waiting.sent) SendWrites(client, {}, &waiting);
  return Status::OK();
}

Status BTree::BatchScan(store::StorageClient* client,
                        const std::vector<ScanCursor*>& cursors) {
  // Entries each cursor appended in this call.
  std::vector<size_t> got(cursors.size(), 0);
  auto needs_more = [&](size_t c) {
    const ScanCursor& cursor = *cursors[c];
    return !cursor.exhausted && (cursor.want == 0 || got[c] < cursor.want);
  };
  // Appends the in-range entries of `leaf` and moves the cursor past it.
  auto consume = [&](size_t c, const Node& leaf) {
    ScanCursor& cursor = *cursors[c];
    for (const EntryRef& e : leaf.entries) {
      if (e.key < cursor.start) continue;
      if (!cursor.end.empty() && e.key >= cursor.end) {
        cursor.exhausted = true;
        return;
      }
      cursor.entries.push_back({std::string(e.key), e.rid, e.tag});
      ++got[c];
    }
    if (leaf.right_sibling == 0 ||
        (!cursor.end.empty() && !leaf.high_key.empty() &&
         leaf.high_key >= cursor.end)) {
      cursor.exhausted = true;
      return;
    }
    cursor.next_leaf = leaf.right_sibling;
  };

  // The cursors that have not started descend to their start keys together,
  // an unlimited one as a range key — its leaves arrive in the same rounds —
  // unless it takes a leaf image, which only a point key does.
  std::vector<size_t> starting;
  for (size_t c = 0; c < cursors.size(); ++c) {
    if (needs_more(c) && cursors[c]->next_leaf == 0) starting.push_back(c);
  }
  std::vector<DescentKey> descents;
  descents.reserve(starting.size());
  for (size_t c : starting) {
    const ScanCursor& cursor = *cursors[c];
    const bool range = cursor.want == 0 && cursor.leaf == LeafCache::kBypass;
    descents.push_back(
        {cursor.tree, cursor.start, range, cursor.end, cursor.leaf});
    // A refresh repeats a lookup a cached image answered.
    if (cursor.leaf != LeafCache::kRefresh) {
      ++client->metrics()->index_lookups;
    }
  }
  std::vector<DescentLeaf> leaves;
  std::vector<size_t> leaf_of_key;
  TELL_RETURN_NOT_OK(
      BatchDescendToLeaves(client, descents, &leaves, &leaf_of_key));
  // Every leaf image this call read from the store, by id. Any such image
  // serves any cursor: the right links, not this set, decide what a cursor
  // reads. A cached image serves only the cursor whose key took it.
  std::map<NodeId, NodeRef> held;
  for (const DescentLeaf& leaf : leaves) {
    if (leaf.cached) continue;
    held.emplace(NodeId{leaf.tree->table_, leaf.node->id}, leaf.node);
  }
  for (size_t k = 0; k < starting.size(); ++k) {
    const DescentLeaf& leaf = leaves[leaf_of_key[k]];
    cursors[starting[k]]->from_cache = leaf.cached;
    consume(starting[k], *leaf.node);
  }

  // Then every cursor follows its right links through the held leaves. A
  // link to a leaf not held — one that split after its parent image was
  // cached, or the next leaf of a limited cursor — costs a round, which
  // fetches every such leaf in one BatchGet. So a stale parent costs a
  // round, never an entry.
  while (true) {
    std::vector<NodeId> missing;
    for (size_t c = 0; c < cursors.size(); ++c) {
      const store::TableId table = cursors[c]->tree->table_;
      while (needs_more(c)) {
        auto it = held.find({table, cursors[c]->next_leaf});
        if (it == held.end()) break;
        consume(c, *it->second);
      }
      if (!needs_more(c)) continue;
      const NodeId next{table, cursors[c]->next_leaf};
      if (std::find(missing.begin(), missing.end(), next) == missing.end()) {
        missing.push_back(next);
      }
    }
    if (missing.empty()) return Status::OK();
    client->metrics()->index_scan_hop_leaves += missing.size();
    std::vector<store::GetOp> gets;
    gets.reserve(missing.size());
    for (const NodeId& id : missing) {
      gets.push_back({id.first, NodeKey(id.second)});
    }
    std::vector<Result<store::VersionedCell>> cells = client->BatchGet(gets);
    for (size_t g = 0; g < missing.size(); ++g) {
      TELL_ASSIGN_OR_RETURN(Node leaf,
                            Node::Read(client, missing[g].second, cells[g]));
      held.emplace(missing[g], std::make_shared<const Node>(std::move(leaf)));
    }
  }
}

Result<std::vector<IndexEntry>> BTree::RangeScan(store::StorageClient* client,
                                                 std::string_view start,
                                                 std::string_view end,
                                                 size_t limit) {
  ScanCursor cursor;
  cursor.tree = this;
  cursor.start = start;
  cursor.end = end;
  cursor.want = limit;
  TELL_RETURN_NOT_OK(BatchScan(client, {&cursor}));
  if (limit != 0 && cursor.entries.size() > limit) {
    cursor.entries.resize(limit);
  }
  return std::move(cursor.entries);
}

}  // namespace tell::index
