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

// Where to cut `entries` (sorted) so that no piece holds more than about
// `fanout` entries: as few pieces as that allows, of even size. A cut never
// separates duplicates of one key — a descent by key must find them all in
// one node — so a cut moves to the next key boundary, else the previous
// one, and is dropped when there is none. Empty when nothing overflows or
// nothing can be cut (every entry shares one key: the node grows instead).
std::vector<size_t> CutPoints(const std::vector<IndexEntry>& entries,
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
std::vector<std::vector<IndexEntry>> CutAt(std::vector<IndexEntry> entries,
                                           const std::vector<size_t>& cuts) {
  std::vector<std::vector<IndexEntry>> pieces;
  size_t from = 0;
  for (size_t i = 0; i <= cuts.size(); ++i) {
    const size_t to = i < cuts.size() ? cuts[i] : entries.size();
    pieces.emplace_back(std::make_move_iterator(entries.begin() + from),
                        std::make_move_iterator(entries.begin() + to));
    from = to;
  }
  return pieces;
}

}  // namespace

struct BTree::Node {
  uint64_t id = 0;
  uint64_t stamp = 0;
  /// Distance from the leaf level (leaves are 0). A node's level never
  /// changes — except for the fixed-id root, which is rewritten in place one
  /// level higher on a root split; parent insertion therefore locates its
  /// target by LEVEL, not by remembered id (see LocateNode).
  uint32_t level = 0;
  uint64_t right_sibling = 0;
  std::string high_key;  // empty = +inf (only valid when right_sibling == 0)
  std::vector<IndexEntry> entries;

  bool is_leaf() const { return level == 0; }

  /// The node's cell, every integer a varint (common/serde.h): the level,
  /// the right sibling, the high key's length and bytes, the entry count,
  /// then per entry the length of the prefix its key shares with the
  /// previous key (the first entry's previous key is empty), the length and
  /// bytes of the rest of the key, and the zigzag delta of its rid from the
  /// previous rid (the first entry's from 0). Keys of one node share most
  /// of their bytes, and neighbouring rids are close.
  std::string Serialize() const {
    BufferWriter writer;
    writer.Reserve(16 + high_key.size() + 8 * entries.size());
    writer.PutVarint(level);
    writer.PutVarint(right_sibling);
    writer.PutVarString(high_key);
    writer.PutVarint(entries.size());
    std::string_view prev;
    uint64_t prev_rid = 0;
    for (const IndexEntry& e : entries) {
      const std::string_view key = e.key;
      const size_t limit = std::min(prev.size(), key.size());
      size_t shared = 0;
      while (shared < limit && prev[shared] == key[shared]) ++shared;
      writer.PutVarint(shared);
      writer.PutVarString(key.substr(shared));
      writer.PutVarint(ZigZagEncode(static_cast<int64_t>(e.rid - prev_rid)));
      prev = key;
      prev_rid = e.rid;
    }
    return writer.Release();
  }

  /// Decodes a cell written by Serialize. Any length that runs past the
  /// cell or past the previous key, and any byte left over, is Corruption.
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
    node.high_key.assign(high_key);
    TELL_ASSIGN_OR_RETURN(uint64_t count, reader.GetVarint());
    // An entry takes at least three bytes.
    if (count > reader.remaining() / 3) {
      return Status::Corruption("B+tree node entry count exceeds its cell");
    }
    node.entries.resize(count);
    uint64_t rid = 0;
    for (size_t i = 0; i < count; ++i) {
      TELL_ASSIGN_OR_RETURN(uint64_t shared, reader.GetVarint());
      const std::string_view prev =
          i == 0 ? std::string_view() : std::string_view(node.entries[i - 1].key);
      if (shared > prev.size()) {
        return Status::Corruption("B+tree key shares more than its previous key");
      }
      TELL_ASSIGN_OR_RETURN(std::string_view rest, reader.GetVarString());
      std::string& key = node.entries[i].key;
      key.reserve(shared + rest.size());
      key.assign(prev.substr(0, shared));
      key.append(rest);
      TELL_ASSIGN_OR_RETURN(uint64_t delta, reader.GetVarint());
      rid += static_cast<uint64_t>(ZigZagDecode(delta));
      node.entries[i].rid = rid;
    }
    if (!reader.AtEnd()) {
      return Status::Corruption("trailing bytes after a B+tree node");
    }
    return node;
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

  /// Child id for `key` in an inner node; 0 if no entry qualifies (stale).
  uint64_t ChildFor(std::string_view key) const {
    uint64_t child = 0;
    for (const IndexEntry& e : entries) {
      if (e.key <= key) {
        child = e.rid;
      } else {
        break;
      }
    }
    return child;
  }

  /// Sorted-insert position for (key, rid).
  size_t PositionFor(std::string_view key, uint64_t rid) const {
    return static_cast<size_t>(
        std::lower_bound(entries.begin(), entries.end(),
                         std::make_pair(key, rid),
                         [](const IndexEntry& e,
                            const std::pair<std::string_view, uint64_t>& p) {
                           if (e.key != p.first) return e.key < p.first;
                           return e.rid < p.second;
                         }) -
        entries.begin());
  }
};

// --------------------------------------------------------------------------
// NodeCache

bool NodeCache::Get(uint64_t node_id, std::string* value, uint64_t* stamp) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  *value = it->second.value;
  *stamp = it->second.stamp;
  return true;
}

void NodeCache::Put(uint64_t node_id, std::string value, uint64_t stamp) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(node_id);
  if (it != nodes_.end()) {
    it->second.value = std::move(value);
    it->second.stamp = stamp;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(node_id);
  nodes_[node_id] = {std::move(value), stamp, lru_.begin()};
  while (nodes_.size() > max_entries_) {
    nodes_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

void NodeCache::Erase(uint64_t node_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return;
  lru_.erase(it->second.lru_it);
  nodes_.erase(it);
}

size_t NodeCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return nodes_.size();
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
/// PlanEdits cut it — the nodes it writes.
struct BTree::NodeEdit {
  BTree* tree = nullptr;
  NodeRef base;
  std::vector<IndexEntry> entries;
  /// Inner nodes above `base`, root first.
  std::vector<NodeRef> path;
  /// The BatchInsert ops a leaf edit carries.
  std::vector<size_t> ops;
  /// The separators an inner edit carries.
  std::vector<Separator> separators;
  /// The plan: the nodes a split publishes first under fresh ids, then the
  /// put at the edited node's own id — a plain rewrite, the shrunk left
  /// piece of a split, or the new root of a root split.
  std::vector<Node> fresh;
  Node rewrite;
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
  Node root;
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

Result<BTree::Node> BTree::ReadNodeUncached(store::StorageClient* client,
                                            uint64_t node_id) {
  return Node::Read(client, node_id, client->Get(table_, NodeKey(node_id)));
}

Result<BTree::Node> BTree::LocateNode(store::StorageClient* client,
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
      path->push_back(std::make_shared<const Node>(node));
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
  TELL_ASSIGN_OR_RETURN(std::vector<std::vector<uint64_t>> rids,
                        BatchLookup(client, {{this, std::string(key)}}));
  return std::move(rids.front());
}

BTree::NodeRef BTree::CachedInner(uint64_t node_id) {
  if (!options_.cache_inner_nodes || cache_ == nullptr) return nullptr;
  std::string value;
  uint64_t stamp;
  if (!cache_->Get(node_id, &value, &stamp)) return nullptr;
  auto node = Node::Deserialize(node_id, stamp, value);
  if (!node.ok()) return nullptr;
  return std::make_shared<const Node>(std::move(*node));
}

void BTree::CacheIfInner(const Node& node) {
  if (options_.cache_inner_nodes && cache_ != nullptr && !node.is_leaf()) {
    cache_->Put(node.id, node.Serialize(), node.stamp);
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
    bool fill_cache = false;  // the fetched image enters the cache
  };
  std::map<SlotId, Slot> nodes;
  // The images the current round fetches, in first-request order, and the
  // tree each belongs to.
  std::vector<SlotId> wanted;
  std::vector<BTree*> wanted_tree;
  // Makes the batch hold image `id` of `tree`. Attempt 0 descends through
  // the tree's cache — an inner node there needs no request, one fetched
  // enters it — while right hops and restarts read the store only and
  // leave the cache alone.
  auto want = [&](BTree* tree, const SlotId& id, bool descent, bool inner) {
    const bool use_cache = descent && id.second == 0;
    auto [it, fresh] = nodes.try_emplace(id);
    Slot& slot = it->second;
    if (!fresh && (slot.requested || use_cache || !slot.cached)) return;
    if (fresh && use_cache && inner) {
      slot.node = tree->CachedInner(id.first.second);
      slot.cached = slot.node != nullptr;
      if (slot.cached) return;
    }
    slot.requested = true;
    slot.cached = false;
    slot.fill_cache = use_cache;
    wanted.push_back(id);
    wanted_tree.push_back(tree);
  };

  // One walk down the tree: keys[key]'s own walk to its leaf, or a walk of
  // its range by the separator of a later child. A walk knows the image it
  // stands on or waits for (nullopt once it is done), its right hops in
  // this attempt, and the inner nodes it descended through, root first —
  // which keep alive the node whose separator `from` views.
  struct Walk {
    size_t key = 0;
    std::string_view from;
    bool range_walk = false;
    std::optional<SlotId> at;
    int hops = 0;
    std::vector<NodeRef> path;
  };
  // A deque: walks spawn walks while they are walked.
  std::deque<Walk> walks(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    walks[i].key = i;
    walks[i].from = keys[i].key;
    walks[i].at = SlotId{{keys[i].tree->table_, kRootId}, 0};
    want(keys[i].tree, *walks[i].at, /*descent=*/true, /*inner=*/true);
  }
  // A stale path: drop it from the cache and start the key over at the
  // root, reading every node from the store. A walk of a range only
  // prefetches: it stops instead, and the scan's right links read the
  // leaves it did not reach.
  auto restart = [&](Walk& walk) -> Status {
    if (walk.range_walk) {
      walk.at.reset();
      return Status::OK();
    }
    BTree* tree = keys[walk.key].tree;
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
    want(tree, *walk.at, /*descent=*/true, /*inner=*/true);
    return Status::OK();
  };
  // The nodes each range key's walks went to.
  std::set<std::pair<size_t, SlotId>> reached;
  // Distinct leaf images -> `leaves` index.
  std::map<const Node*, size_t> leaf_index;
  auto add_leaf = [&](const NodeRef& leaf, Walk& walk) {
    auto [it, fresh] = leaf_index.try_emplace(leaf.get(), leaves->size());
    if (fresh) {
      leaves->push_back({keys[walk.key].tree, leaf, std::move(walk.path)});
    }
    return it->second;
  };
  while (true) {
    // Walk every walk through the images the batch holds, until it is done
    // or waits for an image of this round.
    for (size_t w = 0; w < walks.size(); ++w) {
      Walk& walk = walks[w];
      const DescentKey& key = keys[walk.key];
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
        if (!node->CoversKey(walk.from)) {
          // B-link move right: a split shifted the key's range into a right
          // sibling before the parent — or this PN's cache — learned of it.
          if (node->right_sibling == 0 || ++walk.hops > kMaxRightHops) {
            TELL_RETURN_NOT_OK(restart(walk));
            continue;
          }
          walk.at = SlotId{{tree->table_, node->right_sibling}, attempt};
          want(tree, *walk.at, /*descent=*/false, /*inner=*/false);
          continue;
        }
        if (node->is_leaf()) {
          // Paper §5.3.1: a leaf that does not match its parent's
          // expectation means the cached path is outdated — refresh it.
          if (walk.hops > 0 && !walk.range_walk && tree->cache_ != nullptr) {
            for (const NodeRef& inner : walk.path) {
              tree->cache_->Erase(inner->id);
            }
          }
          const size_t leaf = add_leaf(node, walk);
          if (!walk.range_walk) (*leaf_of_key)[walk.key] = leaf;
          walk.at.reset();
          break;
        }
        const uint64_t child = node->ChildFor(walk.from);
        if (child == 0) {
          TELL_RETURN_NOT_OK(restart(walk));
          continue;
        }
        walk.path.push_back(node);
        const SlotId next{{tree->table_, child}, attempt};
        if (key.range && attempt == 0) {
          // The later children that may hold keys of the range, each walked
          // once per key even when two images name it.
          for (const IndexEntry& e : node->entries) {
            if (e.key <= walk.from) continue;
            if (!key.end.empty() && e.key >= key.end) break;
            const SlotId later{{tree->table_, e.rid}, 0};
            if (!reached.emplace(walk.key, later).second) continue;
            Walk& sub = walks.emplace_back();
            sub.key = walk.key;
            sub.from = e.key;
            sub.range_walk = true;
            sub.at = later;
            sub.path = walk.path;
            want(tree, later, /*descent=*/true, /*inner=*/node->level > 1);
          }
          if (!reached.emplace(walk.key, next).second && walk.range_walk) {
            walk.at.reset();
            break;
          }
        }
        walk.at = next;
        want(tree, next, /*descent=*/true, /*inner=*/node->level > 1);
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
      if (slot.fill_cache) wanted_tree[g]->CacheIfInner(*node);
      slot.node = std::make_shared<const Node>(std::move(*node));
    }
    wanted.clear();
    wanted_tree.clear();
  }
  return Status::OK();
}

Result<std::vector<std::vector<uint64_t>>> BTree::BatchLookup(
    store::StorageClient* client, const std::vector<TreeKey>& keys) {
  client->metrics()->index_lookups += keys.size();
  std::vector<DescentKey> descents;
  descents.reserve(keys.size());
  for (const TreeKey& k : keys) descents.push_back({k.tree, k.key});
  std::vector<DescentLeaf> leaves;
  std::vector<size_t> leaf_of_key;
  TELL_RETURN_NOT_OK(
      BatchDescendToLeaves(client, descents, &leaves, &leaf_of_key));
  std::vector<std::vector<uint64_t>> out(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    for (const IndexEntry& e : leaves[leaf_of_key[i]].node->entries) {
      if (e.key == keys[i].key) out[i].push_back(e.rid);
    }
  }
  return out;
}

Status BTree::PrepareLeafEdits(
    store::StorageClient* client, const std::vector<BatchInsertOp>& ops,
    const std::vector<size_t>& pending, std::vector<bool>* inserted,
    std::vector<NodeEdit>* edits, const std::vector<store::WriteOp>* riders,
    std::vector<Result<uint64_t>>* rider_results) {
  // The leaf each pending op lands in, and the inner nodes above it.
  std::vector<DescentKey> descents;
  descents.reserve(pending.size());
  for (size_t i : pending) descents.push_back({ops[i].tree, ops[i].key});
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
      group.tree = ops[pending[k]].tree;
      group.base = leaves[leaf].node;
      group.path = std::move(leaves[leaf].path);
    }
    groups[group_of[leaf]].ops.push_back(pending[k]);
  }

  // Apply every group's ops in op order to a copy of its leaf, BEFORE any
  // put is issued: a unique violation must surface while there is still
  // nothing to undo.
  for (NodeEdit& group : groups) {
    Node copy = *group.base;
    bool changed = false;
    std::vector<size_t> applied;
    for (size_t i : group.ops) {
      const BatchInsertOp& op = ops[i];
      const size_t pos = copy.PositionFor(op.key, op.rid);
      const bool present = pos < copy.entries.size() &&
                           copy.entries[pos].key == op.key &&
                           copy.entries[pos].rid == op.rid;
      if (op.remove) {
        if (present) {
          copy.entries.erase(copy.entries.begin() +
                             static_cast<ptrdiff_t>(pos));
          changed = true;
        }
        applied.push_back(i);
        continue;
      }
      if (op.unique) {
        for (size_t e = copy.PositionFor(op.key, 0);
             e < copy.entries.size() && copy.entries[e].key == op.key; ++e) {
          if (copy.entries[e].rid != op.rid) {
            return Status::AlreadyExists("duplicate key in unique index");
          }
        }
      }
      applied.push_back(i);
      if (present) continue;  // idempotent
      copy.entries.insert(copy.entries.begin() + static_cast<ptrdiff_t>(pos),
                          {op.key, op.rid});
      changed = true;
    }
    if (!changed) {
      for (size_t i : applied) (*inserted)[i] = true;
      continue;
    }
    group.entries = std::move(copy.entries);
    group.ops = std::move(applied);
    edits->push_back(std::move(group));
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
      reread_tree[g]->CacheIfInner(node);
      (*known)[reread[g]] = std::make_shared<const Node>(std::move(node));
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
      NodeRef cached = sep.tree->CachedInner(best->id);
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
  auto entry_less = [](const IndexEntry& a, const IndexEntry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.rid < b.rid;
  };
  for (NodeEdit& edit : parents) {
    edit.entries = edit.base->entries;
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
      auto at = std::lower_bound(edit.entries.begin(), edit.entries.end(),
                                 sep.entry, entry_less);
      if (at == edit.entries.end() || at->key != sep.entry.key ||
          at->rid != sep.entry.rid) {
        edit.entries.insert(at, sep.entry);
      }
      placed.push_back(std::move(sep));
    }
    if (placed.empty()) continue;
    edit.separators = std::move(placed);
    edits->push_back(std::move(edit));
  }
  return Status::OK();
}

namespace {

// Cuts `edit` (PlanEdits), drawing the fresh ids from `next_id`.
template <typename Edit, typename NextId>
void PlanEdit(Edit& edit, std::vector<IndexEntry> entries, size_t fanout,
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
    std::vector<std::vector<IndexEntry>> pieces =
        CutAt(std::move(entries), cuts);
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
                             {pieces[j].front().key, ids[j]},
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
    std::vector<std::vector<IndexEntry>> pieces =
        CutAt(std::move(edit.rewrite.entries), cuts);
    std::vector<uint64_t> ids;
    for (size_t j = 0; j < pieces.size(); ++j) ids.push_back(next_id());
    edit.rewrite.entries.clear();
    for (size_t j = 0; j < pieces.size(); ++j) {
      edit.rewrite.entries.push_back(
          {j == 0 ? std::string() : pieces[j].front().key, ids[j]});
      auto& node = edit.fresh.emplace_back();
      node.id = ids[j];
      node.level = edit.rewrite.level;
      const bool last = j + 1 == pieces.size();
      node.right_sibling = last ? 0 : ids[j + 1];
      node.high_key = last ? std::string() : pieces[j + 1].front().key;
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
    return client->BatchWrite(puts);
  }
  riders->sent = true;
  const size_t n = riders->writes.size();
  puts.insert(puts.begin(), std::make_move_iterator(riders->writes.begin()),
              std::make_move_iterator(riders->writes.end()));
  std::vector<Result<uint64_t>> results = client->BatchWrite(puts);
  riders->results->assign(std::make_move_iterator(results.begin()),
                          std::make_move_iterator(results.begin() + n));
  results.erase(results.begin(), results.begin() + static_cast<ptrdiff_t>(n));
  return results;
}

Status BTree::PublishRound(store::StorageClient* client,
                           std::vector<NodeEdit>* edits, Riders* riders) {
  std::vector<store::WriteOp> writes;
  std::vector<size_t> write_edit;
  for (size_t e = 0; e < edits->size(); ++e) {
    NodeEdit& edit = (*edits)[e];
    if (edit.sent || edit.fresh.empty()) continue;
    edit.sent = true;
    for (const Node& node : edit.fresh) {
      writes.push_back(
          node.Write(client, edit.tree->table_, store::kStampAbsent));
      write_edit.push_back(e);
    }
  }
  if (writes.empty()) return Status::OK();  // the riders wait for the puts
  std::vector<Result<uint64_t>> results =
      SendWrites(client, std::move(writes), riders);
  Status failure;
  for (size_t w = 0; w < results.size(); ++w) {
    if (results[w].ok()) {
      (*edits)[write_edit[w]].fresh_stamps.push_back(*results[w]);
    } else if (!results[w].status().IsConditionFailed() && failure.ok()) {
      failure = results[w].status();
    }
  }
  // After a storage failure nothing more goes out.
  for (NodeEdit& edit : *edits) {
    edit.published =
        failure.ok() && edit.fresh_stamps.size() == edit.fresh.size();
  }
  return failure;
}

Status BTree::WriteEdits(store::StorageClient* client, Prepared* prepared,
                         Riders* riders) {
  std::vector<NodeEdit>& edits = prepared->edits_;
  std::map<NodeId, NodeRef>& known = prepared->known_;
  // Records a written node: inner nodes enter the cache and `known` with
  // their new stamp, so later edits of this batch and later descents start
  // from the current image.
  auto wrote = [&](BTree* tree, const Node& node, uint64_t stamp) {
    if (node.is_leaf()) return;
    auto image = std::make_shared<Node>(node);
    image->stamp = stamp;
    tree->CacheIfInner(*image);
    known[{tree->table_, node.id}] = std::move(image);
  };
  // A lost LL/SC: the cached image of the node is stale.
  auto lost = [&](const NodeEdit& edit) {
    if (edit.tree->cache_ != nullptr) edit.tree->cache_->Erase(edit.base->id);
    known.erase({edit.tree->table_, edit.base->id});
  };

  // One LL/SC put per edit whose fresh nodes are all out: plain rewrites
  // and the shrinks that linearise the splits. A lost race leaves only
  // unreferenced fresh nodes behind.
  std::vector<store::WriteOp> writes;
  std::vector<size_t> write_edit;
  for (size_t e = 0; e < edits.size(); ++e) {
    if (!edits[e].published) continue;
    writes.push_back(edits[e].rewrite.Write(client, edits[e].tree->table_,
                                            edits[e].base->stamp));
    write_edit.push_back(e);
  }
  std::vector<Result<uint64_t>> results =
      SendWrites(client, std::move(writes), riders);
  std::vector<bool> landed(edits.size(), false);
  Status failure;
  for (size_t w = 0; w < results.size(); ++w) {
    NodeEdit& edit = edits[write_edit[w]];
    if (!results[w].ok()) {
      if (results[w].status().IsConditionFailed()) {
        lost(edit);
      } else if (failure.ok()) {
        failure = results[w].status();
      }
      continue;
    }
    landed[write_edit[w]] = true;
    client->metrics()->index_splits += edit.splits;
    wrote(edit.tree, edit.rewrite, *results[w]);
    for (size_t f = 0; f < edit.fresh.size(); ++f) {
      wrote(edit.tree, edit.fresh[f], edit.fresh_stamps[f]);
    }
    for (Separator& sep : edit.owed) {
      prepared->separators_.push_back(std::move(sep));
    }
  }
  for (size_t e = 0; e < edits.size(); ++e) {
    if (landed[e]) {
      for (size_t i : edits[e].ops) prepared->inserted_[i] = true;
      continue;
    }
    // Lost the LL/SC race on this node, or never sent: its ops re-descend,
    // its separators re-read their parent.
    prepared->pending_.insert(prepared->pending_.end(), edits[e].ops.begin(),
                              edits[e].ops.end());
    for (Separator& sep : edits[e].separators) {
      sep.stale = true;
      prepared->separators_.push_back(std::move(sep));
    }
  }
  edits.clear();
  return failure;
}

Status BTree::PrepareNextEdits(store::StorageClient* client,
                               Prepared* prepared) {
  std::vector<NodeEdit>& edits = prepared->edits_;
  if (!prepared->pending_.empty()) {
    std::sort(prepared->pending_.begin(), prepared->pending_.end());
    Status st = PrepareLeafEdits(client, prepared->ops_, prepared->pending_,
                                 &prepared->inserted_, &edits);
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
                          std::vector<bool>* inserted) {
  Prepared prepared;
  Status st = PrepareInsert(client, ops, {}, nullptr, &prepared);
  if (st.ok()) st = WriteInsert(client, &prepared);
  *inserted = std::move(prepared.inserted_);
  return st;
}

Status BTree::PrepareInsert(store::StorageClient* client,
                            std::vector<BatchInsertOp> ops,
                            const std::vector<store::WriteOp>& riders,
                            std::vector<Result<uint64_t>>* rider_results,
                            Prepared* prepared) {
  *prepared = Prepared();
  prepared->ops_ = std::move(ops);
  prepared->inserted_.assign(prepared->ops_.size(), false);
  std::vector<size_t> all(prepared->ops_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  TELL_RETURN_NOT_OK(PrepareLeafEdits(client, prepared->ops_, all,
                                      &prepared->inserted_, &prepared->edits_,
                                      &riders, rider_results));
  return PlanEdits(client, &prepared->edits_);
}

Status BTree::PublishFresh(store::StorageClient* client, Prepared* prepared,
                           std::vector<store::WriteOp> riders,
                           std::vector<Result<uint64_t>>* rider_results) {
  Riders with{std::move(riders), rider_results};
  with.sent = with.writes.empty();
  Status st = PublishRound(client, &prepared->edits_, &with);
  if (!with.sent) SendWrites(client, {}, &with);
  return st;
}

std::vector<store::WriteOp> BTree::FreshNodeErases(const Prepared& prepared) {
  std::vector<store::WriteOp> erases;
  for (const NodeEdit& edit : prepared.edits_) {
    if (!edit.sent) continue;
    for (const Node& node : edit.fresh) {
      erases.push_back({edit.tree->table_, NodeKey(node.id), std::string(),
                        store::kStampAbsent, /*conditional=*/false,
                        /*erase=*/true});
    }
  }
  return erases;
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
      Riders* now = settled() && prepared->failure_.ok() ? &waiting : nullptr;
      st = PublishRound(client, &prepared->edits_, now);
      Status written = WriteEdits(client, prepared, st.ok() ? now : nullptr);
      if (st.ok()) st = written;
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
    for (const IndexEntry& e : leaf.entries) {
      if (e.key < cursor.start) continue;
      if (!cursor.end.empty() && e.key >= cursor.end) {
        cursor.exhausted = true;
        return;
      }
      cursor.entries.push_back(e);
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
  // an unlimited one as a range key: its leaves arrive in the same rounds.
  std::vector<size_t> starting;
  for (size_t c = 0; c < cursors.size(); ++c) {
    if (needs_more(c) && cursors[c]->next_leaf == 0) starting.push_back(c);
  }
  client->metrics()->index_lookups += starting.size();
  std::vector<DescentKey> descents;
  descents.reserve(starting.size());
  for (size_t c : starting) {
    const ScanCursor& cursor = *cursors[c];
    descents.push_back(
        {cursor.tree, cursor.start, /*range=*/cursor.want == 0, cursor.end});
  }
  std::vector<DescentLeaf> leaves;
  std::vector<size_t> leaf_of_key;
  TELL_RETURN_NOT_OK(
      BatchDescendToLeaves(client, descents, &leaves, &leaf_of_key));
  // Every leaf image this call fetched, by id. Any image serves any cursor:
  // the right links, not this set, decide what a cursor reads.
  std::map<NodeId, NodeRef> held;
  for (const DescentLeaf& leaf : leaves) {
    held.emplace(NodeId{leaf.tree->table_, leaf.node->id}, leaf.node);
  }
  for (size_t k = 0; k < starting.size(); ++k) {
    consume(starting[k], *leaves[leaf_of_key[k]].node);
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
