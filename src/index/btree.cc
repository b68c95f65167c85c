#include "index/btree.h"

#include <cstddef>
#include <algorithm>
#include <optional>

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

std::string NodeKey(uint64_t id) { return tell::EncodeOrderedU64(id); }

}  // namespace

struct BTree::Node {
  uint64_t id = 0;
  uint64_t stamp = 0;
  bool is_leaf = true;
  /// Distance from the leaf level (leaves are 0). A node's level never
  /// changes — except for the fixed-id root, which is rewritten in place one
  /// level higher on a root split; parent insertion therefore locates its
  /// target by LEVEL, not by remembered id (see InsertIntoParent).
  uint32_t level = 0;
  uint64_t right_sibling = 0;
  std::string high_key;  // empty = +inf (only valid when right_sibling == 0)
  std::vector<IndexEntry> entries;

  std::string Serialize() const {
    BufferWriter writer;
    writer.PutU8(is_leaf ? 1 : 0);
    writer.PutU32(level);
    writer.PutU64(right_sibling);
    writer.PutString(high_key);
    writer.PutU32(static_cast<uint32_t>(entries.size()));
    for (const IndexEntry& e : entries) {
      writer.PutString(e.key);
      writer.PutU64(e.rid);
    }
    return writer.Release();
  }

  static Result<Node> Deserialize(uint64_t id, uint64_t stamp,
                                  std::string_view data) {
    BufferReader reader(data);
    Node node;
    node.id = id;
    node.stamp = stamp;
    TELL_ASSIGN_OR_RETURN(uint8_t is_leaf, reader.GetU8());
    node.is_leaf = is_leaf != 0;
    TELL_ASSIGN_OR_RETURN(node.level, reader.GetU32());
    TELL_ASSIGN_OR_RETURN(node.right_sibling, reader.GetU64());
    TELL_ASSIGN_OR_RETURN(std::string_view high_key, reader.GetString());
    node.high_key.assign(high_key);
    TELL_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
    node.entries.reserve(std::min<size_t>(count, reader.remaining() / 12 + 1));
    for (uint32_t i = 0; i < count; ++i) {
      IndexEntry entry;
      TELL_ASSIGN_OR_RETURN(std::string_view key, reader.GetString());
      entry.key.assign(key);
      TELL_ASSIGN_OR_RETURN(entry.rid, reader.GetU64());
      node.entries.push_back(std::move(entry));
    }
    return node;
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

void NodeCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  nodes_.clear();
  lru_.clear();
}

size_t NodeCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return nodes_.size();
}

// --------------------------------------------------------------------------
// BTree

Status BTree::Create(store::StorageClient* client, store::TableId table) {
  Node root;
  root.id = kRootId;
  root.is_leaf = true;
  auto put = client->ConditionalPut(table, NodeKey(kRootId),
                                    store::kStampAbsent, root.Serialize());
  if (put.status().IsConditionFailed()) {
    return Status::AlreadyExists("index already initialized");
  }
  TELL_RETURN_NOT_OK(put.status());
  // Node id 1 is the root; the counter hands out 2, 3, ...
  auto counter = client->AtomicIncrement(table, kNextIdKey, 1);
  return counter.status();
}

Result<uint64_t> BTree::AllocateNodeId(store::StorageClient* client) {
  TELL_ASSIGN_OR_RETURN(int64_t id,
                        client->AtomicIncrement(table_, kNextIdKey, 1));
  return static_cast<uint64_t>(id) + 1;  // counter started at 1 = root
}

Result<BTree::Node> BTree::ReadNodeUncached(store::StorageClient* client,
                                            uint64_t node_id) {
  TELL_ASSIGN_OR_RETURN(store::VersionedCell cell,
                        client->Get(table_, NodeKey(node_id)));
  return Node::Deserialize(node_id, cell.stamp, cell.value);
}

Result<BTree::Node> BTree::ReadNode(store::StorageClient* client,
                                    uint64_t node_id, bool is_inner_level) {
  if (options_.cache_inner_nodes && is_inner_level && cache_ != nullptr) {
    std::string value;
    uint64_t stamp;
    if (cache_->Get(node_id, &value, &stamp)) {
      return Node::Deserialize(node_id, stamp, value);
    }
  }
  TELL_ASSIGN_OR_RETURN(Node node, ReadNodeUncached(client, node_id));
  CacheIfInner(node);
  return node;
}

Result<BTree::Node> BTree::DescendToLeaf(store::StorageClient* client,
                                         std::string_view key,
                                         std::vector<uint64_t>* path) {
  // Attempt 0 uses the inner-node cache; later attempts re-read everything.
  // Concurrent structure modifications can transiently derail even a fresh
  // descent, so retry a few times before declaring the tree corrupt.
  for (int attempt = 0; attempt < 16; ++attempt) {
    bool use_cache = attempt == 0;
    path->clear();
    bool stale = false;
    int right_hops = 0;
    // The root is never cached as a leaf; read and inspect.
    Result<Node> current = use_cache ? ReadNode(client, kRootId, true)
                                     : ReadNodeUncached(client, kRootId);
    if (!current.ok()) return current.status();
    Node node = std::move(*current);
    while (true) {
      // B-link move right: a concurrent split may have shifted our key range
      // into a right sibling before the parent learned about it.
      while (!node.CoversKey(key)) {
        if (node.right_sibling == 0 || ++right_hops > kMaxRightHops) {
          stale = true;
          break;
        }
        Result<Node> sibling = ReadNodeUncached(client, node.right_sibling);
        if (!sibling.ok()) return sibling.status();
        node = std::move(*sibling);
      }
      if (stale) break;
      if (node.is_leaf) {
        // Paper §5.3.1: a leaf that does not match its parent's expectation
        // means the cached path is outdated — refresh the parents.
        if (right_hops > 0 && cache_ != nullptr) {
          for (uint64_t id : *path) cache_->Erase(id);
        }
        return node;
      }
      uint64_t child = node.ChildFor(key);
      if (child == 0) {
        stale = true;
        break;
      }
      path->push_back(node.id);
      Result<Node> next = use_cache ? ReadNode(client, child, true)
                                    : ReadNodeUncached(client, child);
      if (!next.ok()) return next.status();
      node = std::move(*next);
    }
    // Stale cached structure: drop the whole cached path and retry fresh.
    if (cache_ != nullptr) {
      cache_->Erase(kRootId);
      for (uint64_t id : *path) cache_->Erase(id);
    }
  }
  return Status::InternalError("B+tree descent failed twice (corrupt tree?)");
}

Status BTree::SplitNode(store::StorageClient* client, Node& node,
                        const std::vector<uint64_t>& path) {
  size_t count = node.entries.size();
  TELL_CHECK(count >= 2);
  // Choose a split point that does not separate duplicates of one key
  // (duplicate keys must stay within one node's [low, high) range so that a
  // descent by key finds them all).
  size_t mid = count / 2;
  while (mid < count && node.entries[mid].key == node.entries[mid - 1].key) {
    ++mid;
  }
  if (mid == count) {
    mid = count / 2;
    while (mid > 1 && node.entries[mid].key == node.entries[mid - 1].key) {
      --mid;
    }
    if (mid <= 1) {
      // Every entry shares one key; the node cannot split — let it grow.
      return Status::NotSupported("node holds a single key; cannot split");
    }
  }
  const std::string split_key = node.entries[mid].key;

  if (node.id == kRootId) {
    // Root split: the root id must stay fixed, so both halves move to fresh
    // nodes and the root is rewritten in place as their parent.
    TELL_ASSIGN_OR_RETURN(uint64_t left_id, AllocateNodeId(client));
    TELL_ASSIGN_OR_RETURN(uint64_t right_id, AllocateNodeId(client));
    Node right;
    right.id = right_id;
    right.is_leaf = node.is_leaf;
    right.level = node.level;
    right.right_sibling = node.right_sibling;
    right.high_key = node.high_key;
    right.entries.assign(node.entries.begin() + static_cast<ptrdiff_t>(mid),
                         node.entries.end());
    Node left;
    left.id = left_id;
    left.is_leaf = node.is_leaf;
    left.level = node.level;
    left.right_sibling = right_id;
    left.high_key = split_key;
    left.entries.assign(node.entries.begin(),
                        node.entries.begin() + static_cast<ptrdiff_t>(mid));
    TELL_RETURN_NOT_OK(client
                           ->ConditionalPut(table_, NodeKey(right_id),
                                            store::kStampAbsent,
                                            right.Serialize())
                           .status());
    TELL_RETURN_NOT_OK(client
                           ->ConditionalPut(table_, NodeKey(left_id),
                                            store::kStampAbsent,
                                            left.Serialize())
                           .status());
    Node new_root;
    new_root.id = kRootId;
    new_root.is_leaf = false;
    new_root.level = node.level + 1;
    new_root.right_sibling = node.right_sibling;
    new_root.high_key = node.high_key;
    new_root.entries.push_back({"", left_id});
    new_root.entries.push_back({split_key, right_id});
    auto put = client->ConditionalPut(table_, NodeKey(kRootId), node.stamp,
                                      new_root.Serialize());
    if (cache_ != nullptr) cache_->Erase(kRootId);
    // On ConditionFailed another worker raced us; the two fresh nodes become
    // unreachable garbage, which is benign.
    return put.status();
  }

  TELL_ASSIGN_OR_RETURN(uint64_t right_id, AllocateNodeId(client));
  Node right;
  right.id = right_id;
  right.is_leaf = node.is_leaf;
  right.level = node.level;
  right.right_sibling = node.right_sibling;
  right.high_key = node.high_key;
  right.entries.assign(node.entries.begin() + static_cast<ptrdiff_t>(mid),
                       node.entries.end());
  // 1. Publish the right half under a fresh id.
  TELL_RETURN_NOT_OK(client
                         ->ConditionalPut(table_, NodeKey(right_id),
                                          store::kStampAbsent,
                                          right.Serialize())
                         .status());
  // 2. Shrink the left half in place (the LL/SC step that linearizes the
  //    split; on failure the right node is abandoned garbage).
  Node left = node;
  left.right_sibling = right_id;
  left.high_key = split_key;
  left.entries.resize(mid);
  auto put = client->ConditionalPut(table_, NodeKey(node.id), node.stamp,
                                    left.Serialize());
  if (cache_ != nullptr) cache_->Erase(node.id);
  TELL_RETURN_NOT_OK(put.status());
  // 3. Tell the parent. Best effort: even if this is lost (e.g. the PN
  //    crashes), traversals reach the right node via the sibling link.
  return InsertIntoParent(client, path, split_key, right_id, node.level + 1);
}

Status BTree::InsertIntoParent(store::StorageClient* client,
                               const std::vector<uint64_t>& path,
                               std::string_view separator, uint64_t right_id,
                               uint32_t target_level) {
  TELL_CHECK(!path.empty());
  uint64_t start_id = path.back();
  std::vector<uint64_t> grandparents(path.begin(), path.end() - 1);
  for (int retry = 0; retry < kMaxRetries; ++retry) {
    TELL_ASSIGN_OR_RETURN(Node parent, ReadNodeUncached(client, start_id));
    bool restart_from_root = false;
    // The remembered parent may meanwhile sit ABOVE the target level: the
    // fixed-id root is rewritten in place one level higher on a root split.
    // Descend by level until we are at the separator's parent level —
    // inserting at any other level would corrupt the tree.
    int hops = 0;
    while (true) {
      while (!parent.CoversKey(separator)) {
        if (parent.right_sibling == 0) {
          // A rightmost node always covers up to +inf; this cannot happen.
          return Status::InternalError("separator key out of parent range");
        }
        if (++hops > kMaxRightHops) {
          // A storm of concurrent splits moved the target far right of the
          // remembered ancestor; restart the search from the root, which
          // descends close to the target directly.
          restart_from_root = true;
          break;
        }
        TELL_ASSIGN_OR_RETURN(parent,
                              ReadNodeUncached(client, parent.right_sibling));
      }
      if (restart_from_root) break;
      if (parent.level == target_level) break;
      if (parent.level < target_level) {
        // The remembered ancestor is now BELOW the target (cannot happen —
        // levels only grow at the root); treat as fatal.
        return Status::InternalError("parent level below separator level");
      }
      uint64_t child = parent.ChildFor(separator);
      if (child == 0) {
        return Status::InternalError("no route to parent level");
      }
      TELL_ASSIGN_OR_RETURN(parent, ReadNodeUncached(client, child));
    }
    if (restart_from_root) {
      start_id = kRootId;
      continue;
    }
    // Already present (another worker completed this SMO for us)?
    for (const IndexEntry& e : parent.entries) {
      if (e.key == separator && e.rid == right_id) return Status::OK();
    }
    if (parent.entries.size() >= options_.fanout) {
      std::vector<uint64_t> parent_path =
          grandparents.empty() ? std::vector<uint64_t>{kRootId} : grandparents;
      Status split = SplitNode(client, parent, parent_path);
      if (!split.ok() && !split.IsConditionFailed() &&
          split.code() != StatusCode::kNotSupported) {
        return split;
      }
      continue;  // re-read and place the separator in the correct half
    }
    size_t pos = parent.PositionFor(separator, right_id);
    parent.entries.insert(parent.entries.begin() + static_cast<ptrdiff_t>(pos),
                          {std::string(separator), right_id});
    auto put = client->ConditionalPut(table_, NodeKey(parent.id), parent.stamp,
                                      parent.Serialize());
    if (cache_ != nullptr) cache_->Erase(parent.id);
    if (put.ok()) return Status::OK();
    if (!put.status().IsConditionFailed()) return put.status();
    // Lost the race; retry from a fresh read.
  }
  return Status::InternalError("parent insert retries exhausted");
}

Status BTree::Insert(store::StorageClient* client, std::string_view key,
                     uint64_t rid, bool unique) {
  for (int retry = 0; retry < kMaxRetries; ++retry) {
    std::vector<uint64_t> path;
    TELL_ASSIGN_OR_RETURN(Node leaf, DescendToLeaf(client, key, &path));
    if (unique) {
      for (const IndexEntry& e : leaf.entries) {
        if (e.key == key && e.rid != rid) {
          return Status::AlreadyExists("duplicate key in unique index");
        }
      }
    }
    size_t pos = leaf.PositionFor(key, rid);
    if (pos < leaf.entries.size() && leaf.entries[pos].key == key &&
        leaf.entries[pos].rid == rid) {
      return Status::OK();  // idempotent
    }
    if (leaf.entries.size() >= options_.fanout) {
      Status split = SplitNode(client, leaf, path);
      if (split.ok() || split.IsConditionFailed()) {
        continue;  // re-descend into the correct half
      }
      if (split.code() != StatusCode::kNotSupported) return split;
      // Unsplittable (all entries share one key): insert oversize below.
    }
    leaf.entries.insert(leaf.entries.begin() + static_cast<ptrdiff_t>(pos),
                        {std::string(key), rid});
    auto put = client->ConditionalPut(table_, NodeKey(leaf.id), leaf.stamp,
                                      leaf.Serialize());
    if (put.ok()) return Status::OK();
    if (!put.status().IsConditionFailed()) return put.status();
  }
  return Status::InternalError("B+tree insert retries exhausted");
}

Status BTree::Remove(store::StorageClient* client, std::string_view key,
                     uint64_t rid) {
  for (int retry = 0; retry < kMaxRetries; ++retry) {
    std::vector<uint64_t> path;
    TELL_ASSIGN_OR_RETURN(Node leaf, DescendToLeaf(client, key, &path));
    size_t pos = leaf.PositionFor(key, rid);
    if (pos >= leaf.entries.size() || leaf.entries[pos].key != key ||
        leaf.entries[pos].rid != rid) {
      return Status::OK();  // absent — idempotent
    }
    leaf.entries.erase(leaf.entries.begin() + static_cast<ptrdiff_t>(pos));
    auto put = client->ConditionalPut(table_, NodeKey(leaf.id), leaf.stamp,
                                      leaf.Serialize());
    if (put.ok()) return Status::OK();
    if (!put.status().IsConditionFailed()) return put.status();
  }
  return Status::InternalError("B+tree remove retries exhausted");
}

Result<std::vector<uint64_t>> BTree::LookupRids(store::StorageClient* client,
                                                std::string_view key) {
  std::vector<uint64_t> path;
  TELL_ASSIGN_OR_RETURN(Node leaf, DescendToLeaf(client, key, &path));
  std::vector<uint64_t> rids;
  for (const IndexEntry& e : leaf.entries) {
    if (e.key == key) rids.push_back(e.rid);
  }
  return rids;
}

Result<std::vector<uint64_t>> BTree::Lookup(store::StorageClient* client,
                                            std::string_view key) {
  client->metrics()->index_lookups += 1;
  return LookupRids(client, key);
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
  if (options_.cache_inner_nodes && cache_ != nullptr && !node.is_leaf) {
    cache_->Put(node.id, node.Serialize(), node.stamp);
  }
}

Status BTree::BatchDescendToLeaves(store::StorageClient* client,
                                   const std::vector<DescentKey>& keys,
                                   std::vector<NodeRef>* leaves,
                                   std::vector<size_t>* leaf_of_key) {
  leaves->clear();
  leaf_of_key->assign(keys.size(), kNoLeaf);
  if (keys.empty()) return Status::OK();

  // Every node this batch holds or requested, by (table, node id): node ids
  // restart at 1 in every tree. A requested node stays nullptr when its
  // fetch fails.
  using NodeId = std::pair<store::TableId, uint64_t>;
  struct Slot {
    NodeRef node;
    bool requested = false;  // in the current round's fetch
  };
  std::map<NodeId, Slot> nodes;
  // The nodes the current round fetches, in first-request order, and the
  // tree each belongs to.
  std::vector<NodeId> wanted;
  std::vector<BTree*> wanted_tree;
  // Makes the batch hold node `id` of `tree`: from the tree's cache when it
  // is an inner node there, else by requesting it for this round.
  auto want = [&](BTree* tree, const NodeId& id, bool inner) {
    auto [it, fresh] = nodes.try_emplace(id);
    if (!fresh) return;
    if (inner) it->second.node = tree->CachedInner(id.second);
    if (it->second.node != nullptr) return;
    it->second.requested = true;
    wanted.push_back(id);
    wanted_tree.push_back(tree);
  };

  // at[i]: the node key i stands on or waits for; nullopt once it reached
  // its leaf or dropped out of the batch (then it stays kNoLeaf).
  std::vector<std::optional<NodeId>> at(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    at[i] = NodeId{keys[i].tree->table_, kRootId};
    want(keys[i].tree, *at[i], /*inner=*/true);
  }
  std::map<NodeId, size_t> leaf_index;  // distinct leaves -> `leaves` index
  while (true) {
    // Walk every key down through the nodes the batch holds, until it
    // reaches its leaf or waits for a node of this round.
    for (size_t i = 0; i < keys.size(); ++i) {
      while (at[i].has_value()) {
        const Slot& slot = nodes[*at[i]];
        if (slot.requested) break;  // resumes after the round
        const NodeRef node = slot.node;
        if (node == nullptr || !node->CoversKey(keys[i].key)) {
          at[i].reset();  // failed fetch or stale path
          break;
        }
        if (node->is_leaf) {
          auto [it, fresh] = leaf_index.try_emplace(*at[i], leaves->size());
          if (fresh) leaves->push_back(node);
          (*leaf_of_key)[i] = it->second;
          at[i].reset();
          break;
        }
        const uint64_t child = node->ChildFor(keys[i].key);
        if (child == 0) {
          at[i].reset();  // stale path
          break;
        }
        at[i] = NodeId{at[i]->first, child};
        want(keys[i].tree, *at[i], /*inner=*/node->level > 1);
      }
    }
    if (wanted.empty()) break;

    // One round: every wanted node of every tree in one BatchGet. Inner
    // nodes enter their tree's cache. An unreadable root fails the call, as
    // it fails a single-key descent.
    std::vector<store::GetOp> gets;
    gets.reserve(wanted.size());
    for (const NodeId& id : wanted) {
      gets.push_back({id.first, NodeKey(id.second)});
    }
    std::vector<Result<store::VersionedCell>> cells = client->BatchGet(gets);
    for (size_t g = 0; g < cells.size(); ++g) {
      Slot& slot = nodes[wanted[g]];
      slot.requested = false;
      Result<Node> node =
          cells[g].ok() ? Node::Deserialize(wanted[g].second, cells[g]->stamp,
                                            cells[g]->value)
                        : Result<Node>(cells[g].status());
      if (!node.ok()) {
        if (wanted[g].second == kRootId) return node.status();
        continue;
      }
      wanted_tree[g]->CacheIfInner(*node);
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
  std::vector<std::vector<uint64_t>> out(keys.size());
  // A lone key has nothing to share a request with: the plain descent costs
  // the same.
  if (keys.size() == 1) {
    TELL_ASSIGN_OR_RETURN(out[0],
                          keys[0].tree->LookupRids(client, keys[0].key));
    return out;
  }

  std::vector<DescentKey> descents;
  descents.reserve(keys.size());
  for (const TreeKey& k : keys) descents.push_back({k.tree, k.key});
  std::vector<NodeRef> leaves;
  std::vector<size_t> leaf_of_key;
  TELL_RETURN_NOT_OK(
      BatchDescendToLeaves(client, descents, &leaves, &leaf_of_key));
  for (size_t i = 0; i < keys.size(); ++i) {
    if (leaf_of_key[i] == kNoLeaf) {
      TELL_ASSIGN_OR_RETURN(out[i],
                            keys[i].tree->LookupRids(client, keys[i].key));
      continue;
    }
    for (const IndexEntry& e : leaves[leaf_of_key[i]]->entries) {
      if (e.key == keys[i].key) out[i].push_back(e.rid);
    }
  }
  return out;
}

Status BTree::BatchInsert(store::StorageClient* client,
                          const std::vector<BatchInsertOp>& ops,
                          std::vector<bool>* inserted) {
  inserted->assign(ops.size(), false);
  auto serial = [&](size_t i) -> Status {
    const BatchInsertOp& op = ops[i];
    Status st = op.tree->Insert(client, op.key, op.rid, op.unique);
    if (st.ok()) (*inserted)[i] = true;
    return st;
  };
  if (ops.size() == 1) return serial(0);  // as for BatchLookup's lone key

  std::vector<DescentKey> descents;
  descents.reserve(ops.size());
  for (const BatchInsertOp& op : ops) descents.push_back({op.tree, op.key});
  std::vector<NodeRef> leaves;
  std::vector<size_t> leaf_of_key;
  TELL_RETURN_NOT_OK(
      BatchDescendToLeaves(client, descents, &leaves, &leaf_of_key));

  // Ops that need the serial Insert (stale path, full leaf, lost LL/SC).
  std::vector<size_t> fallback;
  // Leaf index -> op indices; the ops of one leaf share its tree.
  std::map<size_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (leaf_of_key[i] == kNoLeaf) {
      fallback.push_back(i);
    } else {
      groups[leaf_of_key[i]].push_back(i);
    }
  }

  // Prepare every leaf rewrite of every tree BEFORE issuing any put: a
  // unique violation must surface while there is still nothing to undo.
  std::vector<store::WriteOp> puts;
  std::vector<std::vector<size_t>> put_ops;  // op indices each put carries
  for (auto& [leaf_idx, op_indices] : groups) {
    const BTree* tree = ops[op_indices.front()].tree;
    Node copy = *leaves[leaf_idx];
    bool changed = false;
    std::vector<size_t> applied;
    for (size_t i : op_indices) {
      const BatchInsertOp& op = ops[i];
      if (op.unique) {
        for (const IndexEntry& e : copy.entries) {
          if (e.key == op.key && e.rid != op.rid) {
            return Status::AlreadyExists("duplicate key in unique index");
          }
        }
      }
      size_t pos = copy.PositionFor(op.key, op.rid);
      if (pos < copy.entries.size() && copy.entries[pos].key == op.key &&
          copy.entries[pos].rid == op.rid) {
        applied.push_back(i);  // already present — idempotent
        continue;
      }
      if (copy.entries.size() >= tree->options_.fanout) {
        // The leaf is full: the ops that no longer fit go to the serial
        // Insert, which owns the split machinery.
        fallback.push_back(i);
        continue;
      }
      copy.entries.insert(copy.entries.begin() + static_cast<ptrdiff_t>(pos),
                          {op.key, op.rid});
      applied.push_back(i);
      changed = true;
    }
    if (!changed) {
      for (size_t i : applied) (*inserted)[i] = true;
      continue;
    }
    puts.push_back(
        {tree->table_, NodeKey(copy.id), copy.Serialize(), copy.stamp});
    put_ops.push_back(std::move(applied));
  }

  // One conditional put per touched leaf, batched per storage node.
  std::vector<Result<uint64_t>> results = client->BatchWrite(puts);
  Status failure;
  for (size_t p = 0; p < results.size(); ++p) {
    if (results[p].ok()) {
      for (size_t i : put_ops[p]) (*inserted)[i] = true;
    } else if (results[p].status().IsConditionFailed()) {
      // Lost the LL/SC race on this leaf; re-run its ops serially (the
      // serial Insert re-descends, re-checks uniqueness and is idempotent).
      fallback.insert(fallback.end(), put_ops[p].begin(), put_ops[p].end());
    } else if (failure.ok()) {
      failure = results[p].status();
    }
  }
  if (!failure.ok()) return failure;

  std::sort(fallback.begin(), fallback.end());
  for (size_t i : fallback) TELL_RETURN_NOT_OK(serial(i));
  return Status::OK();
}

Result<std::vector<IndexEntry>> BTree::RangeScan(store::StorageClient* client,
                                                 std::string_view start,
                                                 std::string_view end,
                                                 size_t limit) {
  client->metrics()->index_lookups += 1;
  std::vector<uint64_t> path;
  TELL_ASSIGN_OR_RETURN(Node leaf, DescendToLeaf(client, start, &path));
  std::vector<IndexEntry> out;
  while (true) {
    for (const IndexEntry& e : leaf.entries) {
      if (e.key < start) continue;
      if (!end.empty() && e.key >= end) return out;
      out.push_back(e);
      if (limit != 0 && out.size() >= limit) return out;
    }
    if (leaf.right_sibling == 0) return out;
    if (!end.empty() && !leaf.high_key.empty() && leaf.high_key >= end) {
      return out;
    }
    TELL_ASSIGN_OR_RETURN(leaf, ReadNodeUncached(client, leaf.right_sibling));
  }
}

Result<uint32_t> BTree::Height(store::StorageClient* client) {
  uint32_t height = 1;
  TELL_ASSIGN_OR_RETURN(Node node, ReadNodeUncached(client, kRootId));
  while (!node.is_leaf) {
    TELL_CHECK(!node.entries.empty());
    TELL_ASSIGN_OR_RETURN(node,
                          ReadNodeUncached(client, node.entries.front().rid));
    ++height;
  }
  return height;
}

}  // namespace tell::index
