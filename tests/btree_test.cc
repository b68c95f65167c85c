#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "common/random.h"
#include "common/serde.h"
#include "index/btree.h"
#include "store/cluster.h"
#include "store/record_cache.h"
#include "tests/test_util.h"

namespace tell::index {
namespace {

/// Tree height (1 = the root is a leaf): the root's cell, node id 1, starts
/// with the varint level of the node, and a leaf is level 0.
Result<uint32_t> Height(store::StorageClient* client, const BTree& tree) {
  TELL_ASSIGN_OR_RETURN(store::VersionedCell root,
                        client->Get(tree.table(), tell::EncodeOrderedU64(1)));
  BufferReader reader(root.value);
  TELL_ASSIGN_OR_RETURN(uint64_t level, reader.GetVarint());
  return static_cast<uint32_t>(level + 1);
}

/// Removes the entry (key, rid) with a one-op BatchInsert.
Status Remove(store::StorageClient* client, BTree* tree, std::string key,
              uint64_t rid) {
  std::vector<bool> removed;
  return BTree::BatchInsert(
      client, {{tree, std::move(key), rid, /*unique=*/false, /*remove=*/true}},
      &removed);
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() {
    store::ClusterOptions cluster_options;
    cluster_options.num_storage_nodes = 3;
    cluster_ = std::make_unique<store::Cluster>(cluster_options);
    auto table = cluster_->CreateTable("idx");
    table_ = *table;
  }

  std::unique_ptr<store::StorageClient> MakeClient() {
    store::ClientOptions options;  // instant-ish network irrelevant here
    options.network = sim::NetworkModel::Instant();
    options.cpu.per_op_ns = 0;
    return MakeClient(options);
  }

  std::unique_ptr<store::StorageClient> MakeClient(
      const store::ClientOptions& options) {
    clocks_.push_back(std::make_unique<sim::VirtualClock>());
    metrics_.push_back(std::make_unique<sim::WorkerMetrics>());
    return std::make_unique<store::StorageClient>(
        cluster_.get(), nullptr, options, clocks_.back().get(),
        metrics_.back().get());
  }

  BTree MakeTree(uint32_t fanout = 8, bool cache = true) {
    BTreeOptions options;
    options.fanout = fanout;
    options.cache_inner_nodes = cache;
    return BTree(table_, options, &cache_);
  }

  /// A handle on the fixture's tree with its own inner-node cache, as
  /// another processing node holds it.
  BTree MakeTree(uint32_t fanout, NodeCache* node_cache) {
    BTreeOptions options;
    options.fanout = fanout;
    return BTree(table_, options, node_cache);
  }

  /// PN A creates the tree, inserts the even keys 0..78 (rid key / 2) and
  /// caches the inner nodes; then PN B inserts the odd keys 1..79 (rid
  /// 100 + key / 2) and splits nodes underneath A's cache.
  void SplitUnderneathCache(BTree* tree_a, BTree* tree_b) {
    auto client_a = MakeClient();
    auto client_b = MakeClient();
    ASSERT_OK(BTree::Create(client_a.get(), table_));
    for (uint64_t i = 0; i < 40; ++i) {
      ASSERT_OK(tree_a->Insert(client_a.get(), tell::EncodeOrderedU64(i * 2),
                               i, true));
    }
    ASSERT_OK(
        tree_a->Lookup(client_a.get(), tell::EncodeOrderedU64(10)).status());
    for (uint64_t i = 0; i < 40; ++i) {
      ASSERT_OK(tree_b->Insert(client_b.get(),
                               tell::EncodeOrderedU64(i * 2 + 1), 100 + i,
                               true));
    }
  }

  std::unique_ptr<store::Cluster> cluster_;
  std::vector<std::unique_ptr<sim::VirtualClock>> clocks_;
  std::vector<std::unique_ptr<sim::WorkerMetrics>> metrics_;
  NodeCache cache_;
  store::TableId table_;
};

TEST_F(BTreeTest, InsertAndLookup) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree();
  ASSERT_OK(tree.Insert(client.get(), "apple", 1, false));
  ASSERT_OK(tree.Insert(client.get(), "banana", 2, false));
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                       tree.Lookup(client.get(), "apple"));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], 1u);
  ASSERT_OK_AND_ASSIGN(rids, tree.Lookup(client.get(), "cherry"));
  EXPECT_TRUE(rids.empty());
}

TEST_F(BTreeTest, SplitsKeepAllKeysReachable) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree(/*fanout=*/4);
  constexpr int kKeys = 500;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_OK(tree.Insert(client.get(), tell::EncodeOrderedU64(i),
                          static_cast<uint64_t>(i + 1), true));
  }
  ASSERT_OK_AND_ASSIGN(uint32_t height, Height(client.get(), tree));
  EXPECT_GE(height, 3u);
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                         tree.Lookup(client.get(), tell::EncodeOrderedU64(i)));
    ASSERT_EQ(rids.size(), 1u) << "key " << i;
    EXPECT_EQ(rids[0], static_cast<uint64_t>(i + 1));
  }
}

TEST_F(BTreeTest, UniqueIndexRejectsDuplicateKey) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree();
  ASSERT_OK(tree.Insert(client.get(), "key", 1, true));
  EXPECT_TRUE(tree.Insert(client.get(), "key", 2, true).IsAlreadyExists());
  // Same (key, rid) is idempotent, not a violation.
  EXPECT_OK(tree.Insert(client.get(), "key", 1, true));
}

TEST_F(BTreeTest, NonUniqueIndexStoresDuplicates) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree();
  for (uint64_t rid = 1; rid <= 5; ++rid) {
    ASSERT_OK(tree.Insert(client.get(), "same", rid, false));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                       tree.Lookup(client.get(), "same"));
  EXPECT_EQ(rids.size(), 5u);
}

TEST_F(BTreeTest, RemoveDeletesOnlyThatEntry) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree();
  ASSERT_OK(tree.Insert(client.get(), "k", 1, false));
  ASSERT_OK(tree.Insert(client.get(), "k", 2, false));
  ASSERT_OK(Remove(client.get(), &tree, "k", 1));
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                       tree.Lookup(client.get(), "k"));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], 2u);
  // Removing an absent entry is a no-op.
  EXPECT_OK(Remove(client.get(), &tree, "k", 99));
}

TEST_F(BTreeTest, RangeScanOrderedAndBounded) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree(/*fanout=*/4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(tree.Insert(client.get(), tell::EncodeOrderedU64(i),
                          static_cast<uint64_t>(i), true));
  }
  ASSERT_OK_AND_ASSIGN(
      std::vector<IndexEntry> entries,
      tree.RangeScan(client.get(), tell::EncodeOrderedU64(10), tell::EncodeOrderedU64(20),
                     0));
  ASSERT_EQ(entries.size(), 10u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].rid, 10 + i);
  }
}

TEST_F(BTreeTest, RangeScanWithLimit) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree(/*fanout=*/4);
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(tree.Insert(client.get(), tell::EncodeOrderedU64(i),
                          static_cast<uint64_t>(i), true));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<IndexEntry> entries,
                       tree.RangeScan(client.get(), "", "", 7));
  EXPECT_EQ(entries.size(), 7u);
}

TEST_F(BTreeTest, ModelCheckAgainstStdMap) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree(/*fanout=*/6);
  std::set<std::pair<std::string, uint64_t>> model;
  Random rng(77);
  // Batches of 1 to 24 ops, 70% inserts: at fanout 6 many batches overflow
  // a leaf several times over, and a batch may insert and remove one entry.
  for (int batch = 0; batch < 400; ++batch) {
    std::vector<BatchInsertOp> ops(rng.Uniform(24) + 1);
    for (BatchInsertOp& op : ops) {
      op.tree = &tree;
      op.key = tell::EncodeOrderedU64(rng.Uniform(200));
      op.rid = rng.Uniform(10) + 1;
      op.remove = !rng.Bernoulli(0.7);
      if (op.remove) {
        model.erase({op.key, op.rid});
      } else {
        model.insert({op.key, op.rid});
      }
    }
    std::vector<bool> done;
    ASSERT_OK(BTree::BatchInsert(client.get(), ops, &done));
    ASSERT_EQ(done, std::vector<bool>(ops.size(), true)) << "batch " << batch;
  }
  // Full scan must equal the model.
  ASSERT_OK_AND_ASSIGN(std::vector<IndexEntry> entries,
                       tree.RangeScan(client.get(), "", "", 0));
  ASSERT_EQ(entries.size(), model.size());
  auto it = model.begin();
  for (const IndexEntry& entry : entries) {
    EXPECT_EQ(entry.key, it->first);
    EXPECT_EQ(entry.rid, it->second);
    ++it;
  }
  for (const auto& [key, rid] : model) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                         tree.Lookup(client.get(), key));
    EXPECT_EQ(std::count(rids.begin(), rids.end(), rid), 1);
  }
}

TEST_F(BTreeTest, ConcurrentInsertsAllSurvive) {
  auto setup_client = MakeClient();
  ASSERT_OK(BTree::Create(setup_client.get(), table_));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 300;
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<store::StorageClient>> clients;
  std::vector<std::unique_ptr<NodeCache>> caches;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(MakeClient());
    caches.push_back(std::make_unique<NodeCache>());
  }
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BTreeOptions options;
      options.fanout = 8;
      BTree tree(table_, options, caches[static_cast<size_t>(t)].get());
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t key = static_cast<uint64_t>(t) * kPerThread +
                       static_cast<uint64_t>(i);
        ASSERT_TRUE(
            tree.Insert(clients[static_cast<size_t>(t)].get(),
                        tell::EncodeOrderedU64(key), key + 1, true)
                .ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Verify every key from a fresh handle.
  BTree tree = MakeTree(/*fanout=*/8);
  auto client = MakeClient();
  for (uint64_t key = 0; key < kThreads * kPerThread; ++key) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                         tree.Lookup(client.get(), tell::EncodeOrderedU64(key)));
    ASSERT_EQ(rids.size(), 1u) << "key " << key;
    EXPECT_EQ(rids[0], key + 1);
  }
}

TEST_F(BTreeTest, ConcurrentBatchedSplitsAllSurvive) {
  // Eight PNs insert overlapping batches of 16 keys at fanout 8: every batch
  // overflows its leaves, so splits of all threads race on the same leaves
  // and parents, and lost LL/SC rounds retry as batches.
  auto setup_client = MakeClient();
  ASSERT_OK(BTree::Create(setup_client.get(), table_));
  constexpr int kThreads = 8;
  constexpr int kBatches = 20;
  constexpr uint64_t kBatchKeys = 16;
  // Thread t's batch b covers keys [start, start + 16) with start =
  // (b * 8 + t) * 8: neighbouring threads' batches overlap by half.
  auto key_of = [](int t, int b, uint64_t i) {
    return static_cast<uint64_t>((b * kThreads + t) * 8) + i;
  };
  std::vector<std::unique_ptr<store::StorageClient>> clients;
  std::vector<std::unique_ptr<NodeCache>> caches;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(MakeClient());
    caches.push_back(std::make_unique<NodeCache>());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BTreeOptions options;
      options.fanout = 8;
      BTree tree(table_, options, caches[static_cast<size_t>(t)].get());
      for (int b = 0; b < kBatches; ++b) {
        std::vector<BatchInsertOp> ops;
        for (uint64_t i = 0; i < kBatchKeys; ++i) {
          const uint64_t key = key_of(t, b, i);
          ops.push_back({&tree, tell::EncodeOrderedU64(key), key + 1, true});
        }
        std::vector<bool> inserted;
        ASSERT_TRUE(BTree::BatchInsert(clients[static_cast<size_t>(t)].get(),
                                       ops, &inserted)
                        .ok());
        ASSERT_EQ(inserted, std::vector<bool>(ops.size(), true));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Verify every key from a fresh handle, and that a full scan holds each
  // key exactly once.
  BTree tree = MakeTree(/*fanout=*/8);
  auto client = MakeClient();
  const uint64_t max_key = key_of(kThreads - 1, kBatches - 1, kBatchKeys);
  for (uint64_t key = 0; key < max_key; ++key) {
    ASSERT_OK_AND_ASSIGN(
        std::vector<uint64_t> rids,
        tree.Lookup(client.get(), tell::EncodeOrderedU64(key)));
    ASSERT_EQ(rids, std::vector<uint64_t>{key + 1}) << "key " << key;
  }
  ASSERT_OK_AND_ASSIGN(std::vector<IndexEntry> entries,
                       tree.RangeScan(client.get(), "", "", 0));
  EXPECT_EQ(entries.size(), max_key);
}

TEST_F(BTreeTest, StaleCacheRecoversAfterRemoteSplits) {
  NodeCache cache_a, cache_b;
  BTree tree_a = MakeTree(/*fanout=*/4, &cache_a);
  BTree tree_b = MakeTree(/*fanout=*/4, &cache_b);
  ASSERT_NO_FATAL_FAILURE(SplitUnderneathCache(&tree_a, &tree_b));
  // A's stale cache must still find everything (right-links + refresh).
  auto client_a = MakeClient();
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_OK_AND_ASSIGN(
        std::vector<uint64_t> rids,
        tree_a.Lookup(client_a.get(), tell::EncodeOrderedU64(i * 2 + 1)));
    ASSERT_EQ(rids.size(), 1u) << "key " << i * 2 + 1;
    EXPECT_EQ(rids[0], 100 + i);
  }
}

// Storage requests of StaleBatchFollowsRightLinksInSharedRounds' batch. A
// serial descent per stale key pays 10.
constexpr uint64_t kPinnedStaleBatchRequests = 5;

TEST_F(BTreeTest, StaleBatchFollowsRightLinksInSharedRounds) {
  NodeCache cache_a, cache_b;
  BTree tree_a = MakeTree(/*fanout=*/4, &cache_a);
  BTree tree_b = MakeTree(/*fanout=*/4, &cache_b);
  ASSERT_NO_FATAL_FAILURE(SplitUnderneathCache(&tree_a, &tree_b));
  // One batch of every odd key on A: the keys whose cached path went stale
  // hop right and restart inside the batch's shared rounds.
  std::vector<TreeKey> keys;
  for (uint64_t i = 0; i < 40; ++i) {
    keys.push_back({&tree_a, tell::EncodeOrderedU64(i * 2 + 1)});
  }
  auto client = MakeClient(store::ClientOptions{});
  sim::WorkerMetrics* metrics = metrics_.back().get();
  ASSERT_OK_AND_ASSIGN(std::vector<std::vector<uint64_t>> got,
                       BTree::BatchLookup(client.get(), keys));
  for (uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(got[i], std::vector<uint64_t>{100 + i}) << "key " << i * 2 + 1;
  }
  EXPECT_EQ(metrics->storage_requests, kPinnedStaleBatchRequests);
}

TEST_F(BTreeTest, StalePathRestartsFromTheRoot) {
  NodeCache cache_a, cache_b;
  BTree tree_a = MakeTree(/*fanout=*/4, &cache_a);
  BTree tree_b = MakeTree(/*fanout=*/4, &cache_b);
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  // A caches a two-level tree.
  for (uint64_t k = 0; k < 6; ++k) {
    ASSERT_OK(tree_a.Insert(client.get(), tell::EncodeOrderedU64(k), k, true));
  }
  // B appends keys on the right: the leaf A's cached root points to for
  // them heads a chain of right siblings far longer than the 64 hops a
  // descent may take.
  for (uint64_t k = 6; k < 406; ++k) {
    ASSERT_OK(tree_b.Insert(client.get(), tell::EncodeOrderedU64(k), k, true));
  }
  ASSERT_OK_AND_ASSIGN(uint32_t height, Height(client.get(), tree_b));
  // A's lookup reads the leaf its cached root names, hops right 64 times,
  // runs out of hops and restarts at the root, reading one node per level
  // from the store.
  sim::WorkerMetrics* metrics = metrics_.back().get();
  uint64_t rounds = metrics->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                       tree_a.Lookup(client.get(), tell::EncodeOrderedU64(405)));
  EXPECT_EQ(rids, std::vector<uint64_t>{405});
  EXPECT_EQ(metrics->pipeline_flushes - rounds, 1 + 64 + height);
  // The restart dropped A's stale root: the next lookup reads one node per
  // level and lands on the right leaf without a hop.
  rounds = metrics->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(rids,
                       tree_a.Lookup(client.get(), tell::EncodeOrderedU64(404)));
  EXPECT_EQ(rids, std::vector<uint64_t>{404});
  EXPECT_EQ(metrics->pipeline_flushes - rounds, height);
}

TEST_F(BTreeTest, CorruptNodeFailsCleanly) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree(/*fanout=*/8);
  // Six keys with a shared prefix in the root leaf, rid deltas of both
  // signs.
  auto key_of = [](uint64_t i) {
    return "customer/" + tell::EncodeOrderedU64(i);
  };
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_OK(tree.Insert(client.get(), key_of(i), 1000 - 3 * i, false));
  }
  // Stores `value` as node `id` and looks the first key up through a fresh
  // handle, whose descent reads every node from the store.
  auto lookup_with = [&](uint64_t id, const std::string& value) {
    EXPECT_OK(client->Write({.table = table_, .key = tell::EncodeOrderedU64(id),
                             .value = value, .conditional = false}).status());
    NodeCache fresh_cache;
    BTree fresh = MakeTree(/*fanout=*/8, &fresh_cache);
    return BTree::BatchLookup(client.get(), {{&fresh, key_of(0)}}).status();
  };
  auto expect_corrupt = [&](uint64_t id, const std::string& cell) {
    ASSERT_OK_AND_ASSIGN(store::VersionedCell intact,
                         client->Get(table_, tell::EncodeOrderedU64(id)));
    for (size_t len = 0; len < intact.value.size(); ++len) {
      const Status st = lookup_with(id, intact.value.substr(0, len));
      EXPECT_EQ(st.code(), StatusCode::kCorruption)
          << cell << " truncated to " << len << " bytes: " << st.ToString();
    }
    // Two leaf entries, the second claiming three shared bytes of a
    // two-byte key.
    BufferWriter writer;
    for (uint64_t header : {0, 0}) writer.PutVarint(header);
    writer.PutVarString("");
    writer.PutVarint(2);
    writer.PutVarint(0);
    writer.PutVarString("ab");
    writer.PutVarint(ZigZagEncode(1));
    writer.PutVarint(3);
    writer.PutVarString("c");
    writer.PutVarint(ZigZagEncode(1));
    const Status st = lookup_with(id, writer.Release());
    EXPECT_EQ(st.code(), StatusCode::kCorruption)
        << cell << " with an overlong shared prefix: " << st.ToString();
    EXPECT_OK(lookup_with(id, intact.value));
  };
  // The root while it is the only leaf, then a leaf below an inner root.
  expect_corrupt(/*id=*/1, "root leaf");
  for (uint64_t i = 6; i < 20; ++i) {
    ASSERT_OK(tree.Insert(client.get(), key_of(i), 1000 - 3 * i, false));
  }
  ASSERT_OK_AND_ASSIGN(uint32_t height, Height(client.get(), tree));
  ASSERT_EQ(height, 2u);
  // The left piece of the root's split took the first fresh id, the
  // smallest node id but the root's: the leaf of key 0.
  ASSERT_OK_AND_ASSIGN(std::vector<store::KeyCell> cells,
                       client->Scan(table_, "", ""));
  uint64_t leftmost = UINT64_MAX;
  for (const store::KeyCell& cell : cells) {
    const uint64_t id = tell::DecodeOrderedU64(cell.key);
    if (cell.key.size() == 8 && id != 1) leftmost = std::min(leftmost, id);
  }
  expect_corrupt(leftmost, "leftmost leaf");
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                       tree.Lookup(client.get(), key_of(19)));
  EXPECT_EQ(rids, std::vector<uint64_t>{1000 - 3 * 19});
}

TEST_F(BTreeTest, CachingReducesStorageRequests) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree cached = MakeTree(/*fanout=*/8, /*cache=*/true);
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_OK(cached.Insert(client.get(), tell::EncodeOrderedU64(i), i + 1, true));
  }
  auto measure = [&](BTree* tree) {
    auto c = MakeClient();
    uint64_t before = metrics_.back()->storage_requests;
    for (uint64_t i = 0; i < 200; ++i) {
      EXPECT_TRUE(tree->Lookup(c.get(), tell::EncodeOrderedU64(i)).ok());
    }
    return metrics_.back()->storage_requests - before;
  };
  NodeCache warm_cache;
  BTreeOptions with_cache;
  with_cache.fanout = 8;
  BTree tree_cached(table_, with_cache, &warm_cache);
  uint64_t cached_requests = measure(&tree_cached);

  BTreeOptions without;
  without.fanout = 8;
  without.cache_inner_nodes = false;
  BTree tree_uncached(table_, without, nullptr);
  uint64_t uncached_requests = measure(&tree_uncached);
  EXPECT_LT(cached_requests, uncached_requests);
}

// ---------------------------------------------------------------------------
// Batched descents and leaf writes. BatchLookup and BatchInsert take one
// batched descent whatever the client options; `batching` only decides how
// StorageClient::BatchGet / BatchWrite charge it.

/// Default (InfiniBand) client options with the batching knob set.
store::ClientOptions BatchingOptions(bool batching) {
  store::ClientOptions options;
  options.batching = batching;
  return options;
}

/// Creates the tree and serially inserts the even keys 0, 2, ..., 398 (rid =
/// key + 1). With fanout 8 every leaf but the rightmost ends up half full,
/// and the tree is four levels high.
void LoadEvenKeys(store::StorageClient* client, BTree* tree) {
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_OK(tree->Insert(client, tell::EncodeOrderedU64(2 * i), 2 * i + 1,
                           true));
  }
}

/// Present keys 32 apart: every one sits in a different leaf, since a leaf
/// holding two of them would hold the 15 even keys between them too.
std::vector<std::string> ProbeKeys() {
  std::vector<std::string> keys;
  for (uint64_t k = 0; k < 400; k += 32) {
    keys.push_back(tell::EncodeOrderedU64(k));
  }
  return keys;
}

/// `keys` as one tree's batch.
std::vector<TreeKey> OnTree(BTree* tree, const std::vector<std::string>& keys) {
  std::vector<TreeKey> out;
  for (const std::string& key : keys) out.push_back({tree, key});
  return out;
}

TEST_F(BTreeTest, BatchLookupBatchesDescentsWithoutPipelining) {
  auto loader = MakeClient();
  ASSERT_OK(BTree::Create(loader.get(), table_));
  BTree tree = MakeTree(/*fanout=*/8);
  LoadEvenKeys(loader.get(), &tree);
  std::vector<std::string> keys = ProbeKeys();
  keys.push_back(tell::EncodeOrderedU64(1001));  // absent
  auto client = MakeClient(BatchingOptions(/*batching=*/true));
  sim::WorkerMetrics* metrics = metrics_.back().get();
  // The expected rids come from the loaded content: key 2i holds rid
  // 2i + 1, and 1001 is absent.
  std::vector<std::vector<uint64_t>> expected;
  for (uint64_t k = 0; k < 400; k += 32) expected.push_back({k + 1});
  expected.push_back({});
  // Warm the inner-node cache, so the batch below reads only the leaves.
  ASSERT_OK(BTree::BatchLookup(client.get(), OnTree(&tree, keys)).status());
  ASSERT_OK_AND_ASSIGN(uint32_t height, Height(loader.get(), tree));
  ASSERT_EQ(height, 4u);
  uint64_t requests = metrics->storage_requests;
  ASSERT_OK_AND_ASSIGN(std::vector<std::vector<uint64_t>> got,
                       BTree::BatchLookup(client.get(), OnTree(&tree, keys)));
  EXPECT_EQ(got, expected);
  // One batched leaf fetch: at most one request per storage node.
  EXPECT_LE(metrics->storage_requests - requests, height);
  EXPECT_LT(metrics->storage_requests - requests, keys.size());
}

TEST_F(BTreeTest, BatchLookupWithoutBatchingPaysOneRequestPerKey) {
  auto loader = MakeClient();
  ASSERT_OK(BTree::Create(loader.get(), table_));
  BTree tree = MakeTree(/*fanout=*/8);
  LoadEvenKeys(loader.get(), &tree);
  const std::vector<std::string> keys = ProbeKeys();
  auto client = MakeClient(BatchingOptions(/*batching=*/false));
  sim::WorkerMetrics* metrics = metrics_.back().get();
  // Warm the inner-node cache, so only the leaves cost requests below.
  ASSERT_OK(BTree::BatchLookup(client.get(), OnTree(&tree, keys)).status());
  uint64_t requests = metrics->storage_requests;
  ASSERT_OK_AND_ASSIGN(std::vector<std::vector<uint64_t>> got,
                       BTree::BatchLookup(client.get(), OnTree(&tree, keys)));
  EXPECT_EQ(metrics->storage_requests - requests, keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(got[i].size(), 1u);
    EXPECT_EQ(got[i][0], 32 * i + 1);
  }
}

// Virtual time and requests of BatchCostsStayPinned, after the lookups and
// after the inserts (the client's clock and counters start at 0).
constexpr uint64_t kPinnedLookupNs = 28599;
constexpr uint64_t kPinnedLookupRequests = 9;
constexpr uint64_t kPinnedInsertNs = 62518;
constexpr uint64_t kPinnedInsertRequests = 18;

TEST_F(BTreeTest, BatchCostsStayPinned) {
  // On default options every descent level is one BatchGet and the leaf
  // puts are one BatchWrite, each a coalesced message per storage node.
  // The figures below pin that accounting.
  auto loader = MakeClient();
  ASSERT_OK(BTree::Create(loader.get(), table_));
  BTree loaded = MakeTree(/*fanout=*/8);
  LoadEvenKeys(loader.get(), &loaded);
  NodeCache cold_cache;
  BTreeOptions options;
  options.fanout = 8;
  BTree tree(table_, options, &cold_cache);
  auto client = MakeClient(store::ClientOptions{});
  sim::VirtualClock* clock = clocks_.back().get();
  sim::WorkerMetrics* metrics = metrics_.back().get();

  ASSERT_OK(
      BTree::BatchLookup(client.get(), OnTree(&tree, ProbeKeys())).status());
  EXPECT_EQ(clock->now_ns(), kPinnedLookupNs);
  EXPECT_EQ(metrics->storage_requests, kPinnedLookupRequests);

  // One odd key next to each probe: a fifth entry in a half-full leaf —
  // except for key 385, a ninth entry in the full rightmost leaf (the
  // eight keys 384..398), which splits it: after one id-block allocation
  // for the cold cache the fresh right node goes out, then one BatchWrite
  // carries the leaf puts and the shrink, and one more the parent put.
  std::vector<BatchInsertOp> ops;
  for (uint64_t k = 1; k < 400; k += 32) {
    ops.push_back({&tree, tell::EncodeOrderedU64(k), k + 1, true});
  }
  std::vector<bool> inserted;
  ASSERT_OK(BTree::BatchInsert(client.get(), ops, &inserted));
  EXPECT_EQ(inserted, std::vector<bool>(ops.size(), true));
  EXPECT_EQ(metrics->index_splits, 1u);
  EXPECT_EQ(clock->now_ns(), kPinnedInsertNs);
  EXPECT_EQ(metrics->storage_requests, kPinnedInsertRequests);
}

// ---------------------------------------------------------------------------
// Batches over several trees: the descents of all trees share their rounds
// and the leaf puts of all trees travel in one BatchWrite.

/// One more tree of the fixture's cluster: its own table and inner-node
/// cache, as every index of a table has.
struct ExtraTree {
  ExtraTree(store::Cluster* cluster, store::StorageClient* loader,
            const std::string& name) {
    table = *cluster->CreateTable(name);
    EXPECT_OK(BTree::Create(loader, table));
    BTreeOptions options;
    options.fanout = 8;
    tree = std::make_unique<BTree>(table, options, &cache);
  }
  NodeCache cache;
  store::TableId table;
  std::unique_ptr<BTree> tree;
};

/// A four-level tree, a two-level tree and a tree whose root is its only
/// leaf — node ids 1, 2, ... exist in all three — each looked up once, so
/// their inner nodes are cached.
class MultiTreeTest : public BTreeTest {
 protected:
  MultiTreeTest()
      : loader_(MakeClient()),
        tall_(cluster_.get(), loader_.get(), "tall"),
        short_(cluster_.get(), loader_.get(), "short"),
        flat_(cluster_.get(), loader_.get(), "flat") {
    LoadEvenKeys(loader_.get(), tall_.tree.get());
    for (uint64_t k = 0; k < 20; k += 2) {
      EXPECT_OK(short_.tree->Insert(loader_.get(), tell::EncodeOrderedU64(k),
                                    k + 1, true));
    }
    for (uint64_t k = 0; k < 6; k += 2) {
      EXPECT_OK(flat_.tree->Insert(loader_.get(), tell::EncodeOrderedU64(k),
                                   k + 1, true));
    }
    EXPECT_EQ(*Height(loader_.get(), *tall_.tree), 4u);
    EXPECT_EQ(*Height(loader_.get(), *short_.tree), 2u);
    EXPECT_EQ(*Height(loader_.get(), *flat_.tree), 1u);
    client_ = MakeClient(store::ClientOptions{});
    metrics_of_client_ = metrics_.back().get();
    for (const TreeKey& k : Keys()) {
      EXPECT_OK(k.tree->Lookup(client_.get(), k.key).status());
    }
  }

  /// Two keys of each tree (present, rid = key + 1), in different leaves
  /// where the tree has more than one. No leaf is full, so one more entry
  /// next to each key fits.
  std::vector<TreeKey> Keys() {
    return {{tall_.tree.get(), tell::EncodeOrderedU64(0)},
            {short_.tree.get(), tell::EncodeOrderedU64(0)},
            {flat_.tree.get(), tell::EncodeOrderedU64(0)},
            {tall_.tree.get(), tell::EncodeOrderedU64(320)},
            {short_.tree.get(), tell::EncodeOrderedU64(18)},
            {flat_.tree.get(), tell::EncodeOrderedU64(4)}};
  }

  /// Storage calls of the client that issued a message.
  uint64_t Calls() const { return metrics_of_client_->pipeline_flushes; }

  std::unique_ptr<store::StorageClient> loader_;
  ExtraTree tall_;
  ExtraTree short_;
  ExtraTree flat_;
  std::unique_ptr<store::StorageClient> client_;
  sim::WorkerMetrics* metrics_of_client_ = nullptr;
};

TEST_F(MultiTreeTest, WarmLookupAcrossTreesCostsOneCall) {
  const std::vector<TreeKey> keys = Keys();
  const uint64_t before = Calls();
  ASSERT_OK_AND_ASSIGN(std::vector<std::vector<uint64_t>> got,
                       BTree::BatchLookup(client_.get(), keys));
  // Every leaf of every tree in one BatchGet, the flat tree's root included.
  EXPECT_EQ(Calls() - before, 1u);
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t key = tell::DecodeOrderedU64(keys[i].key);
    EXPECT_EQ(got[i], std::vector<uint64_t>{key + 1}) << "key " << i;
  }
}

TEST_F(MultiTreeTest, CrossTreeBatchInsertCostsTwoCalls) {
  std::vector<BatchInsertOp> ops;
  for (const TreeKey& k : Keys()) {
    const uint64_t key = tell::DecodeOrderedU64(k.key) + 1;  // odd: absent
    ops.push_back({k.tree, tell::EncodeOrderedU64(key), key + 100, true});
  }
  const uint64_t before = Calls();
  std::vector<bool> inserted;
  ASSERT_OK(BTree::BatchInsert(client_.get(), ops, &inserted));
  // One descent round for the leaves of all trees, one BatchWrite.
  EXPECT_EQ(Calls() - before, 2u);
  EXPECT_EQ(inserted, std::vector<bool>(ops.size(), true));
  for (const BatchInsertOp& op : ops) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                         op.tree->Lookup(loader_.get(), op.key));
    EXPECT_EQ(rids, std::vector<uint64_t>{op.rid});
  }
}

TEST_F(MultiTreeTest, UniqueViolationInOneTreeInsertsNothingInAnyTree) {
  std::vector<BatchInsertOp> ops = {
      {tall_.tree.get(), tell::EncodeOrderedU64(1), 2, true},
      {short_.tree.get(), tell::EncodeOrderedU64(3), 4, true},
      // Key 2 holds rid 3 in the flat tree: a unique violation.
      {flat_.tree.get(), tell::EncodeOrderedU64(2), 99, true},
      {flat_.tree.get(), tell::EncodeOrderedU64(5), 6, true}};
  const uint64_t before = Calls();
  std::vector<bool> inserted;
  Status st = BTree::BatchInsert(client_.get(), ops, &inserted);
  EXPECT_TRUE(st.IsAlreadyExists()) << st.ToString();
  // The descent ran; no put was issued.
  EXPECT_EQ(Calls() - before, 1u);
  EXPECT_EQ(inserted, std::vector<bool>(ops.size(), false));
  for (const BatchInsertOp& op : ops) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                         op.tree->Lookup(loader_.get(), op.key));
    EXPECT_EQ(std::count(rids.begin(), rids.end(), op.rid), 0)
        << "an entry landed in table " << op.tree->table();
  }
}

TEST_F(BTreeTest, LostLlscOnOneLeafRetriesOnlyItsOps) {
  // One storage node with one partition per table, and a record cache: the
  // client's cached copy of one leaf goes stale while lease epochs are
  // frozen, so its batched put loses the LL/SC race. The other puts of the
  // batch succeed — one of them into the stale leaf's table, which bumps
  // the table's lease epoch, so the serial retry re-reads that leaf.
  store::ClusterOptions cluster_options;
  cluster_options.num_storage_nodes = 1;
  cluster_options.partitions_per_node = 1;
  store::Cluster cluster(cluster_options);
  store::ClientOptions plain;
  plain.network = sim::NetworkModel::Instant();
  sim::VirtualClock loader_clock;
  sim::WorkerMetrics loader_metrics;
  store::StorageClient loader(&cluster, nullptr, plain, &loader_clock,
                              &loader_metrics);
  ExtraTree x(&cluster, &loader, "x");
  ExtraTree y(&cluster, &loader, "y");
  LoadEvenKeys(&loader, x.tree.get());
  LoadEvenKeys(&loader, y.tree.get());

  store::RecordCacheOptions cache_options;
  cache_options.enabled = true;
  store::RecordCache record_cache(cache_options);
  store::ClientOptions cached = plain;
  cached.record_cache = &record_cache;
  sim::VirtualClock clock;
  sim::WorkerMetrics metrics;
  store::StorageClient client(&cluster, nullptr, cached, &clock, &metrics);
  // Warm the inner-node caches and cache the three leaves.
  ASSERT_OK(BTree::BatchLookup(&client,
                               {{x.tree.get(), tell::EncodeOrderedU64(0)},
                                {x.tree.get(), tell::EncodeOrderedU64(64)},
                                {y.tree.get(), tell::EncodeOrderedU64(0)}})
                .status());
  cluster.lease_epochs().set_frozen_for_testing(true);
  ASSERT_OK(x.tree->Insert(&loader, tell::EncodeOrderedU64(3), 4, true));
  cluster.lease_epochs().set_frozen_for_testing(false);

  const std::vector<BatchInsertOp> ops = {
      {x.tree.get(), tell::EncodeOrderedU64(1), 2, true},    // stale leaf
      {x.tree.get(), tell::EncodeOrderedU64(65), 66, true},  // fresh leaf
      {y.tree.get(), tell::EncodeOrderedU64(1), 2, true}};   // other tree
  const uint64_t calls = metrics.pipeline_flushes;
  std::vector<bool> inserted;
  ASSERT_OK(BTree::BatchInsert(&client, ops, &inserted));
  EXPECT_EQ(inserted, std::vector<bool>(ops.size(), true));
  EXPECT_EQ(metrics.llsc_failures, 1u);
  // The descent is served from the caches; then the BatchWrite, and only
  // the stale leaf's op is retried: one leaf read and one put.
  EXPECT_EQ(metrics.pipeline_flushes - calls, 3u);
  for (uint64_t k : {1, 3, 65}) {
    ASSERT_OK_AND_ASSIGN(
        std::vector<uint64_t> rids,
        x.tree->Lookup(&loader, tell::EncodeOrderedU64(k)));
    EXPECT_EQ(rids, std::vector<uint64_t>{k + 1}) << "key " << k;
  }
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                       y.tree->Lookup(&loader, tell::EncodeOrderedU64(1)));
  EXPECT_EQ(rids, std::vector<uint64_t>{2});
}

// ---------------------------------------------------------------------------
// Batched splits. Counts are storage calls that issued a message; the
// fixture's client has an instant network, so every call is one round.

/// `n` ops inserting keys first, first + step, ... (rid = key + 1).
std::vector<BatchInsertOp> Ascending(BTree* tree, uint64_t first, uint64_t n,
                                     uint64_t step = 1) {
  std::vector<BatchInsertOp> ops;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t key = first + i * step;
    ops.push_back({tree, tell::EncodeOrderedU64(key), key + 1, true});
  }
  return ops;
}

/// Inserts `ops` in one batch; every op must land.
void InsertAll(store::StorageClient* client,
               const std::vector<BatchInsertOp>& ops) {
  std::vector<bool> inserted;
  ASSERT_OK(BTree::BatchInsert(client, ops, &inserted));
  ASSERT_EQ(inserted, std::vector<bool>(ops.size(), true));
}

/// Every key of [0, n) is found exactly once with rid = key + 1, and a full
/// scan holds nothing else.
void ExpectKeys(store::StorageClient* client, BTree* tree, uint64_t n) {
  for (uint64_t k = 0; k < n; ++k) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                         tree->Lookup(client, tell::EncodeOrderedU64(k)));
    ASSERT_EQ(rids, std::vector<uint64_t>{k + 1}) << "key " << k;
  }
  ASSERT_OK_AND_ASSIGN(std::vector<IndexEntry> entries,
                       tree->RangeScan(client, "", "", 0));
  EXPECT_EQ(entries.size(), n);
}

class BatchSplitTest : public BTreeTest {
 protected:
  BatchSplitTest()
      : client_(MakeClient()), metrics_of_client_(metrics_.back().get()) {
    EXPECT_OK(BTree::Create(client_.get(), table_));
  }

  uint64_t Calls() const { return metrics_of_client_->pipeline_flushes; }
  uint64_t Ops() const { return metrics_of_client_->storage_ops; }
  uint64_t Splits() const { return metrics_of_client_->index_splits; }

  /// Keys 0..9 one at a time: the root leaf splits on key 8 into [0..3] and
  /// [4..8], so the tree is two levels high with a cached root and a
  /// rightmost leaf of six keys (4..9).
  void LoadTen(BTree* tree) {
    for (uint64_t k = 0; k < 10; ++k) {
      ASSERT_OK(tree->Insert(client_.get(), tell::EncodeOrderedU64(k), k + 1,
                             true));
    }
    ASSERT_EQ(*Height(client_.get(), *tree), 2u);
  }

  std::unique_ptr<store::StorageClient> client_;
  sim::WorkerMetrics* metrics_of_client_;
};

TEST_F(BatchSplitTest, RootLeafOverflowSplitsInTheBatch) {
  // Keys 0..4 are in the root leaf; one batch brings 5..10, three more
  // than fit at fanout 8. The leaf is cut once, for all six entries.
  BTree tree = MakeTree(/*fanout=*/8);
  for (uint64_t k = 0; k < 5; ++k) {
    ASSERT_OK(tree.Insert(client_.get(), tell::EncodeOrderedU64(k), k + 1,
                          true));
  }
  const uint64_t calls = Calls();
  const uint64_t ops = Ops();
  InsertAll(client_.get(), Ascending(&tree, 5, 6));
  // The leaf read, the two fresh halves in one BatchWrite, then the root
  // rewritten in place as their parent. The id-block allocation is a fifth
  // op: an AtomicIncrement, which store.pipeline.flushes does not count.
  EXPECT_EQ(Calls() - calls, 3u);
  EXPECT_EQ(Ops() - ops, 5u);
  EXPECT_EQ(Splits(), 1u);
  ASSERT_OK_AND_ASSIGN(uint32_t height, Height(client_.get(), tree));
  EXPECT_EQ(height, 2u);
  ExpectKeys(client_.get(), &tree, 11);
}

TEST_F(BatchSplitTest, OverflowLargerThanALeafSplitsIntoManyNodes) {
  BTree tree = MakeTree(/*fanout=*/8);
  LoadTen(&tree);
  const uint64_t calls = Calls();
  const uint64_t ops = Ops();
  const uint64_t splits = Splits();
  // 20 keys join the six of the rightmost leaf: 26 entries make four
  // nodes of 6-7 entries, and the root takes three separators in one put.
  InsertAll(client_.get(), Ascending(&tree, 10, 20));
  // Leaf read; three fresh nodes in one BatchWrite; the shrink; the root.
  EXPECT_EQ(Calls() - calls, 4u);
  EXPECT_EQ(Ops() - ops, 6u);
  EXPECT_EQ(Splits() - splits, 1u);
  ASSERT_OK_AND_ASSIGN(uint32_t height, Height(client_.get(), tree));
  EXPECT_EQ(height, 2u);
  ExpectKeys(client_.get(), &tree, 30);
}

TEST_F(BatchSplitTest, RootSplitInsideABatch) {
  BTree tree = MakeTree(/*fanout=*/8);
  LoadTen(&tree);
  const uint64_t calls = Calls();
  const uint64_t splits = Splits();
  // 60 keys make the rightmost leaf nine nodes: eight separators overflow
  // the root, which splits in turn — its pieces go out fresh, and the
  // fixed-id root is rewritten last, one level higher.
  InsertAll(client_.get(), Ascending(&tree, 10, 60));
  // Leaf read; fresh leaves; shrink; fresh inner nodes; root rewrite.
  EXPECT_EQ(Calls() - calls, 5u);
  EXPECT_EQ(Splits() - splits, 2u);
  ASSERT_OK_AND_ASSIGN(uint32_t height, Height(client_.get(), tree));
  EXPECT_EQ(height, 3u);
  ExpectKeys(client_.get(), &tree, 70);
}

TEST_F(BatchSplitTest, ParentOverflowCascadesOneLevelUp) {
  BTree tree = MakeTree(/*fanout=*/8);
  LoadTen(&tree);
  InsertAll(client_.get(), Ascending(&tree, 10, 60));  // as above: height 3
  const uint64_t calls = Calls();
  const uint64_t splits = Splits();
  // 40 more keys cut the rightmost leaf into six nodes; their five
  // separators overflow the (non-root) parent, which splits and hands one
  // separator to the root.
  InsertAll(client_.get(), Ascending(&tree, 70, 40));
  // Leaf read; fresh leaves; leaf shrink; fresh parent piece; parent
  // shrink; root put.
  EXPECT_EQ(Calls() - calls, 6u);
  EXPECT_EQ(Splits() - splits, 2u);
  ASSERT_OK_AND_ASSIGN(uint32_t height, Height(client_.get(), tree));
  EXPECT_EQ(height, 3u);
  ExpectKeys(client_.get(), &tree, 110);
}

TEST_F(BatchSplitTest, SplitsOfTwoTreesShareTheirRounds) {
  ExtraTree x(cluster_.get(), client_.get(), "x");
  ExtraTree y(cluster_.get(), client_.get(), "y");
  LoadTen(x.tree.get());
  LoadTen(y.tree.get());
  std::vector<BatchInsertOp> ops = Ascending(x.tree.get(), 10, 20);
  for (BatchInsertOp& op : Ascending(y.tree.get(), 10, 20)) {
    ops.push_back(std::move(op));
  }
  const uint64_t calls = Calls();
  const uint64_t splits = Splits();
  InsertAll(client_.get(), ops);
  // Exactly the rounds of one tree's split: the leaves of both trees in
  // one BatchGet, the fresh nodes of both in one BatchWrite, both shrinks
  // in one, both roots in one.
  EXPECT_EQ(Calls() - calls, 4u);
  EXPECT_EQ(Splits() - splits, 2u);
  ExpectKeys(client_.get(), x.tree.get(), 30);
  ExpectKeys(client_.get(), y.tree.get(), 30);
}

TEST_F(BTreeTest, LostLlscOnASplitLeavesOnlyAnOrphanRightNode) {
  // As in LostLlscOnOneLeafRetriesOnlyItsOps: the client's cached copy of
  // one leaf goes stale while lease epochs are frozen. A batch that
  // overflows that leaf publishes its fresh right node, then loses the
  // shrink's LL/SC: the right node stays behind unreferenced, and the
  // retry splits the current leaf.
  store::ClusterOptions cluster_options;
  cluster_options.num_storage_nodes = 1;
  cluster_options.partitions_per_node = 1;
  store::Cluster cluster(cluster_options);
  store::ClientOptions plain;
  plain.network = sim::NetworkModel::Instant();
  sim::VirtualClock loader_clock;
  sim::WorkerMetrics loader_metrics;
  store::StorageClient loader(&cluster, nullptr, plain, &loader_clock,
                              &loader_metrics);
  ExtraTree x(&cluster, &loader, "x");
  // Keys 0, 100, ..., 1900: leaves of four keys 100 apart.
  for (uint64_t k = 0; k < 2000; k += 100) {
    ASSERT_OK(x.tree->Insert(&loader, tell::EncodeOrderedU64(k), k + 1, true));
  }
  auto node_cells = [&]() -> size_t {
    auto cells = loader.Scan(x.table, "", "");
    EXPECT_TRUE(cells.ok());
    return cells.ok() ? cells->size() : 0;
  };

  store::RecordCacheOptions cache_options;
  cache_options.enabled = true;
  store::RecordCache record_cache(cache_options);
  store::ClientOptions cached = plain;
  cached.record_cache = &record_cache;
  sim::VirtualClock clock;
  sim::WorkerMetrics metrics;
  store::StorageClient client(&cluster, nullptr, cached, &clock, &metrics);
  // Warm the inner-node cache and cache the first leaf (keys 0..300).
  ASSERT_OK(x.tree->Lookup(&client, tell::EncodeOrderedU64(0)).status());
  cluster.lease_epochs().set_frozen_for_testing(true);
  ASSERT_OK(x.tree->Insert(&loader, tell::EncodeOrderedU64(50), 51, true));
  cluster.lease_epochs().set_frozen_for_testing(false);

  const size_t cells_before = node_cells();
  const uint64_t calls = metrics.pipeline_flushes;
  // Ten keys into the stale leaf: 14 entries as the client sees it.
  const std::vector<BatchInsertOp> ops = Ascending(x.tree.get(), 1, 10);
  std::vector<bool> inserted;
  ASSERT_OK(BTree::BatchInsert(&client, ops, &inserted));
  EXPECT_EQ(inserted, std::vector<bool>(ops.size(), true));
  EXPECT_EQ(metrics.llsc_failures, 1u);
  EXPECT_EQ(metrics.index_splits, 1u);
  // Leaf from the record cache; fresh node; lost shrink. Retry: the leaf
  // read (the fresh node's put bumped the table's lease epoch), fresh
  // node, shrink, parent put.
  EXPECT_EQ(metrics.pipeline_flushes - calls, 6u);
  // Two fresh nodes were written; only the retry's is reachable.
  EXPECT_EQ(node_cells() - cells_before, 2u);
  ASSERT_OK_AND_ASSIGN(std::vector<IndexEntry> entries,
                       x.tree->RangeScan(&loader, "", "", 0));
  EXPECT_EQ(entries.size(), 20u + 1u + ops.size());
  for (uint64_t k : {1, 5, 10, 50}) {
    ASSERT_OK_AND_ASSIGN(
        std::vector<uint64_t> rids,
        x.tree->Lookup(&loader, tell::EncodeOrderedU64(k)));
    EXPECT_EQ(rids, std::vector<uint64_t>{k + 1}) << "key " << k;
  }
}

// ---------------------------------------------------------------------------
// Range descents: an unlimited scan fetches every leaf its cached inner
// nodes name for the range in the round of its first leaf, then follows
// the right links, and pays a round only for a link its leaves lack.

/// The entries of LoadEvenKeys in [start, end) (empty `end` = unbounded).
std::vector<std::pair<std::string, uint64_t>> EvenKeysIn(
    const std::map<std::string, uint64_t>& model, const std::string& start,
    const std::string& end) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (auto it = model.lower_bound(start);
       it != model.end() && (end.empty() || it->first < end); ++it) {
    out.push_back(*it);
  }
  return out;
}

std::vector<std::pair<std::string, uint64_t>> AsPairs(
    const std::vector<IndexEntry>& entries) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const IndexEntry& e : entries) out.emplace_back(e.key, e.rid);
  return out;
}

/// Five keys just above `k`, all below k + 1 (`tag` tells batches of them
/// apart): inserted into the half-full leaf of LoadEvenKeys that holds k,
/// they make it nine entries, which splits it into exactly two leaves.
std::vector<std::string> FiveKeysAbove(uint64_t k,
                                       const std::string& tag = "") {
  std::vector<std::string> keys;
  for (char c = 'a'; c < 'f'; ++c) {
    keys.push_back(tell::EncodeOrderedU64(k) + tag + c);
  }
  return keys;
}

class RangeDescentTest : public BTreeTest {
 protected:
  /// Loads the even keys 0..398 through `loader_tree` (fanout 8: leaves
  /// of four keys, eight apart, under a four-level tree) into the model.
  void Load(BTree* loader_tree) {
    auto loader = MakeClient();
    ASSERT_OK(BTree::Create(loader.get(), table_));
    LoadEvenKeys(loader.get(), loader_tree);
    for (uint64_t k = 0; k < 400; k += 2) {
      model_[tell::EncodeOrderedU64(k)] = k + 1;
    }
  }

  std::map<std::string, uint64_t> model_;
};

TEST_F(RangeDescentTest, WarmRangeOverManyParentsCostsOneCall) {
  NodeCache cache_a;
  BTree tree = MakeTree(/*fanout=*/8, &cache_a);
  ASSERT_NO_FATAL_FAILURE(Load(&tree));
  auto client = MakeClient(store::ClientOptions{});
  sim::WorkerMetrics* metrics = metrics_.back().get();
  // Ranges [start, end) of keys, end 400 = unbounded. A level-1 node holds
  // at most eight leaves of at most eight keys, so each spans several
  // level-1 parents.
  const std::vector<std::pair<uint64_t, uint64_t>> ranges = {
      {0, 400}, {21, 300}, {150, 400}};
  // LoadEvenKeys' leaf j < 48 holds the keys 8j..8j+6, the rightmost one
  // 384..398.
  auto leaf_of = [](uint64_t k) { return std::min<uint64_t>(k / 8, 48); };
  // The first scan warms every inner node of the tree.
  ASSERT_OK(tree.RangeScan(client.get(), "", "", 0).status());
  for (const auto& [from, to] : ranges) {
    const std::string start = tell::EncodeOrderedU64(from);
    const std::string end = to == 400 ? "" : tell::EncodeOrderedU64(to);
    const uint64_t calls = metrics->pipeline_flushes;
    const uint64_t ops = metrics->storage_ops;
    const uint64_t hops = metrics->index_scan_hop_leaves;
    ASSERT_OK_AND_ASSIGN(std::vector<IndexEntry> entries,
                         tree.RangeScan(client.get(), start, end, 0));
    EXPECT_EQ(AsPairs(entries), EvenKeysIn(model_, start, end));
    EXPECT_GT(entries.size(), 64u);
    EXPECT_EQ(metrics->pipeline_flushes - calls, 1u);
    // Exactly the leaves the range meets.
    EXPECT_EQ(metrics->storage_ops - ops, leaf_of(to - 1) - leaf_of(from) + 1);
    EXPECT_EQ(metrics->index_scan_hop_leaves - hops, 0u);
  }
}

TEST_F(RangeDescentTest, RangesOfTwoTreesWithTheSameLeafIdsStayApart) {
  // A second tree of the same shape: node ids restart at 1 in every tree,
  // so its leaves carry the first tree's leaf ids, with other rids.
  NodeCache cache_b;
  BTree tree_a = MakeTree(/*fanout=*/8);
  ASSERT_NO_FATAL_FAILURE(Load(&tree_a));
  ASSERT_OK_AND_ASSIGN(store::TableId table_b, cluster_->CreateTable("idx2"));
  BTree tree_b(table_b, BTreeOptions{.fanout = 8}, &cache_b);
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_b));
  std::map<std::string, uint64_t> model_b;
  for (uint64_t k = 0; k < 400; k += 2) {
    const std::string key = tell::EncodeOrderedU64(k);
    ASSERT_OK(tree_b.Insert(client.get(), key, 5000 + k, true));
    model_b[key] = 5000 + k;
  }
  // Warm both caches, then scan overlapping ranges of both in one call.
  ASSERT_OK(tree_a.RangeScan(client.get(), "", "", 0).status());
  ASSERT_OK(tree_b.RangeScan(client.get(), "", "", 0).status());
  ScanCursor a, b;
  a.tree = &tree_a;
  a.start = tell::EncodeOrderedU64(21);
  a.end = tell::EncodeOrderedU64(300);
  b.tree = &tree_b;
  b.start = tell::EncodeOrderedU64(150);
  ASSERT_OK(BTree::BatchScan(client.get(), {&a, &b}));
  EXPECT_EQ(AsPairs(a.entries), EvenKeysIn(model_, a.start, a.end));
  EXPECT_EQ(AsPairs(b.entries), EvenKeysIn(model_b, b.start, b.end));
}

TEST_F(RangeDescentTest, LeavesSplitUnderACachedParentCostOneRoundEach) {
  NodeCache cache_a, cache_b;
  BTree tree_a = MakeTree(/*fanout=*/8, &cache_a);
  BTree tree_b = MakeTree(/*fanout=*/8, &cache_b);
  ASSERT_NO_FATAL_FAILURE(Load(&tree_a));
  auto client_a = MakeClient(store::ClientOptions{});
  sim::WorkerMetrics* metrics = metrics_.back().get();
  ASSERT_OK(tree_a.RangeScan(client_a.get(), "", "", 0).status());
  // B splits three leaves that are not neighbours, each into two, so A's
  // cached parents lack three links of the chain.
  auto client_b = MakeClient();
  std::vector<BatchInsertOp> ops;
  for (uint64_t k : {24, 80, 200}) {
    for (std::string& key : FiveKeysAbove(k)) {
      model_[key] = 1000 + k;
      ops.push_back({&tree_b, std::move(key), 1000 + k, true});
    }
  }
  std::vector<bool> inserted;
  ASSERT_OK(BTree::BatchInsert(client_b.get(), ops, &inserted));
  EXPECT_EQ(metrics_.back()->index_splits, 3u);

  const uint64_t calls = metrics->pipeline_flushes;
  const uint64_t hops = metrics->index_scan_hop_leaves;
  ASSERT_OK_AND_ASSIGN(std::vector<IndexEntry> entries,
                       tree_a.RangeScan(client_a.get(), "", "", 0));
  EXPECT_EQ(AsPairs(entries), EvenKeysIn(model_, "", ""));
  EXPECT_EQ(metrics->pipeline_flushes - calls, 1u + 3u);
  EXPECT_EQ(metrics->index_scan_hop_leaves - hops, 3u);
}

TEST_F(RangeDescentTest, LimitedScanReadsOneLeafPerRound) {
  BTree tree = MakeTree(/*fanout=*/8);
  ASSERT_NO_FATAL_FAILURE(Load(&tree));
  auto client = MakeClient(store::ClientOptions{});
  sim::WorkerMetrics* metrics = metrics_.back().get();
  ASSERT_OK(tree.RangeScan(client.get(), "", "", 0).status());
  // Limit 1: the start leaf alone.
  uint64_t calls = metrics->pipeline_flushes;
  uint64_t ops = metrics->storage_ops;
  ASSERT_OK_AND_ASSIGN(
      std::vector<IndexEntry> entries,
      tree.RangeScan(client.get(), tell::EncodeOrderedU64(100), "", 1));
  EXPECT_EQ(AsPairs(entries),
            (std::vector<std::pair<std::string, uint64_t>>{
                {tell::EncodeOrderedU64(100), 101}}));
  EXPECT_EQ(metrics->pipeline_flushes - calls, 1u);
  EXPECT_EQ(metrics->storage_ops - ops, 1u);
  // Limit 3 from the last key of a leaf (keys 96..102): its right sibling
  // in a round of its own.
  calls = metrics->pipeline_flushes;
  ops = metrics->storage_ops;
  const uint64_t hops = metrics->index_scan_hop_leaves;
  ASSERT_OK_AND_ASSIGN(
      entries,
      tree.RangeScan(client.get(), tell::EncodeOrderedU64(102), "", 3));
  EXPECT_EQ(entries.size(), 3u);
  EXPECT_EQ(metrics->pipeline_flushes - calls, 2u);
  EXPECT_EQ(metrics->storage_ops - ops, 2u);
  EXPECT_EQ(metrics->index_scan_hop_leaves - hops, 1u);
}

TEST_F(RangeDescentTest, ScansDuringSplitsSeeEveryEarlierKeyOnce) {
  // Two writers split the leaves of the scanned range while two scanners,
  // whose cached parents go stale underneath them, scan it over and over.
  constexpr size_t kWriters = 2;
  constexpr size_t kScanners = 2;
  BTree loader_tree = MakeTree(/*fanout=*/8);
  ASSERT_NO_FATAL_FAILURE(Load(&loader_tree));
  const std::string start = tell::EncodeOrderedU64(40);
  const std::string end = tell::EncodeOrderedU64(360);
  const std::vector<std::pair<std::string, uint64_t>> before =
      EvenKeysIn(model_, start, end);
  std::vector<std::unique_ptr<store::StorageClient>> clients;
  std::vector<std::unique_ptr<NodeCache>> caches;
  std::vector<BTree> trees;
  for (size_t t = 0; t < kWriters + kScanners; ++t) {
    clients.push_back(MakeClient());
    caches.push_back(std::make_unique<NodeCache>());
    trees.push_back(MakeTree(/*fanout=*/8, caches.back().get()));
    ASSERT_OK(
        trees.back().RangeScan(clients.back().get(), "", "", 0).status());
  }
  std::atomic<bool> go{false};
  std::atomic<size_t> writers_left{kWriters};
  std::vector<std::string> failures(kWriters + kScanners);
  std::vector<int> scans(kScanners, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      while (!go) std::this_thread::yield();
      // Writer t puts five keys above every eighth key of the range from
      // 40 + 4t, one batch per key, in four passes: the batches split
      // leaves the scanners' cached parents do not know.
      for (char pass = 'a'; pass < 'e' && failures[t].empty(); ++pass) {
        for (uint64_t k = 40 + 4 * t; k < 360; k += 8) {
          std::vector<BatchInsertOp> ops;
          for (std::string& key : FiveKeysAbove(k, std::string(1, pass))) {
            ops.push_back({&trees[t], std::move(key), k, true});
          }
          std::vector<bool> inserted;
          Status st = BTree::BatchInsert(clients[t].get(), ops, &inserted);
          if (!st.ok()) {
            failures[t] = st.ToString();
            break;
          }
        }
      }
      --writers_left;
    });
  }
  for (size_t s = 0; s < kScanners; ++s) {
    const size_t t = kWriters + s;
    threads.emplace_back([&, s, t] {
      while (!go) std::this_thread::yield();
      do {
        auto entries = trees[t].RangeScan(clients[t].get(), start, end, 0);
        if (!entries.ok()) {
          failures[t] = entries.status().ToString();
          return;
        }
        ++scans[s];
        std::vector<std::pair<std::string, uint64_t>> seen;
        for (size_t i = 0; i < entries->size(); ++i) {
          const IndexEntry& e = (*entries)[i];
          if (i > 0 && !((*entries)[i - 1].key < e.key)) {
            failures[t] = "keys out of order at entry " + std::to_string(i);
            return;
          }
          if (model_.count(e.key) > 0) seen.emplace_back(e.key, e.rid);
        }
        if (seen != before) {
          failures[t] = "scan " + std::to_string(scans[s]) + " saw " +
                        std::to_string(seen.size()) + " of the " +
                        std::to_string(before.size()) + " earlier keys";
          return;
        }
      } while (writers_left > 0);
    });
  }
  go = true;
  for (std::thread& thread : threads) thread.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  for (int n : scans) EXPECT_GT(n, 0);
}

}  // namespace
}  // namespace tell::index
