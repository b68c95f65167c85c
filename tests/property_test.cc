// Property-style parameterized sweeps over the core invariants:
// snapshot-descriptor algebra, ordered key encodings, versioned-record GC,
// B+tree equivalence under random workloads, and serializable-history
// checks for concurrent counter increments.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <string>
#include <thread>

#include "common/random.h"
#include "common/serde.h"
#include "commitmgr/snapshot_descriptor.h"
#include "db/tell_db.h"
#include "index/btree.h"
#include "schema/versioned_record.h"
#include "tests/test_util.h"

namespace tell {
namespace {

// ---------------------------------------------------------------------------
// SnapshotDescriptor algebra under random completion orders

class SnapshotPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotPropertyTest, BaseEqualsContiguousPrefixForAnyOrder) {
  Random rng(GetParam());
  constexpr commitmgr::Tid kMax = 200;
  std::vector<commitmgr::Tid> tids;
  for (commitmgr::Tid t = 1; t <= kMax; ++t) tids.push_back(t);
  for (size_t i = tids.size(); i > 1; --i) {
    std::swap(tids[i - 1], tids[rng.Uniform(i)]);
  }
  commitmgr::SnapshotDescriptor snapshot;
  std::set<commitmgr::Tid> completed;
  for (commitmgr::Tid tid : tids) {
    snapshot.MarkCompleted(tid);
    completed.insert(tid);
    // Invariant: base = length of the contiguous completed prefix.
    commitmgr::Tid expected_base = 0;
    while (completed.count(expected_base + 1)) ++expected_base;
    ASSERT_EQ(snapshot.base(), expected_base);
    // Invariant: CanRead(t) == t completed, for every t.
    for (commitmgr::Tid t = 1; t <= kMax; ++t) {
      ASSERT_EQ(snapshot.CanRead(t), completed.count(t) > 0) << "tid " << t;
    }
  }
  EXPECT_EQ(snapshot.base(), kMax);
}

TEST_P(SnapshotPropertyTest, SerializeRoundTripAnyState) {
  Random rng(GetParam() * 31 + 7);
  commitmgr::SnapshotDescriptor snapshot;
  for (int i = 0; i < 300; ++i) {
    snapshot.MarkCompleted(1 + rng.Uniform(500));
  }
  ASSERT_OK_AND_ASSIGN(commitmgr::SnapshotDescriptor copy,
                       commitmgr::SnapshotDescriptor::Deserialize(
                           snapshot.Serialize()));
  EXPECT_TRUE(copy == snapshot);
}

TEST_P(SnapshotPropertyTest, MergeIsUnionAndMonotone) {
  Random rng(GetParam() * 97 + 3);
  commitmgr::SnapshotDescriptor a, b;
  std::set<commitmgr::Tid> set_a, set_b;
  for (int i = 0; i < 150; ++i) {
    commitmgr::Tid tid = 1 + rng.Uniform(300);
    if (rng.Bernoulli(0.5)) {
      a.MarkCompleted(tid);
      set_a.insert(tid);
    } else {
      b.MarkCompleted(tid);
      set_b.insert(tid);
    }
  }
  // Record what each side can read pre-merge.
  commitmgr::SnapshotDescriptor merged = a;
  merged.MergeFrom(b);
  for (commitmgr::Tid t = 1; t <= 300; ++t) {
    bool expected = a.CanRead(t) || b.CanRead(t);
    ASSERT_EQ(merged.CanRead(t), expected) << "tid " << t;
  }
  // Both inputs are subsets of the merge.
  EXPECT_TRUE(a.IsSubsetOf(merged));
  EXPECT_TRUE(b.IsSubsetOf(merged));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Ordered key encoding: byte order == value order, for random tuples

class KeyOrderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyOrderPropertyTest, CompositeKeyOrderMatchesValueOrder) {
  Random rng(GetParam());
  auto random_values = [&]() {
    std::vector<schema::Value> values;
    values.push_back(schema::Value(rng.UniformInt(-1000, 1000)));
    values.push_back(schema::Value(rng.AlphaString(0, 6)));
    values.push_back(
        schema::Value(static_cast<double>(rng.UniformInt(-500, 500)) / 7.0));
    return values;
  };
  auto compare_values = [](const std::vector<schema::Value>& a,
                           const std::vector<schema::Value>& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = schema::CompareValues(a[i], b[i]);
      if (c != 0) return c;
    }
    return 0;
  };
  for (int trial = 0; trial < 500; ++trial) {
    auto a = random_values();
    auto b = random_values();
    ASSERT_OK_AND_ASSIGN(std::string ka, schema::EncodeIndexKeyValues(a));
    ASSERT_OK_AND_ASSIGN(std::string kb, schema::EncodeIndexKeyValues(b));
    int value_order = compare_values(a, b);
    int key_order = ka.compare(kb);
    ASSERT_EQ(value_order < 0, key_order < 0);
    ASSERT_EQ(value_order == 0, key_order == 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyOrderPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// VersionedRecord GC safety: GC never removes a version some snapshot with
// base >= lav could need.

class GcPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GcPropertyTest, GcPreservesVisibilityForAllFutureSnapshots) {
  Random rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    schema::VersionedRecord record;
    std::vector<commitmgr::Tid> versions;
    commitmgr::Tid v = 0;
    int count = 1 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < count; ++i) {
      v += 1 + rng.Uniform(20);
      record.PutVersion(v, "v" + std::to_string(v));
      versions.push_back(v);
    }
    commitmgr::Tid lav = rng.Uniform(v + 10);
    schema::VersionedRecord collected = record;
    collected.CollectGarbage(lav);
    // Any transaction alive now has snapshot base >= lav; for every such
    // base the visible version must be identical before and after GC.
    for (commitmgr::Tid base = lav; base <= v + 5; ++base) {
      commitmgr::SnapshotDescriptor snapshot(base);
      const schema::RecordVersion* before = record.VisibleVersion(snapshot);
      const schema::RecordVersion* after = collected.VisibleVersion(snapshot);
      if (before == nullptr) {
        ASSERT_EQ(after, nullptr);
      } else {
        ASSERT_NE(after, nullptr) << "GC lost a visible version";
        ASSERT_EQ(before->version, after->version);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// B+tree equals std::multimap under random op sequences, across fanouts and
// key shapes

/// The key shapes of BTreePropertyTest: each maps a key number in [0, 120)
/// to a key, exercising the prefix coding of the node cells.
struct KeyShape {
  const char* name;
  std::string (*key)(uint64_t n);
};

const KeyShape kKeyShapes[] = {
    {"ordered_u64", [](uint64_t n) { return EncodeOrderedU64(n); }},
    // Long shared prefixes next to short and unshared ones.
    {"shared_and_unshared_prefixes",
     [](uint64_t n) {
       static const char* const kPrefixes[] = {"tenant/a/", "tenant/b/", "x",
                                               ""};
       return kPrefixes[n % 4] + EncodeOrderedU64(n / 4);
     }},
    // "", "a", "aa", ... "b", "bb", ...: each key a prefix of the next, and
    // the empty key reached from five numbers.
    {"prefixes_of_one_another_and_empty",
     [](uint64_t n) {
       return std::string(n % 24, static_cast<char>('a' + n / 24));
     }},
    // Six keys, each holding up to six rids: runs of duplicates that a cut
    // must not separate.
    {"duplicate_runs", [](uint64_t n) { return EncodeOrderedU64(n / 20); }},
    // Groups of eight keys sharing a long prefix, the groups sharing no
    // byte: a split's right piece often starts another group's prefix.
    {"prefix_changes_at_splits",
     [](uint64_t n) {
       return std::string(1, static_cast<char>('a' + n / 8)) +
              "/a-long-shared-middle/" + EncodeOrderedU64(n % 8);
     }},
};

class BTreePropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BTreePropertyTest, MatchesModelUnderRandomOps) {
  for (size_t shape = 0; shape < std::size(kKeyShapes); ++shape) {
    SCOPED_TRACE(kKeyShapes[shape].name);
    auto key_of = kKeyShapes[shape].key;
    store::ClusterOptions cluster_options;
    cluster_options.num_storage_nodes = 2;
    store::Cluster cluster(cluster_options);
    auto table = *cluster.CreateTable("idx");
    sim::VirtualClock clock;
    sim::WorkerMetrics metrics;
    store::ClientOptions client_options;
    client_options.network = sim::NetworkModel::Instant();
    client_options.cpu.per_op_ns = 0;
    store::StorageClient client(&cluster, nullptr, client_options, &clock,
                                &metrics);
    ASSERT_OK(index::BTree::Create(&client, table));
    index::BTreeOptions tree_options;
    tree_options.fanout = GetParam();
    // Two handles on the tree with their own inner-node caches, as two
    // processing nodes hold them: each one's splits leave the other's cache
    // stale.
    index::NodeCache caches[2];
    index::BTree trees[2] = {index::BTree(table, tree_options, &caches[0]),
                             index::BTree(table, tree_options, &caches[1])};

    std::multimap<std::string, uint64_t> model;
    Random rng(GetParam() * 1000 + 1 + shape * 7);
    for (int op = 0; op < 1500; ++op) {
      index::BTree& writer = trees[op % 2];
      std::string key = key_of(rng.Uniform(120));
      uint64_t rid = rng.Uniform(6) + 1;
      if (rng.Bernoulli(0.65)) {
        bool model_has = false;
        for (auto [it, end] = model.equal_range(key); it != end; ++it) {
          if (it->second == rid) model_has = true;
        }
        ASSERT_OK(writer.Insert(&client, key, rid, false));
        if (!model_has) model.emplace(key, rid);
      } else {
        std::vector<bool> removed;
        ASSERT_OK(index::BTree::BatchInsert(
            &client, {{&writer, key, rid, /*unique=*/false, /*remove=*/true}},
            &removed));
        for (auto [it, end] = model.equal_range(key); it != end; ++it) {
          if (it->second == rid) {
            model.erase(it);
            break;
          }
        }
      }
      if (op % 300 == 0) {
        // Spot-check one batched lookup of every probe key and a batched
        // two-cursor scan of the whole tree, through the other handle.
        index::BTree* reader = &trees[(op + 1) % 2];
        std::vector<index::TreeKey> probes;
        for (uint64_t probe = 0; probe < 120; probe += 17) {
          probes.push_back({reader, key_of(probe)});
        }
        ASSERT_OK_AND_ASSIGN(std::vector<std::vector<uint64_t>> rids,
                             index::BTree::BatchLookup(&client, probes));
        for (size_t p = 0; p < probes.size(); ++p) {
          std::vector<uint64_t> expected;
          for (auto [it, end] = model.equal_range(probes[p].key); it != end;
               ++it) {
            expected.push_back(it->second);
          }
          std::sort(expected.begin(), expected.end());
          std::sort(rids[p].begin(), rids[p].end());
          ASSERT_EQ(rids[p], expected) << "op " << op << " probe " << p;
        }
        const std::string middle = key_of(60);
        index::ScanCursor low;
        low.tree = reader;
        low.end = middle;
        index::ScanCursor high;
        high.tree = reader;
        high.start = middle;
        ASSERT_OK(index::BTree::BatchScan(&client, {&low, &high}));
        std::vector<std::pair<std::string, uint64_t>> scanned;
        for (const index::ScanCursor* cursor : {&low, &high}) {
          for (const index::IndexEntry& e : cursor->entries) {
            scanned.emplace_back(e.key, e.rid);
          }
        }
        std::vector<std::pair<std::string, uint64_t>> expected(model.begin(),
                                                               model.end());
        std::sort(expected.begin(), expected.end());
        ASSERT_EQ(scanned, expected) << "op " << op;
      }
    }
    ASSERT_OK_AND_ASSIGN(std::vector<index::IndexEntry> entries,
                         trees[0].RangeScan(&client, "", "", 0));
    ASSERT_EQ(entries.size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BTreePropertyTest,
                         ::testing::Values(4, 8, 16, 64));

// ---------------------------------------------------------------------------
// End-to-end SI invariant: concurrent increments never lose updates,
// across PN counts and buffer strategies.

struct SiSweepParam {
  uint32_t pns;
  db::BufferStrategy buffer;
};

class SiInvariantTest : public ::testing::TestWithParam<SiSweepParam> {};

TEST_P(SiInvariantTest, CommittedIncrementsAllVisible) {
  db::TellDbOptions options;
  options.num_processing_nodes = GetParam().pns;
  options.num_storage_nodes = 3;
  options.network = sim::NetworkModel::Instant();
  options.buffer_strategy = GetParam().buffer;
  db::TellDb db(options);
  ASSERT_OK(db.CreateTable("c",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .AddInt64("n")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {}));
  uint64_t rid;
  {
    auto session = db.OpenSession(0, 0);
    auto table = *db.GetTable(0, "c");
    tx::Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    schema::Tuple row(2);
    row.Set(0, int64_t{1});
    row.Set(1, int64_t{0});
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table, row));
    ASSERT_OK(txn.Commit());
  }
  constexpr int kPerWorker = 40;
  const uint32_t workers = GetParam().pns * 2;
  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      auto session = db.OpenSession(w % GetParam().pns, w + 1);
      tx::TableHandle* table = *db.GetTable(w % GetParam().pns, "c");
      int committed = 0;
      while (committed < kPerWorker) {
        tx::Transaction txn(session.get());
        ASSERT_TRUE(txn.Begin().ok());
        auto row = txn.Read(table, rid);
        ASSERT_TRUE(row.ok() && row->has_value());
        schema::Tuple updated = **row;
        updated.Set(1, updated.GetInt(1) + 1);
        Status st = txn.Update(table, rid, updated);
        if (st.ok()) st = txn.Commit();
        if (st.ok()) {
          ++committed;
        } else {
          ASSERT_TRUE(st.IsAborted()) << st.ToString();
          if (txn.state() == tx::TxnState::kRunning) (void)txn.Abort();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  auto session = db.OpenSession(0, 999);
  tx::TableHandle* table = *db.GetTable(0, "c");
  tx::Transaction check(session.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(auto row, check.Read(table, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetInt(1), static_cast<int64_t>(workers) * kPerWorker);
  ASSERT_OK(check.Commit());
}

// Read-only snapshots see every commit whole: one writer per PN sets two
// rows of different SBVS units to max + 1 in one transaction, and one reader
// per PN must always find them equal. A shared buffer that labels a copy
// valid for a snapshot which holds a newer write of it serves half a commit.
TEST_P(SiInvariantTest, ReadOnlySnapshotsSeeWholeCommits) {
  db::TellDbOptions options;
  options.num_processing_nodes = GetParam().pns;
  options.num_storage_nodes = 3;
  options.network = sim::NetworkModel::Instant();
  options.buffer_strategy = GetParam().buffer;
  options.buffer_unit_size = 4;
  db::TellDb db(options);
  ASSERT_OK(db.CreateTable("c",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .AddInt64("n")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {}));
  std::vector<uint64_t> rids;
  {
    auto session = db.OpenSession(0, 0);
    auto table = *db.GetTable(0, "c");
    tx::Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    for (int64_t id = 0; id < 8; ++id) {
      schema::Tuple row(2);
      row.Set(0, id);
      row.Set(1, int64_t{0});
      ASSERT_OK_AND_ASSIGN(uint64_t rid, txn.Insert(table, row));
      rids.push_back(rid);
    }
    ASSERT_OK(txn.Commit());
  }
  const uint64_t a = rids.front();
  const uint64_t b = rids.back();
  ASSERT_NE(a / options.buffer_unit_size, b / options.buffer_unit_size);
  constexpr int kReadsPerReader = 3000;
  std::atomic<uint32_t> readers_left{GetParam().pns};
  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  for (uint32_t pn = 0; pn < GetParam().pns; ++pn) {
    threads.emplace_back([&, pn] {
      auto session = db.OpenSession(pn, 2 * pn + 1);
      tx::TableHandle* table = *db.GetTable(pn, "c");
      while (readers_left.load() > 0) {
        tx::Transaction txn(session.get());
        ASSERT_TRUE(txn.Begin().ok());
        auto row_a = txn.Read(table, a);
        auto row_b = txn.Read(table, b);
        ASSERT_TRUE(row_a.ok() && row_a->has_value());
        ASSERT_TRUE(row_b.ok() && row_b->has_value());
        const int64_t next =
            std::max((*row_a)->GetInt(1), (*row_b)->GetInt(1)) + 1;
        schema::Tuple new_a = **row_a;
        schema::Tuple new_b = **row_b;
        new_a.Set(1, next);
        new_b.Set(1, next);
        Status st = txn.Update(table, a, new_a);
        if (st.ok()) st = txn.Update(table, b, new_b);
        if (st.ok()) st = txn.Commit();
        if (!st.ok()) {
          ASSERT_TRUE(st.IsAborted()) << st.ToString();
          if (txn.state() == tx::TxnState::kRunning) (void)txn.Abort();
        }
      }
    });
    threads.emplace_back([&, pn] {
      struct Done {
        std::atomic<uint32_t>* left;
        ~Done() { left->fetch_sub(1); }
      } done{&readers_left};
      auto session = db.OpenSession(pn, 2 * pn + 2);
      tx::TableHandle* table = *db.GetTable(pn, "c");
      for (int i = 0; i < kReadsPerReader; ++i) {
        tx::Transaction txn(session.get());
        ASSERT_TRUE(txn.Begin().ok());
        auto row_a = txn.Read(table, a);
        auto row_b = txn.Read(table, b);
        ASSERT_TRUE(row_a.ok() && row_a->has_value());
        ASSERT_TRUE(row_b.ok() && row_b->has_value());
        if ((*row_a)->GetInt(1) != (*row_b)->GetInt(1)) torn.fetch_add(1);
        ASSERT_TRUE(txn.Commit().ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(torn.load(), 0) << "of " << GetParam().pns * kReadsPerReader
                            << " reads";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SiInvariantTest,
    ::testing::Values(SiSweepParam{1, db::BufferStrategy::kTransactionOnly},
                      SiSweepParam{2, db::BufferStrategy::kTransactionOnly},
                      SiSweepParam{2, db::BufferStrategy::kSharedRecord},
                      SiSweepParam{2, db::BufferStrategy::kVersionSync}),
    [](const ::testing::TestParamInfo<SiSweepParam>& info) {
      std::string name = "pns" + std::to_string(info.param.pns);
      switch (info.param.buffer) {
        case db::BufferStrategy::kTransactionOnly: name += "_TB"; break;
        case db::BufferStrategy::kSharedRecord: name += "_SB"; break;
        case db::BufferStrategy::kVersionSync: name += "_SBVS"; break;
      }
      return name;
    });

}  // namespace
}  // namespace tell
