// Concurrency tests for the lock-striped storage-node engine (DESIGN.md
// "Storage engine"). These run REAL racing threads against one StorageNode —
// unlike the virtual-time suites, nothing here is deterministic, so the
// assertions are invariants that must hold under every interleaving:
// LL/SC atomicity, stamp monotonicity, scan snapshot consistency, and
// install/write isolation. The suite carries the `tsan` ctest label so the
// ThreadSanitizer preset exercises the stripe locking for data races.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "store/cluster.h"
#include "store/storage_node.h"
#include "tests/test_util.h"

namespace tell::store {
namespace {

constexpr TableId kTable = 1;
constexpr uint32_t kPart = 0;

int64_t DecodeInt(const std::string& value) {
  int64_t v = 0;
  if (value.size() == sizeof(int64_t)) {
    std::memcpy(&v, value.data(), sizeof(int64_t));
  }
  return v;
}

std::string EncodeInt(int64_t v) {
  std::string out(sizeof(int64_t), '\0');
  std::memcpy(out.data(), &v, sizeof(int64_t));
  return out;
}

/// LL/SC on ONE hot key from many threads implements an atomic counter:
/// each thread loads the cell, then store-conditionals value+1 with the
/// loaded stamp. If the stamp check and the write were not atomic inside
/// the stripe's exclusive section, two threads could both succeed from the
/// same base value and increments would be lost.
TEST(StoreStripesTest, RacingConditionalPutsSameKeyLoseNoIncrements) {
  StorageNode node(0, 64 << 20, /*stripes_per_partition=*/16);
  node.CreatePartition(kTable, kPart);
  ASSERT_OK(node.Write(kPart, {.table = kTable, .key = "hot",
                               .value = EncodeInt(0), .conditional = false})
      .status());

  constexpr int kThreads = 4;
  constexpr int kIterations = 400;
  std::atomic<int64_t> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        auto cell = node.Get(kTable, kPart, "hot");
        ASSERT_OK(cell.status());
        auto put = node.Write(
            kPart, {.table = kTable, .key = "hot",
                    .value = EncodeInt(DecodeInt(cell->value) + 1),
                    .expected_stamp = cell->stamp});
        if (put.ok()) {
          successes.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_TRUE(put.status().IsConditionFailed())
              << put.status().ToString();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  ASSERT_OK_AND_ASSIGN(VersionedCell final_cell, node.Get(kTable, kPart, "hot"));
  EXPECT_EQ(DecodeInt(final_cell.value), successes.load());
  EXPECT_GT(successes.load(), 0);
  // Every successful SC bumped the stamp exactly once (initial Put included).
  EXPECT_EQ(final_cell.stamp, static_cast<uint64_t>(successes.load()) + 1);
}

/// Disjoint keys land on (mostly) different stripes, so every thread's
/// own LL/SC chain must never fail: no other thread touches its key, and
/// stripe locking must not leak condition failures across keys.
TEST(StoreStripesTest, RacingConditionalPutsDisjointKeysNeverConflict) {
  StorageNode node(0, 64 << 20, /*stripes_per_partition=*/16);
  node.CreatePartition(kTable, kPart);

  constexpr int kThreads = 4;
  constexpr int kIterations = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string key = "worker_" + std::to_string(t);
      auto put = node.Write(kPart, {.table = kTable, .key = key, .value = "0",
                                    .expected_stamp = kStampAbsent});
      ASSERT_OK(put.status());
      uint64_t stamp = *put;
      for (int i = 1; i <= kIterations; ++i) {
        auto next = node.Write(kPart, {.table = kTable, .key = key,
                                       .value = std::to_string(i),
                                       .expected_stamp = stamp});
        ASSERT_TRUE(next.ok())
            << key << " iteration " << i << ": " << next.status().ToString();
        EXPECT_GT(*next, stamp);
        stamp = *next;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_OK_AND_ASSIGN(
        VersionedCell cell,
        node.Get(kTable, kPart, "worker_" + std::to_string(t)));
    EXPECT_EQ(cell.value, std::to_string(kIterations));
  }
}

/// A scan takes every stripe lock shared, so it must observe an atomic
/// point-in-time snapshot: sorted unique keys, and (since writers only ever
/// Put) per-key stamps that never move backwards between successive scans.
TEST(StoreStripesTest, ScanDuringWritesSeesConsistentSnapshots) {
  StorageNode node(0, 64 << 20, /*stripes_per_partition=*/16);
  node.CreatePartition(kTable, kPart);
  constexpr int kKeys = 64;
  for (int k = 0; k < kKeys; ++k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key_%03d", k);
    ASSERT_OK(node.Write(kPart, {.table = kTable, .key = buf, .value = "v0",
                                 .conditional = false}).status());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      uint64_t rng = 12345 + t;
      while (!stop.load(std::memory_order_relaxed)) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        char buf[16];
        std::snprintf(buf, sizeof(buf), "key_%03d",
                      static_cast<int>((rng >> 33) % kKeys));
        ASSERT_OK(node.Write(kPart, {.table = kTable, .key = buf, .value = "v1",
                                     .conditional = false}).status());
      }
    });
  }

  std::map<std::string, uint64_t> last_stamp;
  for (int round = 0; round < 50; ++round) {
    ASSERT_OK_AND_ASSIGN(std::vector<KeyCell> cells,
                         node.Scan(kTable, kPart, "", ""));
    ASSERT_EQ(cells.size(), static_cast<size_t>(kKeys));
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) {
        // Sorted and unique: the k-way merge must reproduce exactly the
        // old single-map order.
        ASSERT_LT(cells[i - 1].key, cells[i].key);
      }
      auto it = last_stamp.find(cells[i].key);
      if (it != last_stamp.end()) {
        ASSERT_GE(cells[i].stamp, it->second) << cells[i].key;
      }
      last_stamp[cells[i].key] = cells[i].stamp;
    }
  }
  stop.store(true);
  for (auto& thread : writers) thread.join();
}

/// Replica seeding while the partition takes writes: InstallPartition holds
/// every stripe exclusive, and afterwards the stamp source must sit past
/// every installed stamp so new writes stay ABA-safe.
TEST(StoreStripesTest, InstallPartitionUnderLoadKeepsStampsMonotonic) {
  StorageNode node(0, 64 << 20, /*stripes_per_partition=*/16);
  node.CreatePartition(kTable, kPart);

  // A "dumped replica" batch with high stamps, as fail-over would install.
  std::vector<KeyCell> batch;
  constexpr uint64_t kHighStamp = 1'000'000;
  for (int k = 0; k < 32; ++k) {
    batch.push_back({"replica_" + std::to_string(k), "seed",
                     kHighStamp + static_cast<uint64_t>(k)});
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      const std::string key = "live_" + std::to_string(t);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_OK(
            node.Write(kPart, {.table = kTable, .key = key,
                               .value = std::to_string(i++),
                               .conditional = false}).status());
      }
    });
  }
  for (int round = 0; round < 20; ++round) {
    ASSERT_OK(node.InstallPartition(kTable, kPart, batch));
  }
  stop.store(true);
  for (auto& thread : writers) thread.join();

  // Installed cells kept their dumped stamps.
  ASSERT_OK_AND_ASSIGN(VersionedCell seeded,
                       node.Get(kTable, kPart, "replica_0"));
  EXPECT_EQ(seeded.stamp, kHighStamp);
  // And the partition's stamp source moved past them: a fresh write must
  // get a stamp above every installed one.
  ASSERT_OK_AND_ASSIGN(uint64_t stamp,
                       node.Write(kPart, {.table = kTable,
                                          .key = "after_install", .value = "x",
                                          .conditional = false}));
  EXPECT_GT(stamp, kHighStamp + 31);
}

/// The striped engine must be semantically indistinguishable from the old
/// monolithic engine when single-threaded: the same op sequence against 1
/// stripe and 64 stripes yields bit-identical stamps, values, statuses and
/// scan orders.
TEST(StoreStripesTest, SingleThreadedBitIdenticalAcrossStripeCounts) {
  StorageNode one(0, 64 << 20, /*stripes_per_partition=*/1);
  StorageNode many(1, 64 << 20, /*stripes_per_partition=*/64);
  one.CreatePartition(kTable, kPart);
  many.CreatePartition(kTable, kPart);

  uint64_t rng = 0xDEADBEEF;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 16;
  };
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(next() % 97);
    switch (next() % 5) {
      case 0: {
        const std::string value = "v" + std::to_string(next() % 1000);
        auto a = one.Write(kPart, {.table = kTable, .key = key, .value = value,
                                   .conditional = false});
        auto b = many.Write(kPart, {.table = kTable, .key = key, .value = value,
                                    .conditional = false});
        ASSERT_OK(a.status());
        ASSERT_OK(b.status());
        ASSERT_EQ(*a, *b) << "put stamp diverged at op " << i;
        break;
      }
      case 1: {
        const uint64_t expected = next() % 3 == 0 ? kStampAbsent : next() % 64;
        const std::string value = "c" + std::to_string(next() % 1000);
        auto a = one.Write(kPart, {.table = kTable, .key = key, .value = value,
                                   .expected_stamp = expected});
        auto b = many.Write(kPart, {.table = kTable, .key = key, .value = value,
                                    .expected_stamp = expected});
        ASSERT_EQ(a.status().code(), b.status().code()) << "op " << i;
        if (a.ok()) ASSERT_EQ(*a, *b);
        break;
      }
      case 2: {
        Status a = one.Write(kPart, {.table = kTable, .key = key,
                                     .conditional = false, .erase = true})
            .status();
        Status b = many.Write(kPart, {.table = kTable, .key = key,
                                      .conditional = false, .erase = true})
            .status();
        ASSERT_EQ(a.code(), b.code()) << "op " << i;
        break;
      }
      case 3: {
        const int64_t delta = static_cast<int64_t>(next() % 10);
        auto a = one.AtomicIncrement(kTable, kPart, key, delta);
        auto b = many.AtomicIncrement(kTable, kPart, key, delta);
        ASSERT_EQ(a.status().code(), b.status().code()) << "op " << i;
        if (a.ok()) ASSERT_EQ(*a, *b);
        break;
      }
      default: {
        auto a = one.Scan(kTable, kPart, "", "");
        auto b = many.Scan(kTable, kPart, "", "");
        ASSERT_OK(a.status());
        ASSERT_OK(b.status());
        ASSERT_EQ(a->size(), b->size()) << "op " << i;
        for (size_t j = 0; j < a->size(); ++j) {
          ASSERT_EQ((*a)[j].key, (*b)[j].key);
          ASSERT_EQ((*a)[j].value, (*b)[j].value);
          ASSERT_EQ((*a)[j].stamp, (*b)[j].stamp);
        }
      }
    }
  }
  EXPECT_EQ(one.PartitionSize(kTable, kPart), many.PartitionSize(kTable, kPart));
  ASSERT_OK_AND_ASSIGN(std::vector<KeyCell> dump_a,
                       one.DumpPartition(kTable, kPart));
  ASSERT_OK_AND_ASSIGN(std::vector<KeyCell> dump_b,
                       many.DumpPartition(kTable, kPart));
  ASSERT_EQ(dump_a.size(), dump_b.size());
  for (size_t j = 0; j < dump_a.size(); ++j) {
    EXPECT_EQ(dump_a[j].key, dump_b[j].key);
    EXPECT_EQ(dump_a[j].stamp, dump_b[j].stamp);
  }
}

/// Ordered scans over a heavily-striped partition holding only a handful of
/// keys: most per-stripe runs are empty, so the k-way merge must skip
/// exhausted runs cleanly, also under bounds.
TEST(StoreStripesTest, ScanMergeSkipsEmptyStripes) {
  StorageNode node(0, 64 << 20, /*stripes_per_partition=*/64);
  node.CreatePartition(kTable, kPart);
  const std::vector<std::string> keys = {"ant", "bee", "cat",
                                         "dog", "elk", "fox"};
  // Insert out of order so merge order cannot accidentally be insert order.
  for (const auto& key : {"fox", "bee", "elk", "ant", "dog", "cat"}) {
    ASSERT_OK(node.Write(kPart, {.table = kTable, .key = key,
                                 .value = std::string("v_") + key,
                                 .conditional = false}).status());
  }

  ASSERT_OK_AND_ASSIGN(std::vector<KeyCell> all,
                       node.Scan(kTable, kPart, "", ""));
  ASSERT_EQ(all.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(all[i].key, keys[i]);
    EXPECT_EQ(all[i].value, "v_" + keys[i]);
  }

  // Half-open [bee, elk): end key excluded, start key included.
  ASSERT_OK_AND_ASSIGN(std::vector<KeyCell> ranged,
                       node.Scan(kTable, kPart, "bee", "elk"));
  ASSERT_EQ(ranged.size(), 3u);
  EXPECT_EQ(ranged[0].key, "bee");
  EXPECT_EQ(ranged[1].key, "cat");
  EXPECT_EQ(ranged[2].key, "dog");
}

/// Byte-adjacent keys hash to different stripes, so consecutive cells in
/// sort order straddle stripe boundaries; and each key is overwritten
/// several times, so a merge that surfaced a stale per-stripe copy would
/// emit duplicates. Scan must match a reference std::map walk exactly:
/// every key once, newest value, strictly ascending.
TEST(StoreStripesTest, ScanMergeDeduplicatesOverwritesAcrossStripeBoundaries) {
  StorageNode node(0, 64 << 20, /*stripes_per_partition=*/8);
  node.CreatePartition(kTable, kPart);
  // Tightly-clustered key shapes: shared prefixes, embedded NULs, and a
  // dense numeric run — worst case for merge tie-breaking at boundaries.
  std::vector<std::string> keys = {std::string("k"), std::string("k\0", 2),
                                   std::string("k\0\0", 3),
                                   std::string("k\1", 2), "k0", "k00", "k1"};
  for (int i = 0; i < 40; ++i) {
    keys.push_back("n" + std::to_string(1000 + i));
  }
  std::map<std::string, std::string> reference;
  // Three overwrite rounds in varying orders.
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::string& key =
          keys[round % 2 == 0 ? i : keys.size() - 1 - i];
      const std::string value = key + "@" + std::to_string(round);
      ASSERT_OK(node.Write(kPart, {.table = kTable, .key = key, .value = value,
                                   .conditional = false}).status());
      reference[key] = value;
    }
  }

  ASSERT_OK_AND_ASSIGN(std::vector<KeyCell> cells,
                       node.Scan(kTable, kPart, "", ""));
  ASSERT_EQ(cells.size(), reference.size());
  auto it = reference.begin();
  for (size_t i = 0; i < cells.size(); ++i, ++it) {
    ASSERT_EQ(cells[i].key, it->first) << "position " << i;
    ASSERT_EQ(cells[i].value, it->second) << cells[i].key;
    if (i > 0) ASSERT_LT(cells[i - 1].key, cells[i].key);
  }
}

/// FragmentScan feeds a sink through the same merge, chunk by chunk:
/// `cells_scanned` counts every cell examined in the range (not just
/// matches), a sink's limit applies to *matching* cells, and empty stripes
/// contribute nothing — at any chunk size.
TEST(StoreStripesTest, FragmentScanCountsExaminedCellsWithEmptyStripes) {
  StorageNode node(0, 64 << 20, /*stripes_per_partition=*/32);
  node.CreatePartition(kTable, kPart);
  constexpr int kKeys = 30;
  for (int k = 0; k < kKeys; ++k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key_%03d", k);
    ASSERT_OK(node
                  .Write(kPart, {.table = kTable, .key = buf,
                                 .value = k % 3 == 0 ? "match" : "miss",
                                 .conditional = false})
                  .status());
  }

  for (size_t chunk_cells : {size_t{4}, size_t{1024}}) {
    SCOPED_TRACE(chunk_cells);
    test::MatchSink all("match");
    FragmentScanStats stats;
    ASSERT_OK(node.FragmentScan(kTable, kPart, chunk_cells, &all, &stats));
    ASSERT_EQ(all.matches().size(), 10u);
    EXPECT_EQ(stats.cells_scanned, static_cast<uint64_t>(kKeys));
    EXPECT_EQ(stats.chunk_lock_releases, chunk_cells < kKeys ? 7u : 0u);
    for (size_t i = 0; i < all.matches().size(); ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "key_%03d", static_cast<int>(i) * 3);
      EXPECT_EQ(all.matches()[i].first, buf);
    }

    // Limit counts matches: stop after 2 matching cells, having examined
    // everything up to and including the second match (keys 000..003).
    test::MatchSink two("match", /*limit=*/2);
    stats = FragmentScanStats{};
    ASSERT_OK(node.FragmentScan(kTable, kPart, chunk_cells, &two, &stats));
    ASSERT_EQ(two.matches().size(), 2u);
    EXPECT_EQ(two.matches()[0].first, "key_000");
    EXPECT_EQ(two.matches()[1].first, "key_003");
    EXPECT_EQ(stats.cells_scanned, 4u);
  }
}

/// Contention counters move when threads actually collide on one stripe.
TEST(StoreStripesTest, ContentionCountersRecordCollisions) {
  StorageNode node(0, 64 << 20, /*stripes_per_partition=*/1);
  node.CreatePartition(kTable, kPart);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        ASSERT_OK(
            node.Write(kPart, {.table = kTable, .key = "k" + std::to_string(t),
                               .value = "v", .conditional = false}).status());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  StorageNodeStats stats = node.stats();
  EXPECT_EQ(stats.puts, 8000u);
  // With one stripe and racing writers some acquisitions must have blocked;
  // lock_wait_ns accompanies every recorded conflict.
  if (stats.stripe_conflicts > 0) {
    EXPECT_GT(stats.lock_wait_ns, 0u);
  }
}

/// Backups apply one key's writes in the order the master stamped them:
/// Cluster::Write and Cluster::AtomicIncrement replicate while the master
/// still holds the key's stripe lock. Four threads mix puts, erases and
/// increments on a few keys of one partition at RF3, in rounds: every
/// thread makes one write, then, with no write in flight, each key's cell
/// on every backup must equal the master's (a later write to the key would
/// hide an out-of-order apply). Afterwards every backup's DumpPartition
/// must equal the master's, key, value and stamp.
TEST(StoreStripesTest, BackupsMatchMasterAfterRacingWritesAtRf3) {
  ClusterOptions options;
  options.num_storage_nodes = 3;
  options.replication_factor = 3;
  options.partitions_per_node = 1;
  Cluster cluster(options);
  ASSERT_OK_AND_ASSIGN(TableId table, cluster.CreateTable("t"));
  ASSERT_OK_AND_ASSIGN(uint32_t partition,
                       cluster.partition_map().PartitionFor(table, "k0"));
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 3; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_OK_AND_ASSIGN(uint32_t p,
                         cluster.partition_map().PartitionFor(table, key));
    if (p == partition) keys.push_back(key);
  }
  ASSERT_OK_AND_ASSIGN(PartitionPlacement placement,
                       cluster.partition_map().PlacementOf(table, partition));
  ASSERT_EQ(placement.replicas.size(), 2u);
  StorageNode* master = cluster.node(placement.master);

  // Runs between rounds, while every thread waits at the barrier.
  int mismatches = 0;
  std::string first_mismatch;
  auto check_round = [&]() noexcept {
    for (const std::string& key : keys) {
      Result<VersionedCell> want = master->Get(table, partition, key);
      for (uint32_t backup : placement.replicas) {
        Result<VersionedCell> have =
            cluster.node(backup)->Get(table, partition, key);
        const bool same =
            want.ok() == have.ok() &&
            (!want.ok() || (want->value == have->value &&
                            want->stamp == have->stamp));
        if (!same && mismatches++ == 0) {
          first_mismatch = "key " + key + " on backup node " +
                           std::to_string(backup) + ": master stamp " +
                           (want.ok() ? std::to_string(want->stamp) : "-") +
                           ", backup stamp " +
                           (have.ok() ? std::to_string(have->stamp) : "-");
        }
      }
    }
  };
  constexpr int kThreads = 4;
  constexpr int kRounds = 4000;
  std::barrier round(kThreads, check_round);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(0x0DE5 + t);
      for (int i = 0; i < kRounds; ++i) {
        const std::string& key = keys[rng.Uniform(keys.size())];
        switch (rng.Uniform(3)) {
          case 0: {
            auto put = cluster.Write(
                {.table = table, .key = key,
                 .value = std::string(1 + rng.Uniform(16), 'a' + t),
                 .conditional = false});
            EXPECT_OK(put.status());
            break;
          }
          case 1: {
            auto erase = cluster.Write(
                {.table = table, .key = key, .conditional = false,
                 .erase = true});
            if (!erase.ok()) EXPECT_TRUE(erase.status().IsNotFound());
            break;
          }
          default:
            EXPECT_OK(cluster.AtomicIncrement(table, key, 1).status());
        }
        round.arrive_and_wait();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches, 0) << "first: " << first_mismatch;

  ASSERT_OK_AND_ASSIGN(std::vector<KeyCell> want,
                       master->DumpPartition(table, partition));
  for (uint32_t backup : placement.replicas) {
    ASSERT_OK_AND_ASSIGN(
        std::vector<KeyCell> have,
        cluster.node(backup)->DumpPartition(table, partition));
    ASSERT_EQ(have.size(), want.size()) << "backup node " << backup;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(have[i].key, want[i].key) << "backup node " << backup;
      EXPECT_EQ(have[i].value, want[i].value)
          << "backup node " << backup << " key " << want[i].key;
      EXPECT_EQ(have[i].stamp, want[i].stamp)
          << "backup node " << backup << " key " << want[i].key;
    }
  }
}

}  // namespace
}  // namespace tell::store
