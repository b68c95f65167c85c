// One-sided reads + lease-based client record caching (DESIGN.md
// "One-sided reads & client caching"):
//
//   1. LeaseEpochTable / RecordCache mechanics: epoch bumps, invalidation
//      on epoch movement, the LRU entry bound, and the frozen-epoch test
//      fault.
//   2. StorageClient integration: hits skip the network and are
//      byte-identical, writes invalidate, one-sided reads bypass the
//      storage node's request counters, kernel-TCP models never go
//      one-sided, and injected one_sided_get faults fall back cleanly.
//   3. The determinism contract (tsan label): TPC-C with the cache and
//      one-sided reads on — including a mid-run partition migration —
//      produces a bit-identical final state to the plain two-sided run,
//      and a storage node that "forgets" lease invalidation (frozen
//      epochs) is caught by the same digest harness.
//   4. Real-thread churn (tsan): concurrent fills, probes and bumps race
//      without losing the entry bound.

#include <gtest/gtest.h>

#include <atomic>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "db/tell_db.h"
#include "sim/fault_injector.h"
#include "store/cluster.h"
#include "store/record_cache.h"
#include "store/storage_client.h"
#include "tests/test_util.h"
#include "tx/transaction.h"
#include "workload/tpcc/tpcc_driver.h"
#include "workload/tpcc/tpcc_loader.h"

namespace tell::store {
namespace {

using sim::FaultInjector;
using sim::FaultOpClass;
using sim::FaultPlan;
using sim::FaultRule;
using tx::Transaction;

// ---------------------------------------------------------------------------
// LeaseEpochTable
// ---------------------------------------------------------------------------

TEST(LeaseEpochTableTest, BumpAdvancesOnlyThatPartition) {
  LeaseEpochTable epochs;
  EXPECT_EQ(epochs.Epoch(1, 0), 0u);
  epochs.Bump(1, 0);
  epochs.Bump(1, 0);
  EXPECT_EQ(epochs.Epoch(1, 0), 2u);
  // A different (table, partition) hashes to its own slot here.
  EXPECT_EQ(epochs.Epoch(1, 1), 0u);
  EXPECT_EQ(epochs.Epoch(2, 0), 0u);
}

TEST(LeaseEpochTableTest, FrozenSuppressesBumps) {
  LeaseEpochTable epochs;
  epochs.set_frozen_for_testing(true);
  epochs.Bump(1, 0);
  EXPECT_EQ(epochs.Epoch(1, 0), 0u);
  epochs.set_frozen_for_testing(false);
  epochs.Bump(1, 0);
  EXPECT_EQ(epochs.Epoch(1, 0), 1u);
}

// ---------------------------------------------------------------------------
// RecordCache mechanics
// ---------------------------------------------------------------------------

VersionedCell MakeCell(std::string value, uint64_t stamp) {
  VersionedCell cell;
  cell.value = std::move(value);
  cell.stamp = stamp;
  return cell;
}

TEST(RecordCacheTest, MissFillHitRoundTrip) {
  RecordCacheOptions options;
  options.enabled = true;
  RecordCache cache(options);
  VersionedCell out;
  EXPECT_FALSE(cache.Get(1, "k", /*current_epoch=*/7, &out));
  cache.Put(1, "k", MakeCell("v", 42), /*fill_epoch=*/7);
  ASSERT_TRUE(cache.Get(1, "k", /*current_epoch=*/7, &out));
  EXPECT_EQ(out.value, "v");
  EXPECT_EQ(out.stamp, 42u);
  RecordCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(RecordCacheTest, EpochMovementInvalidates) {
  RecordCacheOptions options;
  options.enabled = true;
  RecordCache cache(options);
  cache.Put(1, "k", MakeCell("old", 1), /*fill_epoch=*/7);
  VersionedCell out;
  // The partition's epoch moved past the fill: the entry must be dropped
  // and reported as a miss, never served.
  EXPECT_FALSE(cache.Get(1, "k", /*current_epoch=*/8, &out));
  RecordCacheStats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 0u);
  // A refill at the new epoch serves again.
  cache.Put(1, "k", MakeCell("new", 2), /*fill_epoch=*/8);
  ASSERT_TRUE(cache.Get(1, "k", /*current_epoch=*/8, &out));
  EXPECT_EQ(out.value, "new");
}

TEST(RecordCacheTest, LruBoundEvictsOldestFirst) {
  RecordCacheOptions options;
  options.enabled = true;
  options.max_entries = 4;
  options.stripes = 1;  // one LRU list so the eviction order is exact
  RecordCache cache(options);
  for (int i = 0; i < 4; ++i) {
    cache.Put(1, "k" + std::to_string(i), MakeCell("v", 1), 0);
  }
  VersionedCell out;
  // Touch k0 so k1 becomes the LRU victim.
  ASSERT_TRUE(cache.Get(1, "k0", 0, &out));
  cache.Put(1, "k4", MakeCell("v", 1), 0);
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Get(1, "k0", 0, &out));
  EXPECT_FALSE(cache.Get(1, "k1", 0, &out));  // evicted
  EXPECT_TRUE(cache.Get(1, "k4", 0, &out));
}

// ---------------------------------------------------------------------------
// StorageClient integration
// ---------------------------------------------------------------------------

class ClientCacheTest : public ::testing::Test {
 protected:
  ClientCacheTest() {
    ClusterOptions options;
    options.num_storage_nodes = 3;
    cluster_ = std::make_unique<Cluster>(options);
    table_ = *cluster_->CreateTable("t");
    cache_options_.enabled = true;
    cache_ = std::make_unique<RecordCache>(cache_options_);
  }

  std::unique_ptr<StorageClient> MakeClient(ClientOptions options) {
    options.record_cache = cache_.get();
    return std::make_unique<StorageClient>(cluster_.get(), nullptr, options,
                                           &clock_, &metrics_);
  }

  uint64_t NodeGets() const {
    uint64_t total = 0;
    for (uint32_t i = 0; i < cluster_->num_nodes(); ++i) {
      total += cluster_->node(i)->stats().gets;
    }
    return total;
  }

  std::unique_ptr<Cluster> cluster_;
  RecordCacheOptions cache_options_;
  std::unique_ptr<RecordCache> cache_;
  sim::VirtualClock clock_;
  sim::WorkerMetrics metrics_;
  TableId table_;
};

TEST_F(ClientCacheTest, HitSkipsNetworkAndIsByteIdentical) {
  auto client = MakeClient(ClientOptions{});
  ASSERT_OK(client->Write({.table = table_, .key = "k", .value = "value-bytes",
                           .conditional = false}).status());
  ASSERT_OK_AND_ASSIGN(VersionedCell first, client->Get(table_, "k"));
  const uint64_t requests = metrics_.storage_requests;
  EXPECT_EQ(metrics_.cache_misses, 1u);
  ASSERT_OK_AND_ASSIGN(VersionedCell second, client->Get(table_, "k"));
  // No new request, and the hit is byte-identical to the fresh fetch.
  EXPECT_EQ(metrics_.storage_requests, requests);
  EXPECT_EQ(metrics_.cache_hits, 1u);
  EXPECT_EQ(second.value, first.value);
  EXPECT_EQ(second.stamp, first.stamp);
}

TEST_F(ClientCacheTest, WriteInvalidatesCachedEntry) {
  auto client = MakeClient(ClientOptions{});
  ASSERT_OK(client->Write({.table = table_, .key = "k", .value = "v0",
                           .conditional = false}).status());
  ASSERT_OK(client->Get(table_, "k").status());  // fill
  // The write bumps the partition's lease epoch inside the storage node's
  // critical section, so the cached v0 can never be served again.
  ASSERT_OK(client->Write({.table = table_, .key = "k", .value = "v1",
                           .conditional = false}).status());
  ASSERT_OK_AND_ASSIGN(VersionedCell cell, client->Get(table_, "k"));
  EXPECT_EQ(cell.value, "v1");
  EXPECT_EQ(metrics_.cache_hits, 0u);
  EXPECT_EQ(cache_->stats().invalidations, 1u);
}

TEST_F(ClientCacheTest, OneSidedReadBypassesStorageNodeRequestPath) {
  ClientOptions options;  // InfiniBand default: RDMA-class
  options.one_sided_reads = true;
  auto client = MakeClient(options);
  ASSERT_OK(client->Write({.table = table_, .key = "k", .value = "v",
                           .conditional = false}).status());
  const uint64_t gets_before = NodeGets();
  ASSERT_OK_AND_ASSIGN(VersionedCell cell, client->Get(table_, "k"));
  EXPECT_EQ(cell.value, "v");
  EXPECT_EQ(metrics_.onesided_reads, 1u);
  EXPECT_EQ(metrics_.onesided_fallbacks, 0u);
  // An RDMA READ never dispatches through the node's request path.
  EXPECT_EQ(NodeGets(), gets_before);
}

TEST_F(ClientCacheTest, KernelTcpModelNeverGoesOneSided) {
  ClientOptions options;
  options.network = sim::NetworkModel::TenGbEthernet();
  options.one_sided_reads = true;  // requested, but the model can't
  auto client = MakeClient(options);
  ASSERT_OK(client->Write({.table = table_, .key = "k", .value = "v",
                           .conditional = false}).status());
  const uint64_t gets_before = NodeGets();
  ASSERT_OK(client->Get(table_, "k").status());
  EXPECT_EQ(metrics_.onesided_reads, 0u);
  EXPECT_EQ(NodeGets(), gets_before + 1);  // ordinary two-sided dispatch
}

TEST_F(ClientCacheTest, InjectedOneSidedFaultFallsBackTwoSided) {
  FaultRule rule;
  rule.kind = FaultRule::Kind::kDropRequest;
  rule.op = FaultOpClass::kOneSidedGet;
  rule.max_fires = 1;
  FaultInjector injector(FaultPlan{.seed = 1, .rules = {rule}});
  ClientOptions options;
  options.one_sided_reads = true;
  options.fault_injector = &injector;
  auto client = MakeClient(options);
  ASSERT_OK(client->Write({.table = table_, .key = "k", .value = "v",
                           .conditional = false}).status());
  // The one-sided attempt is dropped; the read must still succeed via the
  // two-sided retry path, counting the validation failure and the fallback.
  ASSERT_OK_AND_ASSIGN(VersionedCell cell, client->Get(table_, "k"));
  EXPECT_EQ(cell.value, "v");
  EXPECT_EQ(metrics_.onesided_validation_failures, 1u);
  EXPECT_EQ(metrics_.onesided_fallbacks, 1u);
  EXPECT_EQ(metrics_.onesided_reads, 0u);
  // The rule disarmed: the next read goes one-sided again.
  ASSERT_OK(client->Write({.table = table_, .key = "k", .value = "v2",
                           .conditional = false}).status());
  ASSERT_OK(client->Get(table_, "k").status());
  EXPECT_EQ(metrics_.onesided_reads, 1u);
}

// ---------------------------------------------------------------------------
// Determinism contract: TPC-C digest, cache+one-sided on vs off
// ---------------------------------------------------------------------------

std::string ValueToString(const schema::Value& value) {
  std::ostringstream out;
  out << std::setprecision(17);
  if (const int64_t* i = std::get_if<int64_t>(&value)) {
    out << 'i' << *i;
  } else if (const double* d = std::get_if<double>(&value)) {
    out << 'd' << *d;
  } else if (const std::string* s = std::get_if<std::string>(&value)) {
    out << 's' << *s;
  } else {
    out << "null";
  }
  return out.str();
}

void DigestTable(Transaction* txn, tx::TableHandle* table,
                 const std::vector<uint32_t>& cols, std::ostringstream* out) {
  const std::string hi(16, '\xFF');
  auto rows = txn->ScanIndexEncoded(table, -1, "", hi, 0);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  *out << "#" << rows->size() << "\n";
  for (const auto& [rid, tuple] : *rows) {
    for (uint32_t col : cols) *out << ValueToString(tuple.at(col)) << "|";
    *out << "\n";
  }
}

struct DigestRunConfig {
  bool cache = false;
  bool one_sided = false;
  bool migrate = false;
  /// Test fault: suppress all lease-epoch bumps (a storage tier that
  /// "forgets" invalidation). Individual transactions may then fail on the
  /// stale data they read; the run tolerates that and digests whatever
  /// final state results.
  bool freeze_epochs = false;
  /// ClientOptions::batching (the §5.1 ablation knob).
  bool batching = true;
  /// Odd inputs run on processing node 1, even ones on node 0: each node's
  /// cached B+tree leaf images go stale under the other's commits.
  bool alternate_pns = false;
};

/// `stale_leaves` (if not null) gets the `index.cache.leaf_stale` gauge:
/// cached leaf images the run's lookups read again from the store.
void RunTpccDigest(const DigestRunConfig& config, std::string* digest,
                   uint64_t* stale_leaves = nullptr) {
  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  options.record_cache.enabled = config.cache;
  options.one_sided_reads = config.one_sided;
  options.batching = config.batching;
  if (config.alternate_pns) options.num_processing_nodes = 2;
  db::TellDb db(options);
  ASSERT_OK(tpcc::CreateTpccTables(&db));
  tpcc::TpccScale scale;
  scale.warehouses = 2;
  scale.districts_per_warehouse = 2;
  scale.customers_per_district = 10;
  scale.items = 40;
  scale.initial_orders_per_district = 8;
  ASSERT_OK(tpcc::LoadTpcc(&db, scale));
  if (config.freeze_epochs) {
    db.cluster()->lease_epochs().set_frozen_for_testing(true);
  }
  auto session = db.OpenSession(0, 0);
  auto tables = tpcc::OpenTpccTables(&db, 0);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  tpcc::TpccExecutor executor(session.get(), *tables);
  std::unique_ptr<tx::Session> other_session;
  std::unique_ptr<tpcc::TpccExecutor> other_executor;
  if (config.alternate_pns) {
    // The same worker id on the other PN: history ids name the PN too.
    other_session = db.OpenSession(1, 0);
    auto other_tables = tpcc::OpenTpccTables(&db, 1);
    ASSERT_TRUE(other_tables.ok()) << other_tables.status().ToString();
    other_executor = std::make_unique<tpcc::TpccExecutor>(
        other_session.get(), *other_tables);
  }
  tpcc::InputGenerator generator(scale, tpcc::Mix::kWriteIntensive,
                                 /*seed=*/9090, /*home_warehouse=*/1);

  constexpr int kInputs = 120;
  for (int i = 0; i < kInputs; ++i) {
    if (config.migrate && i == kInputs / 2) {
      const store::TableId stock = tables->stock->meta->data_table;
      ASSERT_OK_AND_ASSIGN(
          store::PartitionPlacement placement,
          db.cluster()->partition_map().PlacementOf(stock, 0));
      const uint32_t dest =
          (placement.master + 1) % db.cluster()->num_nodes();
      ASSERT_OK(db.management()->MigratePartition(stock, 0, dest));
    }
    tpcc::TxnInput input = generator.Next();
    auto outcome = other_executor != nullptr && i % 2 == 1
                       ? other_executor->Execute(input)
                       : executor.Execute(input);
    if (!config.freeze_epochs) {
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    }
  }

  auto reader = db.OpenSession(0, 1);
  Transaction txn(reader.get());
  ASSERT_OK(txn.Begin());
  std::ostringstream out;
  namespace col = tpcc::col;
  DigestTable(&txn, tables->warehouse, {0, col::kWYtd}, &out);
  DigestTable(&txn, tables->district, {0, 1, col::kDYtd, col::kDNextOId},
              &out);
  DigestTable(&txn, tables->customer,
              {0, 1, 2, col::kCBalance, col::kCYtdPayment, col::kCPaymentCnt,
               col::kCDeliveryCnt, col::kCData},
              &out);
  DigestTable(&txn, tables->new_order, {0, 1, 2}, &out);
  DigestTable(&txn, tables->orders,
              {0, 1, 2, col::kOCId, col::kOCarrierId, col::kOOlCnt,
               col::kOAllLocal},
              &out);
  DigestTable(&txn, tables->order_line,
              {0, 1, 2, 3, col::kOlIId, col::kOlSupplyWId, col::kOlQuantity,
               col::kOlAmount, col::kOlDistInfo},
              &out);
  DigestTable(&txn, tables->stock,
              {0, 1, col::kSQuantity, col::kSYtd, col::kSOrderCnt,
               col::kSRemoteCnt},
              &out);
  ASSERT_OK(txn.Commit());
  *digest = out.str();
  if (stale_leaves != nullptr) {
    obs::MetricsRegistry registry;
    db.ExportStats(&registry);
    *stale_leaves =
        registry.Snapshot().Scalar("index.cache.leaf_stale").value_or(0);
  }
}

TEST(ClientCacheTpccTest, CacheAndOneSidedOnVsOffBitIdentical) {
  std::string baseline;
  std::string cached;
  RunTpccDigest({}, &baseline);
  RunTpccDigest({.cache = true, .one_sided = true}, &cached);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(cached, baseline)
      << "a lease-coherent cache must be invisible to transaction semantics";
}

TEST(ClientCacheTpccTest, MigrationUnderCachedRunStaysBitIdentical) {
  std::string baseline;
  std::string migrated;
  RunTpccDigest({}, &baseline);
  RunTpccDigest({.cache = true, .one_sided = true, .migrate = true},
                &migrated);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(migrated, baseline)
      << "migration writes (bulk install + deltas) must invalidate leases";
}

// Mutation test for the contract above: if the storage tier skipped lease
// invalidation, the digest harness MUST catch it. Frozen epochs leave every
// cached entry "valid" forever, so the workload reads stale records and the
// final state diverges — proving the bit-identical assertions have teeth.
TEST(ClientCacheTpccTest, FrozenLeaseEpochsAreCaughtByTheDigest) {
  std::string baseline;
  std::string stale;
  RunTpccDigest({}, &baseline);
  RunTpccDigest({.cache = true, .freeze_epochs = true}, &stale);
  ASSERT_FALSE(baseline.empty());
  EXPECT_NE(stale, baseline)
      << "suppressed lease invalidation went unnoticed: the cache served "
         "stale records yet produced the baseline final state";
}

// Batching only changes how requests are charged, never what they do: the
// coalesced and the one-message-per-op runs reach the same final state.
TEST(ClientCacheTpccTest, BatchingOnVsOffBitIdentical) {
  std::string batched;
  std::string unbatched;
  RunTpccDigest({}, &batched);
  RunTpccDigest({.batching = false}, &unbatched);
  ASSERT_FALSE(batched.empty());
  EXPECT_EQ(unbatched, batched)
      << "batching must be invisible to transaction semantics";
}

// Each processing node answers unique-key point lookups from the leaf
// images it cached, while the other node's commits change those leaves:
// the validated answers reach the one-node final state.
TEST(LeafCacheTpccTest, InputsAlternatingBetweenTwoPnsMatchOnePn) {
  std::string one_pn;
  std::string two_pns;
  uint64_t stale_leaves = 0;
  RunTpccDigest({}, &one_pn);
  RunTpccDigest({.alternate_pns = true}, &two_pns, &stale_leaves);
  ASSERT_FALSE(one_pn.empty());
  EXPECT_GT(stale_leaves, 0u) << "no lookup met a stale leaf image";
  EXPECT_EQ(two_pns, one_pn)
      << "a stale cached leaf image changed a transaction's answer";
}

// ---------------------------------------------------------------------------
// Real-thread churn (tsan)
// ---------------------------------------------------------------------------

TEST(RecordCacheConcurrencyTest, ConcurrentFillsProbesAndBumpsKeepBound) {
  RecordCacheOptions options;
  options.enabled = true;
  options.max_entries = 64;
  options.stripes = 4;
  RecordCache cache(options);
  LeaseEpochTable epochs;

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 3000;
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const TableId table = 1 + (i % 3);
        const uint32_t partition = i % 5;
        const std::string key =
            "k" + std::to_string((t * 31 + i) % 200);
        const uint64_t epoch = epochs.Epoch(table, partition);
        VersionedCell out;
        if (!cache.Get(table, key, epoch, &out)) {
          cache.Put(table, key, MakeCell("v" + std::to_string(i), i), epoch);
        }
        if (i % 7 == 0) epochs.Bump(table, partition);
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  RecordCacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, 64u);
  EXPECT_EQ(stats.hits + stats.misses,
            uint64_t{kThreads} * kOpsPerThread);
}

}  // namespace
}  // namespace tell::store
