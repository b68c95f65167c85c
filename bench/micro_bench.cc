// Micro-benchmarks (google-benchmark) for the hot primitives: storage node
// operations, LL/SC, B+tree, serialization and snapshot bookkeeping.
// In addition to the google-benchmark console output, main() runs a short
// deterministic storage workload in virtual time and exports its metrics to
// BENCH_micro_bench.json like every other bench binary.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "obs/bench_export.h"
#include "obs/metrics_registry.h"

#include "common/random.h"
#include "common/serde.h"
#include "commitmgr/snapshot_descriptor.h"
#include "index/btree.h"
#include "schema/versioned_record.h"
#include "sim/metrics.h"
#include "sim/virtual_clock.h"
#include "store/cluster.h"
#include "store/storage_client.h"

namespace tell {
namespace {

void BM_StorageNodePut(benchmark::State& state) {
  store::StorageNode node(0, 1ULL << 30);
  node.CreatePartition(1, 0);
  std::string value(128, 'x');
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        node.Write(0, {.table = 1, .key = EncodeOrderedU64(i++ % 100000),
                       .value = value, .conditional = false}));
  }
}
BENCHMARK(BM_StorageNodePut);

void BM_StorageNodeGet(benchmark::State& state) {
  store::StorageNode node(0, 1ULL << 30);
  node.CreatePartition(1, 0);
  std::string value(128, 'x');
  for (uint64_t i = 0; i < 10000; ++i) {
    (void)node.Write(0, {.table = 1, .key = EncodeOrderedU64(i), .value = value,
                         .conditional = false});
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.Get(1, 0, EncodeOrderedU64(i++ % 10000)));
  }
}
BENCHMARK(BM_StorageNodeGet);

void BM_LlScConditionalPut(benchmark::State& state) {
  store::StorageNode node(0, 1ULL << 30);
  node.CreatePartition(1, 0);
  uint64_t stamp = *node.Write(0, {.table = 1, .key = "cell", .value = "v0",
                                   .conditional = false});
  for (auto _ : state) {
    auto result = node.Write(0, {.table = 1, .key = "cell", .value = "v",
                                 .expected_stamp = stamp});
    stamp = *result;
    benchmark::DoNotOptimize(stamp);
  }
}
BENCHMARK(BM_LlScConditionalPut);

void BM_VersionedRecordSerialize(benchmark::State& state) {
  schema::VersionedRecord record;
  for (int v = 1; v <= state.range(0); ++v) {
    record.PutVersion(static_cast<uint64_t>(v), std::string(200, 'x'));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(record.Serialize());
  }
}
BENCHMARK(BM_VersionedRecordSerialize)->Arg(1)->Arg(3)->Arg(8);

void BM_VersionedRecordVisible(benchmark::State& state) {
  schema::VersionedRecord record;
  for (int v = 1; v <= 8; ++v) {
    record.PutVersion(static_cast<uint64_t>(v * 10), "payload");
  }
  commitmgr::SnapshotDescriptor snapshot(45);
  for (auto _ : state) {
    benchmark::DoNotOptimize(record.VisibleVersion(snapshot));
  }
}
BENCHMARK(BM_VersionedRecordVisible);

void BM_SnapshotMarkCompleted(benchmark::State& state) {
  commitmgr::SnapshotDescriptor snapshot;
  uint64_t tid = 1;
  for (auto _ : state) {
    snapshot.MarkCompleted(tid++);
    benchmark::DoNotOptimize(snapshot.base());
  }
}
BENCHMARK(BM_SnapshotMarkCompleted);

void BM_SnapshotSerialize(benchmark::State& state) {
  commitmgr::SnapshotDescriptor snapshot;
  // A realistic gap: 1000 in-flight transactions above the base.
  for (uint64_t tid = 2; tid < 1000; tid += 2) snapshot.MarkCompleted(tid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot.Serialize());
  }
}
BENCHMARK(BM_SnapshotSerialize);

class BTreeFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    store::ClusterOptions options;
    options.num_storage_nodes = 3;
    cluster_ = std::make_unique<store::Cluster>(options);
    table_ = *cluster_->CreateTable("idx");
    clock_ = std::make_unique<sim::VirtualClock>();
    metrics_ = std::make_unique<sim::WorkerMetrics>();
    store::ClientOptions client_options;
    client_options.network = sim::NetworkModel::Instant();
    client_ = std::make_unique<store::StorageClient>(
        cluster_.get(), nullptr, client_options, clock_.get(),
        metrics_.get());
    (void)index::BTree::Create(client_.get(), table_);
    cache_ = std::make_unique<index::NodeCache>();
    index::BTreeOptions tree_options;
    tree_ = std::make_unique<index::BTree>(table_, tree_options,
                                           cache_.get());
    for (uint64_t i = 0; i < 10000; ++i) {
      (void)tree_->Insert(client_.get(), EncodeOrderedU64(i), i + 1, true);
    }
  }
  void TearDown(const benchmark::State&) override {
    tree_.reset();
    cache_.reset();
    client_.reset();
    cluster_.reset();
  }

 protected:
  std::unique_ptr<store::Cluster> cluster_;
  std::unique_ptr<sim::VirtualClock> clock_;
  std::unique_ptr<sim::WorkerMetrics> metrics_;
  std::unique_ptr<store::StorageClient> client_;
  std::unique_ptr<index::NodeCache> cache_;
  std::unique_ptr<index::BTree> tree_;
  store::TableId table_;
};

BENCHMARK_F(BTreeFixture, Lookup)(benchmark::State& state) {
  Random rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree_->Lookup(client_.get(), EncodeOrderedU64(rng.Uniform(10000))));
  }
}

BENCHMARK_F(BTreeFixture, Insert)(benchmark::State& state) {
  uint64_t next = 10000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree_->Insert(client_.get(), EncodeOrderedU64(next), next + 1, true));
    ++next;
  }
}

BENCHMARK_F(BTreeFixture, RangeScan100)(benchmark::State& state) {
  Random rng(5);
  for (auto _ : state) {
    uint64_t start = rng.Uniform(9900);
    benchmark::DoNotOptimize(tree_->RangeScan(
        client_.get(), EncodeOrderedU64(start), EncodeOrderedU64(start + 100),
        0));
  }
}

// A deterministic virtual-time storage workload whose metrics feed the JSON
// artifact: 1000 Puts then 4000 Gets through the StorageClient.
void ExportJsonArtifact() {
  store::ClusterOptions cluster_options;
  cluster_options.num_storage_nodes = 3;
  store::Cluster cluster(cluster_options);
  auto table = *cluster.CreateTable("micro");
  sim::VirtualClock clock;
  sim::WorkerMetrics metrics;
  store::ClientOptions client_options;
  store::StorageClient client(&cluster, nullptr, client_options, &clock,
                              &metrics);
  std::string value(128, 'x');
  for (uint64_t i = 0; i < 1000; ++i) {
    (void)client.Write({.table = table, .key = EncodeOrderedU64(i),
                        .value = value, .conditional = false});
  }
  Random rng(11);
  for (int i = 0; i < 4000; ++i) {
    (void)client.Get(table, EncodeOrderedU64(rng.Uniform(1000)));
  }

  obs::MetricsRegistry registry;
  registry.AbsorbWorker(metrics);
  obs::BenchReport report("micro_bench");
  report.AddConfig("workload", "1000 puts + 4000 gets, 3 SNs");
  obs::BenchRun run;
  run.label = "storage_client";
  run.derived.emplace_back(
      "virtual_ms", static_cast<double>(clock.now_ns()) / 1e6);
  run.snapshot = registry.Snapshot();
  report.AddRun(std::move(run));
  auto path = report.WriteFile();
  if (path.ok()) std::printf("artifact: %s\n", path->c_str());
}

}  // namespace
}  // namespace tell

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tell::ExportJsonArtifact();
  return 0;
}
