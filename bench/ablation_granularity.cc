// Ablation: storage granularity (paper §5.1). Tell stores one RECORD (with
// all its versions) per key-value pair. This bench measures the same access
// pattern against three layouts on the real store:
//   * record  — one cell per record (Tell's choice),
//   * page    — 16 records per cell (disk-DB style),
//   * version — one cell per record VERSION (fine-grained).
// Claim: pages don't reduce the number of requests (each record must be
// re-fetched anyway — remote PNs may have changed it) but inflate traffic;
// per-version cells need extra requests to discover versions and make
// conflict detection more expensive.
#include <cstdio>

#include "common/random.h"
#include "common/serde.h"
#include "sim/metrics.h"
#include "sim/virtual_clock.h"
#include "store/cluster.h"
#include "store/storage_client.h"
#include "bench/bench_util.h"

using namespace tell;

int main() {
  bench::PrintHeader("Ablation", "Storage granularity (§5.1)",
                     "record granularity minimizes network requests without "
                     "the traffic blow-up of pages; per-version cells need "
                     "extra requests for version discovery and write-back");

  constexpr int kRecords = 4096;
  constexpr int kRecordBytes = 500;  // typical TPC-C row with 2-3 versions
  constexpr int kPageSize = 16;
  constexpr int kVersionsPerRecord = 3;
  constexpr int kAccesses = 20000;

  store::ClusterOptions cluster_options;
  cluster_options.num_storage_nodes = 7;
  store::Cluster cluster(cluster_options);
  auto record_table = *cluster.CreateTable("records");
  auto page_table = *cluster.CreateTable("pages");
  auto version_table = *cluster.CreateTable("versions");

  sim::VirtualClock setup_clock;
  sim::WorkerMetrics setup_metrics;
  store::ClientOptions client_options;
  store::StorageClient setup(&cluster, nullptr, client_options, &setup_clock,
                             &setup_metrics);
  Random rng(1);
  std::string record_value = rng.AlphaString(kRecordBytes, kRecordBytes);
  std::string page_value =
      rng.AlphaString(kRecordBytes * kPageSize, kRecordBytes * kPageSize);
  std::string version_value = rng.AlphaString(kRecordBytes / kVersionsPerRecord,
                                              kRecordBytes / kVersionsPerRecord);
  for (int i = 0; i < kRecords; ++i) {
    (void)setup.Write({.table = record_table, .key = EncodeOrderedU64(i),
                       .value = record_value, .conditional = false});
    if (i % kPageSize == 0) {
      (void)setup.Write({.table = page_table,
                         .key = EncodeOrderedU64(i / kPageSize),
                         .value = page_value, .conditional = false});
    }
    for (int v = 0; v < kVersionsPerRecord; ++v) {
      (void)setup.Write(
          {.table = version_table,
           .key = EncodeOrderedU64(static_cast<uint64_t>(i) * 8 + v),
           .value = version_value, .conditional = false});
    }
  }

  bench::BenchJson json("ablation_granularity");
  json.AddConfig("records", uint64_t{kRecords});
  json.AddConfig("record_bytes", uint64_t{kRecordBytes});
  json.AddConfig("page_size", uint64_t{kPageSize});
  json.AddConfig("versions_per_record", uint64_t{kVersionsPerRecord});
  json.AddConfig("accesses", uint64_t{kAccesses});

  std::printf("%-10s %12s %14s %16s\n", "layout", "requests",
              "MB transferred", "virtual time ms");
  auto report = [&json](const char* name, const sim::WorkerMetrics& metrics,
                        const sim::VirtualClock& clock) {
    double mb = static_cast<double>(metrics.bytes_received) / (1 << 20);
    double virtual_ms = static_cast<double>(clock.now_ns()) / 1e6;
    std::printf("%-10s %12llu %14.2f %16.2f\n", name,
                static_cast<unsigned long long>(metrics.storage_requests),
                mb, virtual_ms);
    json.AddMetrics(name, metrics,
                    {{"mb_received", mb}, {"virtual_ms", virtual_ms}});
  };

  {
    // Record granularity: one Get per access.
    sim::VirtualClock clock;
    sim::WorkerMetrics metrics;
    store::StorageClient client(&cluster, nullptr, client_options, &clock,
                                &metrics);
    Random access(7);
    for (int i = 0; i < kAccesses; ++i) {
      (void)client.Get(record_table, EncodeOrderedU64(access.Uniform(kRecords)));
    }
    report("record", metrics, clock);
  }
  {
    // Page granularity: SAME number of requests (no reuse possible — a
    // remote PN may have changed any record, §5.1), but each fetches a
    // whole page.
    sim::VirtualClock clock;
    sim::WorkerMetrics metrics;
    store::StorageClient client(&cluster, nullptr, client_options, &clock,
                                &metrics);
    Random access(7);
    for (int i = 0; i < kAccesses; ++i) {
      (void)client.Get(page_table,
                       EncodeOrderedU64(access.Uniform(kRecords) / kPageSize));
    }
    report("page", metrics, clock);
  }
  {
    // Per-version cells: one request to discover the version list (modelled
    // as reading the newest) plus one per additional version needed.
    sim::VirtualClock clock;
    sim::WorkerMetrics metrics;
    store::StorageClient client(&cluster, nullptr, client_options, &clock,
                                &metrics);
    Random access(7);
    for (int i = 0; i < kAccesses; ++i) {
      uint64_t record = access.Uniform(kRecords);
      for (int v = 0; v < kVersionsPerRecord; ++v) {
        (void)client.Get(version_table, EncodeOrderedU64(record * 8 +
                                                         static_cast<uint64_t>(v)));
      }
    }
    report("version", metrics, clock);
  }
  std::printf("\nshape checks: record = fewest requests at modest traffic; "
              "page = same requests, ~%dx traffic; version = %dx requests.\n",
              kPageSize, kVersionsPerRecord);
  json.Write();
  bench::PrintFooter();
  return 0;
}
