// Ablation: B+tree node caching (paper §5.3.1 — "all index nodes with
// exception of the leaf level are cached"). Without the cache every index
// traversal pays one round trip per tree level instead of one for the
// leaf. With it, unique-key point lookups also take cached leaf images,
// validated by their record fetch — a deviation from §5.3.1 — so a warm
// lookup pays no index round at all.
#include "bench/bench_util.h"

using namespace tell;
using namespace tell::bench;

int main() {
  PrintHeader("Ablation", "Index node caching (write-intensive, 8 PN)",
              "§5.3.1: caching inner nodes improves traversal speed and "
              "minimizes storage system requests; leaves are always fetched "
              "fresh");

  BenchJson json("ablation_index_cache");
  json.AddConfig("mix", "write_intensive");
  json.AddConfig("virtual_ms", uint64_t{kVirtualMs});

  std::printf("%-10s %12s %16s %14s\n", "cache", "TpmC", "requests/txn",
              "resp(ms)");
  double with = 0, without = 0;
  for (bool cache : {true, false}) {
    db::TellDbOptions options;
    options.num_processing_nodes = 1;
    options.num_storage_nodes = 7;
    options.btree.cache_inner_nodes = cache;
    TellFixture fixture(options, BenchScale());
    auto result = fixture.Run(8, tpcc::Mix::kWriteIntensive);
    if (!result.ok()) continue;
    double requests_per_txn =
        static_cast<double>(result->merged.storage_requests) /
        static_cast<double>(result->committed + result->aborted);
    std::printf("%-10s %12.0f %16.1f %14.3f\n", cache ? "on" : "off",
                result->tpmc, requests_per_txn, result->mean_response_ms);
    json.Add(cache ? "cache_on" : "cache_off", *result, fixture.db());
    (cache ? with : without) = result->tpmc;
  }
  std::printf("\nshape checks: caching on / off = %.2fx\n", with / without);
  json.Write();
  PrintFooter();
  return 0;
}
