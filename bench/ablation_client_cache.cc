// Ablation: lease-based client record caching + one-sided reads — the RDMA
// direction (DESIGN.md "One-sided reads & client caching"). On an RDMA-class
// network a read either hits the PN-shared record cache (no round trip at
// all) or travels as a one-sided READ that skips the kernel/software
// overhead AND the storage node's request dispatch. The cache helps any
// transport; the one-sided path exists only on RDMA-class models, so the
// full package widens InfiniBand's advantage over a plain (uncached,
// two-sided) Ethernet deployment — the Fig. 10 gap.
//
// Quick mode: set TELL_CLIENT_CACHE_QUICK=1 to run a small population and a
// short window (used by the ctest JSON round trip).
#include <cstdlib>

#include "bench/bench_util.h"

using namespace tell;
using namespace tell::bench;

int main() {
  const bool quick = std::getenv("TELL_CLIENT_CACHE_QUICK") != nullptr;
  const uint32_t pns = quick ? 1 : 4;
  const uint64_t virtual_ms = quick ? 30 : kVirtualMs;
  tpcc::TpccScale scale = BenchScale();
  if (quick) {
    scale.warehouses = 4;
    scale.customers_per_district = 8;
    scale.initial_orders_per_district = 4;
  }

  PrintHeader("Ablation",
              "Client record cache + one-sided reads (read-intensive)",
              "the RDMA direction beyond §5.1: leased caching and one-sided "
              "READs cut read latency on InfiniBand and widen the Fig. 10 "
              "IB-vs-Ethernet gap (no effect on kernel TCP)");

  BenchJson json("ablation_client_cache");
  json.AddConfig("mix", "read_intensive");
  json.AddConfig("storage_nodes", uint64_t{7});
  json.AddConfig("processing_nodes", uint64_t{pns});
  json.AddConfig("virtual_ms", virtual_ms);
  json.AddConfig("quick", static_cast<uint64_t>(quick));

  std::printf("%-12s %-6s %12s %10s %10s %10s %12s\n", "network", "cache",
              "TpmC", "hit_rate", "resp(ms)", "p95(ms)", "1sided_reads");
  double tpmc[2][2] = {{0, 0}, {0, 0}};
  double resp[2][2] = {{0, 0}, {0, 0}};
  for (bool infiniband : {true, false}) {
    for (bool cached : {true, false}) {
      db::TellDbOptions options;
      options.num_processing_nodes = 1;
      options.num_storage_nodes = 7;
      options.network = infiniband ? sim::NetworkModel::InfiniBand()
                                   : sim::NetworkModel::TenGbEthernet();
      options.record_cache.enabled = cached;
      // One package: the cache and the one-sided read path ship together.
      // The one-sided half is inert on kernel TCP (HasOneSidedReads gates
      // it); the cache half works on any transport.
      options.one_sided_reads = cached;
      TellFixture fixture(options, scale);
      auto result =
          fixture.Run(pns, tpcc::Mix::kReadIntensive, kWorkersPerPn,
                      virtual_ms);
      if (!result.ok()) continue;

      const sim::WorkerMetrics& m = result->merged;
      const double probes =
          static_cast<double>(m.cache_hits + m.cache_misses);
      const double hit_rate =
          probes > 0 ? static_cast<double>(m.cache_hits) / probes : 0.0;
      std::printf("%-12s %-6s %12.0f %10.3f %10.3f %10.3f %12llu\n",
                  options.network.name.c_str(), cached ? "on" : "off",
                  result->tpmc, hit_rate, result->mean_response_ms,
                  result->p95_response_ms,
                  static_cast<unsigned long long>(m.onesided_reads));

      auto derived = DerivedOf(*result);
      // Self-describing coherence hooks for tools/check_bench_json.py:
      // hit_rate must equal hits/(hits+misses), and a run whose network has
      // no one-sided support must report zero one-sided reads.
      derived.emplace_back("one_sided_capable",
                           options.network.HasOneSidedReads() ? 1.0 : 0.0);
      if (probes > 0) derived.emplace_back("cache_hit_rate", hit_rate);
      const std::string label = std::string(infiniband ? "ib" : "eth") +
                                (cached ? "_cache_on" : "_cache_off");
      json.AddMetrics(label, m, std::move(derived), fixture.db());
      tpmc[infiniband ? 0 : 1][cached ? 0 : 1] = result->tpmc;
      resp[infiniband ? 0 : 1][cached ? 0 : 1] = result->mean_response_ms;
    }
  }

  std::printf("\nshape checks:\n");
  if (tpmc[0][1] > 0 && resp[0][0] > 0) {
    std::printf("  InfiniBand: cache on / off TpmC = %.2fx, read response "
                "%.3f -> %.3f ms\n",
                tpmc[0][0] / tpmc[0][1], resp[0][1], resp[0][0]);
  }
  if (tpmc[1][0] > 0 && tpmc[1][1] > 0) {
    std::printf("  Ethernet:   cache on / off TpmC = %.2fx (the cache helps "
                "any transport; one-sided READs stay RDMA-only)\n",
                tpmc[1][0] / tpmc[1][1]);
    std::printf("  IB advantage over a plain Ethernet deployment: %.1fx "
                "two-sided uncached -> %.1fx with the RDMA direction on\n",
                tpmc[0][1] / tpmc[1][1], tpmc[0][0] / tpmc[1][1]);
  }
  json.Write();
  PrintFooter();
  return 0;
}
