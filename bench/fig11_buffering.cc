// Figure 11: buffering strategies (paper §5.5/§6.7). With fast RDMA the
// plain transaction buffer (TB) wins; the shared record buffer (SB) pays
// management overhead for a ~1.4% hit rate; version-set synchronization
// (SBVS) buys a much better hit rate but pays two storage requests per
// update — a net loss under the write-heavy TPC-C.
#include "bench/bench_util.h"

using namespace tell;
using namespace tell::bench;

int main() {
  PrintHeader("Figure 11", "Buffering strategies (write-intensive, RF1)",
              "TB fastest; SB worse (1.42% hit rate, overhead > benefit); "
              "SBVS10/SBVS1000 worst (extra version-set update requests; "
              "SBVS1000 hit rate 37.37% still cannot pay for them)");

  struct Config {
    const char* name;
    db::BufferStrategy strategy;
    uint64_t unit;
  };
  const Config configs[] = {
      {"TB", db::BufferStrategy::kTransactionOnly, 0},
      {"SB", db::BufferStrategy::kSharedRecord, 0},
      {"SBVS10", db::BufferStrategy::kVersionSync, 10},
      {"SBVS1000", db::BufferStrategy::kVersionSync, 1000},
  };

  BenchJson json("fig11_buffering");
  json.AddConfig("mix", "write_intensive");
  json.AddConfig("replication_factor", uint64_t{1});
  json.AddConfig("virtual_ms", uint64_t{kVirtualMs});

  std::printf("%-10s %-4s %12s %12s\n", "strategy", "PN", "TpmC",
              "buffer hit%");
  double peak[4] = {0};
  int i = 0;
  for (const Config& config : configs) {
    db::TellDbOptions options;
    options.num_processing_nodes = 1;
    options.num_storage_nodes = 7;
    options.replication_factor = 1;
    options.buffer_strategy = config.strategy;
    options.buffer_unit_size = config.unit;
    TellFixture fixture(options, BenchScale());
    for (uint32_t pns : {1u, 4u, 8u}) {
      auto result = fixture.Run(pns, tpcc::Mix::kWriteIntensive);
      if (!result.ok()) continue;
      std::printf("%-10s %-4u %12.0f %11.2f%%\n", config.name, pns,
                  result->tpmc, result->buffer_hit_rate * 100);
      json.Add(std::string(config.name) + "_pn" + std::to_string(pns),
               *result, fixture.db());
      peak[i] = std::max(peak[i], result->tpmc);
    }
    ++i;
  }
  std::printf("\nshape checks (paper: TB > SB > SBVS):\n");
  std::printf("  TB peak:       %.0f TpmC\n", peak[0]);
  std::printf("  SB/TB:         %.2f (paper <1)\n", peak[1] / peak[0]);
  std::printf("  SBVS10/TB:     %.2f (paper <1)\n", peak[2] / peak[0]);
  std::printf("  SBVS1000/TB:   %.2f (paper <1)\n", peak[3] / peak[0]);
  json.Write();
  PrintFooter();
  return 0;
}
