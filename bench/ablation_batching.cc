// Ablation: request batching (paper §5.1 — "Tell aggressively batches
// operations"). With batching on, the ops of one storage call bound for the
// same SN share one coalesced message and messages to distinct SNs fly in
// parallel; without it every logical operation pays a full sequential round
// trip.
//
// TELL_BATCHING_QUICK=1 shortens the window for ctest. Either mode exits
// non-zero unless batching_on needs strictly fewer storage requests per
// transaction than batching_off. Every batched path (B+tree descents, index
// installs, record prefetches) goes through BatchGet / BatchWrite; the
// finer check that a B+tree lookup batch costs at most one request per tree
// level lives in btree_test (BatchLookupBatchesDescents*,
// BatchCostsStayPinned).
#include <cstdlib>

#include "bench/bench_util.h"

using namespace tell;
using namespace tell::bench;

int main() {
  const bool quick = std::getenv("TELL_BATCHING_QUICK") != nullptr;
  const uint64_t virtual_ms = quick ? 30 : kVirtualMs;
  PrintHeader("Ablation", "Request batching (write-intensive, RF1, 8 PN)",
              "§5.1: batching several operations into one request (and "
              "issuing requests to distinct SNs in parallel) is a key "
              "technique for minimizing network requests");

  BenchJson json("ablation_batching");
  json.AddConfig("mix", "write_intensive");
  json.AddConfig("replication_factor", uint64_t{1});
  json.AddConfig("virtual_ms", virtual_ms);
  json.AddConfig("quick", quick ? uint64_t{1} : uint64_t{0});

  struct Config {
    const char* name;
    const char* label;
    bool batching;
  };
  const Config configs[] = {
      {"off", "batching_off", false},
      {"on", "batching_on", true},
  };

  std::printf("%-10s %12s %16s %14s\n", "mode", "TpmC", "requests/txn",
              "resp(ms)");
  // Per config, in the order above.
  double tpmc[2] = {0, 0};
  double requests[2] = {0, 0};  // storage requests per transaction
  for (size_t c = 0; c < 2; ++c) {
    const Config& config = configs[c];
    db::TellDbOptions options;
    options.num_processing_nodes = 1;
    options.num_storage_nodes = 7;
    options.batching = config.batching;
    TellFixture fixture(options, BenchScale());
    auto result = fixture.Run(8, tpcc::Mix::kWriteIntensive, kWorkersPerPn,
                              virtual_ms);
    if (!result.ok()) {
      std::fprintf(stderr, "%s run failed: %s\n", config.name,
                   result.status().ToString().c_str());
      return 1;
    }
    tpmc[c] = result->tpmc;
    requests[c] = static_cast<double>(result->merged.storage_requests) /
                  static_cast<double>(result->committed + result->aborted);
    std::printf("%-10s %12.0f %16.1f %14.3f\n", config.name, result->tpmc,
                requests[c], result->mean_response_ms);
    json.Add(config.label, *result, fixture.db());
  }
  std::printf("\nshape checks: batching on / off = %.2fx\n", tpmc[1] / tpmc[0]);
  json.Write();
  PrintFooter();
  if (!(requests[1] < requests[0])) {
    std::fprintf(stderr,
                 "batching_on needs %.1f requests/txn: want fewer than "
                 "batching_off's %.1f\n",
                 requests[1], requests[0]);
    return 1;
  }
  return 0;
}
