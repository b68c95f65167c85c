// Ablation: request batching/pipelining (paper §5.1 — "Tell aggressively
// batches operations"). Without batching every logical operation pays a
// full sequential round trip; the pipelined mode additionally coalesces
// independent requests of one worker into one message per SN and overlaps
// the round trips (async StorageClient pipeline).
//
// TELL_BATCHING_QUICK=1 shortens the window for ctest. Either mode exits
// non-zero unless batching_on needs strictly fewer storage requests per
// transaction than batching_off, and at most 10% more than pipelined: every
// batched path (B+tree descents, index installs, record prefetches) goes
// through BatchGet / BatchWrite, so pipelining has only single-op calls
// left to merge. A path that stops batching without pipelining, such as
// one B+tree descent per key, fails the run.
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
              "technique for minimizing network requests; the pipelined "
              "mode measures the overlap, not just the message count");

  BenchJson json("ablation_batching");
  json.AddConfig("mix", "write_intensive");
  json.AddConfig("replication_factor", uint64_t{1});
  json.AddConfig("virtual_ms", virtual_ms);
  json.AddConfig("quick", quick ? uint64_t{1} : uint64_t{0});

  struct Config {
    const char* name;
    const char* label;
    bool batching;
    bool pipelining;
  };
  const Config configs[] = {
      {"off", "batching_off", false, false},
      {"on", "batching_on", true, false},
      {"pipelined", "pipelined", true, true},
  };

  std::printf("%-10s %12s %16s %14s\n", "mode", "TpmC", "requests/txn",
              "resp(ms)");
  // Per config, in the order above.
  double tpmc[3] = {0, 0, 0};
  double requests[3] = {0, 0, 0};  // storage requests per transaction
  for (size_t c = 0; c < 3; ++c) {
    const Config& config = configs[c];
    db::TellDbOptions options;
    options.num_processing_nodes = 1;
    options.num_storage_nodes = 7;
    options.batching = config.batching;
    options.pipelining = config.pipelining;
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
  std::printf("shape checks: pipelined / synchronous = %.2fx (expect >= 2x)\n",
              tpmc[2] / tpmc[0]);
  json.Write();
  PrintFooter();
  if (!(requests[1] < requests[0]) || requests[1] > 1.1 * requests[2]) {
    std::fprintf(stderr,
                 "batching_on needs %.1f requests/txn: want fewer than "
                 "batching_off's %.1f and at most 10%% above pipelined's "
                 "%.1f\n",
                 requests[1], requests[0], requests[2]);
    return 1;
  }
  return 0;
}
