// Ablation: commit manager tid range size (paper §4.2). Ranges keep the
// shared tid counter off the critical path; but a continuous range also
// delays snapshot-base advancement (tids of the range stay "incomplete"
// until assigned), which the paper notes raises the abort rate.
#include "bench/bench_util.h"

using namespace tell;
using namespace tell::bench;

int main() {
  PrintHeader("Ablation", "Tid range size (write-intensive, 8 PN, 2 CMs)",
              "§4.2: continuous tid ranges avoid a counter bottleneck but "
              "larger ranges can raise the abort rate (the paper chose 256)");

  BenchJson json("ablation_tid_ranges");
  json.AddConfig("mix", "write_intensive");
  json.AddConfig("commit_managers", uint64_t{2});
  json.AddConfig("commit_manager_sync_ms", 1.0);
  json.AddConfig("virtual_ms", uint64_t{kVirtualMs});

  std::printf("%-12s %12s %10s\n", "range size", "TpmC", "abort%");
  for (uint32_t range : {1u, 16u, 256u, 4096u}) {
    db::TellDbOptions options;
    options.num_processing_nodes = 1;
    options.num_storage_nodes = 7;
    options.num_commit_managers = 2;
    options.commit_manager.tid_range_size = range;
    options.commit_manager_sync_ms = 1.0;
    TellFixture fixture(options, BenchScale());
    auto result = fixture.Run(8, tpcc::Mix::kWriteIntensive);
    if (!result.ok()) {
      std::printf("%-12u failed: %s\n", range,
                  result.status().ToString().c_str());
      continue;
    }
    std::printf("%-12u %12.0f %9.2f%%\n", range, result->tpmc,
                result->abort_rate * 100);
    json.Add("range_" + std::to_string(range), *result, fixture.db());
  }
  std::printf(
      "\nshape checks: range size itself is flat (the counter is never the\n"
      "bottleneck at this scale).\n");
  json.Write();
  PrintFooter();
  return 0;
}
