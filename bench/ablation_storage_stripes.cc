// Ablation: lock-striped storage-node engine (DESIGN.md "Storage engine").
// The paper's storage layer is RamCloud — a hash table built to absorb
// requests from many processing-node workers at once (§4, §6.1). The old
// engine guarded each table partition with ONE shared_mutex over one
// std::map, so every write to a partition serialized even for disjoint
// keys; the striped engine splits each partition into N independently
// locked stripes selected by key hash. This bench measures the effect on
// the REAL-concurrency axis — wall-clock throughput of real threads — which
// virtual time deliberately cannot see:
//
//   * write-heavy micro: W threads hammer Put/Get on disjoint keys of one
//     partition of one StorageNode, stripe count 1/4/16/64 x 8/32 workers.
//     With one stripe every op pays a contended lock handoff; with 64 the
//     fast path is an uncontended try_lock.
//   * TPC-C write-intensive mix on the full database, stripes 1 vs 64: the
//     virtual-time TpmC and abort rate must stay flat (the modelled costs
//     and the LL/SC conflict pattern do not change), while wall-clock
//     elapsed improves with contention removed.
//
// The contention counters (`store.node.stripe_conflicts`,
// `store.node.lock_wait_ns`) land in the JSON artifact alongside the new
// wall-clock derived fields (wall_seconds, wall_ops_per_sec / wall_tps).
//
// Quick mode: set TELL_STORAGE_STRIPES_QUICK=1 for a small sweep (used by
// the ctest JSON round trip, where wall-clock budget matters more).
#include <chrono>
#include <cstdlib>
#include <thread>

#include "bench/bench_util.h"
#include "store/storage_node.h"

using namespace tell;
using namespace tell::bench;

namespace {

struct MicroResult {
  double wall_seconds = 0;
  double ops_per_sec = 0;
  store::StorageNodeStats node_stats;
};

/// Write-heavy micro: `workers` threads, each issuing `ops_per_worker`
/// operations (90% Put / 10% Get, per-thread LCG) over its own pre-built
/// key set within ONE partition. Keys are disjoint across threads, so all
/// contention is lock contention, not LL/SC conflict. Keys are inserted
/// before timing starts so every rep measures the steady-state overwrite
/// path, and the best of `reps` timings is kept (scheduler noise on a busy
/// host only ever slows a rep down).
MicroResult RunMicro(uint32_t stripes, uint32_t workers,
                     uint32_t ops_per_worker, uint32_t reps) {
  store::StorageNode node(0, 1ULL << 30, stripes);
  node.CreatePartition(1, 0);

  constexpr uint32_t kKeysPerWorker = 512;
  const std::string value(16, 'v');
  std::vector<std::vector<std::string>> keys(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    keys[w].reserve(kKeysPerWorker);
    for (uint32_t k = 0; k < kKeysPerWorker; ++k) {
      keys[w].push_back("t" + std::to_string(w) + "_k" + std::to_string(k));
      (void)node.Write(0, {.table = 1, .key = keys[w].back(), .value = value,
                           .conditional = false});
    }
  }

  MicroResult r;
  for (uint32_t rep = 0; rep < reps; ++rep) {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    const auto start = std::chrono::steady_clock::now();
    for (uint32_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        uint64_t rng = 0x9E3779B97F4A7C15ULL ^ (w + 1);
        const std::vector<std::string>& my_keys = keys[w];
        for (uint32_t i = 0; i < ops_per_worker; ++i) {
          rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
          const std::string& key = my_keys[(rng >> 33) % kKeysPerWorker];
          if ((rng >> 8) % 10 == 0) {
            (void)node.Get(1, 0, key);
          } else {
            (void)node.Write(0, {.table = 1, .key = key, .value = value,
                                 .conditional = false});
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (rep == 0 || wall < r.wall_seconds) r.wall_seconds = wall;
  }
  r.ops_per_sec = r.wall_seconds > 0
                      ? static_cast<double>(workers) * ops_per_worker /
                            r.wall_seconds
                      : 0;
  r.node_stats = node.stats();
  return r;
}

}  // namespace

int main() {
  const bool quick = std::getenv("TELL_STORAGE_STRIPES_QUICK") != nullptr;

  PrintHeader("Ablation", "Lock-striped storage-node engine "
              "(write-heavy micro + TPC-C write mix)",
              "RamCloud absorbs concurrent requests per partition; one lock "
              "per partition serializes disjoint-key writes — striping "
              "restores >= 2x wall-clock throughput at 32 workers");

  BenchJson json("ablation_storage_stripes");
  const uint32_t ops_per_worker = quick ? 4000 : 20000;
  const uint32_t reps = quick ? 1 : 3;
  const unsigned cores = std::thread::hardware_concurrency();
  json.AddConfig("micro_ops_per_worker", uint64_t{ops_per_worker});
  json.AddConfig("micro_reps", uint64_t{reps});
  json.AddConfig("host_cores", uint64_t{cores});
  json.AddConfig("micro_mix", "90% put / 10% get, disjoint keys");
  json.AddConfig("tpcc_mix", "write_intensive");
  json.AddConfig("virtual_ms", uint64_t{quick ? 30 : kVirtualMs});
  json.AddConfig("quick", static_cast<uint64_t>(quick));

  const std::vector<uint32_t> stripe_counts =
      quick ? std::vector<uint32_t>{1, 64} : std::vector<uint32_t>{1, 4, 16, 64};
  const std::vector<uint32_t> worker_counts =
      quick ? std::vector<uint32_t>{8} : std::vector<uint32_t>{8, 32};

  // --- Part 1: write-heavy micro on one storage node --------------------
  std::printf("write-heavy micro (one partition, disjoint keys)\n");
  std::printf("%-8s %8s %14s %12s %14s %14s\n", "stripes", "workers",
              "wall_ops/s", "wall_s", "conflicts", "lock_wait_ms");
  double ops_1_stripe_top = 0, ops_max_stripe_top = 0;
  for (uint32_t workers : worker_counts) {
    for (uint32_t stripes : stripe_counts) {
      MicroResult r = RunMicro(stripes, workers, ops_per_worker, reps);
      std::printf("%-8u %8u %14.0f %12.3f %14llu %14.2f\n", stripes, workers,
                  r.ops_per_sec, r.wall_seconds,
                  static_cast<unsigned long long>(
                      r.node_stats.stripe_conflicts),
                  static_cast<double>(r.node_stats.lock_wait_ns) / 1e6);
      sim::WorkerMetrics merged;
      merged.storage_ops =
          static_cast<uint64_t>(workers) * ops_per_worker;
      std::vector<std::pair<std::string, double>> derived = {
          {"wall_seconds", r.wall_seconds},
          {"wall_ops_per_sec", r.ops_per_sec},
          {"stripe_conflicts",
           static_cast<double>(r.node_stats.stripe_conflicts)},
          {"lock_wait_ms",
           static_cast<double>(r.node_stats.lock_wait_ns) / 1e6},
      };
      json.AddMetrics("micro_s" + std::to_string(stripes) + "_w" +
                          std::to_string(workers),
                      merged, std::move(derived));
      if (workers == worker_counts.back()) {
        if (stripes == 1) ops_1_stripe_top = r.ops_per_sec;
        if (stripes == stripe_counts.back()) ops_max_stripe_top = r.ops_per_sec;
      }
    }
  }

  // --- Part 2: TPC-C write mix on the full database ---------------------
  std::printf("\nTPC-C write-intensive (virtual TpmC must stay flat; wall "
              "axis moves)\n");
  std::printf("%-8s %8s %12s %10s %12s %12s\n", "stripes", "workers", "TpmC",
              "abort%", "wall_s", "wall_tps");
  const std::vector<uint32_t> pn_counts =
      quick ? std::vector<uint32_t>{1} : std::vector<uint32_t>{2, 8};
  for (uint32_t pns : pn_counts) {
    for (uint32_t stripes : {1u, 64u}) {
      db::TellDbOptions options;
      options.num_processing_nodes = 1;
      options.num_storage_nodes = 3;
      options.stripes_per_partition = stripes;
      TellFixture fixture(options, BenchScale());
      auto result = fixture.Run(pns, tpcc::Mix::kWriteIntensive, kWorkersPerPn,
                                quick ? 30 : kVirtualMs);
      const uint32_t workers = pns * kWorkersPerPn;
      if (!result.ok()) {
        std::printf("%-8u %8u run failed: %s\n", stripes, workers,
                    result.status().ToString().c_str());
        continue;
      }
      std::printf("%-8u %8u %12.0f %9.2f%% %12.3f %12.0f\n", stripes, workers,
                  result->tpmc, result->abort_rate * 100, result->wall_seconds,
                  result->wall_tps);
      json.Add("tpcc_s" + std::to_string(stripes) + "_w" +
                   std::to_string(workers),
               *result, fixture.db());
    }
  }

  if (ops_1_stripe_top > 0) {
    std::printf("\nshape checks: micro wall ops/s, %u stripes / 1 stripe at "
                "%u workers = %.2fx on %u core(s) — expect >= 2x on "
                "multi-core hosts; on a single core blocked writers cost "
                "only context switches, not lost parallelism, so the gap "
                "narrows\n",
                stripe_counts.back(), worker_counts.back(),
                ops_max_stripe_top / ops_1_stripe_top, cores);
    std::printf("shape checks: TPC-C virtual TpmC and abort rate flat across "
                "stripe counts — stamps stay monotonic and scans keep exact "
                "order, so visibility and conflicts are unchanged; only the "
                "wall-clock axis moves.\n");
  }
  json.Write();
  PrintFooter();
  return 0;
}
