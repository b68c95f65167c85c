// Chaos recovery bench (docs/RECOVERY.md): what fail-over and live
// migration cost under TPC-C load.
//
// Three runs on identical populations:
//   * baseline        — replicated commit slot (3 replicas), no faults;
//   * kill_leader     — the fault injector murders the commit-slot leader
//     twice mid-run (one begin lost, one ambiguous begin whose response
//     dies with the leader). Clients elect a successor deterministically
//     and resume; recovery_time_ms is the modelled leader outage — the
//     election timeout every election charged to the electing worker —
//     and kills_injected counts the fired kill rules;
//   * migrate_under_load — a stock partition's master copy moves to
//     another storage node while the workload runs (watermarked copy
//     rounds, seal cut-over). migration_dip_pct is the committed-
//     throughput dip vs the baseline run on the same virtual window.
//
// tools/check_bench_json.py enforces the coherence of the new derived
// fields (recovery_time_ms > 0 iff kills_injected > 0, dip bounded) and
// tools/bench_compare.py treats both as lower-is-better.
//
// Quick mode: set TELL_CHAOS_RECOVERY_QUICK=1 (the ctest round trip).
#include <cstdlib>
#include <thread>

#include "bench/bench_util.h"
#include "sim/fault_injector.h"
#include "workload/tpcc/tpcc_schema.h"

using namespace tell;
using namespace tell::bench;

namespace {

void PrintRow(const char* run, const tpcc::DriverResult& r, double extra,
              const char* extra_name) {
  std::printf("%-18s %12.0f %12.2f %9.2f%%   %s=%.3f\n", run, r.tpmc, r.tps,
              r.abort_rate * 100, extra_name, extra);
}

}  // namespace

int main() {
  const bool quick = std::getenv("TELL_CHAOS_RECOVERY_QUICK") != nullptr;

  PrintHeader("Chaos", "Leader fail-over and live partition migration "
              "under TPC-C",
              "the commit manager concentrates snapshot/ordering authority "
              "(§4.2); replicating it and migrating partitions online are "
              "what \"no single point of failure, elastic scale\" costs — "
              "measured here as recovery time and throughput dip");

  const uint64_t virtual_ms = quick ? 30 : kVirtualMs;
  const uint32_t workers = quick ? 4 : 8;
  tpcc::TpccScale scale = BenchScale();
  if (quick) {
    scale.warehouses = 4;
    scale.customers_per_district = 8;
    scale.items = 100;
    scale.initial_orders_per_district = 8;
  }

  BenchJson json("chaos_recovery");
  json.AddConfig("mix", "write_intensive");
  json.AddConfig("workers", uint64_t{workers});
  json.AddConfig("virtual_ms", virtual_ms);
  json.AddConfig("commit_replicas", uint64_t{3});
  json.AddConfig("quick", quick ? uint64_t{1} : uint64_t{0});

  double baseline_tps = 0;  // set by the first run, read by the migrate run
  auto run_one = [&](sim::FaultInjector* injector, bool migrate,
                     double* out_tps) -> int {
    db::TellDbOptions options;
    options.commit_replication.replicas = 3;
    options.fault_injector = injector;
    if (injector != nullptr) injector->Disarm();  // not during the load
    TellFixture fixture(options, scale);
    tpcc::TellBackend backend(fixture.db());
    tpcc::DriverOptions driver;
    driver.scale = scale;
    driver.mix = tpcc::Mix::kWriteIntensive;
    driver.num_workers = workers;
    driver.duration_virtual_ms = virtual_ms;

    // The migration races the workload on real threads: pick the stock
    // partition that owns warehouse 1 and move its master one node over
    // while the drivers run. Writes that meet the sealed source bounce into
    // the client retry loop; the dip is whatever that plus the copy traffic
    // costs.
    std::thread migrator;
    if (migrate) {
      auto tables = tpcc::OpenTpccTables(fixture.db(), 0);
      if (!tables.ok()) {
        std::fprintf(stderr, "open tables failed: %s\n",
                     tables.status().ToString().c_str());
        return 1;
      }
      const store::TableId stock = tables->stock->meta->data_table;
      store::Cluster* cluster = fixture.db()->cluster();
      auto placement = cluster->partition_map().PlacementOf(stock, 0);
      if (!placement.ok()) {
        std::fprintf(stderr, "placement lookup failed\n");
        return 1;
      }
      const uint32_t dest = (placement->master + 1) % cluster->num_nodes();
      migrator = std::thread([db = fixture.db(), stock, dest] {
        Status st = db->management()->MigratePartition(stock, 0, dest);
        if (!st.ok()) {
          std::fprintf(stderr, "migration failed: %s\n",
                       st.ToString().c_str());
        }
      });
    }
    if (injector != nullptr) injector->Arm();
    auto result = tpcc::RunTpcc(&backend, driver);
    if (injector != nullptr) injector->Disarm();
    if (migrator.joinable()) migrator.join();
    if (!result.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (out_tps != nullptr) *out_tps = result->tps;

    const char* label = injector != nullptr ? "kill_leader"
                        : migrate          ? "migrate_under_load"
                                           : "baseline";
    auto derived = DerivedOf(*result);
    if (injector != nullptr) {
      // Modelled leader outage: every election charged its timeout to the
      // electing worker's virtual clock (docs/RECOVERY.md "Elections").
      const commitmgr::GroupReplicationStats repl =
          fixture.db()->commit_managers()->ReplStats();
      const double recovery_ms =
          static_cast<double>(repl.elections) *
          static_cast<double>(commitmgr::kElectionTimeoutNs) / 1e6;
      derived.emplace_back("recovery_time_ms", recovery_ms);
      derived.emplace_back(
          "kills_injected",
          static_cast<double>(injector->stats().leader_kills));
      derived.emplace_back("elections", static_cast<double>(repl.elections));
      PrintRow(label, *result, recovery_ms, "recovery_time_ms");
    } else if (migrate) {
      const double dip_pct =
          baseline_tps > 0
              ? (baseline_tps - result->tps) / baseline_tps * 100.0
              : 0.0;
      derived.emplace_back("migration_dip_pct", dip_pct);
      PrintRow(label, *result, dip_pct, "migration_dip_pct");
      const store::MigrationStats mig =
          fixture.db()->management()->migration_stats();
      std::printf("  migration: %llu completed, %llu cells copied, "
                  "%llu delta rounds\n",
                  static_cast<unsigned long long>(mig.completed),
                  static_cast<unsigned long long>(mig.cells_copied),
                  static_cast<unsigned long long>(mig.delta_rounds));
    } else {
      PrintRow(label, *result, 0.0, "recovery_time_ms");
    }
    json.AddMetrics(label, result->merged, std::move(derived), fixture.db());
    return 0;
  };

  std::printf("%-18s %12s %12s %10s\n", "run", "TpmC", "tps", "abort%");

  if (run_one(nullptr, false, &baseline_tps) != 0) return 1;

  // Two leader kills: one begin killed before it executes (request lost),
  // one ambiguous (executed, then the leader dies holding the response —
  // the begin token resolves it on the successor). Skips land them inside
  // the measured window; with 3 replicas a live leader always remains.
  sim::FaultInjector injector(sim::FaultPlan{
      .seed = 0xC40C0FFE,
      .rules = {
          sim::FaultRule{.kind = sim::FaultRule::Kind::kKillCommitLeader,
                         .op = sim::FaultOpClass::kCommitMgrStart,
                         .skip_matches = 8,
                         .probability = 1.0,
                         .max_fires = 1},
          sim::FaultRule{.kind = sim::FaultRule::Kind::kKillCommitLeader,
                         .op = sim::FaultOpClass::kCommitMgrStart,
                         .skip_matches = 80,
                         .probability = 1.0,
                         .max_fires = 1},
          sim::FaultRule{.kind = sim::FaultRule::Kind::kDropResponse,
                         .op = sim::FaultOpClass::kCommitMgrStart,
                         .skip_matches = 80,
                         .probability = 1.0,
                         .max_fires = 1},
      }});
  if (run_one(&injector, false, nullptr) != 0) return 1;

  double migrate_tps = 0;
  if (run_one(nullptr, true, &migrate_tps) != 0) return 1;
  std::printf("\nmigration window: committed tps %.1f -> %.1f vs baseline\n",
              baseline_tps, migrate_tps);

  json.Write();
  PrintFooter();
  return 0;
}
