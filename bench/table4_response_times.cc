// Table 4: TPC-C transaction response times (mean ± σ) on a small and a
// large cluster, standard and shardable mixes, across the four systems.
//
// Single source of truth: every number printed below is read back from the
// obs::MetricsSnapshot that BenchJson::Add recorded — the stdout table and
// BENCH_table4_response_times.json can never disagree.
//
// Quick mode: set TELL_TABLE4_QUICK=1 to run only the small cluster's
// serial round probe (`round_probe_small`). Its rounds per transaction
// type repeat exactly run to run; ctest compares them against
// bench/baselines/table4_round_probe.json with a threshold of 0.
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "baselines/central_validation_db.h"
#include "baselines/partitioned_serial_db.h"
#include "baselines/two_pc_partitioned_db.h"
#include "bench/bench_util.h"

using namespace tell;
using namespace tell::bench;

namespace {

void Row(const char* mix, const char* system, const char* size,
         const obs::MetricsSnapshot& snap) {
  const sim::Histogram* resp = snap.Hist("tx.response_time");
  if (resp == nullptr || resp->count() == 0) return;
  std::printf("%-10s %-22s %-7s %10.3f ± %-8.3f\n", mix, system, size,
              resp->Mean() / 1e6, resp->StdDev() / 1e6);
}

/// The round budget per transaction type: one session on PN 0 of a freshly
/// loaded database drives the standard mix serially, and each
/// transaction's `tx.storage_rounds` sample is filed under its type. The
/// database state each transaction meets is then the same in every build,
/// so the means compare across builds. Prints the mean per type and
/// records them as the `round_probe_<size>` run's derived values.
void RoundsPerType(TellFixture* fixture, const std::string& suffix,
                   BenchJson* json) {
  constexpr int kTxns = 600;
  constexpr const char* kTypes[] = {"new_order", "payment", "delivery",
                                    "order_status", "stock_level"};
  auto session = fixture->db()->OpenSession(0, /*worker_id=*/1000);
  auto tables = tpcc::OpenTpccTables(fixture->db(), 0);
  if (!tables.ok()) return;
  tpcc::TpccExecutor executor(session.get(), *tables);
  tpcc::InputGenerator generator(fixture->scale(),
                                 tpcc::Mix::kWriteIntensive, /*seed=*/404,
                                 /*home_warehouse=*/1);
  const sim::Histogram& rounds = session->metrics()->storage_rounds;
  double sum[std::size(kTypes)] = {};
  uint64_t count[std::size(kTypes)] = {};
  for (int i = 0; i < kTxns; ++i) {
    const tpcc::TxnInput input = generator.Next();
    const double before = rounds.Mean() * static_cast<double>(rounds.count());
    const uint64_t samples = rounds.count();
    if (!executor.Execute(input).ok()) return;
    const size_t type = static_cast<size_t>(input.type);
    sum[type] += rounds.Mean() * static_cast<double>(rounds.count()) - before;
    count[type] += rounds.count() - samples;
  }
  std::vector<std::pair<std::string, double>> derived;
  for (size_t t = 0; t < std::size(kTypes); ++t) {
    derived.emplace_back(
        std::string("rounds_") + kTypes[t],
        count[t] == 0 ? 0 : sum[t] / static_cast<double>(count[t]));
  }
  std::printf("  storage rounds per txn (tx.storage_rounds mean):");
  for (const auto& [key, mean] : derived) {
    std::printf(" %s %.1f", key.c_str() + std::strlen("rounds_"), mean);
  }
  std::printf("\n");
  json->AddMetrics("round_probe" + suffix, *session->metrics(),
                   std::move(derived));
}

/// Tell's cluster of the small (2 PN) or large (8 PN) configuration.
db::TellDbOptions TellOptions(bool large) {
  db::TellDbOptions options;
  options.num_processing_nodes = large ? 8 : 2;
  options.num_storage_nodes = 7;
  options.replication_factor = 3;
  return options;
}

Result<tpcc::DriverResult> RunBackend(tpcc::TpccBackend* backend,
                                      tpcc::Mix mix, uint32_t workers) {
  tpcc::DriverOptions options;
  options.scale = BenchScale();
  options.mix = mix;
  options.num_workers = workers;
  options.duration_virtual_ms = 400;
  return tpcc::RunTpcc(backend, options);
}

}  // namespace

int main() {
  PrintHeader(
      "Table 4", "TPC-C transaction response times (mean ± σ, ms)",
      "standard mix — Tell 14±2 (small) / 21±41 (large); MySQL 34±40 / "
      "40±40; VoltDB 706±1561 / 4868+-1875 (multi-partition stalls); FDB "
      "149±138 / 192±138. Shardable — VoltDB drops to 62±59 / 68±59. "
      "Absolute values differ (scaled population & modelled cluster); the "
      "ORDER of the systems is the claim.");

  BenchJson json("table4_response_times");
  json.AddConfig("replication_factor", uint64_t{3});
  if (std::getenv("TELL_TABLE4_QUICK") != nullptr) {
    TellFixture fixture(TellOptions(/*large=*/false), BenchScale());
    RoundsPerType(&fixture, "_small", &json);
    json.Write();
    PrintFooter();
    return 0;
  }
  json.AddConfig("virtual_ms", uint64_t{400});

  std::printf("%-10s %-22s %-7s %12s\n", "mix", "system", "size",
              "resp ms (mean±σ)");
  for (bool large : {false, true}) {
    const char* size = large ? "large" : "small";
    const std::string suffix = std::string("_") + size;
    // Tell — standard and shardable.
    {
      const db::TellDbOptions options = TellOptions(large);
      {
        TellFixture fixture(options, BenchScale());
        auto standard =
            fixture.Run(large ? 8 : 2, tpcc::Mix::kWriteIntensive);
        if (standard.ok()) {
          const obs::MetricsSnapshot& snap = json.Add(
              "tell_standard" + suffix, *standard, fixture.db());
          Row("standard", "Tell", size, snap);
          PrintPhaseBreakdown(snap);
        }
      }
      {
        TellFixture fixture(options, BenchScale());
        RoundsPerType(&fixture, suffix, &json);
      }
      {
        TellFixture fixture(options, BenchScale());
        auto shard = fixture.Run(large ? 8 : 2, tpcc::Mix::kShardable);
        if (shard.ok()) {
          Row("shardable", "Tell", size,
              json.Add("tell_shardable" + suffix, *shard, fixture.db()));
        }
      }
      // Tell with the RDMA direction on: one-sided READs + the leased
      // client record cache (DESIGN.md "One-sided reads & client caching")
      // shave the read share of every transaction's response time.
      {
        db::TellDbOptions cached = options;
        cached.one_sided_reads = true;
        cached.record_cache.enabled = true;
        TellFixture fixture(cached, BenchScale());
        auto standard =
            fixture.Run(large ? 8 : 2, tpcc::Mix::kWriteIntensive);
        if (standard.ok()) {
          Row("standard", "Tell+1sided", size,
              json.Add("tell_onesided" + suffix, *standard, fixture.db()));
        }
      }
    }
    // VoltDB-style.
    {
      uint32_t nodes = large ? 9 : 3;
      baselines::PartitionedSerialOptions options;
      options.replication_factor = 3;
      options.mp_service_ns = 1'500'000 + 300'000 * nodes;
      baselines::PartitionedSerialDb voltdb(BenchScale(), options);
      auto standard =
          RunBackend(&voltdb, tpcc::Mix::kWriteIntensive, nodes * 4);
      if (standard.ok()) {
        Row("standard", "VoltDB-style", size,
            json.Add("voltdb_standard" + suffix, *standard));
      }
      baselines::PartitionedSerialDb voltdb2(BenchScale(), options);
      auto shard = RunBackend(&voltdb2, tpcc::Mix::kShardable, nodes * 4);
      if (shard.ok()) {
        Row("shardable", "VoltDB-style", size,
            json.Add("voltdb_shardable" + suffix, *shard));
      }
    }
    // MySQL-Cluster-style.
    {
      baselines::TwoPcOptions options;
      options.num_data_nodes = large ? 9 : 3;
      options.replication_factor = 3;
      baselines::TwoPcPartitionedDb mysql(BenchScale(), options);
      auto standard = RunBackend(&mysql, tpcc::Mix::kWriteIntensive,
                                 options.num_data_nodes * 4);
      if (standard.ok()) {
        Row("standard", "MySQL-Cluster-style", size,
            json.Add("mysql_standard" + suffix, *standard));
      }
    }
    // FoundationDB-style.
    {
      baselines::CentralValidationOptions options;
      options.num_storage_servers = large ? 9 : 3;
      baselines::CentralValidationDb fdb(BenchScale(), options);
      auto standard = RunBackend(&fdb, tpcc::Mix::kWriteIntensive,
                                 (large ? 9 : 3) * 8);
      if (standard.ok()) {
        Row("standard", "FoundationDB-style", size,
            json.Add("fdb_standard" + suffix, *standard));
      }
    }
  }
  std::printf("\nshape checks: Tell fastest; VoltDB's standard-mix latency "
              "explodes vs its shardable latency; FDB an order of magnitude "
              "above Tell.\n");
  json.Write();
  PrintFooter();
  return 0;
}
