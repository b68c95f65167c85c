#ifndef TELL_BENCH_BENCH_UTIL_H_
#define TELL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/bench_export.h"
#include "workload/tpcc/tpcc_driver.h"
#include "workload/tpcc/tpcc_loader.h"

namespace tell::bench {

/// The benchmark TPC-C population. The paper loads 200 warehouses on a
/// 12-server cluster; this reproduction runs the whole cluster inside one
/// process, so the population is scaled down (and with it the absolute
/// numbers) while keeping the per-warehouse shape — 10 districts, the
/// standard transaction mixes, NURand skew — that drives every effect the
/// figures show. EXPERIMENTS.md records paper-vs-measured per figure.
inline tpcc::TpccScale BenchScale() {
  tpcc::TpccScale scale;
  scale.warehouses = 16;
  scale.districts_per_warehouse = 10;
  scale.customers_per_district = 32;
  scale.items = 400;
  scale.initial_orders_per_district = 16;
  return scale;
}

/// Worker threads per processing node (the paper runs ~64 synchronous
/// threads per PN on 8 cores; this host has far fewer cores, so 4 per PN
/// keeps real-time scheduling artifacts small).
inline constexpr uint32_t kWorkersPerPn = 4;

/// Virtual measurement interval per worker (the paper measures 12 minutes;
/// throughput is a rate, so a shorter window only widens confidence bands).
inline constexpr uint64_t kVirtualMs = 150;

/// A loaded Tell cluster ready to run TPC-C sweeps. Processing nodes can be
/// added between runs (that is the architecture's elasticity story — no
/// reload needed when the PN count grows).
class TellFixture {
 public:
  TellFixture(db::TellDbOptions options, const tpcc::TpccScale& scale)
      : scale_(scale) {
    db_ = std::make_unique<db::TellDb>(options);
    Status st = tpcc::CreateTpccTables(db_.get());
    if (st.ok()) st = tpcc::LoadTpcc(db_.get(), scale_);
    if (!st.ok()) {
      std::fprintf(stderr, "fixture setup failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
  }

  db::TellDb* db() { return db_.get(); }
  const tpcc::TpccScale& scale() const { return scale_; }

  void EnsureProcessingNodes(uint32_t n) {
    while (db_->num_processing_nodes() < n) db_->AddProcessingNode();
  }

  /// `executor_threads` = 0 runs the legacy thread-per-worker driver; N>=1
  /// multiplexes the workers as fiber tasks onto N executor threads
  /// (docs/RUNTIME.md). The virtual-time numbers are the same either way;
  /// the wall axis and the exec.* scheduler gauges are what move.
  Result<tpcc::DriverResult> Run(uint32_t num_pns, tpcc::Mix mix,
                                 uint32_t workers_per_pn = kWorkersPerPn,
                                 uint64_t virtual_ms = kVirtualMs,
                                 uint32_t executor_threads = 0) {
    EnsureProcessingNodes(num_pns);
    tpcc::TellBackend backend(db_.get());
    tpcc::DriverOptions options;
    options.scale = scale_;
    options.mix = mix;
    options.num_workers = num_pns * workers_per_pn;
    options.duration_virtual_ms = virtual_ms;
    options.executor_threads = executor_threads;
    return tpcc::RunTpcc(&backend, options);
  }

 private:
  tpcc::TpccScale scale_;
  std::unique_ptr<db::TellDb> db_;
};

/// Derived key/value rows for one DriverResult (rates in the JSON "derived"
/// object; the counters/histograms come from the registry snapshot).
inline std::vector<std::pair<std::string, double>> DerivedOf(
    const tpcc::DriverResult& r) {
  std::vector<std::pair<std::string, double>> rows = {
      {"tpmc", r.tpmc},
      {"tps", r.tps},
      {"abort_rate", r.abort_rate},
      {"buffer_hit_rate", r.buffer_hit_rate},
      {"mean_response_ms", r.mean_response_ms},
      {"std_response_ms", r.std_response_ms},
      {"p50_response_ms", r.p50_response_ms},
      {"p95_response_ms", r.p95_response_ms},
      {"p99_response_ms", r.p99_response_ms},
      {"p999_response_ms", r.p999_response_ms},
      {"virtual_seconds", r.virtual_seconds},
      // Wall-clock axis (host-dependent, unlike everything above): how long
      // the run really took and the committed-txn rate in real time. This
      // is what real-thread scalability work (storage-engine striping)
      // moves; the virtual-time numbers deliberately cannot see it.
      {"wall_seconds", r.wall_seconds},
      {"wall_tps", r.wall_tps},
  };
  if (!r.exec_stats.cores.empty()) {
    // Executor runs: thread count next to the per-core exec<i> node rows
    // (check_bench_json.py cross-checks the two).
    rows.emplace_back("executor_threads",
                      static_cast<double>(r.exec_stats.cores.size()));
  }
  return rows;
}

/// Collects every run of a bench binary into the BENCH_<name>.json artifact
/// (obs::BenchReport). Each Add() builds a fresh registry so runs do not
/// bleed into each other: the run's merged worker metrics are absorbed, and
/// — when the TellDb is supplied — the node-side gauges and the per-node
/// breakdown come from TellDb::ExportStats / PerNodeStats.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : report_(std::move(name)) {}

  void AddConfig(std::string key, std::string value) {
    report_.AddConfig(std::move(key), std::move(value));
  }
  void AddConfig(std::string key, uint64_t value) {
    report_.AddConfig(std::move(key), std::to_string(value));
  }
  void AddConfig(std::string key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", value);
    report_.AddConfig(std::move(key), buf);
  }

  /// One sweep point backed by a full DriverResult (+ node stats if `db`).
  /// Returns the run's snapshot so callers can print FROM the registry data
  /// (the artifact and the stdout table then share one source of truth).
  /// Executor runs (result.exec_stats has cores) additionally get the
  /// exec.* scheduler gauges and per-core `exec<i>` node rows.
  const obs::MetricsSnapshot& Add(const std::string& label,
                                  const tpcc::DriverResult& result,
                                  db::TellDb* db = nullptr) {
    return AddMetrics(label, result.merged, DerivedOf(result), db,
                      result.exec_stats.cores.empty() ? nullptr
                                                      : &result.exec_stats);
  }

  /// Lower-level entry for benches that aggregate WorkerMetrics themselves
  /// (micro benches, baseline engines without a TellDb).
  const obs::MetricsSnapshot& AddMetrics(
      const std::string& label, const sim::WorkerMetrics& merged,
      std::vector<std::pair<std::string, double>> derived = {},
      db::TellDb* db = nullptr,
      const exec::RuntimeStats* exec_stats = nullptr) {
    obs::MetricsRegistry registry;
    registry.AbsorbWorker(merged);
    obs::BenchRun run;
    run.label = label;
    run.derived = std::move(derived);
    if (db != nullptr) {
      db->ExportStats(&registry);
      run.nodes = db->PerNodeStats();
    }
    if (exec_stats != nullptr) {
      exec::ExportStats(*exec_stats, &registry);
      for (auto& row : exec::PerCoreRows(*exec_stats)) {
        run.nodes.push_back(std::move(row));
      }
    }
    run.snapshot = registry.Snapshot();
    report_.AddRun(std::move(run));
    return report_.last_run().snapshot;
  }

  /// Writes BENCH_<name>.json into the working directory and reports the
  /// path (or the error) on stdout.
  void Write() {
    auto path = report_.WriteFile();
    if (path.ok()) {
      std::printf("artifact: %s\n", path->c_str());
    } else {
      std::fprintf(stderr, "artifact write failed: %s\n",
                   path.status().ToString().c_str());
    }
  }

 private:
  obs::BenchReport report_;
};

/// Table-4-style per-phase response-time breakdown: one line per phase with
/// p50/p95/p99 of the virtual time a transaction spent in that phase.
inline void PrintPhaseLine(const char* name, const sim::Histogram& h) {
  std::printf("  %-14s %10.1f %10.1f %10.1f %10.1f\n", name, h.Mean() / 1e3,
              static_cast<double>(h.Percentile(50)) / 1e3,
              static_cast<double>(h.Percentile(95)) / 1e3,
              static_cast<double>(h.Percentile(99)) / 1e3);
}

inline void PrintPhaseHeader() {
  std::printf("  %-14s %10s %10s %10s %10s\n", "phase", "mean_us", "p50_us",
              "p95_us", "p99_us");
}

inline void PrintPhaseBreakdown(const sim::WorkerMetrics& merged) {
  PrintPhaseHeader();
  for (size_t p = 0; p < sim::kNumTxnPhases; ++p) {
    const sim::Histogram& h = merged.phase_ns[p];
    if (h.count() == 0) continue;
    PrintPhaseLine(sim::kTxnPhaseNames[p], h);
  }
}

/// Snapshot flavour: reads the tx.phase.* histograms back out of the
/// registry snapshot (exactly what the JSON artifact carries).
inline void PrintPhaseBreakdown(const obs::MetricsSnapshot& snapshot) {
  PrintPhaseHeader();
  for (size_t p = 0; p < sim::kNumTxnPhases; ++p) {
    std::string name = std::string("tx.phase.") + sim::kTxnPhaseNames[p];
    const sim::Histogram* h = snapshot.Hist(name);
    if (h == nullptr || h->count() == 0) continue;
    PrintPhaseLine(sim::kTxnPhaseNames[p], *h);
  }
}

inline void PrintHeader(const char* id, const char* title,
                        const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

inline void PrintFooter() { std::printf("\n"); }

}  // namespace tell::bench

#endif  // TELL_BENCH_BENCH_UTIL_H_
