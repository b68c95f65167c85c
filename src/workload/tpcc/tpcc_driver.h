#ifndef TELL_WORKLOAD_TPCC_TPCC_DRIVER_H_
#define TELL_WORKLOAD_TPCC_TPCC_DRIVER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "db/tell_db.h"
#include "exec/runtime.h"
#include "sim/metrics.h"
#include "sim/virtual_clock.h"
#include "workload/tpcc/tpcc_transactions.h"

namespace tell::tpcc {

/// A system under test for the TPC-C driver: Tell itself, or one of the
/// baseline engines (VoltDB-like, MySQL-Cluster-like, FoundationDB-like).
/// Workers are numbered 0..n-1; Execute(w, ...) is never called for the
/// same worker concurrently — by the worker's own OS thread in legacy mode,
/// or by whichever executor thread is running worker w's fiber task under
/// exec::Runtime (tasks migrate between cores but never run twice at once;
/// docs/RUNTIME.md). Each worker owns a VirtualClock and WorkerMetrics
/// supplied by the backend, and the driver stops a worker when its virtual
/// clock passes the horizon.
class TpccBackend {
 public:
  virtual ~TpccBackend() = default;

  virtual Status Prepare(uint32_t num_workers) = 0;
  virtual Result<TxnOutcome> Execute(uint32_t worker_id,
                                     const TxnInput& input) = 0;
  virtual sim::VirtualClock* clock(uint32_t worker_id) = 0;
  virtual sim::WorkerMetrics* metrics(uint32_t worker_id) = 0;
};

/// Backend running TPC-C on the Tell database: one session + executor per
/// worker, workers spread round-robin over the processing nodes.
class TellBackend final : public TpccBackend {
 public:
  explicit TellBackend(db::TellDb* db, const tx::TxnOptions& txn_options = {})
      : db_(db), txn_options_(txn_options) {}

  Status Prepare(uint32_t num_workers) override;
  Result<TxnOutcome> Execute(uint32_t worker_id,
                             const TxnInput& input) override;
  sim::VirtualClock* clock(uint32_t worker_id) override;
  sim::WorkerMetrics* metrics(uint32_t worker_id) override;

 private:
  struct Worker {
    std::unique_ptr<tx::Session> session;
    std::unique_ptr<TpccExecutor> executor;
  };
  db::TellDb* const db_;
  const tx::TxnOptions txn_options_;
  std::vector<Worker> workers_;
};

struct DriverOptions {
  TpccScale scale;
  Mix mix = Mix::kWriteIntensive;
  uint32_t num_workers = 8;
  /// Virtual measurement interval per worker.
  uint64_t duration_virtual_ms = 1000;
  uint64_t seed = 7;
  /// 0 = legacy thread-per-worker (one OS thread per worker). N >= 1 =
  /// thread-per-core executor: every worker becomes a fiber task
  /// multiplexed onto N executor threads, parking at commit-manager begins
  /// (docs/RUNTIME.md).
  /// Each worker's virtual-time stream is identical either way; only the
  /// wall-clock axis (and, with conflicts, cross-worker interleaving)
  /// changes. executor_threads=1 is fully deterministic.
  uint32_t executor_threads = 0;
  /// Pin executor threads to cores (ignored in legacy mode).
  bool pin_cores = true;
};

/// Aggregated run results; the benches print these next to the paper's
/// numbers.
struct DriverResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t committed_new_order = 0;
  double virtual_seconds = 0;  // per worker (the horizon)
  /// Wall-clock seconds the run actually took (thread launch to last join).
  /// Unlike every virtual-time number this IS host-dependent: it is the
  /// real-concurrency axis — how fast the real threads got through the real
  /// shared data structures — reported alongside virtual time so engine
  /// scalability changes (e.g. storage-node lock striping) are visible.
  double wall_seconds = 0;
  /// Committed transactions per wall-clock second (all workers combined).
  double wall_tps = 0;
  /// New-order transactions per virtual minute (the TPC-C metric).
  double tpmc = 0;
  /// Committed transactions per virtual second.
  double tps = 0;
  double abort_rate = 0;
  double mean_response_ms = 0;
  double std_response_ms = 0;
  double p50_response_ms = 0;
  double p95_response_ms = 0;
  double p99_response_ms = 0;
  double p999_response_ms = 0;
  double buffer_hit_rate = 0;
  /// Scheduler counters of the executor run (no cores in legacy mode).
  exec::RuntimeStats exec_stats;
  sim::WorkerMetrics merged;
};

/// Runs the workload: each worker drives transactions from its own
/// deterministic InputGenerator until its virtual clock passes the horizon.
/// Terminals have no wait times (§6.2). Legacy mode spawns one OS thread
/// per worker; with `executor_threads` set, workers run as fiber tasks on
/// the exec::Runtime thread-per-core scheduler instead.
Result<DriverResult> RunTpcc(TpccBackend* backend,
                             const DriverOptions& options);

}  // namespace tell::tpcc

#endif  // TELL_WORKLOAD_TPCC_TPCC_DRIVER_H_
