#include "workload/tpcc/tpcc_driver.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/logging.h"

namespace tell::tpcc {

Status TellBackend::Prepare(uint32_t num_workers) {
  uint32_t num_pns = db_->num_processing_nodes();
  workers_.clear();
  workers_.resize(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    uint32_t pn = w % num_pns;
    workers_[w].session = db_->OpenSession(pn, w);
    TELL_ASSIGN_OR_RETURN(TpccTables tables, OpenTpccTables(db_, pn));
    workers_[w].executor = std::make_unique<TpccExecutor>(
        workers_[w].session.get(), tables, txn_options_);
  }
  return Status::OK();
}

Result<TxnOutcome> TellBackend::Execute(uint32_t worker_id,
                                        const TxnInput& input) {
  return workers_[worker_id].executor->Execute(input);
}

sim::VirtualClock* TellBackend::clock(uint32_t worker_id) {
  return workers_[worker_id].session->clock();
}

sim::WorkerMetrics* TellBackend::metrics(uint32_t worker_id) {
  return workers_[worker_id].session->metrics();
}

Result<DriverResult> RunTpcc(TpccBackend* backend,
                             const DriverOptions& options) {
  TELL_RETURN_NOT_OK(backend->Prepare(options.num_workers));
  const uint64_t horizon_ns = options.duration_virtual_ms * 1'000'000ULL;

  std::vector<Status> statuses(options.num_workers);
  std::mutex status_mutex;

  // The per-worker terminal loop — identical under both drivers, so the
  // virtual-time stream of a worker cannot depend on which one ran it. The
  // executor parks/resumes inside backend->Execute (commit-manager
  // begins); the loop body itself never blocks.
  auto worker_body = [&](uint32_t w) {
    // Terminals are bound to a home warehouse, spread evenly.
    int64_t home = static_cast<int64_t>(w % options.scale.warehouses) + 1;
    InputGenerator generator(options.scale, options.mix,
                             options.seed * 1000003ULL + w, home);
    sim::VirtualClock* clock = backend->clock(w);
    sim::WorkerMetrics* metrics = backend->metrics(w);
    while (clock->now_ns() < horizon_ns) {
      TxnInput input = generator.Next();
      uint64_t start_ns = clock->now_ns();
      auto outcome = backend->Execute(w, input);
      if (!outcome.ok()) {
        std::lock_guard<std::mutex> lock(status_mutex);
        if (statuses[w].ok()) statuses[w] = outcome.status();
        return;
      }
      if (outcome->committed) {
        metrics->response_time.Record(clock->now_ns() - start_ns);
        if (input.type == TxnType::kNewOrder) {
          metrics->committed_new_order += 1;
        }
      }
    }
  };

  DriverResult result;
  const auto wall_start = std::chrono::steady_clock::now();
  if (options.executor_threads > 0) {
    exec::RuntimeOptions exec_options;
    exec_options.threads = options.executor_threads;
    exec_options.pin_cores = options.pin_cores;
    exec::Runtime runtime(exec_options);
    for (uint32_t w = 0; w < options.num_workers; ++w) {
      runtime.Submit([&worker_body, w] { worker_body(w); });
    }
    runtime.Run();
    result.exec_stats = runtime.stats();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(options.num_workers);
    for (uint32_t w = 0; w < options.num_workers; ++w) {
      threads.emplace_back([&worker_body, w] { worker_body(w); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  for (const Status& status : statuses) {
    TELL_RETURN_NOT_OK(status);
  }

  result.wall_seconds = wall_seconds;
  result.virtual_seconds =
      static_cast<double>(options.duration_virtual_ms) / 1000.0;
  double tpmc = 0;
  double tps = 0;
  for (uint32_t w = 0; w < options.num_workers; ++w) {
    sim::WorkerMetrics* metrics = backend->metrics(w);
    double worker_seconds =
        static_cast<double>(backend->clock(w)->now_ns()) / 1e9;
    if (worker_seconds > 0) {
      tpmc += static_cast<double>(metrics->committed_new_order) * 60.0 /
              worker_seconds;
      tps += static_cast<double>(metrics->committed) / worker_seconds;
    }
    result.merged.Merge(*metrics);
  }
  result.committed = result.merged.committed;
  if (wall_seconds > 0) {
    result.wall_tps = static_cast<double>(result.committed) / wall_seconds;
  }
  result.aborted = result.merged.aborted;
  result.committed_new_order = result.merged.committed_new_order;
  result.tpmc = tpmc;
  result.tps = tps;
  result.abort_rate = result.merged.AbortRate();
  result.buffer_hit_rate = result.merged.BufferHitRate();
  result.mean_response_ms = result.merged.response_time.Mean() / 1e6;
  result.std_response_ms = result.merged.response_time.StdDev() / 1e6;
  result.p50_response_ms =
      static_cast<double>(result.merged.response_time.Percentile(50)) / 1e6;
  result.p95_response_ms =
      static_cast<double>(result.merged.response_time.Percentile(95)) / 1e6;
  result.p99_response_ms =
      static_cast<double>(result.merged.response_time.Percentile(99)) / 1e6;
  result.p999_response_ms =
      static_cast<double>(result.merged.response_time.Percentile(99.9)) / 1e6;
  return result;
}

}  // namespace tell::tpcc
