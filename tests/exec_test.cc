// Tests for the thread-per-core executor runtime (src/exec, docs/RUNTIME.md):
// scheduler correctness (FIFO determinism at one thread, work stealing, no
// lost wakeups on park/unpark), the executor_threads=1 determinism
// contract against the legacy thread-per-worker driver, and a seeded chaos
// sweep driving TPC-C through the executor with the fault injector armed.
// Labelled `tsan` — the stealing and wakeup tests are exactly the races
// ThreadSanitizer should vet.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "exec/runtime.h"
#include "sim/fault_injector.h"
#include "tests/test_util.h"
#include "workload/tpcc/tpcc_driver.h"
#include "workload/tpcc/tpcc_loader.h"

namespace tell::exec {
namespace {

// ---------------------------------------------------------------------------
// Runtime core
// ---------------------------------------------------------------------------

TEST(RuntimeTest, SingleThreadRunsTasksInSubmissionOrder) {
  Runtime runtime(RuntimeOptions{.threads = 1, .pin_cores = false});
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    runtime.Submit([&order, i] { order.push_back(i); });
  }
  runtime.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  const RuntimeStats& stats = runtime.stats();
  EXPECT_EQ(stats.Totals().threads, 1u);
  EXPECT_EQ(stats.Totals().tasks_completed, 8u);
  EXPECT_EQ(stats.Totals().steals, 0u);
  EXPECT_GE(stats.Totals().queue_peak, 8u);
}

TEST(RuntimeTest, YieldRoundRobinsOnOneThread) {
  // Two yielding tasks on one executor thread must interleave exactly:
  // yield sends the running task to the back of its own queue, and the
  // single owner pops from the front — the determinism contract's
  // scheduling order (docs/RUNTIME.md).
  Runtime runtime(RuntimeOptions{.threads = 1, .pin_cores = false});
  std::vector<char> trace;
  for (char name : {'A', 'B'}) {
    runtime.Submit([&trace, name] {
      for (int i = 0; i < 3; ++i) {
        trace.push_back(name);
        Runtime::Yield();
      }
    });
  }
  runtime.Run();
  EXPECT_EQ(trace, (std::vector<char>{'A', 'B', 'A', 'B', 'A', 'B'}));
  EXPECT_EQ(runtime.stats().Totals().yields, 6u);
}

TEST(RuntimeTest, IdleThreadsStealQueuedTasks) {
  // Round-robin Submit puts task i on queue i % threads, so with 4 threads
  // every 4th task lands on queue 0. Make exactly those tasks slow and
  // yield-rich and the rest trivial: cores 1..3 drain their own queues
  // immediately and must steal core 0's backlog to keep busy. All tasks
  // complete either way; at least one steal must be observed.
  constexpr uint32_t kThreads = 4;
  constexpr int kTasks = 32;
  Runtime runtime(RuntimeOptions{.threads = kThreads, .pin_cores = false});
  std::atomic<int> completed{0};
  for (int i = 0; i < kTasks; ++i) {
    const bool heavy = (i % kThreads == 0);
    runtime.Submit([&completed, heavy] {
      if (heavy) {
        for (int y = 0; y < 8; ++y) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          Runtime::Yield();
        }
      }
      completed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  runtime.Run();
  EXPECT_EQ(completed.load(), kTasks);
  const RuntimeStats& stats = runtime.stats();
  EXPECT_EQ(stats.Totals().tasks_completed,
            static_cast<uint64_t>(kTasks));
  EXPECT_GT(stats.Totals().steals, 0u);
}

TEST(RuntimeTest, NoLostWakeupsOnParkUnpark) {
  // One producer task trickles follow-on tasks out with real delays while
  // the other executor threads go idle and park. Every submission must wake
  // a sleeper (or find one already running); if a wakeup were lost the
  // runtime would either deadlock (task queued, everyone asleep) or finish
  // with tasks unrun. Completing with the full count is the proof.
  constexpr int kFollowOns = 50;
  Runtime runtime(RuntimeOptions{.threads = 3, .pin_cores = false});
  std::atomic<int> completed{0};
  runtime.Submit([&runtime, &completed] {
    for (int i = 0; i < kFollowOns; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      runtime.Submit(
          [&completed] { completed.fetch_add(1, std::memory_order_relaxed); });
    }
    completed.fetch_add(1, std::memory_order_relaxed);
  });
  runtime.Run();
  EXPECT_EQ(completed.load(), kFollowOns + 1);
  const RuntimeStats& stats = runtime.stats();
  EXPECT_EQ(stats.Totals().tasks_completed,
            static_cast<uint64_t>(kFollowOns + 1));
  // With 3 threads and a dripping producer, the two consumers must have
  // parked and been woken at least once each.
  EXPECT_GT(stats.Totals().parks, 0u);
  EXPECT_GT(stats.Totals().unparks, 0u);
}

TEST(RuntimeTest, YieldAndInTaskAreSafeOutsideTheExecutor) {
  // Shared driver code calls Runtime::Yield() unconditionally; outside a
  // task it must be a no-op, not a crash (that is what keeps the legacy
  // thread-per-worker path byte-identical). A task body runs on a fiber;
  // the caller of Run() does not.
  EXPECT_EQ(Fiber::Current(), nullptr);
  Runtime::Yield();  // must not crash or block

  Runtime runtime(RuntimeOptions{.threads = 1, .pin_cores = false});
  bool in_task = false;
  runtime.Submit([&in_task] { in_task = Fiber::Current() != nullptr; });
  runtime.Run();
  EXPECT_TRUE(in_task);
  EXPECT_EQ(Fiber::Current(), nullptr);
}

TEST(RuntimeTest, ExportStatsSetsEveryExecGauge) {
  Runtime runtime(RuntimeOptions{.threads = 2, .pin_cores = false});
  for (int i = 0; i < 4; ++i) {
    runtime.Submit([] { Runtime::Yield(); });
  }
  runtime.Run();

  obs::MetricsRegistry registry;
  ExportStats(runtime.stats(), &registry);
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (const char* name :
       {"exec.threads", "exec.tasks", "exec.yields", "exec.steals",
        "exec.parks", "exec.unparks", "exec.run_queue_peak", "exec.busy_ns",
        "exec.wall_ns"}) {
    EXPECT_TRUE(snapshot.Scalar(name).has_value()) << name;
  }
  EXPECT_EQ(snapshot.Scalar("exec.threads"), 2u);
  EXPECT_EQ(snapshot.Scalar("exec.tasks"), 4u);
  EXPECT_EQ(snapshot.Scalar("exec.yields"), 4u);

  auto rows = PerCoreRows(runtime.stats());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "exec0");
  EXPECT_EQ(rows[1].first, "exec1");
  uint64_t tasks = 0;
  for (const auto& row : rows) {
    for (const auto& [key, value] : row.second) {
      if (key == "tasks_completed") tasks += value;
    }
  }
  EXPECT_EQ(tasks, 4u);
}

// ---------------------------------------------------------------------------
// Determinism contract vs the legacy driver (docs/RUNTIME.md)
// ---------------------------------------------------------------------------

tpcc::TpccScale SmallScale() {
  tpcc::TpccScale scale;
  scale.warehouses = 4;
  scale.districts_per_warehouse = 3;
  scale.customers_per_district = 12;
  scale.items = 60;
  scale.initial_orders_per_district = 9;
  return scale;
}

std::unique_ptr<db::TellDb> FreshDb(sim::FaultInjector* injector = nullptr) {
  db::TellDbOptions options;
  options.num_processing_nodes = 2;
  options.num_storage_nodes = 3;
  options.network = sim::NetworkModel::Instant();
  if (injector != nullptr) {
    options.fault_injector = injector;
    options.replication_factor = 2;
    options.retry.max_attempts = 8;  // absorb the bounded drop rules
  }
  return std::make_unique<db::TellDb>(options);
}

Result<tpcc::DriverResult> RunWorkload(db::TellDb* db, uint32_t num_workers,
                                       uint32_t executor_threads,
                                       uint64_t virtual_ms = 20) {
  Status st = tpcc::CreateTpccTables(db);
  if (st.ok()) st = tpcc::LoadTpcc(db, SmallScale());
  if (!st.ok()) return st;
  tpcc::TellBackend backend(db);
  tpcc::DriverOptions options;
  options.scale = SmallScale();
  options.mix = tpcc::Mix::kWriteIntensive;
  options.num_workers = num_workers;
  options.duration_virtual_ms = virtual_ms;
  options.executor_threads = executor_threads;
  options.pin_cores = false;
  return tpcc::RunTpcc(&backend, options);
}

// Every virtual-time outcome must match exactly. wall_seconds / wall_tps and
// exec_stats are the only host-dependent fields, so they are the only ones
// excluded.
void ExpectSameOutcome(const tpcc::DriverResult& a,
                       const tpcc::DriverResult& b) {
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.committed_new_order, b.committed_new_order);
  EXPECT_EQ(a.tpmc, b.tpmc);
  EXPECT_EQ(a.tps, b.tps);
  EXPECT_EQ(a.abort_rate, b.abort_rate);
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);
  EXPECT_EQ(a.std_response_ms, b.std_response_ms);
  EXPECT_EQ(a.p50_response_ms, b.p50_response_ms);
  EXPECT_EQ(a.p95_response_ms, b.p95_response_ms);
  EXPECT_EQ(a.p99_response_ms, b.p99_response_ms);
  EXPECT_EQ(a.p999_response_ms, b.p999_response_ms);
  EXPECT_EQ(a.buffer_hit_rate, b.buffer_hit_rate);
  EXPECT_EQ(a.merged.storage_requests, b.merged.storage_requests);
  EXPECT_EQ(a.merged.storage_ops, b.merged.storage_ops);
  EXPECT_EQ(a.merged.bytes_sent, b.merged.bytes_sent);
  EXPECT_EQ(a.merged.bytes_received, b.merged.bytes_received);
  EXPECT_EQ(a.merged.llsc_failures, b.merged.llsc_failures);
  EXPECT_EQ(a.merged.log_appends, b.merged.log_appends);
  EXPECT_EQ(a.merged.index_lookups, b.merged.index_lookups);
  EXPECT_EQ(a.merged.buffer_hits, b.merged.buffer_hits);
  EXPECT_EQ(a.merged.buffer_misses, b.merged.buffer_misses);
  EXPECT_EQ(a.merged.response_time.count(), b.merged.response_time.count());
}

TEST(ExecDeterminismTest, OneWorkerExecutorMatchesLegacyExactly) {
  // A single worker has no cross-worker interleaving at all, so the
  // executor must reproduce the legacy run outcome for outcome.
  auto legacy_db = FreshDb();
  ASSERT_OK_AND_ASSIGN(tpcc::DriverResult legacy,
                       RunWorkload(legacy_db.get(), 1, 0));
  auto exec_db = FreshDb();
  ASSERT_OK_AND_ASSIGN(tpcc::DriverResult executor,
                       RunWorkload(exec_db.get(), 1, 1));
  ASSERT_GT(legacy.committed, 0u);
  ExpectSameOutcome(legacy, executor);
  EXPECT_EQ(executor.exec_stats.Totals().threads, 1u);
  EXPECT_EQ(executor.exec_stats.Totals().steals, 0u);
}

TEST(ExecDeterminismTest, SingleExecutorThreadIsRunToRunIdentical) {
  // Multi-worker under executor_threads=1: the cooperative FIFO schedule
  // fixes the interleaving, so two runs on fresh identical databases agree
  // on every virtual-time number (the legacy multi-thread driver cannot
  // promise this — OS scheduling reorders conflicting workers).
  auto db1 = FreshDb();
  ASSERT_OK_AND_ASSIGN(tpcc::DriverResult first,
                       RunWorkload(db1.get(), 4, 1));
  auto db2 = FreshDb();
  ASSERT_OK_AND_ASSIGN(tpcc::DriverResult second,
                       RunWorkload(db2.get(), 4, 1));
  ASSERT_GT(first.committed, 0u);
  ExpectSameOutcome(first, second);
  // Parking actually happened: every transaction begin is a commit-manager
  // round trip, which yields under the executor.
  EXPECT_GT(first.exec_stats.Totals().yields, 0u);
  EXPECT_EQ(first.exec_stats.Totals().yields,
            second.exec_stats.Totals().yields);
}

// ---------------------------------------------------------------------------
// Chaos: TPC-C through the executor with the fault injector armed
// ---------------------------------------------------------------------------

class ExecChaosSuite : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecChaosSuite, TpccSurvivesRandomizedFaultsUnderExecutor) {
  const uint64_t seed = GetParam();
  // Bounded transient faults only (no node kill): the randomized drop and
  // latency rules disarm after a bounded number of firings, so the retry
  // budget set in FreshDb absorbs them and the run must complete. Node
  // kills stay with the single-threaded chaos suite in
  // fault_injection_test.cc, where recovery is checked deterministically.
  sim::FaultInjector injector(sim::FaultPlan::Randomized(
      seed, /*num_nodes=*/3, /*allow_node_kill=*/false));
  injector.Disarm();  // table creation + load run fault-free
  auto db = FreshDb(&injector);

  Status st = tpcc::CreateTpccTables(db.get());
  ASSERT_OK(st);
  ASSERT_OK(tpcc::LoadTpcc(db.get(), SmallScale()));
  injector.Arm();

  tpcc::TellBackend backend(db.get());
  tpcc::DriverOptions options;
  options.scale = SmallScale();
  options.mix = tpcc::Mix::kWriteIntensive;
  options.num_workers = 4;
  options.duration_virtual_ms = 20;
  options.executor_threads = 2;
  options.pin_cores = false;
  ASSERT_OK_AND_ASSIGN(tpcc::DriverResult result,
                       tpcc::RunTpcc(&backend, options));
  injector.Disarm();

  EXPECT_GT(result.committed, 0u);
  EXPECT_EQ(result.exec_stats.Totals().threads, 2u);
  EXPECT_EQ(result.exec_stats.Totals().tasks_completed,
            4u);
  EXPECT_GT(result.exec_stats.Totals().yields, 0u);

  // The chaos was real: the injector saw traffic and fired faults, and the
  // workers' retry machinery dealt with them.
  sim::FaultStats fault_stats = injector.stats();
  EXPECT_GT(fault_stats.requests_seen, 0u);
  EXPECT_GT(fault_stats.injected, 0u) << "plan never fired for seed " << seed;
  // Dropped traffic must have been retried (some seeds draw plans whose
  // drop rules filter on ops this workload never issues — then only
  // latency spikes fire and there is nothing to retry).
  if (fault_stats.dropped_requests + fault_stats.dropped_responses > 0) {
    EXPECT_GT(result.merged.storage_retries +
                  result.merged.ambiguous_resolved, 0u);
  }
  EXPECT_EQ(result.merged.storage_retries_exhausted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecChaosSuite,
                         ::testing::Values(uint64_t{0x5EED0001},
                                           uint64_t{0x5EED0002},
                                           uint64_t{0x5EED0003}));

}  // namespace
}  // namespace tell::exec
