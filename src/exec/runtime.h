#ifndef TELL_EXEC_RUNTIME_H_
#define TELL_EXEC_RUNTIME_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stat_table.h"
#include "exec/fiber.h"
#include "obs/metrics_registry.h"

namespace tell::exec {

struct RuntimeOptions {
  /// Executor threads ("cores"). 1 gives a deterministic cooperative FIFO
  /// scheduler: tasks run and resume in submission/yield order with no
  /// stealing, so seeded runs are bit-identical (RUNTIME.md, "Determinism
  /// contract").
  uint32_t threads = 1;
  /// Pin executor thread i to hardware core i % hardware_concurrency().
  /// Pinning keeps a task's cache-warm state on one core between yields
  /// unless stealing moves it; disable for shared hosts where the pin set
  /// fights other tenants.
  bool pin_cores = true;
};

/// Scheduler counters, one row per executor thread. Exported into the
/// metrics registry as the `exec.*` gauges (the run's Totals()) by
/// ExportStats, and into bench artifacts as per-core `exec<i>` node rows by
/// PerCoreRows.
struct RuntimeStats {
  struct PerCore : StatTable<PerCore> {
    /// Per-run: the executor threads of the run, the same on every core.
    uint64_t threads = 0;
    uint64_t tasks_completed = 0;
    uint64_t yields = 0;      // task suspensions (park on a begin, etc.)
    uint64_t steals = 0;      // tasks this core pulled from another queue
    uint64_t parks = 0;       // times this worker slept on an empty queue
    uint64_t unparks = 0;     // wakeups this worker issued to sleepers
    uint64_t queue_peak = 0;  // peak run-queue depth
    uint64_t busy_ns = 0;     // wall time inside task code
    /// Per-run: the wall time of Run(), the same on every core.
    uint64_t wall_ns = 0;

    static constexpr const char* kGaugePrefix = "exec.";
    static constexpr StatField<PerCore> kFields[] = {
        {"threads", "threads", "executor threads the runtime ran with",
         &PerCore::threads, StatKind::kPerRun},
        {"tasks", "tasks", "tasks run to completion", &PerCore::tasks_completed,
         StatKind::kSum, "tasks_completed"},
        {"yields", "yields",
         "task suspensions (park points / cooperative yields)",
         &PerCore::yields},
        {"steals", "tasks", "tasks stolen from another core's run queue",
         &PerCore::steals},
        {"parks", "parks", "executor threads sleeping on an empty queue",
         &PerCore::parks},
        {"unparks", "wakeups", "wakeups issued to parked executor threads",
         &PerCore::unparks},
        {"run_queue_peak", "tasks", "peak run-queue depth on any core",
         &PerCore::queue_peak, StatKind::kMax, "queue_peak"},
        {"busy_ns", "ns",
         "wall-clock time executor threads spent inside task code (summed)",
         &PerCore::busy_ns},
        {"wall_ns", "ns", "wall-clock duration of the executor run",
         &PerCore::wall_ns, StatKind::kPerRun},
    };
  };
  std::vector<PerCore> cores;

  /// The whole run: per-core counters summed, the peak and the per-run
  /// values taken once. All zero for a run that never happened.
  PerCore Totals() const {
    PerCore total;
    for (const PerCore& c : cores) total.Accumulate(c);
    return total;
  }
};

/// Thread-per-core executor for processing-node workers (ROADMAP open item
/// "Thread-per-core execution runtime").
///
/// A fixed pool of (optionally core-pinned) executor threads multiplexes
/// many transaction tasks: each task is a Fiber, each thread owns a run
/// queue, idle threads steal from their neighbours, and a task that is
/// about to wait on modelled network time — a commit-manager begin —
/// yields its core instead of blocking, so thousands of in-flight
/// transactions share N cores. The
/// park/resume protocol lives in common/exec_hooks.h; the programming
/// model, including what task code may and may not do, is documented in
/// docs/RUNTIME.md.
///
/// Lifecycle: construct, Submit() any number of tasks (also legal from
/// inside a running task), Run() to completion, read stats(). One-shot: a
/// Runtime is not reusable after Run() returns.
class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Enqueues a task (round-robin over the run queues). Thread-safe;
  /// callable before Run() and from inside tasks while Run() is live.
  void Submit(std::function<void()> body);

  /// Runs every submitted task to completion. Blocks the caller; the
  /// executor threads are spawned here and joined before returning.
  void Run();

  /// Scheduler counters; stable once Run() has returned.
  const RuntimeStats& stats() const { return stats_; }

  const RuntimeOptions& options() const { return options_; }

  /// Cooperative reschedule from inside a task: the task goes to the back
  /// of its queue and the core runs someone else. No-op outside a task (so
  /// shared driver code works under both the executor and legacy threads).
  static void Yield();

 private:
  struct Task;
  struct Core;

  void WorkerLoop(uint32_t core_id);
  Task* FindWork(uint32_t core_id, std::unique_lock<std::mutex>& lock);
  void EnqueueLocked(Task* task, uint32_t target);

  const RuntimeOptions options_;
  RuntimeStats stats_;

  /// One lock for every queue: queue operations are short (pointer pushes)
  /// next to task slices (whole transaction phases), so a single lock keeps
  /// the park/unpark protocol trivially free of lost wakeups. The per-core
  /// queues still shape locality and make stealing observable.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::vector<std::unique_ptr<Core>> cores_;
  uint32_t next_queue_ = 0;   // round-robin Submit target
  uint32_t running_ = 0;      // tasks currently inside Resume()
  uint32_t parked_ = 0;       // workers asleep on work_cv_
  uint64_t queued_ = 0;       // tasks sitting in run queues
  bool done_ = false;
  bool ran_ = false;
};

/// Sets the `exec.*` gauges (docs/METRICS.md, "Executor scheduler gauges")
/// from a finished run's stats.
void ExportStats(const RuntimeStats& stats, obs::MetricsRegistry* registry);

/// Per-core breakdown in the bench artifact's `nodes` shape: one `exec<i>`
/// row per executor thread.
obs::NodeRows PerCoreRows(const RuntimeStats& stats);

}  // namespace tell::exec

#endif  // TELL_EXEC_RUNTIME_H_
