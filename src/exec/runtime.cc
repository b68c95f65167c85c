#include "exec/runtime.h"

#include <chrono>

#include "common/exec_hooks.h"
#include "common/logging.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace tell::exec {

/// A submitted task: just a fiber. The scheduler owns the allocation and
/// frees it when the body returns.
struct Runtime::Task {
  Task(std::function<void()> body, size_t stack_bytes)
      : fiber(std::move(body), stack_bytes) {}
  Fiber fiber;
};

/// One run queue. The owning worker pops from the front (FIFO — this is
/// what makes the single-thread configuration deterministic); thieves take
/// from the back, so the oldest waiting task migrates first.
struct Runtime::Core {
  std::deque<Task*> queue;
};

Runtime::Runtime(RuntimeOptions options) : options_(options) {
  TELL_CHECK(options_.threads >= 1);
  stats_.cores.resize(options_.threads);
  stats_.threads = options_.threads;
  cores_.reserve(options_.threads);
  for (uint32_t i = 0; i < options_.threads; ++i) {
    cores_.push_back(std::make_unique<Core>());
  }
}

Runtime::~Runtime() {
  for (const std::unique_ptr<Core>& core : cores_) {
    for (Task* task : core->queue) delete task;  // Run() never happened
  }
}

void Runtime::Submit(std::function<void()> body) {
  Task* task = new Task(std::move(body), options_.stack_bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  TELL_CHECK(!done_);
  const uint32_t target = next_queue_;
  next_queue_ = (next_queue_ + 1) % static_cast<uint32_t>(cores_.size());
  EnqueueLocked(task, target);
}

void Runtime::EnqueueLocked(Task* task, uint32_t target) {
  cores_[target]->queue.push_back(task);
  ++queued_;
  RuntimeStats::PerCore& cs = stats_.cores[target];
  cs.queue_peak = std::max(cs.queue_peak,
                           static_cast<uint64_t>(cores_[target]->queue.size()));
  if (parked_ > 0) {
    ++cs.unparks;
    work_cv_.notify_one();
  }
}

void Runtime::Yield() {
  if (Fiber::Current() != nullptr) Fiber::Yield();
}

Runtime::Task* Runtime::FindWork(uint32_t core_id,
                                 std::unique_lock<std::mutex>& lock) {
  for (;;) {
    if (done_) return nullptr;
    Core& own = *cores_[core_id];
    if (!own.queue.empty()) {
      Task* task = own.queue.front();
      own.queue.pop_front();
      --queued_;
      return task;
    }
    for (uint32_t j = 1; j < cores_.size(); ++j) {
      Core& victim = *cores_[(core_id + j) % cores_.size()];
      if (victim.queue.empty()) continue;
      Task* task = victim.queue.back();
      victim.queue.pop_back();
      --queued_;
      ++stats_.cores[core_id].steals;
      return task;
    }
    // Nothing queued anywhere. If nothing is running either, the run is
    // over (running tasks may still Submit or yield, so both must be
    // zero); otherwise park until an enqueue wakes us.
    if (queued_ == 0 && running_ == 0) {
      done_ = true;
      work_cv_.notify_all();
      return nullptr;
    }
    ++stats_.cores[core_id].parks;
    ++parked_;
    work_cv_.wait(lock);
    --parked_;
  }
}

void Runtime::WorkerLoop(uint32_t core_id) {
#ifdef __linux__
  if (options_.pin_cores) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(core_id % hw, &set);
      (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    }
  }
#endif
  // Park point for the commit-manager client: yield the current fiber.
  // Installed for the whole scheduling loop; it is a no-op unless a fiber is
  // actually running on this thread.
  exec_hooks::g_task_hook = {+[](void*) { Runtime::Yield(); }, nullptr};

  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Task* task = FindWork(core_id, lock);
    if (task == nullptr) break;
    ++running_;
    lock.unlock();
    const auto start = std::chrono::steady_clock::now();
    const bool finished = task->fiber.Resume();
    const uint64_t busy_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    lock.lock();
    --running_;
    RuntimeStats::PerCore& cs = stats_.cores[core_id];
    cs.busy_ns += busy_ns;
    if (finished) {
      ++cs.tasks_completed;
      delete task;
      if (queued_ == 0 && running_ == 0) {
        done_ = true;
        work_cv_.notify_all();
      }
    } else {
      // The task yielded (a commit-manager begin or an explicit
      // Runtime::Yield): back of our own queue, so every other runnable
      // task on this core gets a slice first.
      ++cs.yields;
      Core& own = *cores_[core_id];
      own.queue.push_back(task);
      ++queued_;
      cs.queue_peak =
          std::max(cs.queue_peak, static_cast<uint64_t>(own.queue.size()));
      if (parked_ > 0) {
        ++cs.unparks;
        work_cv_.notify_one();
      }
    }
  }
  lock.unlock();
  exec_hooks::g_task_hook = {};
}

void Runtime::Run() {
  TELL_CHECK(!ran_);  // one-shot
  ran_ = true;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(options_.threads);
  for (uint32_t i = 0; i < options_.threads; ++i) {
    threads.emplace_back(&Runtime::WorkerLoop, this, i);
  }
  for (std::thread& thread : threads) thread.join();
  stats_.wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void ExportStats(const RuntimeStats& stats, obs::MetricsRegistry* registry) {
  using PerCore = RuntimeStats::PerCore;
  registry->SetGauge("exec.threads", stats.threads);
  registry->SetGauge("exec.tasks", stats.Total(&PerCore::tasks_completed));
  registry->SetGauge("exec.yields", stats.Total(&PerCore::yields));
  registry->SetGauge("exec.steals", stats.Total(&PerCore::steals));
  registry->SetGauge("exec.parks", stats.Total(&PerCore::parks));
  registry->SetGauge("exec.unparks", stats.Total(&PerCore::unparks));
  registry->SetGauge("exec.run_queue_peak", stats.QueuePeak());
  registry->SetGauge("exec.busy_ns", stats.Total(&PerCore::busy_ns));
  registry->SetGauge("exec.wall_ns", stats.wall_ns);
}

std::vector<std::pair<std::string, std::vector<std::pair<std::string,
                                                         uint64_t>>>>
PerCoreRows(const RuntimeStats& stats) {
  std::vector<std::pair<std::string, std::vector<std::pair<std::string,
                                                           uint64_t>>>> rows;
  rows.reserve(stats.cores.size());
  for (size_t i = 0; i < stats.cores.size(); ++i) {
    const RuntimeStats::PerCore& c = stats.cores[i];
    rows.emplace_back(
        "exec" + std::to_string(i),
        std::vector<std::pair<std::string, uint64_t>>{
            {"tasks_completed", c.tasks_completed},
            {"steals", c.steals},
            {"yields", c.yields},
            {"parks", c.parks},
            {"unparks", c.unparks},
            {"busy_ns", c.busy_ns},
            {"queue_peak", c.queue_peak},
        });
  }
  return rows;
}

}  // namespace tell::exec
