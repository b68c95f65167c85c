#ifndef TELL_COMMON_EXEC_HOOKS_H_
#define TELL_COMMON_EXEC_HOOKS_H_

namespace tell::exec_hooks {

/// Low-level bridge between the common layer and the executor runtime
/// (src/exec), kept in common so the commit-manager client can park
/// without depending on the exec library.
///
/// An executor worker thread installs a yield hook for the duration of its
/// scheduling loop; task code that is about to wait on something modelled
/// as a round trip (a commit-manager begin) calls
/// MaybeYield() first. Inside an executor task that suspends the task's
/// fiber — the core runs other tasks and the caller resumes later, exactly
/// where it yielded. Outside the executor (the legacy thread-per-worker
/// drivers, every existing test) the hook is null and MaybeYield is a
/// no-op, so legacy behaviour and determinism are untouched.
using YieldFn = void (*)(void* arg);

struct TaskHook {
  YieldFn yield = nullptr;
  void* arg = nullptr;
};

/// Per-OS-thread hook. Only exec::Runtime writes this (on its own worker
/// threads); everything else just reads it through MaybeYield().
inline thread_local TaskHook g_task_hook;

/// Park point: yields the current task's fiber back to its scheduler when
/// running under the executor; no-op otherwise. Never touches virtual
/// clocks — yielding is free in virtual time by design (RUNTIME.md,
/// "Determinism contract").
inline void MaybeYield() {
  if (g_task_hook.yield != nullptr) g_task_hook.yield(g_task_hook.arg);
}

}  // namespace tell::exec_hooks

#endif  // TELL_COMMON_EXEC_HOOKS_H_
