#ifndef TELL_EXEC_FIBER_H_
#define TELL_EXEC_FIBER_H_

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <memory>

namespace tell::exec {

/// A stackful coroutine: the unit of suspension under exec::Runtime.
///
/// A fiber runs an arbitrary `std::function<void()>` on its own stack and
/// can suspend itself from ANY call depth with Fiber::Yield() — that is
/// what lets the whole existing Transaction/TpccExecutor call stack park on
/// a modelled network wait without being rewritten in continuation-passing
/// style. Resume() runs the fiber on the calling thread until it yields or the
/// body returns.
///
/// Threading contract: a fiber is resumed by one thread at a time but MAY
/// migrate between resumes (work stealing moves parked tasks across
/// executor threads). The scheduler's queue lock provides the
/// happens-before edge between the yielding thread and the resuming one.
/// Under ThreadSanitizer the context switches are annotated with the TSan
/// fiber API so cross-thread migration is understood by the race detector.
class Fiber {
 public:
  /// `stack_bytes` must comfortably hold the deepest call chain the body
  /// reaches (the TPC-C executor stays well under the 256 KiB default).
  explicit Fiber(std::function<void()> body, size_t stack_bytes = 256 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber on the calling thread until it yields or finishes.
  /// Returns true when the body has returned (the fiber must not be
  /// resumed again).
  bool Resume();

  /// Suspends the fiber currently running on this thread, returning
  /// control to its Resume() caller. Must be called from inside a fiber.
  static void Yield();

  /// The fiber currently executing on this thread, or nullptr.
  static Fiber* Current();

  bool finished() const { return finished_; }

 private:
  static void Trampoline();
  void SwitchOut();

  std::function<void()> body_;
  std::unique_ptr<char[]> stack_;
  size_t stack_bytes_;
  ucontext_t ctx_{};     // the fiber's own context
  ucontext_t return_{};  // where Resume() was called from
  bool started_ = false;
  bool finished_ = false;
  void* tsan_fiber_ = nullptr;   // TSan fiber handle (tsan builds only)
  void* tsan_parent_ = nullptr;  // resumer's TSan fiber, valid during a run
};

}  // namespace tell::exec

#endif  // TELL_EXEC_FIBER_H_
