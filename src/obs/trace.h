#ifndef TELL_OBS_TRACE_H_
#define TELL_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "sim/metrics.h"
#include "sim/virtual_clock.h"

namespace tell::obs {

/// Per-worker transaction phase tracer. Attributes elapsed *virtual* time to
/// the phase on top of an explicit span stack — entering a nested span
/// suspends the parent, so each nanosecond of virtual time is charged to
/// exactly one phase (exclusive attribution). At EndTxn the per-phase totals
/// are recorded into the worker's phase histograms: one sample per phase per
/// transaction, so percentiles read as "per-transaction phase latency" and
/// the phase means sum to (at most) the mean response time.
///
/// The tracer also samples the transaction's round budget: the storage
/// calls that issued a message (`store.pipeline.flushes`) between BeginTxn
/// and EndTxn go into `tx.storage_rounds`, one sample per transaction.
///
/// Owned by tx::Session alongside the VirtualClock and WorkerMetrics it
/// observes; like them it is single-threaded. Spans are opened with RAII
/// PhaseScope guards inside Transaction's methods, which keeps the stack
/// balanced on every early return. Enter/Exit outside an active transaction
/// are no-ops, so admin paths sharing the code cost nothing.
class TxnTracer {
 public:
  TxnTracer(const sim::VirtualClock* clock, sim::WorkerMetrics* metrics)
      : clock_(clock), metrics_(metrics) {
    stack_.reserve(8);
  }

  TxnTracer(const TxnTracer&) = delete;
  TxnTracer& operator=(const TxnTracer&) = delete;

  /// Starts attributing: zeroes the per-phase accumulators of the previous
  /// transaction (they were flushed by its EndTxn).
  void BeginTxn() {
    accum_.fill(0);
    stack_.clear();
    mark_ns_ = clock_->now_ns();
    rounds_mark_ = metrics_->pipeline_flushes;
    active_ = true;
  }

  void Enter(sim::TxnPhase phase) {
    if (!active_) return;
    Attribute();
    stack_.push_back(static_cast<uint32_t>(phase));
  }

  void Exit() {
    if (!active_ || stack_.empty()) return;
    Attribute();
    stack_.pop_back();
  }

  /// Flushes the accumulated per-phase time and the round count into the
  /// worker's histograms. Idempotent: the second call (e.g. abort followed
  /// by destruction) is a no-op.
  void EndTxn() {
    if (!active_) return;
    Attribute();
    for (size_t p = 0; p < sim::kNumTxnPhases; ++p) {
      if (accum_[p] != 0) metrics_->phase_ns[p].Record(accum_[p]);
    }
    metrics_->storage_rounds.Record(metrics_->pipeline_flushes - rounds_mark_);
    active_ = false;
  }

  bool active() const { return active_; }
  size_t depth() const { return stack_.size(); }
  /// Accumulated (unflushed) time of `phase` in the current transaction.
  uint64_t accumulated_ns(sim::TxnPhase phase) const {
    return accum_[static_cast<size_t>(phase)];
  }

 private:
  /// Charges the virtual time since the last mark to the current top-of-stack
  /// phase (time outside any span — e.g. the driver's think path — is
  /// deliberately unattributed).
  void Attribute() {
    uint64_t now = clock_->now_ns();
    if (!stack_.empty()) accum_[stack_.back()] += now - mark_ns_;
    mark_ns_ = now;
  }

  const sim::VirtualClock* const clock_;
  sim::WorkerMetrics* const metrics_;
  std::array<uint64_t, sim::kNumTxnPhases> accum_{};
  std::vector<uint32_t> stack_;
  uint64_t mark_ns_ = 0;
  uint64_t rounds_mark_ = 0;  // pipeline_flushes at BeginTxn
  bool active_ = false;
};

/// RAII span guard; safe on every early-return path.
class PhaseScope {
 public:
  PhaseScope(TxnTracer* tracer, sim::TxnPhase phase) : tracer_(tracer) {
    tracer_->Enter(phase);
  }
  ~PhaseScope() { tracer_->Exit(); }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  TxnTracer* const tracer_;
};

}  // namespace tell::obs

#endif  // TELL_OBS_TRACE_H_
