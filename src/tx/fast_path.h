#ifndef TELL_TX_FAST_PATH_H_
#define TELL_TX_FAST_PATH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "commitmgr/commit_manager.h"
#include "common/exec_hooks.h"
#include "common/result.h"
#include "common/status.h"
#include "sim/metrics.h"
#include "sim/virtual_clock.h"
#include "store/storage_client.h"

namespace tell::tx {

using commitmgr::Tid;

/// Options of the single-partition fast path (DESIGN.md "Phase-switching
/// fast path"). Off by default: the fast path changes the commit protocol
/// for single-home transactions and callers opt in per TellDb instance.
struct FastPathOptions {
  bool enabled = false;
  /// Number of serial lanes partitions hash onto. Partitions sharing a lane
  /// share one serial fast queue; lanes >= partitions gives full separation.
  uint32_t lanes = 64;
  /// Fast tids are leased from the global tid counter in batches of this
  /// size (one commit-manager message per batch).
  uint32_t tid_lease_size = 64;
  /// Fast-commit completions are sent to the commit manager in batches of
  /// this size (plus a forced flush before every MVCC begin).
  uint32_t completion_flush = 64;
};

/// A reader/writer spin fence with writer preference, usable from both the
/// legacy thread-per-worker drivers and executor fibers (waiters yield via
/// exec_hooks so a fiber never blocks its core). The phase fences must not
/// park on an OS mutex: a fast transaction holds its lane for microseconds
/// of real time and fairness matters more than cheap blocking.
///
/// Lock/unlock pairs establish happens-before through the state atomic
/// (acquire on lock, release on unlock), so data written under the
/// exclusive side is visible to later holders — including to TSan.
class SpinSharedMutex {
 public:
  /// Exclusive acquire. Returns true if it had to wait.
  bool Lock() {
    state_.fetch_add(kPendingOne, std::memory_order_acq_rel);
    bool waited = false;
    for (;;) {
      uint32_t s = state_.load(std::memory_order_acquire);
      if ((s & (kWriterHeld | kReaderMask)) == 0) {
        if (state_.compare_exchange_weak(s, (s - kPendingOne) | kWriterHeld,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
          return waited;
        }
      }
      waited = true;
      Yield();
    }
  }

  void Unlock() {
    state_.fetch_and(~kWriterHeld, std::memory_order_release);
  }

  /// Shared acquire; blocks while a writer holds OR WAITS (writer
  /// preference, so a stream of readers cannot starve the other phase).
  /// Returns true if it had to wait.
  bool LockShared() {
    bool waited = false;
    for (;;) {
      uint32_t s = state_.load(std::memory_order_acquire);
      if ((s & (kWriterHeld | kPendingMask)) == 0) {
        if (state_.compare_exchange_weak(s, s + 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
          return waited;
        }
      }
      waited = true;
      Yield();
    }
  }

  void UnlockShared() { state_.fetch_sub(1, std::memory_order_release); }

 private:
  static void Yield() {
    // Executor fibers yield back to their scheduler (the core runs other
    // tasks and resumes us later); legacy threads yield to the OS.
    if (exec_hooks::InTask()) {
      exec_hooks::MaybeYield();
    } else {
      std::this_thread::yield();
    }
  }

  static constexpr uint32_t kReaderMask = 0xFFFF;       // bits 0..15
  static constexpr uint32_t kPendingOne = 1u << 16;     // bits 16..30
  static constexpr uint32_t kPendingMask = 0x7FFF0000;
  static constexpr uint32_t kWriterHeld = 1u << 31;

  std::atomic<uint32_t> state_{0};
};

/// PN-wide coordinator of the phase-switching fast path. One per TellDb.
///
/// Model: every logical partition hashes onto one of `lanes` serial lanes.
/// A single-partition transaction holds its home lane's fence EXCLUSIVE for
/// its whole lifetime — the lane is a serial execution queue, so the fast
/// transaction needs no commit-manager begin, no snapshot and no LL/SC: with
/// the lane fenced, every version in the partition is settled and Newest()
/// is the serialization-consistent read. An MVCC transaction holds the
/// fences of the lanes its write set touches SHARED for the whole commit
/// (log append through finish/rollback), so fast commits never interleave
/// with a half-applied MVCC write set and vice versa. Unpartitioned
/// reference tables are guarded by one global reference fence: fast
/// transactions read them under the shared side, MVCC commits writing them
/// take it exclusive. Fence order is lanes ascending, reference last —
/// acquisition is globally ordered, hence deadlock free.
///
/// Fast tids are leased in batches from the same sequential stream MVCC
/// begins draw on (CommitManager::LeaseFastTids) — version order within a
/// record is tid order, so assignment order must match begin order across
/// both phases (which is also why the fast path requires a single commit
/// manager). A lane's cached batch is invalidated whenever an MVCC commit
/// releases that lane (mvcc_epoch): tids handed out after the lease are
/// larger than the cached batch, so the lane re-leases before writing under
/// them. Together these keep the invariant that a fast write is always the
/// newest version in its lane. Discarded and committed tids are completed
/// at the commit manager in batches; an uncompleted leased tid pins the
/// snapshot base (and the GC horizon), which is exactly the
/// conservative-safe direction.
class FastPathCoordinator {
 public:
  FastPathCoordinator(const FastPathOptions& options,
                      commitmgr::CommitManagerGroup* managers);

  FastPathCoordinator(const FastPathCoordinator&) = delete;
  FastPathCoordinator& operator=(const FastPathCoordinator&) = delete;

  uint32_t num_lanes() const { return num_lanes_; }

  uint32_t LaneFor(int64_t partition) const {
    return static_cast<uint32_t>(static_cast<uint64_t>(partition) %
                                 num_lanes_);
  }

  // --- Fast side (the transaction holds the lane for its lifetime) -------

  /// Blocks until `lane` is exclusively held plus the reference fence
  /// shared. Counts tx.fastpath.fence_waits per fence that had to wait.
  void AcquireFastFences(uint32_t lane, sim::WorkerMetrics* metrics);

  /// Hands out the next fast tid for `lane` (caller holds the lane
  /// exclusively). Refreshes the lane's cached batch from the global
  /// counter when it is exhausted or was invalidated by an MVCC commit.
  Result<Tid> LeaseTid(uint32_t lane, uint32_t worker_id,
                       store::StorageClient* client);

  /// Commit release: queues `tid` (0 = read-only, nothing to complete) for
  /// batched completion, charges the lane's serial virtual-time queue
  /// (a lane is one resource: commits that overlapped in real time
  /// serialize in virtual time), and releases the fences.
  void ReleaseFastCommit(uint32_t lane, Tid tid, uint64_t begin_vns,
                         uint32_t worker_id, store::StorageClient* client,
                         sim::VirtualClock* clock);

  /// Abort/fallback release: nothing was applied; the leased tid (if any)
  /// is queued for completion and the fences released. No lane time is
  /// charged — a fallback must look exactly as if the transaction had
  /// never entered the fast phase.
  void ReleaseFastAbort(uint32_t lane, Tid tid);

  // --- MVCC side ---------------------------------------------------------

  /// Fences held by one MVCC commit: the touched lanes shared (ascending)
  /// plus, when the write set includes unpartitioned tables, the reference
  /// fence exclusive. Destruction bumps each lane's mvcc_epoch (invalidating
  /// cached fast-tid batches) before releasing.
  class MvccFenceGuard {
   public:
    MvccFenceGuard() = default;
    MvccFenceGuard(MvccFenceGuard&& other) noexcept { *this = std::move(other); }
    MvccFenceGuard& operator=(MvccFenceGuard&& other) noexcept {
      Release();
      coordinator_ = other.coordinator_;
      lanes_ = std::move(other.lanes_);
      reference_exclusive_ = other.reference_exclusive_;
      other.coordinator_ = nullptr;
      other.reference_exclusive_ = false;
      return *this;
    }
    MvccFenceGuard(const MvccFenceGuard&) = delete;
    MvccFenceGuard& operator=(const MvccFenceGuard&) = delete;
    ~MvccFenceGuard() { Release(); }

   private:
    friend class FastPathCoordinator;
    void Release();

    FastPathCoordinator* coordinator_ = nullptr;
    std::vector<uint32_t> lanes_;
    bool reference_exclusive_ = false;
  };

  /// Blocks until the given lanes are held shared (sorted + deduped
  /// internally) and, if requested, the reference fence exclusive.
  MvccFenceGuard AcquireMvccFences(std::vector<uint32_t> lanes,
                                   bool reference_exclusive,
                                   sim::WorkerMetrics* metrics);

  /// Sends every queued fast completion to the commit manager now. Called
  /// before each MVCC begin (so new snapshots include earlier fast commits
  /// — read-your-writes across phases) and on TellDb shutdown.
  void FlushPending(uint32_t worker_id, store::StorageClient* client);

  /// Queued-but-unsent completions (tests).
  size_t PendingCompletions() const;

 private:
  struct alignas(64) Lane {
    SpinSharedMutex fence;
    /// Bumped by every MVCC fence release of this lane; compared against
    /// lease_epoch to invalidate the cached tid batch.
    std::atomic<uint64_t> mvcc_epoch{0};
    // The fields below are touched only while `fence` is held exclusively.
    std::vector<Tid> leased;
    size_t next_leased = 0;
    uint64_t lease_epoch = 0;
    /// Virtual time until which the lane's serial queue is busy.
    uint64_t busy_until_ns = 0;
  };

  /// Adds tids to the completion queue; flushes when the batch is full.
  void QueueCompletions(const Tid* tids, size_t count, uint32_t worker_id,
                        store::StorageClient* client);

  const FastPathOptions options_;
  commitmgr::CommitManagerGroup* const managers_;
  /// Fixed array: Lane holds atomics, so it is neither copyable nor movable.
  const uint32_t num_lanes_;
  std::unique_ptr<Lane[]> lanes_;
  SpinSharedMutex reference_fence_;

  mutable std::mutex pending_mutex_;
  std::vector<Tid> pending_;
};

}  // namespace tell::tx

#endif  // TELL_TX_FAST_PATH_H_
