#ifndef TELL_STORE_STORAGE_NODE_H_
#define TELL_STORE_STORAGE_NODE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "store/fragment.h"
#include "store/versioned_cell.h"
#include "store/write_op.h"

namespace tell::store {

class LeaseEpochTable;

/// Stripes per partition when the owner does not say otherwise. Rounded up
/// to a power of two; 1 reproduces the old monolithic-map engine exactly.
inline constexpr uint32_t kDefaultStripesPerPartition = 16;

/// Point-in-time copy of one storage node's request counters (exported into
/// the obs::MetricsRegistry gauges `store.node.*` by db::TellDb).
struct StorageNodeStats {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t conditional_puts = 0;
  /// Store-conditionals rejected by stamp mismatch — the server-side view of
  /// LL/SC conflicts (puts and erases).
  uint64_t llsc_failures = 0;
  uint64_t erases = 0;
  uint64_t scans = 0;
  uint64_t cells_scanned = 0;
  uint64_t atomic_increments = 0;
  /// Stripe-lock acquisitions that found the lock held and had to block —
  /// the collision count of the striped engine.
  uint64_t stripe_conflicts = 0;
  /// Wall-clock nanoseconds spent blocked on stripe locks. Real time, not
  /// virtual: it measures genuine thread contention on this host, which the
  /// modelled network never sees.
  uint64_t lock_wait_ns = 0;

  void Accumulate(const StorageNodeStats& other) {
    gets += other.gets;
    puts += other.puts;
    conditional_puts += other.conditional_puts;
    llsc_failures += other.llsc_failures;
    erases += other.erases;
    scans += other.scans;
    cells_scanned += other.cells_scanned;
    atomic_increments += other.atomic_increments;
    stripe_conflicts += other.stripe_conflicts;
    lock_wait_ns += other.lock_wait_ns;
  }
};

/// One operation of a live-migration catch-up delta: a put (key, value,
/// stamp) or an erase (key, stamp) observed on the source master after the
/// watermark. Stamps come from the partition's monotone counter, so applying
/// ops stamp-guarded (only onto older cells) is idempotent and commutative —
/// see docs/RECOVERY.md "Live partition migration".
struct MigrationOp {
  std::string key;
  std::string value;  // empty (and ignored) for erases
  uint64_t stamp = 0;
  bool is_erase = false;
};

/// One storage node (SN): an in-memory record manager holding the partitions
/// (master copies and replica copies) assigned to it.
///
/// Mirrors the subset of RamCloud the paper depends on (§4, §6.1):
///   * consistent Get/Put on single records,
///   * atomic conditional writes (the store-conditional of LL/SC),
///   * ordered iteration (used by the transaction log and the B+tree
///     bootstrap), and
///   * atomic counters (tid assignment, rid assignment).
///
/// Thread safety: every partition is split into a power-of-two number of
/// *stripes* selected by key hash, each an independently shared_mutex-locked
/// ordered map. Point operations lock only their key's stripe (reads shared,
/// writes exclusive), so writes to different stripes proceed in parallel;
/// the per-cell stamp comparison of a conditional put happens inside the
/// stripe's exclusive section, which keeps the LL/SC pair genuinely atomic.
/// Ordered operations (scans, dumps) take every stripe lock shared and
/// k-way-merge the per-stripe sorted runs, so they observe an atomic
/// point-in-time snapshot of the partition and return exactly the order the
/// old single-map engine produced. Stamps come from one per-partition atomic
/// counter: monotonic and never reused regardless of which stripe a write
/// lands in.
class StorageNode {
 public:
  /// `memory_capacity_bytes` models the node's DRAM budget; puts that would
  /// exceed it fail with CapacityExceeded (exercised by Fig 7, where 3 SNs
  /// cannot hold the data generated by more than 5 PNs).
  /// `stripes_per_partition` is rounded up to a power of two (>= 1).
  StorageNode(uint32_t node_id, uint64_t memory_capacity_bytes,
              uint32_t stripes_per_partition = kDefaultStripesPerPartition);

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  uint32_t node_id() const { return node_id_; }
  uint32_t stripes_per_partition() const { return stripes_per_partition_; }

  /// Attaches the cluster's lease-epoch table (store/record_cache.h). Every
  /// write path then bumps the written partition's epoch inside its
  /// stripe-exclusive critical section, AFTER the cell mutation — the
  /// ordering the client record cache's correctness proof depends on. Set
  /// once at cluster build time, before traffic.
  void set_lease_epochs(LeaseEpochTable* epochs) { lease_epochs_ = epochs; }

  /// Crash-stop failure injection. A dead node rejects every request with
  /// Unavailable until Revive() (fail-over promotes a replica meanwhile).
  void Kill() { alive_.store(false, std::memory_order_release); }
  void Revive() { alive_.store(true, std::memory_order_release); }
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  /// Declares a table partition hosted on this node. `replica_of` is the
  /// master node id if this is a backup copy, or node_id() for the master.
  void CreatePartition(TableId table, uint32_t partition);

  /// Reads a cell. Returns NotFound if the key does not exist.
  Result<VersionedCell> Get(TableId table, uint32_t partition,
                            std::string_view key) const;

  /// One-sided read: the same lookup as Get but WITHOUT touching the
  /// request counters — it models an RDMA READ that the storage node's CPU
  /// never sees (paper §4.1/§7: one-sided operations bypass the server).
  /// The client validates the returned cell against the partition's lease
  /// epoch; see StorageClient::OneSidedFetch.
  Result<VersionedCell> OneSidedRead(TableId table, uint32_t partition,
                                     std::string_view key) const;

  /// The one client write: a put or an erase of `op.key` in `op.table`'s
  /// `partition`, store-conditional when `op.conditional` (the stamp must
  /// equal `op.expected_stamp`; kStampAbsent = key must not exist). Returns
  /// the new stamp of a put, 0 for an erase; ConditionFailed on a stamp
  /// mismatch, NotFound when an erase finds no cell, CapacityExceeded when a
  /// put would create a cell beyond the node's memory capacity. A write
  /// that succeeded is applied to every node of `backups` (the partition's
  /// live backups) before the key's stripe lock is released, so backups
  /// see one key's writes in stamp order. Lock order: this master stripe,
  /// then the backup's stripe of the same (table, partition).
  Result<uint64_t> Write(uint32_t partition, const WriteOp& op,
                         const std::vector<StorageNode*>& backups = {});

  /// Ordered scan of [start_key, end_key) within one partition.
  Result<std::vector<KeyCell>> Scan(TableId table, uint32_t partition,
                                    std::string_view start_key,
                                    std::string_view end_key) const;

  /// Storage-side scan with pushed-down operators (paper §5.2; DESIGN.md
  /// "Vectorized scans & aggregate pushdown"): streams the partition through
  /// `sink` in chunks of `chunk_cells` cells, stopping when the sink does.
  /// Each chunk is copied out under the stripe locks, then the locks are
  /// RELEASED before the sink judges/decodes/filters the chunk — a pass
  /// never holds the partition for its full duration, so OLTP point
  /// operations interleave between chunks. `stats` (optional) reports the
  /// cells fed to the sink and the lock-release count.
  Status FragmentScan(TableId table, uint32_t partition, size_t chunk_cells,
                      FragmentSink* sink, FragmentScanStats* stats) const;

  /// Atomically adds `delta` to a numeric counter cell, creating it at zero
  /// first if needed; returns the post-increment value. This is the
  /// storage-system counter the commit managers use to hand out tid ranges.
  /// The new cell reaches `backups` under the stripe lock, as in Write.
  Result<int64_t> AtomicIncrement(
      TableId table, uint32_t partition, std::string_view key, int64_t delta,
      const std::vector<StorageNode*>& backups = {});

  /// Approximate bytes of record data held (master + replica partitions).
  uint64_t memory_used() const {
    return memory_used_.load(std::memory_order_relaxed);
  }
  uint64_t memory_capacity() const { return memory_capacity_; }

  /// Copies every cell of a partition out (used to (re-)seed replicas and to
  /// promote replicas on fail-over).
  Result<std::vector<KeyCell>> DumpPartition(TableId table,
                                             uint32_t partition) const;

  /// Bulk-installs cells into a partition (replica seeding). Overwrites
  /// existing cells, preserving the dumped stamps so LL/SC tokens survive
  /// fail-over. Takes every stripe lock exclusive, so concurrent readers
  /// see either none or all of the installed batch.
  Status InstallPartition(TableId table, uint32_t partition,
                          const std::vector<KeyCell>& cells);

  // --- Live migration (docs/RECOVERY.md) ---------------------------------

  /// Starts journaling erases on a partition (migration source). Erases
  /// leave no trace in the cell map, so during a migration each one draws a
  /// stamp from the partition counter and is appended to a journal the
  /// catch-up deltas read. Idempotent.
  Status BeginMigrationLogging(TableId table, uint32_t partition);
  /// Stops journaling and clears the journal (migration aborted; a
  /// completed migration ends logging inside SealPartitionAndDump).
  Status EndMigrationLogging(TableId table, uint32_t partition);

  /// Current value of the partition's stamp counter. Read it BEFORE a dump:
  /// every write the dump might miss then carries a stamp >= the returned
  /// watermark, so the next DumpPartitionSince(watermark) catches it.
  Result<uint64_t> PartitionNextStamp(TableId table, uint32_t partition) const;

  /// Like DumpPartition but only cells with stamp >= `min_stamp` (catch-up
  /// delta rounds of a live migration).
  Result<std::vector<KeyCell>> DumpPartitionSince(TableId table,
                                                  uint32_t partition,
                                                  uint64_t min_stamp) const;

  /// Journaled erases with stamp >= `min_stamp` (is_erase=true ops).
  Result<std::vector<MigrationOp>> ErasesSince(TableId table,
                                               uint32_t partition,
                                               uint64_t min_stamp) const;

  /// Cut-over step on the migration source: under every stripe lock held
  /// exclusive, marks the partition sealed (all further writes bounce with
  /// Unavailable), collects the final delta (puts with stamp >= `min_stamp`
  /// merged with the journaled erases), and ends migration logging — one
  /// atomic step, so the returned delta is exact and final. The partition
  /// stays sealed: its data is frozen at the cut-over image, which keeps
  /// reads racing the cut-over trivially consistent.
  Result<std::vector<MigrationOp>> SealPartitionAndDump(TableId table,
                                                        uint32_t partition,
                                                        uint64_t min_stamp);

  /// Applies a catch-up delta on the migration destination. Stamp-guarded:
  /// an op only applies over a cell older than its stamp, so replaying an
  /// overlapping delta round is harmless. `erases_applied` (optional)
  /// counts erase ops that actually removed a cell.
  Status InstallMigrationDelta(TableId table, uint32_t partition,
                               const std::vector<MigrationOp>& ops,
                               uint64_t* erases_applied = nullptr);

  /// Applies a write the master of `partition` acknowledged to this backup
  /// copy: a put installs `op.value` with the master's `stamp`, an erase
  /// removes the cell if present. Never conditional, never refused for
  /// capacity: a backup mirrors what its master already holds.
  Status ApplyReplicated(uint32_t partition, const WriteOp& op,
                         uint64_t stamp);

  /// Number of keys in a partition (tests / capacity planning).
  size_t PartitionSize(TableId table, uint32_t partition) const;

  /// Copy of this node's request counters. Counters are relaxed atomics
  /// incremented on the request paths, so a snapshot racing live traffic is
  /// approximate but never torn per-counter.
  StorageNodeStats stats() const {
    StorageNodeStats s;
    s.gets = stats_.gets.load(std::memory_order_relaxed);
    s.puts = stats_.puts.load(std::memory_order_relaxed);
    s.conditional_puts =
        stats_.conditional_puts.load(std::memory_order_relaxed);
    s.llsc_failures = stats_.llsc_failures.load(std::memory_order_relaxed);
    s.erases = stats_.erases.load(std::memory_order_relaxed);
    s.scans = stats_.scans.load(std::memory_order_relaxed);
    s.cells_scanned = stats_.cells_scanned.load(std::memory_order_relaxed);
    s.atomic_increments =
        stats_.atomic_increments.load(std::memory_order_relaxed);
    s.stripe_conflicts =
        stats_.stripe_conflicts.load(std::memory_order_relaxed);
    s.lock_wait_ns = stats_.lock_wait_ns.load(std::memory_order_relaxed);
    return s;
  }

 private:
  using CellMap = std::map<std::string, VersionedCell, std::less<>>;

  /// One independently locked slice of a partition's key space.
  struct Stripe {
    mutable std::shared_mutex mutex;
    CellMap cells;
  };

  struct Partition {
    explicit Partition(uint32_t num_stripes)
        : stripes(num_stripes), stripe_mask(num_stripes - 1) {}

    std::vector<Stripe> stripes;  // power-of-two count, fixed at creation
    const uint64_t stripe_mask;
    // Monotonic stamp source for the whole partition. Starts at 1 so that
    // kStampAbsent (0) can never be a live stamp. A single atomic shared by
    // all stripes: fetch_add keeps stamps unique and globally increasing,
    // so a cell's stamp still strictly increases on every write (ABA
    // safety) no matter how writes interleave across stripes.
    std::atomic<uint64_t> next_stamp{1};

    // Migration-source state. `sealed` and `migration_logging` are written
    // only while every stripe lock is held exclusive, and read after
    // acquiring a stripe lock, so the stripe mutexes order them; the atomics
    // just keep the concurrent loads race-free. The erase journal has its
    // own mutex, always acquired after a stripe lock (lock order:
    // stripe -> journal).
    std::atomic<bool> sealed{false};
    std::atomic<bool> migration_logging{false};
    mutable std::mutex journal_mutex;
    std::vector<MigrationOp> erase_journal;

    Stripe& StripeOf(std::string_view key) {
      return stripes[std::hash<std::string_view>{}(key) & stripe_mask];
    }
    const Stripe& StripeOf(std::string_view key) const {
      return stripes[std::hash<std::string_view>{}(key) & stripe_mask];
    }
    /// Advances next_stamp past `stamp` (replica installs: keep the source
    /// ahead of every adopted stamp so post-fail-over writes stay ABA-safe).
    void AdvanceStampPast(uint64_t stamp) {
      uint64_t cur = next_stamp.load(std::memory_order_relaxed);
      while (stamp >= cur && !next_stamp.compare_exchange_weak(
                                 cur, stamp + 1, std::memory_order_relaxed)) {
      }
    }
  };

  /// The only two cell mutations, and the only code that moves
  /// memory_used_: every write path (client writes, replica applies,
  /// increments, migration deltas, partition installs) goes through them.
  /// A cell is charged key + value + sizeof(VersionedCell) bytes.
  /// SetCell gives `key` (whose lookup in `cells` is `it`, end() if absent)
  /// the value and stamp. With `capacity_checked`, creating a cell that
  /// would take the node past its capacity fails with CapacityExceeded and
  /// changes nothing; overwrites and unchecked sets always apply. Caller
  /// holds the stripe lock exclusive.
  Status SetCell(CellMap& cells, CellMap::iterator it, std::string_view key,
                 std::string_view value, uint64_t stamp,
                 bool capacity_checked);
  void EraseCell(CellMap& cells, CellMap::iterator it);

  /// Appends an erase (with a fresh stamp) to the partition's migration
  /// journal when logging is on. Caller holds the key's stripe lock
  /// exclusive, which orders the journal entry against dumps.
  static void JournalEraseLocked(Partition* part, std::string_view key);

  /// Applies a write this master just made, with its `stamp`, to each of
  /// `backups` (ApplyReplicated). Caller holds the key's stripe lock
  /// exclusive. A dead backup is skipped; other failures are logged.
  static void ApplyToBackups(const std::vector<StorageNode*>& backups,
                             uint32_t partition, const WriteOp& op,
                             uint64_t stamp);

  // Key: (table << 32) | partition. The full 32-bit partition id is kept so
  // distinct partitions can never alias (a former 16-bit shift silently
  // collided for partitions >= 65536). Partitions are registered up front
  // at cluster build time, so lookup after that point is lock-free.
  Partition* FindPartition(TableId table, uint32_t partition) const;
  Status CheckAlive() const;

  static uint64_t PartitionKey(TableId table, uint32_t partition) {
    return (static_cast<uint64_t>(table) << 32) | partition;
  }

  /// Timed lock helpers: an uncontended acquisition is one try_lock (no
  /// clock read); a contended one counts a stripe conflict and adds the
  /// blocked wall-clock time to lock_wait_ns.
  std::shared_lock<std::shared_mutex> LockShared(const Stripe& stripe) const;
  std::unique_lock<std::shared_mutex> LockExclusive(const Stripe& stripe) const;
  /// Locks every stripe of a partition (in index order) for merge scans and
  /// bulk installs.
  std::vector<std::shared_lock<std::shared_mutex>> LockAllShared(
      const Partition& part) const;
  std::vector<std::unique_lock<std::shared_mutex>> LockAllExclusive(
      const Partition& part) const;

  /// Shared merge-scan core of Scan / FragmentScan / DumpPartition. Walks
  /// the per-stripe sorted runs of [start_key, end_key) in key order,
  /// calling `emit` for each cell until it returns false. Caller must hold
  /// every stripe lock.
  template <typename Emit>
  static void MergeScan(const Partition& part, std::string_view start_key,
                        std::string_view end_key, Emit&& emit);

  struct AtomicStats {
    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> puts{0};
    std::atomic<uint64_t> conditional_puts{0};
    std::atomic<uint64_t> llsc_failures{0};
    std::atomic<uint64_t> erases{0};
    std::atomic<uint64_t> scans{0};
    std::atomic<uint64_t> cells_scanned{0};
    std::atomic<uint64_t> atomic_increments{0};
    std::atomic<uint64_t> stripe_conflicts{0};
    std::atomic<uint64_t> lock_wait_ns{0};
  };

  /// Bumps the partition's lease epoch if a table is attached. Call after
  /// the cell mutation, while still holding the write's stripe lock(s).
  void BumpLeaseEpoch(TableId table, uint32_t partition) const;

  const uint32_t node_id_;
  const uint64_t memory_capacity_;
  const uint32_t stripes_per_partition_;
  LeaseEpochTable* lease_epochs_ = nullptr;
  std::atomic<bool> alive_{true};
  std::atomic<uint64_t> memory_used_{0};
  mutable AtomicStats stats_;

  mutable std::shared_mutex partitions_mutex_;
  std::map<uint64_t, std::unique_ptr<Partition>> partitions_;
};

}  // namespace tell::store

#endif  // TELL_STORE_STORAGE_NODE_H_
