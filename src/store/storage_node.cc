#include "store/storage_node.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>

#include "common/logging.h"
#include "common/serde.h"
#include "store/record_cache.h"

namespace tell::store {

namespace {

uint32_t RoundUpPowerOfTwo(uint32_t n) {
  if (n <= 1) return 1;
  uint32_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void StorageNode::ApplyToBackups(const std::vector<StorageNode*>& backups,
                                 uint32_t partition, const WriteOp& op,
                                 uint64_t stamp) {
  for (StorageNode* backup : backups) {
    // A backup that died mid-write is simply skipped; the management node
    // will notice and restore the replication level (paper §4.4.2).
    Status st = backup->ApplyReplicated(partition, op, stamp);
    if (!st.ok() && !st.IsUnavailable()) {
      TELL_LOG(kWarn) << "replication to node " << backup->node_id()
                      << " failed: " << st.ToString();
    }
  }
}

StorageNode::StorageNode(uint32_t node_id, uint64_t memory_capacity_bytes,
                         uint32_t stripes_per_partition)
    : node_id_(node_id),
      memory_capacity_(memory_capacity_bytes),
      stripes_per_partition_(RoundUpPowerOfTwo(stripes_per_partition)) {}

void StorageNode::CreatePartition(TableId table, uint32_t partition) {
  std::unique_lock lock(partitions_mutex_);
  uint64_t key = PartitionKey(table, partition);
  if (partitions_.find(key) == partitions_.end()) {
    partitions_.emplace(key,
                        std::make_unique<Partition>(stripes_per_partition_));
  }
}

StorageNode::Partition* StorageNode::FindPartition(TableId table,
                                                   uint32_t partition) const {
  std::shared_lock lock(partitions_mutex_);
  auto it = partitions_.find(PartitionKey(table, partition));
  return it == partitions_.end() ? nullptr : it->second.get();
}

void StorageNode::BumpLeaseEpoch(TableId table, uint32_t partition) const {
  // Ordering contract (see LeaseEpochTable): the bump happens after the
  // cell mutation, inside the same stripe-exclusive critical section, so a
  // cache probe that still observes the pre-bump epoch is guaranteed the
  // store has not changed since the probe's fill fetched it.
  if (lease_epochs_ != nullptr) lease_epochs_->Bump(table, partition);
}

Status StorageNode::CheckAlive() const {
  if (!alive()) {
    return Status::Unavailable("storage node " + std::to_string(node_id_) +
                               " is down");
  }
  return Status::OK();
}

std::shared_lock<std::shared_mutex> StorageNode::LockShared(
    const Stripe& stripe) const {
  std::shared_lock<std::shared_mutex> lock(stripe.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    stats_.stripe_conflicts.fetch_add(1, std::memory_order_relaxed);
    uint64_t start = MonotonicNowNs();
    lock.lock();
    stats_.lock_wait_ns.fetch_add(MonotonicNowNs() - start,
                                  std::memory_order_relaxed);
  }
  return lock;
}

std::unique_lock<std::shared_mutex> StorageNode::LockExclusive(
    const Stripe& stripe) const {
  std::unique_lock<std::shared_mutex> lock(stripe.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    stats_.stripe_conflicts.fetch_add(1, std::memory_order_relaxed);
    uint64_t start = MonotonicNowNs();
    lock.lock();
    stats_.lock_wait_ns.fetch_add(MonotonicNowNs() - start,
                                  std::memory_order_relaxed);
  }
  return lock;
}

std::vector<std::shared_lock<std::shared_mutex>> StorageNode::LockAllShared(
    const Partition& part) const {
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(part.stripes.size());
  for (const Stripe& stripe : part.stripes) {
    locks.push_back(LockShared(stripe));
  }
  return locks;
}

std::vector<std::unique_lock<std::shared_mutex>> StorageNode::LockAllExclusive(
    const Partition& part) const {
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(part.stripes.size());
  for (const Stripe& stripe : part.stripes) {
    locks.push_back(LockExclusive(stripe));
  }
  return locks;
}

template <typename Emit>
void StorageNode::MergeScan(const Partition& part, std::string_view start_key,
                            std::string_view end_key, Emit&& emit) {
  using Iter = CellMap::const_iterator;
  const size_t n = part.stripes.size();
  std::vector<Iter> cur(n), hi(n);
  for (size_t s = 0; s < n; ++s) {
    const auto& cells = part.stripes[s].cells;
    cur[s] = cells.lower_bound(start_key);
    hi[s] = end_key.empty() ? cells.end() : cells.lower_bound(end_key);
  }
  // Linear min pick across the per-stripe runs. Stripe counts are small
  // (<= a few dozen), so this beats a heap in both simplicity and constant
  // factor; with one stripe it degenerates to the old single-map walk.
  for (;;) {
    size_t best = n;
    for (size_t s = 0; s < n; ++s) {
      if (cur[s] == hi[s]) continue;
      if (best == n || cur[s]->first < cur[best]->first) best = s;
    }
    if (best == n) return;
    if (!emit(cur[best]->first, cur[best]->second)) return;
    ++cur[best];
  }
}

Result<VersionedCell> StorageNode::Get(TableId table, uint32_t partition,
                                       std::string_view key) const {
  TELL_RETURN_NOT_OK(CheckAlive());
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  const Stripe& stripe = part->StripeOf(key);
  auto lock = LockShared(stripe);
  auto it = stripe.cells.find(key);
  if (it == stripe.cells.end()) return Status::NotFound();
  return it->second;
}

Result<VersionedCell> StorageNode::OneSidedRead(TableId table,
                                                uint32_t partition,
                                                std::string_view key) const {
  // Same lookup as Get, but no stats_.gets: the node's CPU never handles an
  // RDMA READ, so it must not show up in the store.node.* request gauges.
  // (The stripe lock stands in for the DMA engine's cache-coherent access;
  // the *virtual* cost model on the client side charges no server time.)
  TELL_RETURN_NOT_OK(CheckAlive());
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  const Stripe& stripe = part->StripeOf(key);
  auto lock = LockShared(stripe);
  auto it = stripe.cells.find(key);
  if (it == stripe.cells.end()) return Status::NotFound();
  return it->second;
}

Status StorageNode::SetCell(CellMap& cells, CellMap::iterator it,
                            std::string_view key, std::string_view value,
                            uint64_t stamp, bool capacity_checked) {
  if (it == cells.end()) {
    const uint64_t bytes = key.size() + value.size() + sizeof(VersionedCell);
    const uint64_t used =
        memory_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (capacity_checked && used > memory_capacity_) {
      memory_used_.fetch_sub(bytes, std::memory_order_relaxed);
      return Status::CapacityExceeded("storage node " +
                                      std::to_string(node_id_) + " is full");
    }
    cells.emplace(std::string(key), VersionedCell{std::string(value), stamp});
    return Status::OK();
  }
  // Unsigned wrap-around makes the add a subtraction when the value shrinks.
  memory_used_.fetch_add(value.size() - it->second.value.size(),
                         std::memory_order_relaxed);
  it->second.value.assign(value);
  it->second.stamp = stamp;
  return Status::OK();
}

void StorageNode::EraseCell(CellMap& cells, CellMap::iterator it) {
  memory_used_.fetch_sub(
      it->first.size() + it->second.value.size() + sizeof(VersionedCell),
      std::memory_order_relaxed);
  cells.erase(it);
}

Result<uint64_t> StorageNode::Write(uint32_t partition, const WriteOp& op,
                                    const std::vector<StorageNode*>& backups) {
  TELL_RETURN_NOT_OK(CheckAlive());
  std::atomic<uint64_t>& requests =
      op.erase ? stats_.erases
               : (op.conditional ? stats_.conditional_puts : stats_.puts);
  requests.fetch_add(1, std::memory_order_relaxed);
  Partition* part = FindPartition(op.table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  Stripe& stripe = part->StripeOf(op.key);
  auto lock = LockExclusive(stripe);
  if (part->sealed.load(std::memory_order_relaxed)) {
    return Status::Unavailable("partition sealed for migration");
  }
  auto it = stripe.cells.find(op.key);
  const bool present = it != stripe.cells.end();
  if (op.erase && !present) return Status::NotFound();
  const uint64_t current = present ? it->second.stamp : kStampAbsent;
  if (op.conditional && current != op.expected_stamp) {
    stats_.llsc_failures.fetch_add(1, std::memory_order_relaxed);
    return Status::ConditionFailed("stamp mismatch: expected " +
                                   std::to_string(op.expected_stamp) +
                                   ", have " + std::to_string(current));
  }
  uint64_t stamp = 0;
  if (op.erase) {
    EraseCell(stripe.cells, it);
    JournalEraseLocked(part, op.key);
  } else {
    stamp = part->next_stamp.fetch_add(1, std::memory_order_relaxed);
    TELL_RETURN_NOT_OK(SetCell(stripe.cells, it, op.key, op.value, stamp,
                               /*capacity_checked=*/true));
  }
  BumpLeaseEpoch(op.table, partition);
  ApplyToBackups(backups, partition, op, stamp);
  return stamp;
}

Result<std::vector<KeyCell>> StorageNode::Scan(
    TableId table, uint32_t partition, std::string_view start_key,
    std::string_view end_key) const {
  TELL_RETURN_NOT_OK(CheckAlive());
  stats_.scans.fetch_add(1, std::memory_order_relaxed);
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  auto locks = LockAllShared(*part);
  std::vector<KeyCell> out;
  if (start_key.empty() && end_key.empty()) {
    // Full walk (log replay, bootstrap): exact size.
    size_t total = 0;
    for (const Stripe& stripe : part->stripes) total += stripe.cells.size();
    out.reserve(total);
  }
  MergeScan(*part, start_key, end_key,
            [&](const std::string& key, const VersionedCell& cell) {
              out.push_back({key, cell.value, cell.stamp});
              return true;
            });
  stats_.cells_scanned.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

Status StorageNode::FragmentScan(TableId table, uint32_t partition,
                                 size_t chunk_cells, FragmentSink* sink,
                                 FragmentScanStats* stats) const {
  TELL_RETURN_NOT_OK(CheckAlive());
  stats_.scans.fetch_add(1, std::memory_order_relaxed);
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  if (chunk_cells == 0) chunk_cells = 1;

  // Chunked pass: copy up to chunk_cells raw cells out under the stripe
  // locks, release the locks, then run the sink's decode/filter/fold over
  // the copies. The cursor (last key + '\0') restarts the merge just past
  // the previous chunk; MVCC version lists keep the result
  // snapshot-consistent across the release (tombstones, not erases, encode
  // deletes for MVCC tables).
  std::string cursor;
  bool more = true;
  bool keep_going = true;
  FragmentScanStats local;
  std::vector<std::pair<std::string, std::string>> batch;
  batch.reserve(chunk_cells);
  while (more && keep_going) {
    batch.clear();
    {
      auto locks = LockAllShared(*part);
      more = false;
      MergeScan(*part, cursor, "",
                [&](const std::string& key, const VersionedCell& cell) {
                  if (batch.size() == chunk_cells) {
                    more = true;  // at least one cell past this chunk
                    return false;
                  }
                  batch.emplace_back(key, cell.value);
                  return true;
                });
    }
    if (more) ++local.chunk_lock_releases;
    for (const auto& [key, value] : batch) {
      ++local.cells_scanned;
      if (!sink->Absorb(key, value)) {
        keep_going = false;
        break;
      }
    }
    if (more && !batch.empty()) {
      cursor = batch.back().first;
      cursor.push_back('\0');
    }
  }
  stats_.cells_scanned.fetch_add(local.cells_scanned,
                                 std::memory_order_relaxed);
  if (stats != nullptr) stats->Accumulate(local);
  return sink->status();
}

Result<int64_t> StorageNode::AtomicIncrement(
    TableId table, uint32_t partition, std::string_view key, int64_t delta,
    const std::vector<StorageNode*>& backups) {
  TELL_RETURN_NOT_OK(CheckAlive());
  stats_.atomic_increments.fetch_add(1, std::memory_order_relaxed);
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  Stripe& stripe = part->StripeOf(key);
  auto lock = LockExclusive(stripe);
  if (part->sealed.load(std::memory_order_relaxed)) {
    return Status::Unavailable("partition sealed for migration");
  }
  auto it = stripe.cells.find(key);
  int64_t current = 0;
  if (it != stripe.cells.end() && it->second.value.size() == sizeof(int64_t)) {
    std::memcpy(&current, it->second.value.data(), sizeof(int64_t));
  }
  int64_t updated = current + delta;
  std::string encoded(sizeof(int64_t), '\0');
  std::memcpy(encoded.data(), &updated, sizeof(int64_t));
  uint64_t stamp = part->next_stamp.fetch_add(1, std::memory_order_relaxed);
  (void)SetCell(stripe.cells, it, key, encoded, stamp,
                /*capacity_checked=*/false);
  BumpLeaseEpoch(table, partition);
  if (!backups.empty()) {
    ApplyToBackups(backups, partition,
                   {.table = table,
                    .key = std::string(key),
                    .value = std::move(encoded)},
                   stamp);
  }
  return updated;
}

Result<std::vector<KeyCell>> StorageNode::DumpPartition(
    TableId table, uint32_t partition) const {
  // Intentionally works on a dead node: fail-over needs to read the replica
  // copies hosted on the *surviving* nodes, and tests also use it to verify
  // what a crashed node held.
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  auto locks = LockAllShared(*part);
  size_t total = 0;
  for (const Stripe& stripe : part->stripes) total += stripe.cells.size();
  std::vector<KeyCell> out;
  out.reserve(total);
  MergeScan(*part, "", "",
            [&](const std::string& key, const VersionedCell& cell) {
              out.push_back({key, cell.value, cell.stamp});
              return true;
            });
  return out;
}

void StorageNode::JournalEraseLocked(Partition* part, std::string_view key) {
  if (!part->migration_logging.load(std::memory_order_relaxed)) return;
  // The journal stamp is drawn from the same counter as write stamps, inside
  // the stripe's exclusive section: a later re-insert of the key necessarily
  // gets a higher stamp, so the stamp-guarded delta apply orders them.
  uint64_t stamp = part->next_stamp.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> jlock(part->journal_mutex);
  part->erase_journal.push_back({std::string(key), "", stamp, true});
}

Status StorageNode::BeginMigrationLogging(TableId table, uint32_t partition) {
  TELL_RETURN_NOT_OK(CheckAlive());
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  // All stripes exclusive: every erase either completed before this point
  // (its absence is part of the initial dump) or starts after and sees the
  // flag.
  auto locks = LockAllExclusive(*part);
  std::lock_guard<std::mutex> jlock(part->journal_mutex);
  part->erase_journal.clear();
  part->migration_logging.store(true, std::memory_order_relaxed);
  return Status::OK();
}

Status StorageNode::EndMigrationLogging(TableId table, uint32_t partition) {
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  auto locks = LockAllExclusive(*part);
  std::lock_guard<std::mutex> jlock(part->journal_mutex);
  part->migration_logging.store(false, std::memory_order_relaxed);
  part->erase_journal.clear();
  return Status::OK();
}

Result<uint64_t> StorageNode::PartitionNextStamp(TableId table,
                                                 uint32_t partition) const {
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  return part->next_stamp.load(std::memory_order_acquire);
}

Result<std::vector<KeyCell>> StorageNode::DumpPartitionSince(
    TableId table, uint32_t partition, uint64_t min_stamp) const {
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  auto locks = LockAllShared(*part);
  std::vector<KeyCell> out;
  MergeScan(*part, "", "",
            [&](const std::string& key, const VersionedCell& cell) {
              if (cell.stamp >= min_stamp) {
                out.push_back({key, cell.value, cell.stamp});
              }
              return true;
            });
  return out;
}

Result<std::vector<MigrationOp>> StorageNode::ErasesSince(
    TableId table, uint32_t partition, uint64_t min_stamp) const {
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  std::lock_guard<std::mutex> jlock(part->journal_mutex);
  std::vector<MigrationOp> out;
  for (const MigrationOp& op : part->erase_journal) {
    if (op.stamp >= min_stamp) out.push_back(op);
  }
  return out;
}

Result<std::vector<MigrationOp>> StorageNode::SealPartitionAndDump(
    TableId table, uint32_t partition, uint64_t min_stamp) {
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  auto locks = LockAllExclusive(*part);
  // In-flight writes finished before we got every lock; from here on no
  // write can slip in between the final delta and the seal.
  part->sealed.store(true, std::memory_order_relaxed);
  std::vector<MigrationOp> out;
  MergeScan(*part, "", "",
            [&](const std::string& key, const VersionedCell& cell) {
              if (cell.stamp >= min_stamp) {
                out.push_back({key, cell.value, cell.stamp, false});
              }
              return true;
            });
  {
    std::lock_guard<std::mutex> jlock(part->journal_mutex);
    for (const MigrationOp& op : part->erase_journal) {
      if (op.stamp >= min_stamp) out.push_back(op);
    }
    part->erase_journal.clear();
    part->migration_logging.store(false, std::memory_order_relaxed);
  }
  std::sort(out.begin(), out.end(),
            [](const MigrationOp& a, const MigrationOp& b) {
              return a.stamp < b.stamp;
            });
  return out;
}

Status StorageNode::InstallMigrationDelta(TableId table, uint32_t partition,
                                          const std::vector<MigrationOp>& ops,
                                          uint64_t* erases_applied) {
  TELL_RETURN_NOT_OK(CheckAlive());
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  auto locks = LockAllExclusive(*part);
  uint64_t max_stamp = 0;
  for (const MigrationOp& op : ops) {
    Stripe& stripe = part->StripeOf(op.key);
    auto it = stripe.cells.find(op.key);
    max_stamp = std::max(max_stamp, op.stamp);
    // Stamp guard: only apply over strictly older state. Replayed ops from
    // an overlapping delta round hit equal stamps and no-op.
    const bool present = it != stripe.cells.end();
    if (present && it->second.stamp >= op.stamp) continue;
    if (!op.is_erase) {
      (void)SetCell(stripe.cells, it, op.key, op.value, op.stamp,
                    /*capacity_checked=*/false);
    } else if (present) {
      EraseCell(stripe.cells, it);
      if (erases_applied != nullptr) ++*erases_applied;
    }
  }
  part->AdvanceStampPast(max_stamp);
  BumpLeaseEpoch(table, partition);
  return Status::OK();
}

Status StorageNode::InstallPartition(TableId table, uint32_t partition,
                                     const std::vector<KeyCell>& cells) {
  TELL_RETURN_NOT_OK(CheckAlive());
  CreatePartition(table, partition);
  Partition* part = FindPartition(table, partition);
  auto locks = LockAllExclusive(*part);
  // A reinstall supersedes any migration state left on this copy.
  part->sealed.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> jlock(part->journal_mutex);
    part->migration_logging.store(false, std::memory_order_relaxed);
    part->erase_journal.clear();
  }
  uint64_t max_stamp = 0;
  for (const KeyCell& cell : cells) {
    Stripe& stripe = part->StripeOf(cell.key);
    (void)SetCell(stripe.cells, stripe.cells.find(cell.key), cell.key,
                  cell.value, cell.stamp, /*capacity_checked=*/false);
    max_stamp = std::max(max_stamp, cell.stamp);
  }
  // Keep the stamp source ahead of every installed stamp so post-fail-over
  // writes remain ABA-safe.
  part->AdvanceStampPast(max_stamp);
  BumpLeaseEpoch(table, partition);
  return Status::OK();
}

Status StorageNode::ApplyReplicated(uint32_t partition, const WriteOp& op,
                                    uint64_t stamp) {
  TELL_RETURN_NOT_OK(CheckAlive());
  Partition* part = FindPartition(op.table, partition);
  if (part == nullptr) return Status::NotFound("no such partition");
  Stripe& stripe = part->StripeOf(op.key);
  auto lock = LockExclusive(stripe);
  auto it = stripe.cells.find(op.key);
  if (!op.erase) {
    (void)SetCell(stripe.cells, it, op.key, op.value, stamp,
                  /*capacity_checked=*/false);
    part->AdvanceStampPast(stamp);
  } else if (it != stripe.cells.end()) {
    EraseCell(stripe.cells, it);
  }
  BumpLeaseEpoch(op.table, partition);
  return Status::OK();
}

size_t StorageNode::PartitionSize(TableId table, uint32_t partition) const {
  Partition* part = FindPartition(table, partition);
  if (part == nullptr) return 0;
  auto locks = LockAllShared(*part);
  size_t total = 0;
  for (const Stripe& stripe : part->stripes) total += stripe.cells.size();
  return total;
}

}  // namespace tell::store
