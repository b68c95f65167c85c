#include "commitmgr/commit_manager.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/serde.h"

namespace tell::commitmgr {

namespace {
constexpr std::string_view kTidCounterKey = "tid_counter";

std::string StateKey(uint32_t manager_id) {
  return "state/" + std::to_string(manager_id);
}

ChangeRecord CompleteRecord(Tid tid) {
  ChangeRecord record;
  record.type = ChangeRecord::Type::kComplete;
  record.tid = tid;
  return record;
}

ChangeRecord RangeGrantRecord(Tid first, Tid last) {
  ChangeRecord record;
  record.type = ChangeRecord::Type::kRangeGrant;
  record.tid = first;
  record.tid_end = last;
  return record;
}

ChangeRecord BeginRecord(Tid tid, uint32_t pn_id, uint64_t token) {
  ChangeRecord record;
  record.type = ChangeRecord::Type::kBegin;
  record.tid = tid;
  record.pn_id = pn_id;
  record.token = token;
  return record;
}
}  // namespace

CommitManager::CommitManager(uint32_t manager_id, store::Cluster* cluster,
                             store::TableId state_table,
                             const CommitManagerOptions& options)
    : manager_id_(manager_id),
      cluster_(cluster),
      state_table_(state_table),
      options_(options) {
  TELL_CHECK(options_.tid_range_size >= 1);
}

Status CommitManager::RefillTidRangeLocked() {
  // Acquire a continuous range of tids by bumping the shared counter in the
  // storage system. The store's AtomicIncrement is the LL/SC-protected
  // counter of paper §4.2 ("PNs update the counter using LL/SC operations to
  // ensure that tids are never assigned twice").
  TELL_ASSIGN_OR_RETURN(
      int64_t end, cluster_->AtomicIncrement(state_table_, kTidCounterKey,
                                             options_.tid_range_size));
  range_end_ = static_cast<Tid>(end);
  range_next_ = range_end_ - options_.tid_range_size + 1;
  stats_.tid_range_refills.fetch_add(1, std::memory_order_relaxed);
  // Logged so a promoted follower knows the dead leader's unassigned
  // remainder: those tids can never be handed out again (the counter is
  // past them) and must be completed at promotion or they would pin the
  // snapshot base and GC horizon forever.
  EmitLocked(RangeGrantRecord(range_next_, range_end_));
  return Status::OK();
}

Tid CommitManager::ComputeLavLocked() const {
  // Lav: lowest snapshot base among transactions active here, bounded by
  // what the peers have published.
  Tid lav = snapshot_.base();
  for (const auto& [tid, txn] : active_) lav = std::min(lav, txn.snapshot_base);
  if (has_peer_lav_) lav = std::min(lav, peers_lav_);
  return lav;
}

Result<TxnBeginDelta> CommitManager::StartDelta(const BeginRequest& request) {
  if (!alive()) return Status::Unavailable("commit manager is down");
  std::lock_guard<std::mutex> lock(mutex_);
  if (role_ == ReplicaRole::kFollower) {
    return Status::Unavailable("not the slot leader");
  }
  TxnBeginDelta begin;
  auto token_it = request.start_token != 0
                      ? token_tids_.find(request.start_token)
                      : token_tids_.end();
  if (token_it != token_tids_.end()) {
    // Retried begin whose response was lost: hand the same tid back. The
    // snapshot is recomputed fresh — any consistent snapshot is valid at
    // begin — so the active entry's base moves forward with it.
    begin.tid = token_it->second;
    auto active_it = active_.find(begin.tid);
    if (active_it != active_.end()) {
      active_it->second.snapshot_base = snapshot_.base();
    }
  } else {
    if (range_next_ > range_end_) {
      TELL_RETURN_NOT_OK(RefillTidRangeLocked());
    }
    begin.tid = range_next_++;
    highest_assigned_ = std::max(highest_assigned_, begin.tid);
    active_.emplace(begin.tid, ActiveTxn{snapshot_.base(), request.pn_id,
                                         request.start_token});
    if (request.start_token != 0) {
      token_tids_[request.start_token] = begin.tid;
    }
    // Token replays are NOT logged: the original kBegin already carries the
    // token, so a promoted follower resolves the retried begin to the same
    // tid from its replayed token map.
    EmitLocked(BeginRecord(begin.tid, request.pn_id, request.start_token));
  }
  begin.delta = DeltaSinceLocked(request);
  begin.lav = ComputeLavLocked();
  stats_.starts.fetch_add(1, std::memory_order_relaxed);
  (begin.delta.full ? stats_.full_starts : stats_.delta_starts)
      .fetch_add(1, std::memory_order_relaxed);
  return begin;
}

SnapshotDelta CommitManager::DeltaSinceLocked(
    const BeginRequest& request) const {
  SnapshotDelta delta;
  delta.generation = generation_;
  delta.epoch = epoch_;
  bool resync = request.ack_generation != generation_;
  if (!resync) {
    delta.base = snapshot_.base();
    for (const auto& [tid, epoch] : completed_epoch_) {
      if (epoch > request.ack_epoch) delta.completed.push_back(tid);
    }
    // A delta at least as large as the full descriptor is pointless.
    resync = delta.WireBytes() >= SnapshotDelta::FullWireBytes(snapshot_);
    if (resync) delta.completed.clear();
  }
  if (resync) {
    delta.full = true;
    delta.base = 0;
    delta.snapshot = snapshot_;
  }
  return delta;
}

void CommitManager::PruneCompletedEpochsLocked() {
  completed_epoch_.erase(completed_epoch_.begin(),
                         completed_epoch_.upper_bound(snapshot_.base()));
}

void CommitManager::RecordCompletionLocked(Tid tid) {
  ++epoch_;
  if (tid > snapshot_.base()) completed_epoch_[tid] = epoch_;
  PruneCompletedEpochsLocked();
}

void CommitManager::NoteMergedCompletionsLocked(
    const SnapshotDescriptor& before) {
  if (snapshot_ == before) return;
  ++epoch_;
  Tid highest = snapshot_.HighestCompleted();
  for (Tid tid = snapshot_.base() + 1; tid <= highest; ++tid) {
    if (snapshot_.CanRead(tid) && !before.CanRead(tid)) {
      completed_epoch_[tid] = epoch_;
    }
  }
  PruneCompletedEpochsLocked();
}

std::vector<Tid> CommitManager::AbortActiveOf(uint32_t pn_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (role_ == ReplicaRole::kFollower) return {};  // recovery talks to leaders
  std::vector<Tid> aborted;
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.pn_id == pn_id) {
      Tid tid = it->first;
      aborted.push_back(tid);
      if (it->second.start_token != 0) {
        token_tids_.erase(it->second.start_token);
      }
      it = active_.erase(it);
      snapshot_.MarkCompleted(tid);
      RecordCompletionLocked(tid);
      EmitLocked(CompleteRecord(tid));
    } else {
      ++it;
    }
  }
  return aborted;
}

Status CommitManager::Complete(Tid tid, bool* newly) {
  if (!alive()) return Status::Unavailable("commit manager is down");
  std::lock_guard<std::mutex> lock(mutex_);
  if (role_ == ReplicaRole::kFollower) {
    return Status::Unavailable("not the slot leader");
  }
  if (snapshot_.CanRead(tid)) {
    // Duplicate delivery (a finish retried after an ambiguous drop): the
    // first delivery already applied, so this one must not move the epoch
    // or the stats.
    *newly = false;
    return Status::OK();
  }
  auto it = active_.find(tid);
  if (it != active_.end()) {
    if (it->second.start_token != 0) token_tids_.erase(it->second.start_token);
    active_.erase(it);
  }
  snapshot_.MarkCompleted(tid);
  RecordCompletionLocked(tid);
  EmitLocked(CompleteRecord(tid));
  *newly = true;
  return Status::OK();
}

Status CommitManager::SetCommitted(Tid tid) {
  bool newly = false;
  Status st = Complete(tid, &newly);
  if (st.ok() && newly) stats_.commits.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Status CommitManager::SetAborted(Tid tid) {
  // Aborted transactions also count as completed for snapshot purposes:
  // their updates were reverted, so their version number can never be
  // observed, and the base must be able to advance over them.
  bool newly = false;
  Status st = Complete(tid, &newly);
  if (st.ok() && newly) stats_.aborts.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Tid CommitManager::Lav() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ComputeLavLocked();
}

SnapshotDescriptor CommitManager::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

Tid CommitManager::HighestAssignedTid() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return highest_assigned_;
}

std::string CommitManager::SerializeStateLocked() const {
  Tid lav = snapshot_.base();
  for (const auto& [tid, txn] : active_) lav = std::min(lav, txn.snapshot_base);
  BufferWriter writer;
  writer.PutU64(lav);
  writer.PutString(snapshot_.Serialize());
  return writer.Release();
}

Status CommitManager::SyncWithPeers(uint32_t num_peers) {
  if (!alive()) return Status::Unavailable("commit manager is down");
  std::lock_guard<std::mutex> lock(mutex_);
  if (role_ == ReplicaRole::kFollower) {
    return Status::Unavailable("not the slot leader");
  }
  // 1. Publish our own state.
  auto put = cluster_->Write({.table = state_table_,
                              .key = StateKey(manager_id_),
                              .value = SerializeStateLocked(),
                              .conditional = false});
  TELL_RETURN_NOT_OK(put.status());
  // 2. Read and merge every peer's most recent state.
  Tid min_peer_lav = 0;
  bool saw_peer = false;
  SnapshotDescriptor before_merge = snapshot_;
  for (uint32_t peer = 0; peer < num_peers; ++peer) {
    if (peer == manager_id_) continue;
    auto cell = cluster_->Get(state_table_, StateKey(peer));
    if (cell.status().IsNotFound()) continue;  // peer has not published yet
    TELL_RETURN_NOT_OK(cell.status());
    BufferReader reader(cell->value);
    TELL_ASSIGN_OR_RETURN(Tid peer_lav, reader.GetU64());
    TELL_ASSIGN_OR_RETURN(std::string_view blob, reader.GetString());
    TELL_ASSIGN_OR_RETURN(SnapshotDescriptor peer_snapshot,
                          SnapshotDescriptor::Deserialize(blob));
    snapshot_.MergeFrom(peer_snapshot);
    min_peer_lav = saw_peer ? std::min(min_peer_lav, peer_lav) : peer_lav;
    saw_peer = true;
  }
  NoteMergedCompletionsLocked(before_merge);
  if (!(snapshot_ == before_merge)) {
    // Merging is not replayable from individual records — ship the merged
    // descriptor itself.
    ChangeRecord bump;
    bump.type = ChangeRecord::Type::kEpochBump;
    bump.payload = snapshot_.Serialize();
    EmitLocked(bump);
  }
  if (saw_peer) {
    peers_lav_ = min_peer_lav;
    has_peer_lav_ = true;
  }
  stats_.syncs.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::pair<uint32_t, uint64_t> CommitManager::SyncState() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {generation_, epoch_};
}

// ---------------------------------------------------------------------------
// Replication (docs/RECOVERY.md)

void CommitManager::AttachReplication(ReplicationLog* log, ReplicaRole role) {
  std::lock_guard<std::mutex> lock(mutex_);
  repl_log_ = log;
  role_ = role;
}

void CommitManager::Demote() {
  std::lock_guard<std::mutex> lock(mutex_);
  role_ = ReplicaRole::kFollower;
}

void CommitManager::EmitLocked(const ChangeRecord& record) {
  if (repl_log_ == nullptr || role_ != ReplicaRole::kLeader) return;
  repl_applied_ = repl_log_->Append(record) + 1;
  if (repl_log_->SnapshotDue()) {
    // EmitLocked runs after the state change it describes, so the state
    // serialized here is consistent with the log position.
    repl_log_->InstallSnapshot(SerializeReplicaStateLocked(),
                               repl_log_->TailIndex());
  }
}

void CommitManager::ApplyChangeLocked(const ChangeRecord& record) {
  switch (record.type) {
    case ChangeRecord::Type::kRangeGrant:
      range_next_ = record.tid;
      range_end_ = record.tid_end;
      break;
    case ChangeRecord::Type::kBegin:
      active_.emplace(record.tid, ActiveTxn{snapshot_.base(), record.pn_id,
                                            record.token});
      if (record.token != 0) token_tids_[record.token] = record.tid;
      highest_assigned_ = std::max(highest_assigned_, record.tid);
      range_next_ = record.tid + 1;
      break;
    case ChangeRecord::Type::kComplete: {
      if (snapshot_.CanRead(record.tid)) break;
      auto it = active_.find(record.tid);
      if (it != active_.end()) {
        if (it->second.start_token != 0) {
          token_tids_.erase(it->second.start_token);
        }
        active_.erase(it);
      }
      snapshot_.MarkCompleted(record.tid);
      RecordCompletionLocked(record.tid);
      break;
    }
    case ChangeRecord::Type::kEpochBump: {
      auto merged = SnapshotDescriptor::Deserialize(record.payload);
      if (!merged.ok()) break;
      SnapshotDescriptor before = snapshot_;
      snapshot_.MergeFrom(*merged);
      NoteMergedCompletionsLocked(before);
      break;
    }
  }
}

std::string CommitManager::SerializeReplicaStateLocked() const {
  BufferWriter writer;
  writer.PutU32(generation_);
  writer.PutU64(epoch_);
  writer.PutU64(highest_assigned_);
  writer.PutU64(range_next_);
  writer.PutU64(range_end_);
  writer.PutString(snapshot_.Serialize());
  writer.PutU32(static_cast<uint32_t>(active_.size()));
  for (const auto& [tid, txn] : active_) {
    writer.PutU64(tid);
    writer.PutU64(txn.snapshot_base);
    writer.PutU32(txn.pn_id);
    writer.PutU64(txn.start_token);
  }
  return writer.Release();
}

Status CommitManager::InstallReplicaStateLocked(std::string_view blob) {
  BufferReader reader(blob);
  TELL_ASSIGN_OR_RETURN(generation_, reader.GetU32());
  TELL_ASSIGN_OR_RETURN(epoch_, reader.GetU64());
  TELL_ASSIGN_OR_RETURN(highest_assigned_, reader.GetU64());
  TELL_ASSIGN_OR_RETURN(range_next_, reader.GetU64());
  TELL_ASSIGN_OR_RETURN(range_end_, reader.GetU64());
  TELL_ASSIGN_OR_RETURN(std::string_view snapshot_blob, reader.GetString());
  TELL_ASSIGN_OR_RETURN(snapshot_,
                        SnapshotDescriptor::Deserialize(snapshot_blob));
  TELL_ASSIGN_OR_RETURN(uint32_t num_active, reader.GetU32());
  active_.clear();
  token_tids_.clear();
  for (uint32_t i = 0; i < num_active; ++i) {
    TELL_ASSIGN_OR_RETURN(Tid tid, reader.GetU64());
    ActiveTxn txn;
    TELL_ASSIGN_OR_RETURN(txn.snapshot_base, reader.GetU64());
    TELL_ASSIGN_OR_RETURN(txn.pn_id, reader.GetU32());
    TELL_ASSIGN_OR_RETURN(txn.start_token, reader.GetU64());
    active_.emplace(tid, txn);
    if (txn.start_token != 0) token_tids_[txn.start_token] = tid;
  }
  RebuildCompletedEpochsLocked();
  return Status::OK();
}

void CommitManager::RebuildCompletedEpochsLocked() {
  completed_epoch_.clear();
  Tid highest = snapshot_.HighestCompleted();
  for (Tid tid = snapshot_.base() + 1; tid <= highest; ++tid) {
    if (snapshot_.CanRead(tid)) completed_epoch_[tid] = epoch_;
  }
}

Status CommitManager::CatchUpLocked() {
  if (repl_log_ == nullptr) return Status::OK();
  uint64_t snapshot_index = repl_log_->SnapshotIndex();
  if (repl_applied_ < snapshot_index) {
    // Fell behind the log's retained tail: install the bounding snapshot
    // instead of replaying truncated history.
    TELL_RETURN_NOT_OK(InstallReplicaStateLocked(repl_log_->SnapshotBlob()));
    repl_applied_ = snapshot_index;
    repl_snapshot_installs_.fetch_add(1, std::memory_order_relaxed);
  }
  for (const ChangeRecord& record : repl_log_->ReadFrom(repl_applied_)) {
    ApplyChangeLocked(record);
    ++repl_applied_;
    repl_records_replayed_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status CommitManager::CatchUpFromLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (role_ == ReplicaRole::kLeader) return Status::OK();  // log source
  return CatchUpLocked();
}

Status CommitManager::PromoteToLeader() {
  std::lock_guard<std::mutex> lock(mutex_);
  TELL_RETURN_NOT_OK(CatchUpLocked());
  // Complete the dead leader's granted-but-never-assigned remainder: the
  // shared counter is already past those tids, so they can never be handed
  // out, and left pending they would pin the snapshot base (and the GC
  // horizon) forever.
  for (Tid tid = range_next_; tid <= range_end_; ++tid) {
    if (!snapshot_.CanRead(tid)) snapshot_.MarkCompleted(tid);
  }
  range_next_ = 1;
  range_end_ = 0;  // first begin refills a fresh, strictly higher range
  // New incarnation: force every cached client through a full resync.
  // active_ and token_tids_ are KEPT — a begin retried against this new
  // leader must resolve to the tid the old leader assigned.
  ++generation_;
  ++epoch_;
  RebuildCompletedEpochsLocked();
  role_ = ReplicaRole::kLeader;
  if (repl_log_ != nullptr) {
    // Promotion itself (orphan completions, generation bump) is not in the
    // log: publish a fresh snapshot so the remaining followers converge on
    // the new leader's state at their next catch-up.
    repl_log_->InstallSnapshot(SerializeReplicaStateLocked(),
                               repl_log_->TailIndex());
    repl_applied_ = repl_log_->TailIndex();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CommitManagerGroup

CommitManagerGroup::CommitManagerGroup(store::Cluster* cluster,
                                       uint32_t num_managers,
                                       const CommitManagerOptions& options,
                                       double sync_interval_ms,
                                       const ReplicationOptions& replication)
    : cluster_(cluster),
      replication_(replication),
      sync_interval_ms_(sync_interval_ms) {
  TELL_CHECK(num_managers >= 1);
  TELL_CHECK(replication_.replicas >= 1);
  auto table = cluster_->CreateTable("__commit_manager_state");
  TELL_CHECK(table.ok());
  state_table_ = *table;
  slots_.reserve(num_managers);
  for (uint32_t i = 0; i < num_managers; ++i) {
    auto slot = std::make_unique<Slot>();
    if (replication_.replicas > 1) {
      slot->log =
          std::make_unique<ReplicationLog>(replication_.snapshot_interval);
    }
    slot->replicas.reserve(replication_.replicas);
    for (uint32_t r = 0; r < replication_.replicas; ++r) {
      // All replicas of a slot share the logical manager id: they are one
      // manager to the rest of the system (state key, tid stream, routing).
      auto manager = std::make_unique<CommitManager>(
          i, cluster_, state_table_, options);
      manager->AttachReplication(
          slot->log.get(),
          r == 0 ? ReplicaRole::kLeader : ReplicaRole::kFollower);
      slot->replicas.push_back(std::move(manager));
    }
    slots_.push_back(std::move(slot));
  }
  if (num_managers > 1 && sync_interval_ms_ > 0) {
    sync_thread_ = std::thread([this] { SyncLoop(); });
  }
}

CommitManagerGroup::~CommitManagerGroup() {
  stop_.store(true, std::memory_order_release);
  if (sync_thread_.joinable()) sync_thread_.join();
}

CommitManager* CommitManagerGroup::EnsureLeader(Slot& slot,
                                                uint64_t* election_ns) {
  CommitManager* leader =
      slot.replicas[slot.leader.load(std::memory_order_acquire)].get();
  if (leader->alive()) return leader;
  if (slot.replicas.size() == 1) return nullptr;  // nothing to elect
  std::lock_guard<std::mutex> lock(slot.election_mutex);
  // Re-check under the lock: another worker may have just elected.
  leader = slot.replicas[slot.leader.load(std::memory_order_acquire)].get();
  if (leader->alive()) return leader;
  std::vector<uint32_t> candidates;
  for (uint32_t r = 0; r < slot.replicas.size(); ++r) {
    if (slot.replicas[r]->alive()) candidates.push_back(r);
  }
  if (candidates.empty()) return nullptr;  // whole slot down
  ++slot.term;
  // Deterministic election: every observer computes the same winner from
  // (seed, term, candidate) — the in-process stand-in for a quorum vote.
  // Any live candidate is eligible because the change log is appended
  // synchronously under the leader's mutex: whatever the winner has not yet
  // applied, it replays in PromoteToLeader().
  uint32_t winner = candidates.front();
  uint64_t best_rank =
      ElectionRank(replication_.election_seed, slot.term, winner);
  for (uint32_t r : candidates) {
    uint64_t rank = ElectionRank(replication_.election_seed, slot.term, r);
    if (rank < best_rank || (rank == best_rank && r < winner)) {
      best_rank = rank;
      winner = r;
    }
  }
  CommitManager* promoted = slot.replicas[winner].get();
  Status st = promoted->PromoteToLeader();
  if (!st.ok()) {
    TELL_LOG(kWarn) << "commit-manager promotion failed: " << st.ToString();
    return nullptr;
  }
  for (uint32_t r = 0; r < slot.replicas.size(); ++r) {
    // Demote everyone else — in particular a later-revived old leader must
    // come back as a follower, not a second writer on the tid stream.
    if (r != winner) slot.replicas[r]->Demote();
  }
  slot.leader.store(winner, std::memory_order_release);
  elections_.fetch_add(1, std::memory_order_relaxed);
  uint64_t seen = max_term_.load(std::memory_order_relaxed);
  while (slot.term > seen &&
         !max_term_.compare_exchange_weak(seen, slot.term,
                                          std::memory_order_relaxed)) {
  }
  if (election_ns != nullptr) *election_ns += replication_.election_timeout_ns;
  return promoted;
}

CommitManager* CommitManagerGroup::ManagerFor(uint32_t worker_id,
                                              uint64_t* election_ns) {
  uint32_t n = size();
  for (uint32_t probe = 0; probe < n; ++probe) {
    Slot& slot = *slots_[(worker_id + probe) % n];
    CommitManager* leader = EnsureLeader(slot, election_ns);
    if (leader != nullptr) return leader;
  }
  return nullptr;  // all slots down; the system is blocked (§4.4.3)
}

Status CommitManagerGroup::SyncAll() {
  for (auto& slot : slots_) {
    uint32_t leader = slot->leader.load(std::memory_order_acquire);
    for (uint32_t r = 0; r < slot->replicas.size(); ++r) {
      CommitManager* replica = slot->replicas[r].get();
      if (!replica->alive()) continue;
      if (r == leader) {
        TELL_RETURN_NOT_OK(replica->SyncWithPeers(size()));
      } else {
        TELL_RETURN_NOT_OK(replica->CatchUpFromLog());
      }
    }
  }
  return Status::OK();
}

Tid CommitManagerGroup::GlobalLav() const {
  Tid lav = 0;
  bool first = true;
  for (const auto& slot : slots_) {
    const CommitManager* leader =
        slot->replicas[slot->leader.load(std::memory_order_acquire)].get();
    if (!leader->alive()) continue;
    Tid manager_lav = leader->Lav();
    lav = first ? manager_lav : std::min(lav, manager_lav);
    first = false;
  }
  return lav;
}

GroupReplicationStats CommitManagerGroup::ReplStats() const {
  GroupReplicationStats s;
  for (const auto& slot : slots_) {
    if (slot->log != nullptr) {
      ReplicationLogStats log = slot->log->stats();
      s.log_appends += log.appends;
      s.log_bytes += log.bytes;
      s.snapshots += log.snapshots;
      s.log_truncated += log.truncated;
    }
    for (const auto& replica : slot->replicas) {
      s.snapshot_installs += replica->ReplSnapshotInstalls();
      s.records_replayed += replica->ReplRecordsReplayed();
    }
  }
  s.elections = elections_.load(std::memory_order_relaxed);
  s.term = max_term_.load(std::memory_order_relaxed);
  return s;
}

void CommitManagerGroup::SyncLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    Status st = SyncAll();
    if (!st.ok()) {
      TELL_LOG(kWarn) << "commit manager sync failed: " << st.ToString();
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(sync_interval_ms_ * 1000)));
  }
}

}  // namespace tell::commitmgr
