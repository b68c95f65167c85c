#include "commitmgr/replication.h"

#include <algorithm>
#include <utility>

namespace tell::commitmgr {

uint64_t ReplicationLog::Append(const ChangeRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t index = first_index_ + records_.size();
  ++stats_.log_appends;
  stats_.log_bytes += record.WireBytes();
  ++appends_since_snapshot_;
  records_.push_back(record);
  return index;
}

bool ReplicationLog::SnapshotDue() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_interval_ > 0 && appends_since_snapshot_ >= snapshot_interval_;
}

void ReplicationLog::InstallSnapshot(std::string replica_state,
                                     uint64_t through_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t tail = first_index_ + records_.size();
  through_index = std::min(through_index, tail);
  if (through_index < snapshot_index_) return;  // never regress
  snapshot_blob_ = std::move(replica_state);
  snapshot_index_ = through_index;
  while (first_index_ < through_index && !records_.empty()) {
    records_.pop_front();
    ++first_index_;
    ++stats_.log_truncated;
  }
  appends_since_snapshot_ = tail - through_index;
  ++stats_.snapshots;
}

uint64_t ReplicationLog::TailIndex() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return first_index_ + records_.size();
}

uint64_t ReplicationLog::SnapshotIndex() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_index_;
}

std::string ReplicationLog::SnapshotBlob() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_blob_;
}

std::vector<ChangeRecord> ReplicationLog::ReadFrom(uint64_t from_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ChangeRecord> out;
  uint64_t start = std::max(from_index, first_index_);
  uint64_t tail = first_index_ + records_.size();
  if (start >= tail) return out;
  out.reserve(tail - start);
  for (uint64_t i = start; i < tail; ++i) {
    out.push_back(records_[i - first_index_]);
  }
  return out;
}

GroupReplicationStats ReplicationLog::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

uint64_t ElectionRank(uint64_t seed, uint64_t term, uint32_t candidate) {
  // splitmix64 finalizer over the three inputs — uniform enough that
  // leadership rotates with the term, and fully deterministic per seed.
  uint64_t x = seed;
  x ^= term * 0x9E3779B97F4A7C15ULL;
  x ^= (static_cast<uint64_t>(candidate) << 32) | (candidate + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace tell::commitmgr
