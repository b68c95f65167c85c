#ifndef TELL_STORE_RECORD_CACHE_H_
#define TELL_STORE_RECORD_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/stat_table.h"
#include "store/versioned_cell.h"

namespace tell::store {

using TableId = uint32_t;

/// Per-partition lease epochs — the invalidation protocol of the client-side
/// record cache (DESIGN.md "One-sided reads & client caching").
///
/// Every storage-node write to a partition bumps that partition's epoch
/// *inside the write's stripe-exclusive critical section, after the cell
/// mutation*. A cache fill samples the epoch *before* issuing its fetch and
/// tags the entry with it; a probe re-samples and treats any difference as
/// an invalidation. The ordering makes the lease sound:
///
///   * The fetch linearizes at some t_fetch at or after the sample. Any
///     write that makes the store differ from the fetched value linearizes
///     after t_fetch, and its bump (same critical section, after the
///     mutation) is therefore observed by every later probe — the stale
///     entry can never be served.
///   * Conversely, a fill whose sample already includes a write's bump
///     fetches at or after that write's mutation, so the cached bytes are
///     the post-write bytes.
///
/// Hence: epoch unchanged since fill  ⟹  cached bytes == a fresh fetch.
/// Cached reads are byte-identical to uncached ones, which is what lets the
/// TPC-C digest tests demand bit-identical final state cache-on vs cache-off.
///
/// Epochs live in a fixed open-addressed array indexed by a hash of
/// (table, partition). Collisions only merge two partitions' epochs —
/// spurious invalidation, never a missed one — so the table needs no
/// resizing or locking.
class LeaseEpochTable {
 public:
  LeaseEpochTable() = default;
  LeaseEpochTable(const LeaseEpochTable&) = delete;
  LeaseEpochTable& operator=(const LeaseEpochTable&) = delete;

  uint64_t Epoch(TableId table, uint32_t partition) const {
    return epochs_[SlotOf(table, partition)].load(std::memory_order_acquire);
  }

  /// Called by storage nodes after every cell mutation, while the write's
  /// stripe lock is still held. A no-op while frozen (tests only).
  void Bump(TableId table, uint32_t partition) {
    if (frozen_.load(std::memory_order_relaxed)) return;
    epochs_[SlotOf(table, partition)].fetch_add(1, std::memory_order_acq_rel);
  }

  /// Test-only fault: suppress all bumps, simulating a storage node that
  /// "forgets" lease invalidation. The coherence mutation test flips this
  /// on and checks that the digest harness catches the resulting staleness.
  void set_frozen_for_testing(bool frozen) {
    frozen_.store(frozen, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kSlots = 4096;  // power of two

  static size_t SlotOf(TableId table, uint32_t partition) {
    // 64-bit mix (splitmix64 finalizer) of the packed (table, partition).
    uint64_t x = (static_cast<uint64_t>(table) << 32) | partition;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x & (kSlots - 1));
  }

  std::atomic<uint64_t> epochs_[kSlots] = {};
  std::atomic<bool> frozen_{false};
};

struct RecordCacheOptions {
  /// Off by default: existing configurations keep their exact behaviour and
  /// cost accounting unless they opt in.
  bool enabled = false;
  /// Total entry budget across all stripes (LRU per stripe).
  size_t max_entries = 4096;
  /// Lock stripes; rounded up to a power of two.
  uint32_t stripes = 16;
};

/// A cache's counters (exported as the `store.cache.*` gauges; hit/miss
/// totals also feed the per-worker `store.cache.hits`/`store.cache.misses`
/// counters via StorageClient, so here they are node-row keys only).
struct RecordCacheStats : StatTable<RecordCacheStats> {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t entries = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;

  static constexpr const char* kGaugePrefix = "store.cache.";
  static constexpr StatField<RecordCacheStats> kFields[] = {
      {"hits", "reads", "probes the cache answered", &RecordCacheStats::hits,
       StatKind::kRowOnly},
      {"misses", "reads", "probes that found no valid entry",
       &RecordCacheStats::misses, StatKind::kRowOnly},
      {"entries", "entries", "entries held by client record caches",
       &RecordCacheStats::entries},
      {"evictions", "entries",
       "entries evicted from client record caches (LRU/capacity)",
       &RecordCacheStats::evictions},
      {"invalidations", "entries",
       "cache entries dropped because their partition's lease epoch moved",
       &RecordCacheStats::invalidations},
  };
};

/// Per-processing-node shared cache of versioned cells, holding both data
/// records and B-tree leaf nodes (everything a StorageClient Get returns).
/// Striped and bounded: each stripe is an independently mutex-locked hash
/// map with its own LRU list. Coherence comes entirely from LeaseEpochTable
/// epochs — an entry is served only while its partition's epoch still equals
/// the epoch sampled before the fill, so a hit is byte-identical to a fresh
/// fetch (see LeaseEpochTable above for the proof sketch).
class RecordCache {
 public:
  explicit RecordCache(const RecordCacheOptions& options);
  RecordCache(const RecordCache&) = delete;
  RecordCache& operator=(const RecordCache&) = delete;

  /// Probes for (table, key). `current_epoch` is the partition's epoch as
  /// sampled by the caller *now*; a stored entry with a different fill
  /// epoch is dropped (counted as an invalidation) and reported as a miss.
  bool Get(TableId table, std::string_view key, uint64_t current_epoch,
           VersionedCell* out);

  /// Installs a cell fetched from storage. `fill_epoch` must have been
  /// sampled BEFORE the fetch was issued (see LeaseEpochTable). Negative
  /// results are never cached, so absence needs no invalidation story.
  void Put(TableId table, std::string_view key, const VersionedCell& cell,
           uint64_t fill_epoch);

  RecordCacheStats stats() const { return LoadRelaxed(stats_); }

 private:
  struct Entry {
    std::string value;
    uint64_t stamp = kStampAbsent;
    uint64_t fill_epoch = 0;
    std::list<std::string>::iterator lru_it;
  };

  struct Shard {
    std::mutex mutex;
    std::unordered_map<std::string, Entry> map;
    std::list<std::string> lru;  // front = most recent
  };

  static std::string CacheKey(TableId table, std::string_view key);
  Shard& ShardOf(const std::string& cache_key);
  void EraseLocked(Shard& shard,
                   std::unordered_map<std::string, Entry>::iterator it);

  const size_t per_shard_capacity_;
  const uint64_t shard_mask_;
  std::vector<Shard> shards_;

  /// Bumped with AddRelaxed under the shard locks.
  mutable RecordCacheStats stats_;
};

}  // namespace tell::store

#endif  // TELL_STORE_RECORD_CACHE_H_
