#include "store/record_cache.h"

#include <algorithm>
#include <functional>

namespace tell::store {

namespace {

uint32_t RoundUpPow2(uint32_t v) {
  if (v < 1) return 1;
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

RecordCache::RecordCache(const RecordCacheOptions& options)
    : per_shard_capacity_(
          std::max<size_t>(1, options.max_entries /
                                  std::max<uint32_t>(1, RoundUpPow2(
                                                            options.stripes)))),
      shard_mask_(RoundUpPow2(options.stripes) - 1),
      shards_(shard_mask_ + 1) {}

std::string RecordCache::CacheKey(TableId table, std::string_view key) {
  std::string out;
  out.reserve(sizeof(table) + key.size());
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((table >> shift) & 0xFF));
  }
  out.append(key);
  return out;
}

RecordCache::Shard& RecordCache::ShardOf(const std::string& cache_key) {
  return shards_[std::hash<std::string>{}(cache_key) & shard_mask_];
}

void RecordCache::EraseLocked(
    Shard& shard, std::unordered_map<std::string, Entry>::iterator it) {
  shard.lru.erase(it->second.lru_it);
  shard.map.erase(it);
  std::atomic_ref<uint64_t>(stats_.entries)
      .fetch_sub(1, std::memory_order_relaxed);
}

bool RecordCache::Get(TableId table, std::string_view key,
                      uint64_t current_epoch, VersionedCell* out) {
  const std::string ck = CacheKey(table, key);
  Shard& shard = ShardOf(ck);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(ck);
  if (it == shard.map.end()) {
    AddRelaxed(stats_.misses);
    return false;
  }
  if (it->second.fill_epoch != current_epoch) {
    // The partition changed since the fill — the lease is broken. Drop the
    // entry so the next fill re-fetches under the new epoch.
    EraseLocked(shard, it);
    AddRelaxed(stats_.invalidations);
    AddRelaxed(stats_.misses);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  out->value = it->second.value;
  out->stamp = it->second.stamp;
  AddRelaxed(stats_.hits);
  return true;
}

void RecordCache::Put(TableId table, std::string_view key,
                      const VersionedCell& cell, uint64_t fill_epoch) {
  const std::string ck = CacheKey(table, key);
  Shard& shard = ShardOf(ck);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(ck);
  if (it != shard.map.end()) {
    it->second.value = cell.value;
    it->second.stamp = cell.stamp;
    it->second.fill_epoch = fill_epoch;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return;
  }
  shard.lru.push_front(ck);
  Entry entry;
  entry.value = cell.value;
  entry.stamp = cell.stamp;
  entry.fill_epoch = fill_epoch;
  entry.lru_it = shard.lru.begin();
  shard.map.emplace(ck, std::move(entry));
  AddRelaxed(stats_.entries);
  while (shard.map.size() > per_shard_capacity_) {
    auto victim = shard.map.find(shard.lru.back());
    EraseLocked(shard, victim);
    AddRelaxed(stats_.evictions);
  }
}

}  // namespace tell::store
