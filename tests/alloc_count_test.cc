// Heap allocations of a TPC-C load, counted by a global operator new and
// held under a pinned ceiling. The load is TpccLoadImageTest's: the tiny
// scale below, seed 7, on perfbench's cluster options. A change that makes
// the load allocate more — a copy per key or per op on the write path —
// fails here before it shows as host time.
//
// The sanitizer builds replace operator new themselves, so this suite
// carries no label and their presets do not run it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "tests/test_util.h"
#include "workload/tpcc/tpcc_loader.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// The array, nothrow and sized forms all end in these two.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tell::tpcc {
namespace {

// Measured when the ceiling was pinned: 10,693 allocations per load (GCC
// 12, libstdc++, RelWithDebInfo), down from 12,244 before B+tree nodes
// decoded into one key arena and commits read their index ops in place.
// The ceiling leaves 2% of headroom for toolchain differences.
constexpr uint64_t kCeiling = 10'900;

TEST(AllocCountTest, TpccLoadStaysUnderItsCeiling) {
  db::TellDbOptions options;
  options.num_processing_nodes = 2;
  options.commit_manager_sync_ms = 0;
  db::TellDb db(options);
  ASSERT_OK(CreateTpccTables(&db));
  // tpcc_test's TinyScale.
  TpccScale scale;
  scale.warehouses = 2;
  scale.districts_per_warehouse = 3;
  scale.customers_per_district = 12;
  scale.items = 50;
  scale.initial_orders_per_district = 9;
  const uint64_t before = g_allocations.load();
  ASSERT_OK(LoadTpcc(&db, scale, /*seed=*/7));
  const uint64_t count = g_allocations.load() - before;
  std::printf("allocations per load: %llu (ceiling %llu)\n",
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(kCeiling));
  EXPECT_LE(count, kCeiling);
}

}  // namespace
}  // namespace tell::tpcc
