// Phase-switching single-partition fast path (DESIGN.md "Phase-switching
// fast path"): coordinator unit behavior (tid leases, epoch invalidation,
// completion queue), cross-partition fallback enforcement — the fallback
// must fire BEFORE any fast-path write becomes visible — fence races
// between the fast and MVCC phases (the tsan targets of this suite), and
// the fast-path-on/off determinism guarantee on TPC-C.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <thread>
#include <vector>

#include "db/tell_db.h"
#include "tests/test_util.h"
#include "tx/fast_path.h"
#include "workload/tpcc/tpcc_loader.h"
#include "workload/tpcc/tpcc_transactions.h"

namespace tell::tx {
namespace {

using schema::Tuple;
using schema::Value;

// ---------------------------------------------------------------------------
// Fixture: a TellDb with the fast path on and one partitioned table
// ("counters", partitioned by column 0, secondary index on "tag") plus one
// unpartitioned reference table ("ref").

class FastPathTest : public ::testing::Test {
 protected:
  FastPathTest() {
    db::TellDbOptions options;
    options.network = sim::NetworkModel::Instant();
    options.fastpath.enabled = true;
    options.fastpath.lanes = 8;
    options.fastpath.tid_lease_size = 4;  // small: exercises refills
    db_ = std::make_unique<db::TellDb>(options);

    schema::IndexDef by_tag;
    by_tag.name = "by_tag";
    by_tag.key_columns = {2};
    by_tag.unique = false;
    EXPECT_OK(db_->CreateTable("counters",
                               schema::SchemaBuilder()
                                   .AddInt64("p")
                                   .AddInt64("id")
                                   .AddInt64("tag")
                                   .AddInt64("val")
                                   .SetPrimaryKey({"p", "id"})
                                   .Build(),
                               {by_tag}));
    EXPECT_OK(db_->catalog()->SetPartitionColumn("counters", 0));
    EXPECT_OK(db_->CreateTable("ref",
                               schema::SchemaBuilder()
                                   .AddInt64("id")
                                   .AddInt64("val")
                                   .SetPrimaryKey({"id"})
                                   .Build(),
                               {}));

    session_ = db_->OpenSession(0, 0);
    auto counters = db_->GetTable(0, "counters");
    auto ref = db_->GetTable(0, "ref");
    EXPECT_TRUE(counters.ok() && ref.ok());
    counters_ = *counters;
    ref_ = *ref;
    EXPECT_NE(db_->fastpath(), nullptr);
  }

  static Tuple CounterRow(int64_t p, int64_t id, int64_t tag, int64_t val) {
    Tuple tuple(4);
    tuple.Set(0, p);
    tuple.Set(1, id);
    tuple.Set(2, tag);
    tuple.Set(3, val);
    return tuple;
  }

  /// Seeds rows through the ordinary MVCC path.
  void SeedRow(int64_t p, int64_t id, int64_t tag, int64_t val) {
    Transaction txn(session_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_TRUE(txn.Insert(counters_, CounterRow(p, id, tag, val)).ok());
    ASSERT_OK(txn.Commit());
  }

  Result<int64_t> ReadVal(Session* session, int64_t p, int64_t id) {
    Transaction txn(session);
    TELL_RETURN_NOT_OK(txn.Begin());
    TELL_ASSIGN_OR_RETURN(std::optional<Tuple> row,
                          txn.ReadByKey(counters_, {Value(p), Value(id)}));
    TELL_RETURN_NOT_OK(txn.Commit());
    if (!row.has_value()) return Status::NotFound("row missing");
    return row->GetInt(3);
  }

  TxnOptions FastHome(int64_t partition) {
    TxnOptions options;
    options.home_partition = partition;
    return options;
  }

  std::unique_ptr<db::TellDb> db_;
  std::unique_ptr<Session> session_;
  TableHandle* counters_ = nullptr;
  TableHandle* ref_ = nullptr;
};

// ---------------------------------------------------------------------------
// Basics: fast commits, visibility to the MVCC phase, read-only txns.

TEST_F(FastPathTest, FastCommitIsVisibleToLaterMvccSnapshot) {
  SeedRow(1, 1, 10, 100);
  const uint64_t hits_before = session_->metrics()->fastpath_hits;

  Transaction fast(session_.get(), FastHome(1));
  ASSERT_OK(fast.Begin());
  EXPECT_TRUE(fast.fast());
  auto row = fast.ReadByKey(counters_, {Value(int64_t{1}), Value(int64_t{1})});
  ASSERT_TRUE(row.ok() && row->has_value());
  Tuple updated = **row;
  updated.Set(3, int64_t{101});
  ASSERT_OK_AND_ASSIGN(auto with_rid,
                       fast.ReadByKeyWithRid(counters_, {Value(int64_t{1}),
                                                         Value(int64_t{1})}));
  ASSERT_TRUE(with_rid.has_value());
  ASSERT_OK(fast.Update(counters_, with_rid->first, updated));
  ASSERT_OK(fast.Commit());

  EXPECT_EQ(session_->metrics()->fastpath_hits, hits_before + 1);
  // The next MVCC begin flushes the fast completion, so its snapshot
  // includes the fast write (read-your-writes across phases).
  ASSERT_OK_AND_ASSIGN(int64_t val, ReadVal(session_.get(), 1, 1));
  EXPECT_EQ(val, 101);
}

TEST_F(FastPathTest, ReadOnlyFastTxnNeverContactsCommitManager) {
  SeedRow(1, 2, 10, 7);
  db_->fastpath()->FlushPending(0, session_->client());
  const uint64_t leases_before = session_->metrics()->fastpath_tid_leases;

  Transaction fast(session_.get(), FastHome(1));
  ASSERT_OK(fast.Begin());
  ASSERT_OK_AND_ASSIGN(std::optional<Tuple> row,
                       fast.ReadByKey(counters_, {Value(int64_t{1}),
                                                  Value(int64_t{2})}));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetInt(3), 7);
  ASSERT_OK(fast.Commit());

  // No write => no tid lease and nothing queued for completion.
  EXPECT_EQ(session_->metrics()->fastpath_tid_leases, leases_before);
  EXPECT_EQ(db_->fastpath()->PendingCompletions(), 0u);
}

TEST_F(FastPathTest, FastInsertAndDeleteRoundTrip) {
  Transaction fast(session_.get(), FastHome(3));
  ASSERT_OK(fast.Begin());
  ASSERT_OK_AND_ASSIGN(uint64_t rid,
                       fast.Insert(counters_, CounterRow(3, 1, 5, 1)));
  (void)rid;
  ASSERT_OK(fast.Commit());
  ASSERT_OK_AND_ASSIGN(int64_t val, ReadVal(session_.get(), 3, 1));
  EXPECT_EQ(val, 1);

  Transaction del(session_.get(), FastHome(3));
  ASSERT_OK(del.Begin());
  ASSERT_OK_AND_ASSIGN(auto row, del.ReadByKeyWithRid(counters_,
                                                      {Value(int64_t{3}),
                                                       Value(int64_t{1})}));
  ASSERT_TRUE(row.has_value());
  ASSERT_OK(del.Delete(counters_, row->first));
  ASSERT_OK(del.Commit());
  EXPECT_TRUE(ReadVal(session_.get(), 3, 1).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Satellite 1: cross-partition touches must force the fallback BEFORE any
// fast-path write is visible.

TEST_F(FastPathTest, CrossPartitionUpdateFallsBackBeforeAnyWriteIsVisible) {
  SeedRow(1, 1, 10, 100);
  SeedRow(2, 1, 10, 200);
  const uint64_t aborted_before = session_->metrics()->aborted;
  const uint64_t fallbacks_before = session_->metrics()->fastpath_fallbacks;

  auto observer = db_->OpenSession(0, 1);
  {
    Transaction fast(session_.get(), FastHome(1));
    ASSERT_OK(fast.Begin());
    // First write stays inside the home partition (buffered, not applied).
    ASSERT_OK_AND_ASSIGN(auto home_row,
                         fast.ReadByKeyWithRid(counters_, {Value(int64_t{1}),
                                                           Value(int64_t{1})}));
    ASSERT_TRUE(home_row.has_value());
    Tuple updated = home_row->second;
    updated.Set(3, int64_t{111});
    ASSERT_OK(fast.Update(counters_, home_row->first, updated));

    // Second touch crosses into partition 2: the transaction must flip to
    // fallback right here, with nothing applied yet.
    auto cross = fast.ReadByKeyWithRid(counters_, {Value(int64_t{2}),
                                                   Value(int64_t{1})});
    Status cross_status = cross.ok()
                              ? fast.Update(counters_, (*cross)->first,
                                            (*cross)->second)
                              : cross.status();
    EXPECT_TRUE(cross_status.IsCrossPartition()) << cross_status.ToString();
    EXPECT_TRUE(fast.fallback());

    // Mutation check: while the failed fast transaction is still open, an
    // observer must see the ORIGINAL values of both rows — the buffered
    // home write never became visible.
    ASSERT_OK_AND_ASSIGN(int64_t home_val, ReadVal(observer.get(), 1, 1));
    ASSERT_OK_AND_ASSIGN(int64_t cross_val, ReadVal(observer.get(), 2, 1));
    EXPECT_EQ(home_val, 100);
    EXPECT_EQ(cross_val, 200);
    // Destructor aborts; the fallback is counted as a fallback, not abort.
  }
  EXPECT_EQ(session_->metrics()->aborted, aborted_before);
  EXPECT_EQ(session_->metrics()->fastpath_fallbacks, fallbacks_before + 1);
  ASSERT_OK_AND_ASSIGN(int64_t final_val, ReadVal(session_.get(), 1, 1));
  EXPECT_EQ(final_val, 100);
}

TEST_F(FastPathTest, CrossPartitionInsertHasNoSideEffects) {
  const uint64_t leases_before = session_->metrics()->fastpath_tid_leases;
  {
    Transaction fast(session_.get(), FastHome(1));
    ASSERT_OK(fast.Begin());
    // Inserting a tuple whose partition column names partition 2 must fail
    // before any side effect — no tid lease, no rid allocation, no index op.
    auto insert = fast.Insert(counters_, CounterRow(2, 9, 5, 1));
    EXPECT_TRUE(insert.status().IsCrossPartition());
    EXPECT_TRUE(fast.fallback());
  }
  EXPECT_EQ(session_->metrics()->fastpath_tid_leases, leases_before);
  EXPECT_TRUE(ReadVal(session_.get(), 2, 9).status().IsNotFound());
}

TEST_F(FastPathTest, SecondaryIndexHitOutsideHomeForcesFallback) {
  SeedRow(1, 1, 77, 1);
  SeedRow(2, 1, 77, 2);  // same tag, different partition

  Transaction fast(session_.get(), FastHome(1));
  ASSERT_OK(fast.Begin());
  // The by_tag scan finds a match in partition 2: the lookup itself must
  // force the fallback (a secondary index is partition-blind).
  auto scan = fast.ScanIndex(counters_, 0, {Value(int64_t{77})},
                             {Value(int64_t{78})}, 0);
  EXPECT_TRUE(scan.status().IsCrossPartition()) << scan.status().ToString();
  EXPECT_TRUE(fast.fallback());
}

TEST_F(FastPathTest, SecondaryIndexScanInsideHomeStaysFast) {
  SeedRow(1, 1, 42, 1);
  SeedRow(1, 2, 42, 2);

  Transaction fast(session_.get(), FastHome(1));
  ASSERT_OK(fast.Begin());
  ASSERT_OK_AND_ASSIGN(auto matches,
                       fast.ScanIndex(counters_, 0, {Value(int64_t{42})},
                                      {Value(int64_t{43})}, 0));
  EXPECT_EQ(matches.size(), 2u);
  EXPECT_TRUE(fast.fast());
  EXPECT_FALSE(fast.fallback());
  ASSERT_OK(fast.Commit());
}

TEST_F(FastPathTest, FilteredScanFallsBack) {
  SeedRow(1, 1, 10, 1);
  Transaction fast(session_.get(), FastHome(1));
  ASSERT_OK(fast.Begin());
  auto scan = fast.FilteredScan(counters_,
                                [](const Tuple&) { return true; });
  EXPECT_TRUE(scan.status().IsCrossPartition());
  EXPECT_TRUE(fast.fallback());
}

TEST_F(FastPathTest, ReferenceTableReadsAllowedWritesFallBack) {
  {
    Transaction seed(session_.get());
    ASSERT_OK(seed.Begin());
    Tuple row(2);
    row.Set(0, int64_t{1});
    row.Set(1, int64_t{50});
    ASSERT_TRUE(seed.Insert(ref_, row).ok());
    ASSERT_OK(seed.Commit());
  }

  Transaction fast(session_.get(), FastHome(1));
  ASSERT_OK(fast.Begin());
  // Reads of unpartitioned reference data run under the shared side of the
  // reference fence — allowed.
  ASSERT_OK_AND_ASSIGN(auto row,
                       fast.ReadByKeyWithRid(ref_, {Value(int64_t{1})}));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->second.GetInt(1), 50);
  // Writes would need the fence exclusively — fall back instead.
  Tuple updated = row->second;
  updated.Set(1, int64_t{51});
  Status st = fast.Update(ref_, row->first, updated);
  EXPECT_TRUE(st.IsCrossPartition()) << st.ToString();
  EXPECT_TRUE(fast.fallback());
}

// ---------------------------------------------------------------------------
// Coordinator unit behavior.

TEST_F(FastPathTest, MvccCommitInvalidatesCachedTidBatch) {
  SeedRow(4, 1, 10, 0);
  SeedRow(4, 2, 10, 0);
  FastPathCoordinator* fastpath = db_->fastpath();
  const uint32_t lane = fastpath->LaneFor(4);

  // First fast write leases a batch (size 4) and uses one tid.
  Tid first = 0;
  {
    Transaction fast(session_.get(), FastHome(4));
    ASSERT_OK(fast.Begin());
    ASSERT_OK_AND_ASSIGN(auto row,
                         fast.ReadByKeyWithRid(counters_, {Value(int64_t{4}),
                                                           Value(int64_t{1})}));
    ASSERT_TRUE(row.has_value());
    Tuple updated = row->second;
    updated.Set(3, int64_t{1});
    ASSERT_OK(fast.Update(counters_, row->first, updated));
    first = fast.tid();
    ASSERT_OK(fast.Commit());
  }
  ASSERT_NE(first, 0u);

  // An MVCC commit through the same lane bumps the lane's epoch...
  {
    Transaction mvcc(session_.get());
    ASSERT_OK(mvcc.Begin());
    ASSERT_OK_AND_ASSIGN(auto row,
                         mvcc.ReadByKeyWithRid(counters_, {Value(int64_t{4}),
                                                           Value(int64_t{2})}));
    ASSERT_TRUE(row.has_value());
    Tuple updated = row->second;
    updated.Set(3, int64_t{2});
    ASSERT_OK(mvcc.Update(counters_, row->first, updated));
    Tid mvcc_tid = mvcc.tid();
    ASSERT_OK(mvcc.Commit());
    EXPECT_GT(mvcc_tid, first);
  }

  // ...so the next fast write must discard the remaining cached tids and
  // lease a fresh batch: its tid exceeds the MVCC tid, keeping fast writes
  // the newest version in the lane.
  const size_t pending_before = fastpath->PendingCompletions();
  Tid second = 0;
  {
    Transaction fast(session_.get(), FastHome(4));
    ASSERT_OK(fast.Begin());
    ASSERT_OK_AND_ASSIGN(auto row,
                         fast.ReadByKeyWithRid(counters_, {Value(int64_t{4}),
                                                           Value(int64_t{1})}));
    ASSERT_TRUE(row.has_value());
    Tuple updated = row->second;
    updated.Set(3, int64_t{3});
    ASSERT_OK(fast.Update(counters_, row->first, updated));
    second = fast.tid();
    ASSERT_OK(fast.Commit());
  }
  EXPECT_GT(second, first + 1) << "fresh batch, not the stale cached one";
  // The discarded remainder of the first batch was queued for completion
  // (an uncompleted leased tid would pin the snapshot base forever).
  EXPECT_GT(fastpath->PendingCompletions(), pending_before);
  EXPECT_EQ(lane, fastpath->LaneFor(4));

  fastpath->FlushPending(0, session_->client());
  EXPECT_EQ(fastpath->PendingCompletions(), 0u);
  // After the flush the commit managers account every leased tid, so the
  // global lav can reach the latest committed fast tid.
  EXPECT_GE(db_->commit_managers()->GlobalLav(), second);
  ASSERT_OK_AND_ASSIGN(int64_t val, ReadVal(session_.get(), 4, 1));
  EXPECT_EQ(val, 3);
}

TEST_F(FastPathTest, DisabledWithIncompatibleBufferStrategy) {
  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  options.fastpath.enabled = true;
  options.buffer_strategy = db::BufferStrategy::kSharedRecord;
  db::TellDb db(options);
  EXPECT_EQ(db.fastpath(), nullptr);
}

// ---------------------------------------------------------------------------
// Fence races: fast lanes vs MVCC commits, concurrently (tsan target).

TEST_F(FastPathTest, PartitionMovingMvccUpdateFencesBothLanes) {
  // Regression: an MVCC update that changes the partition column (moving a
  // row from partition 1 to 2) used to record only the NEW partition for
  // its commit fence set, so it held only lane(2) shared. A fast
  // transaction homed on partition 1 — lane(1) held exclusively, the record
  // buffered — could then have its CommitFast clobber the MVCC version
  // (unconditional write), silently losing a committed MVCC update. The
  // commit must fence the union of old and new partitions: with lane(1) in
  // the set, the mover blocks until the fast transaction releases its lane.
  SeedRow(1, 1, 10, 100);

  Transaction fast(session_.get(), FastHome(1));
  ASSERT_OK(fast.Begin());
  ASSERT_OK_AND_ASSIGN(auto row,
                       fast.ReadByKeyWithRid(counters_, {Value(int64_t{1}),
                                                         Value(int64_t{1})}));
  ASSERT_TRUE(row.has_value());
  const uint64_t rid = row->first;
  Tuple fast_image = row->second;
  fast_image.Set(3, int64_t{101});
  ASSERT_OK(fast.Update(counters_, rid, fast_image));  // buffered, not applied

  std::atomic<bool> mover_committed{false};
  Status mover_status;
  std::thread mover([&] {
    auto session = db_->OpenSession(0, 1);
    Transaction mvcc(session.get());
    Status begin = mvcc.Begin();
    ASSERT_OK(begin);
    auto cell = mvcc.ReadByKeyWithRid(counters_, {Value(int64_t{1}),
                                                  Value(int64_t{1})});
    ASSERT_TRUE(cell.ok() && cell->has_value());
    Tuple moved = (*cell)->second;
    moved.Set(0, int64_t{2});  // partition move: 1 -> 2
    Status update = mvcc.Update(counters_, (*cell)->first, moved);
    ASSERT_OK(update);
    mover_status = mvcc.Commit();
    mover_committed.store(true, std::memory_order_release);
  });

  // The mover's commit needs lane(1) shared — held exclusively by `fast` —
  // so it must still be blocked on the fence.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(mover_committed.load(std::memory_order_acquire))
      << "the partition-moving commit bypassed the source lane's fence";

  ASSERT_OK(fast.Commit());
  mover.join();
  // Unblocked after the fast commit, the mover's conditional put sees the
  // fast write's fresh stamp and aborts — the fast update is never lost.
  EXPECT_TRUE(mover_status.IsAborted()) << mover_status.ToString();
  ASSERT_OK_AND_ASSIGN(int64_t val, ReadVal(session_.get(), 1, 1));
  EXPECT_EQ(val, 101);
  EXPECT_TRUE(ReadVal(session_.get(), 2, 1).status().IsNotFound());
}

TEST_F(FastPathTest, ConcurrentFastAndMvccPhasesKeepCountersExact) {
  constexpr int kThreads = 4;
  constexpr int kFastPerThread = 60;
  constexpr int kCrossPerThread = 12;
  for (int64_t p = 0; p < kThreads; ++p) SeedRow(p + 10, 1, 0, 0);

  std::atomic<int> cross_commits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = db_->OpenSession(0, static_cast<uint32_t>(10 + t));
      const int64_t home = t + 10;
      for (int i = 0; i < kFastPerThread; ++i) {
        // Serial fast increments on this thread's own partition.
        Transaction fast(session.get(), FastHome(home));
        ASSERT_OK(fast.Begin());
        auto row = fast.ReadByKeyWithRid(counters_, {Value(home),
                                                     Value(int64_t{1})});
        ASSERT_TRUE(row.ok() && row->has_value());
        Tuple updated = (*row)->second;
        updated.Set(3, updated.GetInt(3) + 1);
        ASSERT_OK(fast.Update(counters_, (*row)->first, updated));
        ASSERT_OK(fast.Commit());

        if (i % (kFastPerThread / kCrossPerThread) != 0) continue;
        // Occasionally, an MVCC transaction spanning two partitions; it
        // conflicts with the neighbour's cross transactions, so retry on
        // Aborted until it lands.
        for (;;) {
          Transaction mvcc(session.get());
          Status st = mvcc.Begin();
          ASSERT_OK(st);
          const int64_t other = (t + 1) % kThreads + 10;
          bool ok = true;
          for (int64_t p : {home, other}) {
            auto cell = mvcc.ReadByKeyWithRid(counters_, {Value(p),
                                                          Value(int64_t{1})});
            ASSERT_TRUE(cell.ok() && cell->has_value());
            Tuple updated = (*cell)->second;
            updated.Set(3, updated.GetInt(3) + 1);
            Status up = mvcc.Update(counters_, (*cell)->first, updated);
            if (up.IsAborted()) {
              ok = false;
              break;
            }
            ASSERT_OK(up);
          }
          if (ok) {
            Status commit = mvcc.Commit();
            if (commit.ok()) {
              cross_commits.fetch_add(2);  // two rows incremented
              break;
            }
            ASSERT_TRUE(commit.IsAborted()) << commit.ToString();
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every increment must be there: the fast ones (serial per lane) plus
  // every committed cross increment — no lost updates across the phases.
  int64_t total = 0;
  for (int64_t p = 0; p < kThreads; ++p) {
    ASSERT_OK_AND_ASSIGN(int64_t val, ReadVal(session_.get(), p + 10, 1));
    total += val;
  }
  EXPECT_EQ(total, kThreads * kFastPerThread + cross_commits.load());
}

// ---------------------------------------------------------------------------
// TPC-C: determinism on/off, and the shardable mix staying fully fast.

tpcc::TpccScale FastPathScale() {
  tpcc::TpccScale scale;
  scale.warehouses = 2;
  scale.districts_per_warehouse = 2;
  scale.customers_per_district = 10;
  scale.items = 40;
  scale.initial_orders_per_district = 8;
  return scale;
}

std::string ValueToString(const schema::Value& value) {
  std::ostringstream out;
  out << std::setprecision(17);
  if (const int64_t* i = std::get_if<int64_t>(&value)) {
    out << 'i' << *i;
  } else if (const double* d = std::get_if<double>(&value)) {
    out << 'd' << *d;
  } else if (const std::string* s = std::get_if<std::string>(&value)) {
    out << 's' << *s;
  } else {
    out << "null";
  }
  return out.str();
}

/// Digest of every visible tuple of `table`, restricted to `cols` —
/// timestamp columns (o_entry_d, h_date, ol_delivery_d) are excluded by
/// the callers because the two runs advance virtual time differently.
void DigestTable(Transaction* txn, TableHandle* table,
                 const std::vector<uint32_t>& cols, std::ostringstream* out) {
  const std::string hi(16, '\xFF');
  auto rows = txn->ScanIndexEncoded(table, -1, "", hi, 0);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  *out << "#" << rows->size() << "\n";
  for (const auto& [rid, tuple] : *rows) {
    for (uint32_t col : cols) *out << ValueToString(tuple.at(col)) << "|";
    *out << "\n";
  }
}

struct TpccRun {
  std::vector<std::pair<bool, bool>> outcomes;  // (committed, user_abort)
  std::string digest;
  uint64_t hits = 0;
  uint64_t fallbacks = 0;
  uint64_t committed = 0;
};

void RunTpccFixed(bool fastpath_on, tpcc::Mix mix, int num_inputs,
                  double multi_partition_fraction, TpccRun* run) {
  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  options.fastpath.enabled = fastpath_on;
  db::TellDb db(options);
  ASSERT_OK(tpcc::CreateTpccTables(&db));
  tpcc::TpccScale scale = FastPathScale();
  ASSERT_OK(tpcc::LoadTpcc(&db, scale));
  auto session = db.OpenSession(0, 0);
  auto tables = tpcc::OpenTpccTables(&db, 0);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  tpcc::TpccExecutor executor(session.get(), *tables);
  tpcc::InputGenerator generator(scale, mix, /*seed=*/4242,
                                 /*home_warehouse=*/1);
  generator.set_multi_partition_fraction(multi_partition_fraction);

  for (int i = 0; i < num_inputs; ++i) {
    tpcc::TxnInput input = generator.Next();
    auto outcome = executor.Execute(input);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    run->outcomes.emplace_back(outcome->committed, outcome->user_abort);
  }
  run->hits = session->metrics()->fastpath_hits;
  run->fallbacks = session->metrics()->fastpath_fallbacks;
  run->committed = session->metrics()->committed;

  // Final-state digest over timestamp-free columns, read through a fresh
  // MVCC snapshot (its begin flushes any pending fast completions first).
  auto reader = db.OpenSession(0, 1);
  Transaction txn(reader.get());
  ASSERT_OK(txn.Begin());
  std::ostringstream digest;
  namespace col = tpcc::col;
  DigestTable(&txn, tables->warehouse, {0, col::kWYtd}, &digest);
  DigestTable(&txn, tables->district,
              {0, 1, col::kDYtd, col::kDNextOId}, &digest);
  DigestTable(&txn, tables->customer,
              {0, 1, 2, col::kCBalance, col::kCYtdPayment, col::kCPaymentCnt,
               col::kCDeliveryCnt, col::kCData}, &digest);
  DigestTable(&txn, tables->history,
              {col::kHId, col::kHCId, col::kHCDId, col::kHCWId, col::kHDId,
               col::kHWId, col::kHAmount, col::kHData}, &digest);
  DigestTable(&txn, tables->new_order, {0, 1, 2}, &digest);
  DigestTable(&txn, tables->orders,
              {0, 1, 2, col::kOCId, col::kOCarrierId, col::kOOlCnt,
               col::kOAllLocal}, &digest);
  DigestTable(&txn, tables->order_line,
              {0, 1, 2, 3, col::kOlIId, col::kOlSupplyWId, col::kOlQuantity,
               col::kOlAmount, col::kOlDistInfo}, &digest);
  DigestTable(&txn, tables->stock,
              {0, 1, col::kSQuantity, col::kSYtd, col::kSOrderCnt,
               col::kSRemoteCnt}, &digest);
  ASSERT_OK(txn.Commit());
  run->digest = digest.str();
}

TEST(FastPathTpccTest, OutcomesAndFinalStateMatchWithFastPathOnAndOff) {
  constexpr int kInputs = 250;
  TpccRun off;
  TpccRun on;
  RunTpccFixed(false, tpcc::Mix::kWriteIntensive, kInputs, 0.3, &off);
  RunTpccFixed(true, tpcc::Mix::kWriteIntensive, kInputs, 0.3, &on);

  EXPECT_EQ(off.hits, 0u);
  EXPECT_GT(on.hits, 0u) << "the fast path must actually engage";
  ASSERT_EQ(on.outcomes.size(), off.outcomes.size());
  for (size_t i = 0; i < on.outcomes.size(); ++i) {
    EXPECT_EQ(on.outcomes[i], off.outcomes[i]) << "input " << i;
  }
  EXPECT_EQ(on.committed, off.committed);
  // Bit-identical final state on the same seed: the fast path is an
  // execution strategy, not a semantics change.
  EXPECT_EQ(on.digest, off.digest);
}

TEST(FastPathTpccTest, ShardableMixRunsEntirelyOnTheFastPath) {
  TpccRun run;
  RunTpccFixed(true, tpcc::Mix::kShardable, 120, -1.0, &run);
  EXPECT_GT(run.hits, 0u);
  EXPECT_EQ(run.fallbacks, 0u)
      << "the shardable mix has no cross-warehouse touches";
  // Every committed transaction went through the fast lane.
  EXPECT_EQ(run.hits, run.committed);
}

}  // namespace
}  // namespace tell::tx
