#include <gtest/gtest.h>

#include "buffer/shared_record_buffer.h"
#include "buffer/version_sync_buffer.h"
#include "common/serde.h"
#include "db/tell_db.h"
#include "tests/test_util.h"

namespace tell::buffer {
namespace {

using schema::Tuple;
using schema::Value;

/// Fixture exercising the buffer strategies through the full database with
/// two PNs, so cross-PN invalidation behaviour is real.
class BufferStrategyTest : public ::testing::TestWithParam<db::BufferStrategy> {
 protected:
  BufferStrategyTest() {
    db::TellDbOptions options;
    options.num_processing_nodes = 2;
    options.network = sim::NetworkModel::Instant();
    options.buffer_strategy = GetParam();
    options.buffer_unit_size = 4;
    db_ = std::make_unique<db::TellDb>(options);
    EXPECT_OK(db_->CreateTable("t",
                               schema::SchemaBuilder()
                                   .AddInt64("id")
                                   .AddDouble("v")
                                   .SetPrimaryKey({"id"})
                                   .Build(),
                               {}));
    table0_ = *db_->GetTable(0, "t");
    table1_ = *db_->GetTable(1, "t");
    session0_ = db_->OpenSession(0, 0);
    session1_ = db_->OpenSession(1, 1);
  }

  Tuple Row(int64_t id, double v) {
    Tuple t(2);
    t.Set(0, id);
    t.Set(1, v);
    return t;
  }

  uint64_t InsertRow(int64_t id, double v) {
    tx::Transaction txn(session0_.get());
    EXPECT_TRUE(txn.Begin().ok());
    auto rid = txn.Insert(table0_, Row(id, v));
    EXPECT_TRUE(rid.ok());
    EXPECT_TRUE(txn.Commit().ok());
    return *rid;
  }

  double ReadOn(tx::Session* session, tx::TableHandle* table, uint64_t rid) {
    tx::Transaction txn(session);
    EXPECT_TRUE(txn.Begin().ok());
    auto row = txn.Read(table, rid);
    EXPECT_TRUE(row.ok() && row->has_value());
    double v = (*row)->GetDouble(1);
    EXPECT_TRUE(txn.Commit().ok());
    return v;
  }

  std::unique_ptr<db::TellDb> db_;
  tx::TableHandle* table0_;
  tx::TableHandle* table1_;
  std::unique_ptr<tx::Session> session0_;
  std::unique_ptr<tx::Session> session1_;
};

TEST_P(BufferStrategyTest, CrossPnUpdatesAlwaysVisible) {
  uint64_t rid = InsertRow(1, 10.0);
  // Warm both PNs' buffers.
  EXPECT_EQ(ReadOn(session0_.get(), table0_, rid), 10.0);
  EXPECT_EQ(ReadOn(session1_.get(), table1_, rid), 10.0);
  // PN 1 updates; PN 0 must see it (no stale buffer serving).
  {
    tx::Transaction txn(session1_.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Update(table1_, rid, Row(1, 20.0)));
    ASSERT_OK(txn.Commit());
  }
  EXPECT_EQ(ReadOn(session0_.get(), table0_, rid), 20.0);
  EXPECT_EQ(ReadOn(session1_.get(), table1_, rid), 20.0);
}

TEST_P(BufferStrategyTest, RepeatedUpdatesStayCoherent) {
  uint64_t rid = InsertRow(1, 0.0);
  for (int i = 1; i <= 10; ++i) {
    tx::Session* writer = (i % 2 == 0) ? session0_.get() : session1_.get();
    tx::TableHandle* table = (i % 2 == 0) ? table0_ : table1_;
    tx::Transaction txn(writer);
    ASSERT_OK(txn.Begin());
    ASSERT_OK(txn.Update(table, rid, Row(1, i)));
    ASSERT_OK(txn.Commit());
    EXPECT_EQ(ReadOn(session0_.get(), table0_, rid), i);
    EXPECT_EQ(ReadOn(session1_.get(), table1_, rid), i);
  }
}

TEST_P(BufferStrategyTest, BatchReadServesHitsAndFetchesTheRestTogether) {
  // Rids 1-3 fall in SBVS unit 0, rids 4-6 in unit 1; rid 7 is never used.
  std::vector<uint64_t> rids;
  for (int64_t id = 1; id <= 6; ++id) rids.push_back(InsertRow(id, id * 1.5));
  ASSERT_EQ(rids, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  // The older transaction begins first; a newer one on the same PN then
  // buffers rid 1 for every snapshot up to its own (paper §5.5.2).
  tx::Transaction older(session0_.get());
  ASSERT_OK(older.Begin());
  auto other = db_->OpenSession(0, 2);
  EXPECT_EQ(ReadOn(other.get(), table0_, 1), 1.5);

  sim::WorkerMetrics* metrics = session0_->metrics();
  const uint64_t hits = metrics->buffer_hits;
  const uint64_t misses = metrics->buffer_misses;
  const uint64_t calls = metrics->pipeline_flushes;
  ASSERT_OK_AND_ASSIGN(auto rows, older.BatchRead(table0_, {1, 5, 7}));
  ASSERT_EQ(rows.size(), 3u);
  ASSERT_TRUE(rows[0].has_value());
  EXPECT_EQ(rows[0]->GetDouble(1), 1.5);
  ASSERT_TRUE(rows[1].has_value());
  EXPECT_EQ(rows[1]->GetDouble(1), 7.5);
  EXPECT_FALSE(rows[2].has_value());
  // TB fetches all three in one request. SB serves rid 1 and fetches the
  // rest in one request; SBVS first checks both units' version sets in one.
  const bool shared = GetParam() != db::BufferStrategy::kTransactionOnly;
  EXPECT_EQ(metrics->buffer_hits - hits, shared ? 1u : 0u);
  EXPECT_EQ(metrics->buffer_misses - misses, shared ? 2u : 3u);
  EXPECT_LE(metrics->pipeline_flushes - calls,
            GetParam() == db::BufferStrategy::kVersionSync ? 2u : 1u);
  ASSERT_OK(older.Commit());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, BufferStrategyTest,
    ::testing::Values(db::BufferStrategy::kTransactionOnly,
                      db::BufferStrategy::kSharedRecord,
                      db::BufferStrategy::kVersionSync),
    [](const ::testing::TestParamInfo<db::BufferStrategy>& info) {
      switch (info.param) {
        case db::BufferStrategy::kTransactionOnly: return "TB";
        case db::BufferStrategy::kSharedRecord: return "SB";
        case db::BufferStrategy::kVersionSync: return "SBVS";
      }
      return "?";
    });

// ---------------------------------------------------------------------------
// Strategy-specific behaviour

class SharedBufferUnitTest : public ::testing::Test {
 protected:
  SharedBufferUnitTest() {
    db::TellDbOptions options;
    options.num_processing_nodes = 1;
    options.network = sim::NetworkModel::Instant();
    options.buffer_strategy = db::BufferStrategy::kSharedRecord;
    db_ = std::make_unique<db::TellDb>(options);
    EXPECT_OK(db_->CreateTable("t",
                               schema::SchemaBuilder()
                                   .AddInt64("id")
                                   .AddDouble("v")
                                   .SetPrimaryKey({"id"})
                                   .Build(),
                               {}));
    table_ = *db_->GetTable(0, "t");
  }
  std::unique_ptr<db::TellDb> db_;
  tx::TableHandle* table_;
};

TEST_F(SharedBufferUnitTest, OlderOverlappingTransactionHitsBuffer) {
  // Paper §5.5.2's own example: "if a transaction retrieves a record, the
  // same record can be reused by a transaction that has started before the
  // first one (i.e., a transaction with an older snapshot)".
  auto s1 = db_->OpenSession(0, 0);
  auto s2 = db_->OpenSession(0, 1);
  uint64_t rid;
  {
    tx::Transaction txn(s1.get());
    ASSERT_OK(txn.Begin());
    schema::Tuple row(2);
    row.Set(0, int64_t{1});
    row.Set(1, 5.0);
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table_, row));
    ASSERT_OK(txn.Commit());
  }
  // Older transaction begins FIRST...
  tx::Transaction older(s2.get());
  ASSERT_OK(older.Begin());
  // ...then a newer one begins and reads the record (fetch, B = V_max =
  // the newer snapshot).
  tx::Transaction newer(s1.get());
  ASSERT_OK(newer.Begin());
  ASSERT_OK(newer.Read(table_, rid).status());
  uint64_t misses_before = s2->metrics()->buffer_misses;
  uint64_t hits_before = s2->metrics()->buffer_hits;
  // The older transaction's V_tx ⊆ B: served from the shared buffer.
  ASSERT_OK(older.Read(table_, rid).status());
  EXPECT_EQ(s2->metrics()->buffer_misses, misses_before);
  EXPECT_GT(s2->metrics()->buffer_hits, hits_before);
  ASSERT_OK(older.Commit());
  ASSERT_OK(newer.Commit());
}

// Regression: SBVS write-through used to overwrite the unit's version-set
// cell with a blind put. A committer whose write-through ran late could then
// roll the cell back to an older label — here exactly the label PN 0 holds
// for its buffered copy, so PN 0's cell check passed and it kept serving a
// record older than the snapshot reading it. The cell now only grows.
TEST(VersionSyncBufferTest, LateWriteThroughCannotRollBackTheVersionSet) {
  store::ClusterOptions cluster_options;
  cluster_options.num_storage_nodes = 2;
  store::Cluster cluster(cluster_options);
  ASSERT_OK_AND_ASSIGN(store::TableId data, cluster.CreateTable("data"));
  ASSERT_OK_AND_ASSIGN(store::TableId version_sets, cluster.CreateTable("vs"));
  store::ClientOptions client_options;
  client_options.network = sim::NetworkModel::Instant();
  sim::VirtualClock clock;
  sim::WorkerMetrics metrics;
  store::StorageClient client(&cluster, nullptr, client_options, &clock,
                              &metrics);
  VersionSyncBuffer pn0(version_sets, /*unit_size=*/4);
  VersionSyncBuffer pn1(version_sets, /*unit_size=*/4);
  constexpr uint64_t kRecord = 1;     // written by tids 11 and 12
  constexpr uint64_t kNeighbour = 2;  // same unit, written by tid 10
  for (uint64_t rid : {kRecord, kNeighbour}) {
    schema::VersionedRecord initial;
    initial.PutVersion(5, "v5");
    ASSERT_OK(client.Write({.table = data, .key = EncodeOrderedU64(rid),
                            .value = initial.Serialize(), .conditional = false})
                  .status());
  }
  // Commits `tid` on top of `fetched` and returns the written record and
  // its new stamp; the caller runs (or holds back) the write-through.
  auto write = [&](uint64_t rid, const tx::FetchedRecord& fetched,
                   tx::Tid tid) {
    schema::VersionedRecord record = fetched.record;
    record.PutVersion(tid, "v" + std::to_string(tid));
    auto stamp = client.Write({.table = data, .key = EncodeOrderedU64(rid),
                               .value = record.Serialize(),
                               .expected_stamp = fetched.stamp});
    EXPECT_TRUE(stamp.ok()) << stamp.status().ToString();
    return std::make_pair(record, stamp.ok() ? *stamp : 0);
  };

  // A one-key buffer read.
  auto read = [&](VersionSyncBuffer& pn, uint64_t rid,
                  const tx::SnapshotDescriptor& snapshot) {
    return pn.Read(&client, {{data, rid}}, snapshot).front();
  };

  // Tid 10 on PN 1 commits the neighbour; its write-through is delayed.
  const tx::SnapshotDescriptor s10(9);
  pn1.OnTransactionStart(s10);
  ASSERT_OK_AND_ASSIGN(tx::FetchedRecord n, read(pn1, kNeighbour, s10));
  auto [late_record, late_stamp] = write(kNeighbour, n, 10);

  // Tid 11 on PN 0 writes the record; PN 0 buffers it under {<= 11}.
  const tx::SnapshotDescriptor s11(10);
  pn0.OnTransactionStart(s11);
  ASSERT_OK_AND_ASSIGN(tx::FetchedRecord r11, read(pn0, kRecord, s11));
  auto [record11, stamp11] = write(kRecord, r11, 11);
  pn0.OnApply(&client, data, kRecord, record11, stamp11, 11, s11);

  // Tid 12 on PN 1 writes the record again.
  const tx::SnapshotDescriptor s12(11);
  pn1.OnTransactionStart(s12);
  ASSERT_OK_AND_ASSIGN(tx::FetchedRecord r12, read(pn1, kRecord, s12));
  auto [record12, stamp12] = write(kRecord, r12, 12);
  pn1.OnApply(&client, data, kRecord, record12, stamp12, 12, s12);

  // Now tid 10's write-through lands. PN 1's V_max is {<= 11} by now, so a
  // blind put would write exactly PN 0's label back into the cell.
  pn1.OnApply(&client, data, kNeighbour, late_record, late_stamp, 10, s10);

  // A PN 0 reader whose snapshot holds tid 12 must see tid 12's version,
  // and its stamp must be the live one, or a PN 0 writer's LL/SC fails.
  const tx::SnapshotDescriptor s13(12);
  pn0.OnTransactionStart(s13);
  ASSERT_OK_AND_ASSIGN(tx::FetchedRecord r13, read(pn0, kRecord, s13));
  const schema::RecordVersion* visible = r13.record.VisibleVersion(s13, 13);
  ASSERT_NE(visible, nullptr);
  EXPECT_EQ(visible->version, 12u);
  EXPECT_EQ(r13.stamp, stamp12);
}

TEST(SnapshotSubsetTest, BufferValidityRule) {
  // The SB validity condition V_tx ⊆ B from §5.5.2 in isolation.
  tx::SnapshotDescriptor b(10);
  b.MarkCompleted(12);
  tx::SnapshotDescriptor v_old(8);
  EXPECT_TRUE(v_old.IsSubsetOf(b));  // older txn can use the buffer
  tx::SnapshotDescriptor v_new(13);
  EXPECT_FALSE(v_new.IsSubsetOf(b));  // newer txn must refetch
}

}  // namespace
}  // namespace tell::buffer
