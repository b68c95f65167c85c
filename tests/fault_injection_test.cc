// Fault-injection and commit-path hardening tests.
//
// Three layers:
//   1. Unit tests of sim::FaultInjector (determinism, skip/max_fires
//      windows, Disarm).
//   2. Regression tests for the commit-path bugs fixed alongside the
//      retry layer: secondary-index scan truncation under garbage,
//      leaked index entries on commit rollback, record reverts under
//      transient faults, and the commit-flag/commit-manager divergence.
//   3. A seeded chaos suite: randomized fault plans (drops, ambiguous
//      responses, latency spikes, one node kill) against a live cluster,
//      with full invariant checks afterwards.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/serde.h"
#include "db/tell_db.h"
#include "schema/versioned_record.h"
#include "sim/fault_injector.h"
#include "tests/test_util.h"

namespace tell::tx {
namespace {

using schema::Tuple;
using schema::Value;
using sim::FaultInjector;
using sim::FaultOpClass;
using sim::FaultPlan;
using sim::FaultRule;

// ---------------------------------------------------------------------------
// FaultInjector unit tests
// ---------------------------------------------------------------------------

/// Every field of a rule, as one string.
std::string Fingerprint(const FaultRule& r) {
  return std::to_string(static_cast<int>(r.kind)) + "/" +
         std::to_string(static_cast<int>(r.op)) + "/" +
         std::to_string(r.table) + "/" + std::to_string(r.skip_matches) +
         "/" + std::to_string(r.probability) + "/" +
         std::to_string(r.max_fires) + "/" + std::to_string(r.latency_ns) +
         "/" + std::to_string(r.node);
}

TEST(FaultInjectorTest, RandomizedPlanIsDeterministicPerSeed) {
  FaultPlan a = FaultPlan::Randomized(42, 4, /*allow_node_kill=*/true);
  FaultPlan b = FaultPlan::Randomized(42, 4, /*allow_node_kill=*/true);
  FaultPlan c = FaultPlan::Randomized(43, 4, /*allow_node_kill=*/true);
  ASSERT_EQ(a.rules.size(), b.rules.size());
  for (size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(Fingerprint(a.rules[i]), Fingerprint(b.rules[i]));
  }
  // Different seed -> different plan (rule-list fingerprint differs).
  std::string fa, fc;
  for (const auto& r : a.rules) fa += Fingerprint(r) + ";";
  for (const auto& r : c.rules) fc += Fingerprint(r) + ";";
  EXPECT_NE(fa, fc);
}

TEST(FaultInjectorTest, SameSeedSameDecisionStream) {
  FaultPlan plan = FaultPlan::Randomized(7, 3, /*allow_node_kill=*/false);
  FaultInjector x(plan);
  FaultInjector y(plan);
  for (int i = 0; i < 500; ++i) {
    FaultOpClass op = static_cast<FaultOpClass>(1 + (i % 7));
    uint32_t table = 1 + (i % 5);
    FaultInjector::Decision dx = x.OnRequest(op, table);
    FaultInjector::Decision dy = y.OnRequest(op, table);
    EXPECT_EQ(dx.drop_request, dy.drop_request) << "request " << i;
    EXPECT_EQ(dx.drop_response, dy.drop_response) << "request " << i;
    EXPECT_EQ(dx.extra_latency_ns, dy.extra_latency_ns) << "request " << i;
    EXPECT_EQ(dx.kill_node, dy.kill_node) << "request " << i;
  }
  EXPECT_EQ(x.stats().injected, y.stats().injected);
  EXPECT_EQ(x.stats().requests_seen, y.stats().requests_seen);
}

TEST(FaultInjectorTest, SkipWindowAndMaxFires) {
  FaultRule rule;
  rule.kind = FaultRule::Kind::kDropRequest;
  rule.op = FaultOpClass::kGet;
  rule.skip_matches = 2;
  rule.probability = 1.0;
  rule.max_fires = 2;
  FaultInjector injector(FaultPlan{.seed = 1, .rules = {rule}});

  // Non-matching op class never fires.
  EXPECT_FALSE(injector.OnRequest(FaultOpClass::kPut, 1).drop_request);
  // Matches 1-2 are skipped, 3-4 fire, 5+ pass (rule exhausted).
  EXPECT_FALSE(injector.OnRequest(FaultOpClass::kGet, 1).drop_request);
  EXPECT_FALSE(injector.OnRequest(FaultOpClass::kGet, 1).drop_request);
  EXPECT_TRUE(injector.OnRequest(FaultOpClass::kGet, 1).drop_request);
  EXPECT_TRUE(injector.OnRequest(FaultOpClass::kGet, 1).drop_request);
  EXPECT_FALSE(injector.OnRequest(FaultOpClass::kGet, 1).drop_request);
  EXPECT_EQ(injector.stats().injected, 2u);
  EXPECT_EQ(injector.stats().dropped_requests, 2u);
}

TEST(FaultInjectorTest, DisarmStopsInjection) {
  FaultRule rule;
  rule.kind = FaultRule::Kind::kDropRequest;
  rule.probability = 1.0;
  rule.max_fires = 0;  // unlimited
  FaultInjector injector(FaultPlan{.seed = 1, .rules = {rule}});
  EXPECT_TRUE(injector.OnRequest(FaultOpClass::kGet, 1).drop_request);
  injector.Disarm();
  EXPECT_FALSE(injector.OnRequest(FaultOpClass::kGet, 1).drop_request);
  injector.Arm();
  EXPECT_TRUE(injector.OnRequest(FaultOpClass::kGet, 1).drop_request);
}

// ---------------------------------------------------------------------------
// Regression: secondary-index scan truncation under garbage
// ---------------------------------------------------------------------------

// A version-unaware B-tree accumulates obsolete entries faster than lazy GC
// removes them. The scan used to fetch a single window of limit*4+16 tree
// entries and give up; with more garbage than that in front of the live
// entries it silently returned fewer rows than exist. The fixed scan
// continues from the last fetched key until the limit is reached or the
// tree range is exhausted.
TEST(ScanTruncationRegressionTest, ScanSurvivesGarbageHeavyIndexRange) {
  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  db::TellDb db(options);
  schema::IndexDef by_val;
  by_val.name = "by_val";
  by_val.key_columns = {1};
  by_val.unique = false;
  ASSERT_OK(db.CreateTable("t",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .AddString("val")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {by_val}));
  auto session = db.OpenSession(0, 0);
  auto table = *db.GetTable(0, "t");

  auto pad = [](int i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%04d", i);
    return std::string(buf);
  };

  // 200 rows whose indexed value starts in the scanned range ["k", "l").
  constexpr int kDead = 200;
  std::vector<uint64_t> rids;
  for (int batch = 0; batch < kDead; batch += 25) {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    for (int i = batch; i < batch + 25; ++i) {
      Tuple t(2);
      t.Set(0, int64_t{i});
      t.Set(1, "ka" + pad(i));
      ASSERT_OK_AND_ASSIGN(uint64_t rid, txn.Insert(table, t, false));
      rids.push_back(rid);
    }
    ASSERT_OK(txn.Commit());
  }
  // Two rounds of updates moving the value out of the range. Round one
  // leaves the insert version alive (eager GC keeps the newest all-visible
  // version); round two prunes it, after which no version carries the "ka"
  // key and the 200 index entries in the range are pure garbage.
  for (int round = 0; round < 2; ++round) {
    for (int batch = 0; batch < kDead; batch += 25) {
      Transaction txn(session.get());
      ASSERT_OK(txn.Begin());
      for (int i = batch; i < batch + 25; ++i) {
        Tuple t(2);
        t.Set(0, int64_t{i});
        t.Set(1, (round == 0 ? "zza" : "zzb") + pad(i));
        ASSERT_OK(txn.Update(table, rids[static_cast<size_t>(i)], t));
      }
      ASSERT_OK(txn.Commit());
    }
  }
  // 8 live rows at the END of the range, behind all the garbage.
  constexpr int kLive = 8;
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    for (int i = 0; i < kLive; ++i) {
      Tuple t(2);
      t.Set(0, int64_t{1000 + i});
      t.Set(1, "kz" + pad(i));
      ASSERT_OK(txn.Insert(table, t, false).status());
    }
    ASSERT_OK(txn.Commit());
  }

  // Garbage-to-live is 25x; the old single-window scan (limit*4+16 = 48
  // entries) saw only garbage and returned 0 rows.
  Transaction txn(session.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK_AND_ASSIGN(
      auto rows,
      txn.ScanIndex(table, 0, {Value(std::string("k"))},
                    {Value(std::string("l"))}, kLive));
  ASSERT_EQ(rows.size(), static_cast<size_t>(kLive));
  for (int i = 0; i < kLive; ++i) {
    EXPECT_EQ(rows[static_cast<size_t>(i)].second.GetString(1), "kz" + pad(i));
  }
  // And an unlimited scan over the same range agrees.
  ASSERT_OK_AND_ASSIGN(
      auto all,
      txn.ScanIndex(table, 0, {Value(std::string("k"))},
                    {Value(std::string("l"))}, 0));
  EXPECT_EQ(all.size(), static_cast<size_t>(kLive));
  ASSERT_OK(txn.Commit());
}

// ---------------------------------------------------------------------------
// Regression: leaked index entries when a later index insert aborts the
// commit
// ---------------------------------------------------------------------------

// Commit inserts index entries one by one; when entry k fails (unique
// conflict), entries 0..k-1 used to stay in their trees even though the
// transaction aborted. The leaked primary-key entry then made a fast-path
// insert (check_unique=false, the TPC-C loader idiom) of the same key abort
// spuriously with AlreadyExists.
TEST(IndexLeakRegressionTest, AbortedCommitLeavesNoIndexEntries) {
  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  db::TellDb db(options);
  schema::IndexDef by_email;
  by_email.name = "by_email";
  by_email.key_columns = {1};
  by_email.unique = true;
  ASSERT_OK(db.CreateTable("users",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .AddString("email")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {by_email}));
  auto session = db.OpenSession(0, 0);
  auto table = *db.GetTable(0, "users");

  auto insert = [&](int64_t id, const std::string& email) {
    Transaction txn(session.get());
    EXPECT_TRUE(txn.Begin().ok());
    Tuple t(2);
    t.Set(0, id);
    t.Set(1, email);
    // check_unique=false reaches commit without the read-time probe, so
    // conflicts are resolved purely by the unique index at commit.
    auto rid = txn.Insert(table, t, /*check_unique=*/false);
    EXPECT_TRUE(rid.ok()) << rid.status().ToString();
    return txn.Commit();
  };

  ASSERT_OK(insert(1, "x@example.com"));
  // Loser: same email, different id. The primary-key entry for id=2 and
  // the unique email entry go into one multi-tree batch, whose preparation
  // finds the conflict before any put: the commit aborts with nothing to
  // roll back.
  Status loser = insert(2, "x@example.com");
  ASSERT_FALSE(loser.ok());
  EXPECT_TRUE(loser.IsAborted()) << loser.ToString();
  EXPECT_EQ(session->metrics()->index_rollbacks, 0u);

  // The id=2 slot must be reusable: before the fix this aborted with
  // AlreadyExists from the leaked primary-key entry.
  ASSERT_OK(insert(2, "y@example.com"));

  Transaction check(session.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(auto row, check.ReadByKey(table, {Value(int64_t{2})}));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetString(1), "y@example.com");
  // The winner's unique entry is the only one under the contended email.
  ASSERT_OK_AND_ASSIGN(
      auto rids,
      test::RidsUnderKey(&check, table, 0,
                         {Value(std::string("x@example.com"))}));
  EXPECT_EQ(rids.size(), 1u);
  ASSERT_OK(check.Commit());
}

// ---------------------------------------------------------------------------
// Regression: record reverts retried through transient faults
// ---------------------------------------------------------------------------

// RollbackApplied used to abandon a revert on the first Unavailable,
// leaving the aborted transaction's version in the record forever (an
// invisible-but-permanent leak). The unified retry layer now rides through
// transient failures; reverts that still fail are counted in
// tx.rollback_unresolved.
TEST(RollbackRetryTest, RevertSurvivesDroppedRead) {
  auto make_db = [](sim::FaultInjector* injector) {
    db::TellDbOptions options;
    options.network = sim::NetworkModel::Instant();
    options.fault_injector = injector;
    auto db = std::make_unique<db::TellDb>(options);
    schema::IndexDef by_email;
    by_email.name = "by_email";
    by_email.key_columns = {1};
    by_email.unique = true;
    Status st = db->CreateTable("users",
                                schema::SchemaBuilder()
                                    .AddInt64("id")
                                    .AddString("email")
                                    .SetPrimaryKey({"id"})
                                    .Build(),
                                {by_email});
    EXPECT_TRUE(st.ok()) << st.ToString();
    return db;
  };

  // Table ids are assigned deterministically during construction, so a
  // fault-free probe instance tells us the data table id to scope the rule
  // to before the real injector is built.
  const store::TableId data_table =
      (*make_db(nullptr)->GetTable(0, "users"))->meta->data_table;

  // The rule drops the FIRST Get on the data table after it is armed: the
  // rollback's re-read of the records after a write-write conflict aborts
  // the commit.
  sim::FaultInjector injector(FaultPlan{
      .seed = 99,
      .rules = {FaultRule{.kind = FaultRule::Kind::kDropRequest,
                          .op = FaultOpClass::kGet,
                          .table = data_table,
                          .probability = 1.0,
                          .max_fires = 1}}});
  injector.Disarm();

  auto db_owner = make_db(&injector);
  db::TellDb& db = *db_owner;
  auto session = db.OpenSession(0, 0);
  auto table = *db.GetTable(0, "users");
  ASSERT_EQ(table->meta->data_table, data_table);

  uint64_t rid_a = 0;
  uint64_t rid_b = 0;
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    Tuple a(2);
    a.Set(0, int64_t{1});
    a.Set(1, "a@example.com");
    ASSERT_OK_AND_ASSIGN(rid_a, txn.Insert(table, a, false));
    Tuple b(2);
    b.Set(0, int64_t{2});
    b.Set(1, "b@example.com");
    ASSERT_OK_AND_ASSIGN(rid_b, txn.Insert(table, b, false));
    ASSERT_OK(txn.Commit());
  }

  Transaction txn(session.get());
  ASSERT_OK(txn.Begin());
  const commitmgr::Tid doomed_tid = txn.tid();
  Tuple a2(2);
  a2.Set(0, int64_t{1});
  a2.Set(1, "a2@example.com");
  ASSERT_OK(txn.Update(table, rid_a, a2));
  Tuple b2(2);
  b2.Set(0, int64_t{2});
  b2.Set(1, "b2@example.com");
  ASSERT_OK(txn.Update(table, rid_b, b2));
  // A second session updates B first: the doomed commit applies A's new
  // version, loses B's LL/SC and rolls back — and the rollback's re-read
  // (Get #1 once armed) is dropped by the rule.
  {
    auto other = db.OpenSession(0, 1);
    Transaction winner(other.get());
    ASSERT_OK(winner.Begin());
    Tuple b3(2);
    b3.Set(0, int64_t{2});
    b3.Set(1, "b@example.com");
    ASSERT_OK(winner.Update(table, rid_b, b3));
    ASSERT_OK(winner.Commit());
  }
  injector.Arm();
  Status st = txn.Commit();
  injector.Disarm();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsAborted()) << st.ToString();

  // The dropped read was retried, not abandoned.
  EXPECT_GT(session->metrics()->storage_retries, 0u);
  EXPECT_EQ(session->metrics()->rollback_unresolved, 0u);
  EXPECT_GT(injector.stats().dropped_requests, 0u);

  // No version of the aborted transaction survives anywhere in the table.
  ASSERT_OK_AND_ASSIGN(auto cells, test::ScanCells(*db.cluster(), data_table));
  for (const auto& cell : cells) {
    if (cell.key.size() != 8) continue;  // meta cells (rid counter)
    ASSERT_OK_AND_ASSIGN(auto record,
                         schema::VersionedRecord::Deserialize(cell.value));
    EXPECT_FALSE(record.HasVersion(doomed_tid))
        << "dangling version of aborted tid " << doomed_tid << " at rid "
        << DecodeOrderedU64(cell.key);
  }

  // A still reads as before the aborted update.
  Transaction check(session.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(auto row, check.Read(table, rid_a));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetString(1), "a@example.com");
  ASSERT_OK(check.Commit());
}

// ---------------------------------------------------------------------------
// The commit's index preparation rides the log append
// ---------------------------------------------------------------------------

/// A users table (id, email) with a unique index on email.
std::unique_ptr<db::TellDb> MakeUsersDb(db::TellDbOptions options) {
  auto db = std::make_unique<db::TellDb>(options);
  schema::IndexDef by_email;
  by_email.name = "by_email";
  by_email.key_columns = {1};
  by_email.unique = true;
  Status st = db->CreateTable("users",
                              schema::SchemaBuilder()
                                  .AddInt64("id")
                                  .AddString("email")
                                  .SetPrimaryKey({"id"})
                                  .Build(),
                              {by_email});
  EXPECT_TRUE(st.ok()) << st.ToString();
  return db;
}

Tuple User(int64_t id, const std::string& email) {
  Tuple t(2);
  t.Set(0, id);
  t.Set(1, email);
  return t;
}

/// True if some record of `table` still holds a version of `tid`.
bool HasVersionOf(db::TellDb* db, store::TableId table, commitmgr::Tid tid) {
  auto cells = test::ScanCells(*db->cluster(), table);
  EXPECT_OK(cells.status());
  if (!cells.ok()) return true;
  for (const auto& cell : *cells) {
    if (cell.key.size() != 8) continue;  // meta cells (rid counter)
    auto record = schema::VersionedRecord::Deserialize(cell.value);
    if (!record.ok() || record->HasVersion(tid)) return true;
  }
  return false;
}

// The unique check runs in the index preparation, whose first round also
// carries the log append — before the apply. A violation found there
// aborts with the entry logged but nothing applied: no record holds a
// version of the tid, no index entry needs undoing, and recovery, which
// reverts the records of unflagged entries, finds nothing to revert.
TEST(PrepareRidesLogTest, UniqueViolationAtPrepareAppliesNothing) {
  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  auto db = MakeUsersDb(options);
  auto session = db->OpenSession(0, 0);
  auto table = *db->GetTable(0, "users");
  uint64_t rid = 0;
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    ASSERT_OK_AND_ASSIGN(rid, txn.Insert(table, User(1, "x@example.com")));
    ASSERT_OK(txn.Commit());
  }

  // The loser updates row 1 and inserts a row whose email is taken: a
  // write set with something to revert had it been applied.
  Transaction loser(session.get());
  ASSERT_OK(loser.Begin());
  const commitmgr::Tid tid = loser.tid();
  ASSERT_OK(loser.Update(table, rid, User(1, "z@example.com")));
  ASSERT_OK(loser.Insert(table, User(2, "x@example.com"), false).status());
  const uint64_t appends = session->metrics()->log_appends;
  Status st = loser.Commit();
  ASSERT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(session->metrics()->log_appends - appends, 1u);
  EXPECT_EQ(session->metrics()->index_rollbacks, 0u);
  EXPECT_EQ(session->metrics()->rollback_unresolved, 0u);
  EXPECT_FALSE(HasVersionOf(db.get(), table->meta->data_table, tid));

  ASSERT_OK_AND_ASSIGN(auto entry, test::LogEntryOf(*db->transaction_log(),
                                                    session->client(), tid));
  ASSERT_TRUE(entry.has_value());
  EXPECT_FALSE(entry->committed);
  EXPECT_EQ(entry->write_set.size(), 2u);
  ASSERT_OK_AND_ASSIGN(auto stats, db->recovery()->RecoverProcessingNode(
                                       session->client(), /*failed_pn=*/0));
  EXPECT_EQ(stats.versions_removed, 0u);

  Transaction check(session.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(auto row, check.Read(table, rid));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetString(1), "x@example.com");
  ASSERT_OK_AND_ASSIGN(auto missing,
                       check.ReadByKey(table, {Value(int64_t{2})}));
  EXPECT_FALSE(missing.has_value());
  ASSERT_OK(check.Commit());
}

// With one storage node, the log put and the leaf reads of the commit's
// index preparation travel in one message. Losing that message — before
// the node executed it, or after — must still end in one consistent
// outcome: the ambiguous log put is resolved by a re-read, the lost leaf
// reads are re-issued, and the commit lands whole.
TEST(PrepareRidesLogTest, DroppedLogAndLeafMessageYieldsOneOutcome) {
  for (FaultRule::Kind kind :
       {FaultRule::Kind::kDropRequest, FaultRule::Kind::kDropResponse}) {
    SCOPED_TRACE(kind == FaultRule::Kind::kDropRequest ? "request"
                                                       : "response");
    db::TellDbOptions probe;
    probe.network = sim::NetworkModel::Instant();
    probe.num_storage_nodes = 1;
    const store::TableId log_table =
        MakeUsersDb(probe)->transaction_log()->table();
    sim::FaultInjector injector(
        FaultPlan{.seed = 3,
                  .rules = {FaultRule{.kind = kind,
                                      .op = FaultOpClass::kConditionalPut,
                                      .table = log_table,
                                      .probability = 1.0,
                                      .max_fires = 1}}});
    injector.Disarm();
    db::TellDbOptions options = probe;
    options.fault_injector = &injector;
    auto db = MakeUsersDb(options);
    ASSERT_EQ(db->transaction_log()->table(), log_table);
    auto session = db->OpenSession(0, 0);
    auto table = *db->GetTable(0, "users");

    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    const commitmgr::Tid tid = txn.tid();
    ASSERT_OK(txn.Insert(table, User(7, "q@example.com"), false).status());
    injector.Arm();
    Status st = txn.Commit();
    injector.Disarm();
    EXPECT_EQ(injector.stats().injected, 1u);
    EXPECT_GT(session->metrics()->storage_retries, 0u);

    // Committed or aborted, the record, both index entries and the log
    // flag agree.
    ASSERT_OK_AND_ASSIGN(auto entry, test::LogEntryOf(*db->transaction_log(),
                                                      session->client(), tid));
    Transaction check(session.get());
    ASSERT_OK(check.Begin());
    ASSERT_OK_AND_ASSIGN(auto row,
                         check.ReadByKey(table, {Value(int64_t{7})}));
    ASSERT_OK_AND_ASSIGN(
        auto by_email,
        test::RidsUnderKey(&check, table, 0,
                           {Value(std::string("q@example.com"))}));
    ASSERT_OK(check.Commit());
    if (st.ok()) {
      ASSERT_TRUE(entry.has_value());
      EXPECT_TRUE(entry->committed);
      EXPECT_TRUE(row.has_value());
      EXPECT_EQ(by_email.size(), 1u);
    } else {
      EXPECT_TRUE(st.IsAborted()) << st.ToString();
      EXPECT_TRUE(!entry.has_value() || !entry->committed);
      EXPECT_FALSE(row.has_value());
      EXPECT_TRUE(by_email.empty());
      EXPECT_FALSE(HasVersionOf(db.get(), table->meta->data_table, tid));
    }
  }
}

// ---------------------------------------------------------------------------
// Regression: commit flag is the source of truth
// ---------------------------------------------------------------------------

// If the log's committed-flag write fails, the transaction used to report
// success to the client while recovery (which reads the log) would treat it
// as uncommitted and roll it back — a lost acknowledged commit. Now the
// client aborts and fully undoes the transaction, agreeing with recovery.
TEST(CommitFlagRegressionTest, FailedFlagWriteAbortsAndRollsBack) {
  // In the default configuration the commit flag is the ONLY unconditional
  // Put a worker session issues (log appends and record/tree writes are
  // conditional), so an op-class filter pins the fault precisely.
  sim::FaultInjector injector(FaultPlan{
      .seed = 5,
      .rules = {FaultRule{.kind = FaultRule::Kind::kDropRequest,
                          .op = FaultOpClass::kPut,
                          .probability = 1.0,
                          .max_fires = 0}}});
  injector.Disarm();

  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  options.fault_injector = &injector;
  db::TellDb db(options);
  schema::IndexDef by_email;
  by_email.name = "by_email";
  by_email.key_columns = {1};
  by_email.unique = true;
  ASSERT_OK(db.CreateTable("users",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .AddString("email")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {by_email}));
  auto session = db.OpenSession(0, 0);
  auto table = *db.GetTable(0, "users");

  injector.Arm();
  Transaction txn(session.get());
  ASSERT_OK(txn.Begin());
  const commitmgr::Tid tid = txn.tid();
  Tuple t(2);
  t.Set(0, int64_t{1});
  t.Set(1, "x@example.com");
  ASSERT_OK(txn.Insert(table, t, false).status());
  Status st = txn.Commit();
  injector.Disarm();

  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(txn.state(), TxnState::kAborted);
  EXPECT_EQ(session->metrics()->commit_flag_failures, 1u);
  EXPECT_GT(session->metrics()->storage_retries_exhausted, 0u);
  // Both index entries (primary + unique secondary) were undone.
  EXPECT_GE(session->metrics()->index_rollbacks, 2u);

  // Nothing of the transaction is visible: not the record, not the entries.
  Transaction check(session.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(auto row, check.ReadByKey(table, {Value(int64_t{1})}));
  EXPECT_FALSE(row.has_value());
  ASSERT_OK_AND_ASSIGN(
      auto rids,
      test::RidsUnderKey(&check, table, 0,
                         {Value(std::string("x@example.com"))}));
  EXPECT_TRUE(rids.empty());
  ASSERT_OK(check.Commit());

  // The log agrees with what the client reported: the entry exists but is
  // NOT committed, so a recovery replaying the log treats the transaction
  // as aborted instead of resurrecting it. (Before the fix the client said
  // "committed" here while the log said "uncommitted" — a lost ack.)
  ASSERT_OK_AND_ASSIGN(auto entry, test::LogEntryOf(*db.transaction_log(),
                                                    session->client(), tid));
  ASSERT_TRUE(entry.has_value());
  EXPECT_FALSE(entry->committed);
  // Recovery for this PN is a no-op: the tid was completed as aborted at
  // the commit manager and the client already reverted every write.
  ASSERT_OK_AND_ASSIGN(auto stats,
                       db.recovery()->RecoverProcessingNode(
                           session->client(), /*failed_pn=*/0));
  EXPECT_EQ(stats.versions_removed, 0u);
}

// ---------------------------------------------------------------------------
// Crash windows of a commit whose index splits ride its rounds
// ---------------------------------------------------------------------------

// A users table whose B+trees split every few rows (fanout 8), on one
// storage node so that each commit round is one message, with two
// processing nodes. Emails ascend with ids, so both trees split alike.
class SplitCommitTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kFanout = 8;
  /// Ten rows, one commit each: both trees have a root over two leaves,
  /// the rightmost holding the six ids 18..28.
  static inline const std::vector<int64_t> kLoaded = {10, 12, 14, 16, 18,
                                                      20, 22, 24, 26, 28};

  explicit SplitCommitTest(FaultPlan plan = {}) : injector_(std::move(plan)) {
    injector_.Disarm();
    options_.network = sim::NetworkModel::Instant();
    options_.num_storage_nodes = 1;
    options_.num_processing_nodes = 2;
    options_.btree.fanout = kFanout;
    options_.fault_injector = &injector_;
    db_ = MakeUsersDb(options_);
    session_ = db_->OpenSession(0, 0);
    table_ = *db_->GetTable(0, "users");
  }

  static std::string Email(int64_t id) {
    std::string digits = std::to_string(id);
    return "user" + std::string(4 - digits.size(), '0') + digits +
           "@example.com";
  }

  /// Begins a transaction on `session` that inserts `ids`, recording the
  /// rid of each in `rids` — kept only if the commit succeeds.
  void InsertUsers(Session* session, Transaction* txn,
                   const std::vector<int64_t>& ids,
                   std::map<int64_t, uint64_t>* rids) {
    tx::TableHandle* table = *db_->GetTable(session->pn_id(), "users");
    ASSERT_OK(txn->Begin());
    for (int64_t id : ids) {
      ASSERT_OK_AND_ASSIGN((*rids)[id],
                           txn->Insert(table, User(id, Email(id)), false));
    }
  }

  /// Commits one transaction per id, so PN 0's inner-node caches and
  /// node-id blocks are warm and both trees are two levels high.
  void Load(const std::vector<int64_t>& ids) {
    for (int64_t id : ids) {
      Transaction txn(session_.get());
      ASSERT_NO_FATAL_FAILURE(InsertUsers(session_.get(), &txn, {id},
                                          &committed_));
      ASSERT_OK(txn.Commit());
    }
  }

  /// Through a fresh handle on the primary index (its own node cache, so
  /// every node comes from the store): one BatchScan of an exact-key
  /// cursor per id finds exactly the committed rids, and a scan of the
  /// whole tree holds exactly the committed keys.
  void ExpectPrimaryIndexHolds(const std::vector<int64_t>& absent) {
    index::NodeCache cache;
    index::BTree tree(table_->meta->primary.store_table, options_.btree,
                      &cache);
    auto key_of = [](int64_t id) {
      return *schema::EncodeIndexKeyValues({Value(id)});
    };
    std::vector<index::ScanCursor> keys;
    for (const auto& [id, rid] : committed_) {
      keys.push_back(test::PointCursor(&tree, key_of(id)));
    }
    for (int64_t id : absent) {
      keys.push_back(test::PointCursor(&tree, key_of(id)));
    }
    auto client = db_->OpenSession(1, 7);
    ASSERT_OK_AND_ASSIGN(auto rids, test::ScanRids(client->client(), &keys));
    size_t k = 0;
    for (const auto& [id, rid] : committed_) {
      EXPECT_EQ(rids[k++], std::vector<uint64_t>{rid}) << "committed id " << id;
    }
    for (int64_t id : absent) {
      EXPECT_TRUE(rids[k++].empty()) << "aborted id " << id;
    }
    index::ScanCursor all;
    all.tree = &tree;
    ASSERT_OK(index::BTree::BatchScan(client->client(), {&all}));
    std::set<std::string> scanned;
    for (const index::IndexEntry& e : all.entries) scanned.insert(e.key);
    std::set<std::string> expected;
    for (const auto& [id, rid] : committed_) expected.insert(key_of(id));
    EXPECT_EQ(scanned, expected);
  }

  /// Node cells of both trees of the table.
  size_t NodeCells() {
    size_t cells = 0;
    for (store::TableId t : {table_->meta->primary.store_table,
                             table_->meta->secondaries[0].store_table}) {
      auto scanned = test::ScanCells(*db_->cluster(), t);
      EXPECT_OK(scanned.status());
      if (scanned.ok()) cells += scanned->size();
    }
    return cells;
  }

  sim::FaultInjector injector_;
  db::TellDbOptions options_;
  std::unique_ptr<db::TellDb> db_;
  std::unique_ptr<Session> session_;
  tx::TableHandle* table_ = nullptr;
  std::map<int64_t, uint64_t> committed_;
};

// The round that applies the records also writes the leaves that split
// nothing and publishes the fresh nodes of the commit's splits. Losing its
// response leaves every put of it ambiguous: the re-reads settle the
// records, the leaves and the fresh nodes alike, and the commit lands
// whole.
class ApplyRoundResponseLostTest : public SplitCommitTest {
 protected:
  // The commit's second message carrying a conditional put — the first is
  // the log append — is the apply round.
  ApplyRoundResponseLostTest()
      : SplitCommitTest(FaultPlan{
            .seed = 11,
            .rules = {FaultRule{.kind = FaultRule::Kind::kDropResponse,
                                .op = FaultOpClass::kConditionalPut,
                                .skip_matches = 1,
                                .max_fires = 1}}}) {}
};

TEST_F(ApplyRoundResponseLostTest, CommitLandsWhole) {
  ASSERT_NO_FATAL_FAILURE(Load(kLoaded));
  sim::WorkerMetrics* metrics = session_->metrics();
  const uint64_t splits = metrics->index_splits;
  std::map<int64_t, uint64_t> rids;
  Transaction txn(session_.get());
  ASSERT_NO_FATAL_FAILURE(
      InsertUsers(session_.get(), &txn, {29, 30, 31, 32, 33, 34}, &rids));
  injector_.Arm();
  ASSERT_OK(txn.Commit());
  injector_.Disarm();
  EXPECT_EQ(injector_.stats().dropped_responses, 1u);
  EXPECT_GT(metrics->ambiguous_resolved, 0u);
  EXPECT_GT(metrics->index_splits, splits);
  committed_.insert(rids.begin(), rids.end());
  ExpectPrimaryIndexHolds({});
}

TEST_F(ApplyRoundResponseLostTest, SplitFreeCommitLandsWhole) {
  ASSERT_NO_FATAL_FAILURE(Load(kLoaded));
  sim::WorkerMetrics* metrics = session_->metrics();
  const uint64_t splits = metrics->index_splits;
  const uint64_t resolved = metrics->ambiguous_resolved;
  std::map<int64_t, uint64_t> rids;
  Transaction txn(session_.get());
  // Id 11 joins the left leaf of both trees, which holds four entries.
  ASSERT_NO_FATAL_FAILURE(InsertUsers(session_.get(), &txn, {11}, &rids));
  injector_.Arm();
  const uint64_t before = metrics->pipeline_flushes;
  ASSERT_OK(txn.Commit());
  injector_.Disarm();
  EXPECT_EQ(injector_.stats().dropped_responses, 1u);
  // The record and both leaves were ambiguous.
  EXPECT_GE(metrics->ambiguous_resolved - resolved, 3u);
  EXPECT_EQ(metrics->index_splits, splits);
  // Log with the leaf reads, apply with the leaf writes, flag; the re-reads
  // that settle the lost response are the client's.
  EXPECT_GE(metrics->pipeline_flushes - before, 3u);
  committed_.insert(rids.begin(), rids.end());
  ExpectPrimaryIndexHolds({});
  auto reader = db_->OpenSession(1, 1);
  tx::TableHandle* table = *db_->GetTable(1, "users");
  Transaction check(reader.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(
      auto by_email, test::RidsUnderKey(&check, table, 0, {Value(Email(11))}));
  EXPECT_EQ(by_email, std::vector<uint64_t>{rids[11]});
  ASSERT_OK(check.Commit());
}

// An apply that loses its LL/SC aborts the commit after its fresh nodes
// went out: they are unreachable, and the rollback erases them.
TEST_F(SplitCommitTest, AbortAfterTheApplyErasesTheFreshNodes) {
  ASSERT_NO_FATAL_FAILURE(Load(kLoaded));
  std::map<int64_t, uint64_t> rids;
  Transaction winner(session_.get());
  Transaction loser(session_.get());
  ASSERT_OK(winner.Begin());
  ASSERT_NO_FATAL_FAILURE(
      InsertUsers(session_.get(), &loser, {29, 30, 31, 32, 33, 34}, &rids));
  ASSERT_OK(winner.Update(table_, committed_[10], User(10, Email(10))));
  ASSERT_OK(loser.Update(table_, committed_[10], User(10, Email(10))));
  ASSERT_OK(winner.Commit());
  const size_t cells = NodeCells();
  const uint64_t splits = session_->metrics()->index_splits;
  Status st = loser.Commit();
  ASSERT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(session_->metrics()->index_splits, splits);
  EXPECT_EQ(NodeCells(), cells);
  ExpectPrimaryIndexHolds({29, 30, 31, 32, 33, 34});
}

// The processing node dies after the round that shrinks the split nodes,
// before the round of the commit flag and the separators. The commit's
// steps run by hand as Transaction::Commit runs them — a crashed node sends
// no abort to its commit manager — and every message from the flag's round
// on is lost. Recovery reverts the records of the unflagged entry. The
// split nodes' fresh right neighbours, which no parent names, are reached
// through right links, and the crashed entries are garbage that the read
// path's index GC collects once the lav reaches their tag.
class KilledBeforeTheFlagTest : public SplitCommitTest {
 protected:
  KilledBeforeTheFlagTest()
      : SplitCommitTest(FaultPlan{
            .seed = 13,
            .rules = {FaultRule{.kind = FaultRule::Kind::kDropRequest,
                                .skip_matches = 1,
                                .max_fires = 0}}}) {}
};

TEST_F(KilledBeforeTheFlagTest, SplitNodesStayReachable) {
  ASSERT_NO_FATAL_FAILURE(Load(kLoaded));
  sim::WorkerMetrics* metrics = session_->metrics();
  store::StorageClient* client = session_->client();
  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  const commitmgr::Tid tid = txn.tid();
  const std::vector<int64_t> crashed = {29, 30, 31, 32, 33, 34};
  LogEntry entry;
  entry.tid = tid;
  entry.pn_id = session_->pn_id();
  std::vector<store::WriteOp> records;
  std::vector<index::BatchInsertOp> index_ops;
  for (int64_t id : crashed) {
    const uint64_t rid = 1000000 + static_cast<uint64_t>(id);
    const Tuple user = User(id, Email(id));
    schema::VersionedRecord record;
    record.PutVersion(tid, user.Serialize(table_->meta->schema));
    entry.write_set.emplace_back(table_->meta->data_table, rid);
    records.push_back({table_->meta->data_table, EncodeOrderedU64(rid),
                       record.Serialize(), store::kStampAbsent});
    index_ops.push_back({&table_->primary,
                         *schema::EncodeIndexKeyValues({Value(id)}), rid,
                         /*unique=*/true, /*remove=*/false, tid});
    index_ops.push_back({&table_->secondaries[0],
                         *schema::EncodeIndexKeyValues({Value(Email(id))}),
                         rid, /*unique=*/true, /*remove=*/false, tid});
  }
  index::BTree::Prepared prepared;
  std::vector<Result<uint64_t>> appended, applied, flagged;
  ASSERT_OK(index::BTree::PrepareInsert(client, {index_ops},
                                        {db_->transaction_log()->AppendOp(entry)},
                                        &appended, &prepared));
  ASSERT_OK(
      index::BTree::WriteFirstRound(client, &prepared, records, &applied));
  for (const Result<uint64_t>& put : applied) ASSERT_OK(put.status());
  const uint64_t splits = metrics->index_splits;
  injector_.Arm();
  // The shrinks land; the flag and the separators are lost.
  (void)index::BTree::WriteInsert(
      client, &prepared, {db_->transaction_log()->MarkCommittedOp(entry)},
      &flagged);
  injector_.Disarm();
  EXPECT_EQ(prepared.inserted(), std::vector<bool>(index_ops.size(), true));
  EXPECT_GT(metrics->index_splits, splits);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_FALSE(flagged.front().ok());
  ASSERT_OK(db_->KillProcessingNode(0).status());
  EXPECT_FALSE(HasVersionOf(db_.get(), table_->meta->data_table, tid));

  // PN 1 finds every committed row and no crashed one; its lookups queue
  // the crashed primary-index entries for GC, which its commit sends.
  auto survivor = db_->OpenSession(1, 0);
  tx::TableHandle* table = *db_->GetTable(1, "users");
  Transaction check(survivor.get());
  ASSERT_OK(check.Begin());
  for (int64_t id : crashed) {
    ASSERT_OK_AND_ASSIGN(auto row, check.ReadByKey(table, {Value(id)}));
    EXPECT_FALSE(row.has_value()) << "crashed id " << id;
  }
  for (const auto& [id, rid] : committed_) {
    ASSERT_OK_AND_ASSIGN(auto row, check.ReadByKey(table, {Value(id)}));
    EXPECT_TRUE(row.has_value()) << "committed id " << id;
  }
  ASSERT_OK(check.Commit());
  EXPECT_EQ(survivor->metrics()->gc_index_entries, crashed.size());
  ExpectPrimaryIndexHolds(crashed);
}

// The processing node dies right after the round that applies the records
// and writes the leaves, before the flag; the commit splits nothing, so its
// entries are all in. The steps run by hand, as above. Recovery reverts the
// records; the entries stay, tagged with the dead writer's tid. A reader
// whose lav predates the writer skips them — for it the writer may still
// be in flight — while a reader that begins after the recovery collects
// them, and the same unique key inserts again.
TEST_F(SplitCommitTest, KilledAfterTheApplyRoundLeavesEntriesToTheLav) {
  ASSERT_NO_FATAL_FAILURE(Load(kLoaded));
  auto survivor = db_->OpenSession(1, 0);
  tx::TableHandle* table = *db_->GetTable(1, "users");
  sim::WorkerMetrics* metrics = survivor->metrics();
  Transaction pinned(survivor.get());
  ASSERT_OK(pinned.Begin());

  store::StorageClient* client = session_->client();
  Transaction txn(session_.get());
  ASSERT_OK(txn.Begin());
  const commitmgr::Tid tid = txn.tid();
  // Id 11 joins the left leaf of both trees, which holds four entries.
  constexpr int64_t kId = 11;
  const uint64_t rid = 1000000 + kId;
  LogEntry entry;
  entry.tid = tid;
  entry.pn_id = session_->pn_id();
  entry.write_set.emplace_back(table_->meta->data_table, rid);
  schema::VersionedRecord record;
  record.PutVersion(tid, User(kId, Email(kId)).Serialize(table_->meta->schema));
  std::vector<index::BatchInsertOp> index_ops = {
      {&table_->primary, *schema::EncodeIndexKeyValues({Value(kId)}), rid,
       /*unique=*/true, /*remove=*/false, tid},
      {&table_->secondaries[0],
       *schema::EncodeIndexKeyValues({Value(Email(kId))}), rid,
       /*unique=*/true, /*remove=*/false, tid}};
  index::BTree::Prepared prepared;
  std::vector<Result<uint64_t>> appended, applied;
  ASSERT_OK(index::BTree::PrepareInsert(
      client, {index_ops}, {db_->transaction_log()->AppendOp(entry)}, &appended,
      &prepared));
  ASSERT_OK(index::BTree::WriteFirstRound(
      client, &prepared,
      {{table_->meta->data_table, EncodeOrderedU64(rid), record.Serialize(),
        store::kStampAbsent}},
      &applied));
  for (const Result<uint64_t>& put : applied) ASSERT_OK(put.status());
  EXPECT_EQ(prepared.inserted(), std::vector<bool>(index_ops.size(), true));
  ASSERT_OK(db_->KillProcessingNode(0).status());
  EXPECT_FALSE(HasVersionOf(db_.get(), table_->meta->data_table, tid));

  // The pinned reader finds no row and leaves the entry alone.
  ASSERT_OK_AND_ASSIGN(auto row, pinned.ReadByKey(table, {Value(kId)}));
  EXPECT_FALSE(row.has_value());
  ASSERT_OK(pinned.Commit());
  EXPECT_EQ(metrics->index_gc_deferred, 1u);
  EXPECT_EQ(metrics->gc_index_entries, 0u);

  // A reader that begins after the recovery collects it.
  {
    Transaction check(survivor.get());
    ASSERT_OK(check.Begin());
    ASSERT_OK_AND_ASSIGN(row, check.ReadByKey(table, {Value(kId)}));
    EXPECT_FALSE(row.has_value());
    ASSERT_OK(check.Commit());
  }
  EXPECT_EQ(metrics->gc_index_entries, 1u);

  // The email's entry is still in its unique tree: the insert of the same
  // id and email meets it, finds its record gone and removes it in the
  // same batch.
  Transaction again(survivor.get());
  ASSERT_OK(again.Begin());
  ASSERT_OK_AND_ASSIGN(committed_[kId],
                       again.Insert(table, User(kId, Email(kId)), false));
  ASSERT_OK(again.Commit());
  EXPECT_EQ(metrics->gc_index_entries, 2u);
  ExpectPrimaryIndexHolds({});
  Transaction check(survivor.get());
  ASSERT_OK(check.Begin());
  ASSERT_OK_AND_ASSIGN(
      auto by_email,
      test::RidsUnderKey(&check, table, 0, {Value(Email(kId))}));
  EXPECT_EQ(by_email, std::vector<uint64_t>{committed_[kId]});
  ASSERT_OK(check.Commit());
}

// PN 1 splits the rightmost leaf of both trees under PN 0's cached roots.
// PN 0's next commit splits the leftmost leaves: its separators ride the
// flag with the stale root images and lose their LL/SC; the roots are read
// again and the separators land in the rounds after the flag.
TEST_F(SplitCommitTest, SeparatorLosesToAConcurrentSplitOfItsParent) {
  ASSERT_NO_FATAL_FAILURE(Load(kLoaded));
  auto other = db_->OpenSession(1, 0);
  std::map<int64_t, uint64_t> rids;
  {
    Transaction txn(other.get());
    ASSERT_NO_FATAL_FAILURE(
        InsertUsers(other.get(), &txn, {40, 41, 42, 43, 44, 45}, &rids));
    ASSERT_OK(txn.Commit());
    EXPECT_GT(other->metrics()->index_splits, 0u);
  }
  sim::WorkerMetrics* metrics = session_->metrics();
  const uint64_t splits = metrics->index_splits;
  const uint64_t losses = metrics->llsc_failures;
  Transaction txn(session_.get());
  ASSERT_NO_FATAL_FAILURE(
      InsertUsers(session_.get(), &txn, {1, 3, 11, 13, 15, 17}, &rids));
  const uint64_t before = metrics->pipeline_flushes;
  ASSERT_OK(txn.Commit());
  EXPECT_GT(metrics->index_splits, splits);
  EXPECT_GT(metrics->llsc_failures, losses);
  // Log, apply, leaves, flag with the losing separators; then the roots'
  // re-read and their puts.
  EXPECT_EQ(metrics->pipeline_flushes - before, 6u);
  committed_.insert(rids.begin(), rids.end());
  ExpectPrimaryIndexHolds({});
}

// ---------------------------------------------------------------------------
// Chaos suite: randomized fault plans, full invariant check
// ---------------------------------------------------------------------------

class ChaosSuite : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSuite, InvariantsHoldUnderRandomizedFaults) {
  const uint64_t seed = GetParam();
  constexpr uint32_t kStorageNodes = 4;
  sim::FaultInjector injector(
      FaultPlan::Randomized(seed, kStorageNodes, /*allow_node_kill=*/true));
  injector.Disarm();  // setup runs fault-free

  db::TellDbOptions options;
  options.num_storage_nodes = kStorageNodes;
  options.replication_factor = 2;  // a node kill must be survivable
  options.network = sim::NetworkModel::Instant();
  options.fault_injector = &injector;
  db::TellDb db(options);

  ASSERT_OK(db.CreateTable("accounts",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .AddDouble("balance")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {}));
  schema::IndexDef by_tag;
  by_tag.name = "by_tag";
  by_tag.key_columns = {1};
  by_tag.unique = true;
  ASSERT_OK(db.CreateTable("orders",
                           schema::SchemaBuilder()
                               .AddInt64("id")
                               .AddString("tag")
                               .SetPrimaryKey({"id"})
                               .Build(),
                           {by_tag}));
  // Determinism requires a single-threaded driver: one session, sequential
  // transactions (see FaultInjector's class comment).
  auto session = db.OpenSession(0, 0);
  auto accounts = *db.GetTable(0, "accounts");
  auto orders = *db.GetTable(0, "orders");

  constexpr int kAccounts = 8;
  constexpr double kInitialBalance = 1000.0;
  std::set<commitmgr::Tid> committed;
  std::set<commitmgr::Tid> aborted;
  std::vector<uint64_t> account_rids;
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    for (int64_t i = 0; i < kAccounts; ++i) {
      Tuple t(2);
      t.Set(0, i);
      t.Set(1, kInitialBalance);
      ASSERT_OK_AND_ASSIGN(uint64_t rid, txn.Insert(accounts, t, false));
      account_rids.push_back(rid);
    }
    ASSERT_OK(txn.Commit());
    committed.insert(txn.tid());
  }

  // Model of the expected committed state.
  std::vector<double> expected(kAccounts, kInitialBalance);
  std::map<std::string, uint64_t> live_tags;  // tag -> rid
  int64_t next_order_id = 0;

  injector.Arm();
  Random rng(seed ^ 0xABCD1234u);
  constexpr int kTxns = 250;
  constexpr int kTagPool = 12;
  for (int i = 0; i < kTxns; ++i) {
    Transaction txn(session.get());
    if (!txn.Begin().ok()) continue;
    const uint64_t kind = rng.Uniform(100);
    bool ops_ok = true;
    if (kind < 55 || (kind >= 80 && live_tags.empty())) {
      // Transfer between two distinct accounts.
      const size_t a = rng.Uniform(kAccounts);
      size_t b = rng.Uniform(kAccounts - 1);
      if (b >= a) ++b;
      const double amount = 1.0 + static_cast<double>(rng.Uniform(50));
      double bal_a = 0, bal_b = 0;
      auto ra = txn.Read(accounts, account_rids[a]);
      auto rb = txn.Read(accounts, account_rids[b]);
      ops_ok = ra.ok() && rb.ok() && ra->has_value() && rb->has_value();
      if (ops_ok) {
        bal_a = (*ra)->GetDouble(1);
        bal_b = (*rb)->GetDouble(1);
        Tuple ta(2), tb(2);
        ta.Set(0, static_cast<int64_t>(a));
        ta.Set(1, bal_a - amount);
        tb.Set(0, static_cast<int64_t>(b));
        tb.Set(1, bal_b + amount);
        ops_ok = txn.Update(accounts, account_rids[a], ta).ok() &&
                 txn.Update(accounts, account_rids[b], tb).ok();
      }
      if (!ops_ok) {
        (void)txn.Abort();
        aborted.insert(txn.tid());
        continue;
      }
      if (txn.Commit().ok()) {
        committed.insert(txn.tid());
        expected[a] -= amount;
        expected[b] += amount;
      } else {
        aborted.insert(txn.tid());
      }
    } else if (kind < 80) {
      // Insert an order under a pooled tag; the unique index arbitrates.
      const std::string tag = "tag" + std::to_string(rng.Uniform(kTagPool));
      Tuple t(2);
      t.Set(0, next_order_id++);
      t.Set(1, tag);
      auto rid = txn.Insert(orders, t, /*check_unique=*/false);
      if (!rid.ok()) {
        (void)txn.Abort();
        aborted.insert(txn.tid());
        continue;
      }
      if (txn.Commit().ok()) {
        committed.insert(txn.tid());
        // A committed duplicate would be a unique-enforcement violation.
        ASSERT_EQ(live_tags.count(tag), 0u)
            << "duplicate tag committed: " << tag;
        live_tags[tag] = *rid;
      } else {
        aborted.insert(txn.tid());
      }
    } else {
      // Delete a live order by tag.
      size_t pick = rng.Uniform(live_tags.size());
      auto it = live_tags.begin();
      std::advance(it, static_cast<long>(pick));
      const std::string tag = it->first;
      const uint64_t rid = it->second;
      if (!txn.Delete(orders, rid).ok()) {
        (void)txn.Abort();
        aborted.insert(txn.tid());
        continue;
      }
      if (txn.Commit().ok()) {
        committed.insert(txn.tid());
        live_tags.erase(tag);
      } else {
        aborted.insert(txn.tid());
      }
    }
  }
  injector.Disarm();
  // Let the management node finish any pending fail-over before verifying.
  (void)db.management()->DetectAndRecover();

  const sim::FaultStats stats = injector.stats();
  EXPECT_GT(stats.requests_seen, 0u);
  EXPECT_GT(stats.injected, 0u) << "plan for seed " << seed << " never fired";
  if (stats.dropped_requests + stats.dropped_responses > 0) {
    EXPECT_GT(session->metrics()->storage_retries, 0u);
  }

  // Invariant 1: committed balances match the model exactly and the total
  // is conserved (no lost committed writes, no resurrected aborted ones).
  {
    Transaction txn(session.get());
    ASSERT_OK(txn.Begin());
    double total = 0;
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_OK_AND_ASSIGN(auto row,
                           txn.Read(accounts, account_rids[static_cast<size_t>(i)]));
      ASSERT_TRUE(row.has_value());
      EXPECT_NEAR(row->GetDouble(1), expected[static_cast<size_t>(i)], 1e-6)
          << "account " << i;
      total += row->GetDouble(1);
    }
    EXPECT_NEAR(total, kAccounts * kInitialBalance, 1e-6);

    // Invariant 2: every pooled tag resolves to exactly the modelled order
    // (no stale unique-index entries, no lost ones).
    for (int k = 0; k < kTagPool; ++k) {
      const std::string tag = "tag" + std::to_string(k);
      ASSERT_OK_AND_ASSIGN(auto rids,
                           test::RidsUnderKey(&txn, orders, 0, {Value(tag)}));
      auto it = live_tags.find(tag);
      if (it == live_tags.end()) {
        EXPECT_TRUE(rids.empty()) << "stale index entry under " << tag;
      } else {
        ASSERT_EQ(rids.size(), 1u) << "tag " << tag;
        EXPECT_EQ(rids[0], it->second);
      }
    }
    ASSERT_OK(txn.Commit());
    committed.insert(txn.tid());
  }

  // Invariant 3: no dangling uncommitted versions. Every version in the
  // store belongs to a committed transaction, except reverts the rollback
  // path explicitly abandoned (counted in tx.rollback_unresolved).
  uint64_t dangling = 0;
  for (const auto* meta : {accounts->meta, orders->meta}) {
    ASSERT_OK_AND_ASSIGN(auto cells,
                         test::ScanCells(*db.cluster(), meta->data_table));
    for (const auto& cell : cells) {
      if (cell.key.size() != 8) continue;  // meta cells (rid counter)
      ASSERT_OK_AND_ASSIGN(auto record,
                           schema::VersionedRecord::Deserialize(cell.value));
      for (const auto& version : record.versions()) {
        if (committed.count(version.version)) continue;
        EXPECT_TRUE(aborted.count(version.version))
            << "version from unknown tid " << version.version;
        ++dangling;
      }
    }
  }
  EXPECT_LE(dangling, session->metrics()->rollback_unresolved)
      << "aborted versions in the store beyond the ones rollback reported "
         "unresolved";
}

// ---------------------------------------------------------------------------
// Commit-manager path under injected faults (delta-protocol begins now run
// through the fault-injectable, retry-covered client like storage requests)
// ---------------------------------------------------------------------------

TEST(CommitMgrFaultTest, BeginRetriesThroughDroppedStarts) {
  sim::FaultInjector injector(
      FaultPlan{.seed = 5,
                .rules = {FaultRule{.kind = FaultRule::Kind::kDropRequest,
                                    .op = FaultOpClass::kCommitMgrStart,
                                    .probability = 1.0,
                                    .max_fires = 2}}});
  injector.Disarm();
  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  options.fault_injector = &injector;
  db::TellDb db(options);
  auto session = db.OpenSession(0, 0);

  injector.Arm();
  Transaction txn(session.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK(txn.Commit());
  injector.Disarm();

  EXPECT_EQ(injector.stats().dropped_requests, 2u);
  EXPECT_GE(session->metrics()->cm_retries, 2u);
}

TEST(CommitMgrFaultTest, AmbiguousBeginDoesNotLeakTids) {
  // A begin whose response is lost was already executed at the manager: the
  // retried begin re-sends the same start token and must get the original
  // tid back instead of leaking an active entry that pins the snapshot base
  // (and thus the GC horizon) forever.
  sim::FaultInjector injector(
      FaultPlan{.seed = 7,
                .rules = {FaultRule{.kind = FaultRule::Kind::kDropResponse,
                                    .op = FaultOpClass::kCommitMgrStart,
                                    .probability = 1.0,
                                    .max_fires = 1}}});
  injector.Disarm();
  db::TellDbOptions options;
  options.network = sim::NetworkModel::Instant();
  options.fault_injector = &injector;
  db::TellDb db(options);
  auto session = db.OpenSession(0, 0);

  injector.Arm();
  Transaction txn(session.get());
  ASSERT_OK(txn.Begin());
  ASSERT_OK(txn.Commit());
  injector.Disarm();
  ASSERT_EQ(injector.stats().dropped_responses, 1u);

  // Flush any finish notification still riding with the next begin, then
  // check nothing is pinning the base: it must equal the last tid issued.
  Transaction probe(session.get());
  ASSERT_OK(probe.Begin());
  ASSERT_OK(probe.Commit());
  session->commitmgr_client()->FlushPendingAccounting();
  commitmgr::CommitManager* cm = db.commit_managers()->manager(0);
  EXPECT_EQ(cm->CurrentSnapshot().base(), probe.tid())
      << "a lost begin response leaked an active tid";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSuite,
                         ::testing::Values(uint64_t{0x5EED0001},
                                           uint64_t{0x5EED0002},
                                           uint64_t{0x5EED0003}));

}  // namespace
}  // namespace tell::tx
