#include <gtest/gtest.h>

#include "schema/schema.h"
#include "schema/tuple.h"
#include "schema/versioned_record.h"
#include "tests/test_util.h"

namespace tell::schema {
namespace {

Schema MakeSchema() {
  return SchemaBuilder()
      .AddInt64("id")
      .AddString("name")
      .AddDouble("balance")
      .SetPrimaryKey({"id"})
      .Build();
}

TEST(SchemaTest, ColumnLookup) {
  Schema schema = MakeSchema();
  ASSERT_OK_AND_ASSIGN(uint32_t idx, schema.ColumnIndex("balance"));
  EXPECT_EQ(idx, 2u);
  EXPECT_TRUE(schema.ColumnIndex("nope").status().IsNotFound());
  ASSERT_EQ(schema.primary_key().size(), 1u);
  EXPECT_EQ(schema.primary_key()[0], 0u);
}

TEST(TupleTest, SerializeRoundTrip) {
  Schema schema = MakeSchema();
  Tuple tuple(3);
  tuple.Set(0, int64_t{42});
  tuple.Set(1, std::string("alice"));
  tuple.Set(2, 3.5);
  ASSERT_OK_AND_ASSIGN(Tuple copy,
                       Tuple::Deserialize(schema, tuple.Serialize(schema)));
  EXPECT_EQ(copy.Serialize(schema), tuple.Serialize(schema));
  EXPECT_EQ(copy.GetInt(0), 42);
  EXPECT_EQ(copy.GetString(1), "alice");
  EXPECT_EQ(copy.GetDouble(2), 3.5);
}

TEST(TupleTest, NullsSurviveRoundTrip) {
  Schema schema = MakeSchema();
  Tuple tuple(3);
  tuple.Set(0, int64_t{1});
  // name and balance stay NULL.
  ASSERT_OK_AND_ASSIGN(Tuple copy,
                       Tuple::Deserialize(schema, tuple.Serialize(schema)));
  EXPECT_TRUE(ValueIsNull(copy.at(1)));
  EXPECT_TRUE(ValueIsNull(copy.at(2)));
}

TEST(TupleTest, CompareValuesOrdering) {
  EXPECT_LT(CompareValues(Value(int64_t{1}), Value(int64_t{2})), 0);
  EXPECT_EQ(CompareValues(Value(int64_t{2}), Value(2.0)), 0);
  EXPECT_GT(CompareValues(Value(std::string("b")), Value(std::string("a"))),
            0);
  // NULL sorts first.
  EXPECT_LT(CompareValues(Value(std::monostate{}), Value(int64_t{0})), 0);
}

TEST(IndexKeyTest, IntKeysOrderPreserving) {
  auto key = [](int64_t v) {
    return *EncodeIndexKeyValues({Value(v)});
  };
  EXPECT_LT(key(-5), key(0));
  EXPECT_LT(key(0), key(1));
  EXPECT_LT(key(255), key(256));
}

TEST(IndexKeyTest, CompositeKeysOrderPreserving) {
  auto key = [](int64_t a, const std::string& b) {
    return *EncodeIndexKeyValues({Value(a), Value(b)});
  };
  EXPECT_LT(key(1, "zzz"), key(2, "aaa"));
  EXPECT_LT(key(1, "aaa"), key(1, "aab"));
}

TEST(IndexKeyTest, DoubleKeysOrderPreserving) {
  auto key = [](double v) { return *EncodeIndexKeyValues({Value(v)}); };
  EXPECT_LT(key(-10.5), key(-1.0));
  EXPECT_LT(key(-1.0), key(0.0));
  EXPECT_LT(key(0.0), key(0.5));
  EXPECT_LT(key(0.5), key(100.25));
}

TEST(IndexKeyTest, NullSortsFirst) {
  // NULLs are indexable in secondary indexes; they sort before all values.
  ASSERT_OK_AND_ASSIGN(std::string null_key,
                       EncodeIndexKeyValues({Value(std::monostate{})}));
  ASSERT_OK_AND_ASSIGN(std::string int_key,
                       EncodeIndexKeyValues({Value(int64_t{INT64_MIN})}));
  EXPECT_LT(null_key, int_key);
}

TEST(IndexKeyTest, EmbeddedNulByteRejected) {
  std::string bad("a\0b", 3);
  EXPECT_FALSE(EncodeIndexKeyValues({Value(bad)}).ok());
}

TEST(IndexKeyTest, FromTupleSelectsColumns) {
  Tuple tuple(3);
  tuple.Set(0, int64_t{7});
  tuple.Set(1, std::string("x"));
  tuple.Set(2, 1.0);
  ASSERT_OK_AND_ASSIGN(std::string from_tuple, EncodeIndexKey(tuple, {0, 1}));
  ASSERT_OK_AND_ASSIGN(
      std::string direct,
      EncodeIndexKeyValues({Value(int64_t{7}), Value(std::string("x"))}));
  EXPECT_EQ(from_tuple, direct);
}

// ---------------------------------------------------------------------------
// VersionedRecord

TEST(VersionedRecordTest, VisibleVersionPicksHighestInSnapshot) {
  VersionedRecord record;
  record.PutVersion(5, "v5");
  record.PutVersion(10, "v10");
  record.PutVersion(20, "v20");

  SnapshotDescriptor snapshot(12);
  const RecordVersion* v = record.VisibleVersion(snapshot);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->payload, "v10");
}

TEST(VersionedRecordTest, OwnTidVisible) {
  VersionedRecord record;
  record.PutVersion(5, "v5");
  record.PutVersion(99, "mine");
  SnapshotDescriptor snapshot(10);
  const RecordVersion* v = record.VisibleVersion(snapshot, /*own_tid=*/99);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->payload, "mine");
}

TEST(VersionedRecordTest, NothingVisibleBeforeFirstVersion) {
  VersionedRecord record;
  record.PutVersion(50, "v");
  SnapshotDescriptor snapshot(10);
  EXPECT_EQ(record.VisibleVersion(snapshot), nullptr);
}

TEST(VersionedRecordTest, VersionsStaySorted) {
  VersionedRecord record;
  record.PutVersion(10, "b");
  record.PutVersion(5, "a");
  record.PutVersion(20, "c");
  ASSERT_EQ(record.NumVersions(), 3u);
  EXPECT_EQ(record.versions()[0].version, 5u);
  EXPECT_EQ(record.versions()[2].version, 20u);
}

TEST(VersionedRecordTest, RemoveVersion) {
  VersionedRecord record;
  record.PutVersion(5, "a");
  record.PutVersion(10, "b");
  EXPECT_TRUE(record.RemoveVersion(5));
  EXPECT_FALSE(record.RemoveVersion(5));
  EXPECT_EQ(record.NumVersions(), 1u);
}

TEST(VersionedRecordTest, GarbageCollectionKeepsNewestVisibleToAll) {
  VersionedRecord record;
  record.PutVersion(5, "a");
  record.PutVersion(10, "b");
  record.PutVersion(20, "c");
  // lav = 15: versions 5 and 10 are visible to all; only max(C)=10 stays.
  EXPECT_EQ(record.CollectGarbage(15), 1u);
  ASSERT_EQ(record.NumVersions(), 2u);
  EXPECT_EQ(record.versions()[0].version, 10u);
  EXPECT_EQ(record.versions()[1].version, 20u);
}

TEST(VersionedRecordTest, GcKeepsAtLeastOneVersion) {
  VersionedRecord record;
  record.PutVersion(5, "a");
  record.PutVersion(10, "b");
  // Everything below lav: max(C) must survive (§5.4: at least one version
  // of the item always remains).
  EXPECT_EQ(record.CollectGarbage(100), 1u);
  ASSERT_EQ(record.NumVersions(), 1u);
  EXPECT_EQ(record.versions()[0].version, 10u);
}

TEST(VersionedRecordTest, GcNoopWhenNothingCollectable) {
  VersionedRecord record;
  record.PutVersion(50, "a");
  record.PutVersion(60, "b");
  EXPECT_EQ(record.CollectGarbage(10), 0u);
  EXPECT_EQ(record.NumVersions(), 2u);
}

TEST(VersionedRecordTest, TombstoneVisibleAsDeleted) {
  VersionedRecord record;
  record.PutVersion(5, "v");
  record.PutVersion(10, "", /*tombstone=*/true);
  SnapshotDescriptor snapshot(20);
  const RecordVersion* v = record.VisibleVersion(snapshot);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->tombstone);
  // Older snapshot still sees the record alive.
  SnapshotDescriptor old_snapshot(7);
  const RecordVersion* old_v = record.VisibleVersion(old_snapshot);
  ASSERT_NE(old_v, nullptr);
  EXPECT_FALSE(old_v->tombstone);
}

TEST(VersionedRecordTest, DeadAtDetectsCollectableTombstone) {
  VersionedRecord record;
  record.PutVersion(5, "v");
  record.PutVersion(10, "", /*tombstone=*/true);
  EXPECT_FALSE(record.DeadAt(7));   // delete not yet visible to all
  EXPECT_TRUE(record.DeadAt(10));   // everyone sees the tombstone
}

TEST(VersionedRecordTest, SerializationRoundTrip) {
  VersionedRecord record;
  record.PutVersion(5, "hello");
  record.PutVersion(9, "", true);
  ASSERT_OK_AND_ASSIGN(VersionedRecord copy,
                       VersionedRecord::Deserialize(record.Serialize()));
  ASSERT_EQ(copy.NumVersions(), 2u);
  EXPECT_EQ(copy.versions()[0].payload, "hello");
  EXPECT_TRUE(copy.versions()[1].tombstone);
}

TEST(VersionedRecordTest, CorruptBytesRejected) {
  EXPECT_FALSE(VersionedRecord::Deserialize("garbage!").ok());
}

}  // namespace
}  // namespace tell::schema
