// Request-path tests: how StorageClient::BatchGet / BatchWrite travel on
// default options.
//
// Three layers:
//   1. Coalescing: the ops of one call become one message per storage node.
//   2. Virtual-time accounting: messages to distinct nodes overlap, so a
//      call charges its slowest message, not the sum
//      (store.pipeline.overlap_saved_ns).
//   3. Fault-injection interaction: injection and accounting observe the
//      same coalesced message — a dropped message charges no response
//      bytes and counts once in fault.requests_seen; ops still retry one by
//      one, including the ambiguous lost-response resolution for
//      conditional writes and its re-read.
//
// The randomized chaos suite (fault_injection_test.cc) runs the same path
// end to end.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/fault_injector.h"
#include "store/storage_client.h"
#include "tests/test_util.h"

namespace tell::store {
namespace {

using sim::FaultInjector;
using sim::FaultOpClass;
using sim::FaultPlan;
using sim::FaultRule;

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    ClusterOptions options;
    options.num_storage_nodes = 4;
    cluster_ = std::make_unique<Cluster>(options);
    table_ = *cluster_->CreateTable("t");
  }

  std::unique_ptr<StorageClient> MakeClient(const ClientOptions& options) {
    return std::make_unique<StorageClient>(cluster_.get(), nullptr, options,
                                           &clock_, &metrics_);
  }

  /// First `count` keys mastered by pairwise-distinct storage nodes.
  std::vector<std::string> KeysOnDistinctNodes(size_t count) {
    std::vector<std::string> keys;
    std::set<uint32_t> used;
    for (int i = 0; keys.size() < count && i < 1000; ++i) {
      std::string key = "key" + std::to_string(i);
      uint32_t master = cluster_->RouteFor(table_, key)->placement.master;
      if (used.insert(master).second) keys.push_back(key);
    }
    EXPECT_EQ(keys.size(), count);
    return keys;
  }

  /// First `count` keys mastered by one single storage node.
  std::vector<std::string> KeysOnOneNode(size_t count) {
    std::map<uint32_t, std::vector<std::string>> by_master;
    for (int i = 0; i < 1000; ++i) {
      std::string key = "key" + std::to_string(i);
      uint32_t master = cluster_->RouteFor(table_, key)->placement.master;
      auto& bucket = by_master[master];
      bucket.push_back(key);
      if (bucket.size() == count) return bucket;
    }
    ADD_FAILURE() << "could not find " << count << " co-located keys";
    return {};
  }

  std::unique_ptr<Cluster> cluster_;
  sim::VirtualClock clock_;
  sim::WorkerMetrics metrics_;
  TableId table_;
};

TEST_F(PipelineTest, FlushCoalescesIntoOneMessagePerNode) {
  ClientOptions options;
  options.cpu.per_op_ns = 0;
  auto client = MakeClient(options);

  std::vector<GetOp> ops;
  std::set<uint32_t> masters;
  for (int i = 0; i < 16; ++i) {
    std::string key = "key" + std::to_string(i);
    ASSERT_OK(client->Write({.table = table_, .key = key,
                             .value = "v" + std::to_string(i),
                             .conditional = false}).status());
    ops.push_back({table_, key});
    masters.insert(cluster_->RouteFor(table_, key)->placement.master);
  }
  ASSERT_GT(masters.size(), 1u);

  const sim::WorkerMetrics before = metrics_;
  auto results = client->BatchGet(ops);
  // One coalesced message per distinct master node, not one per op.
  EXPECT_EQ(metrics_.storage_requests - before.storage_requests,
            masters.size());
  EXPECT_EQ(metrics_.pipeline_flushes - before.pipeline_flushes, 1u);
  EXPECT_EQ(metrics_.batch_size.count() - before.batch_size.count(),
            masters.size());
  EXPECT_EQ(metrics_.pipeline_in_flight.count() -
                before.pipeline_in_flight.count(),
            1u);
  ASSERT_EQ(results.size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(VersionedCell cell, results[i]);
    EXPECT_EQ(cell.value, "v" + std::to_string(i));
  }
}

TEST_F(PipelineTest, FlushChargesSlowestMessageNotSum) {
  ClientOptions options;
  options.cpu.per_op_ns = 0;

  std::vector<std::string> keys = KeysOnDistinctNodes(4);
  std::vector<GetOp> ops;
  {
    auto seeder = MakeClient(options);
    for (const std::string& key : keys) {
      ASSERT_OK(seeder->Write({.table = table_, .key = key, .value = "v",
                               .conditional = false}).status());
      ops.push_back({table_, key});
    }
  }

  sim::VirtualClock single_clock, batch_clock;
  sim::WorkerMetrics single_metrics, batch_metrics;
  StorageClient single_client(cluster_.get(), nullptr, options, &single_clock,
                              &single_metrics);
  StorageClient batch_client(cluster_.get(), nullptr, options, &batch_clock,
                             &batch_metrics);

  for (const std::string& key : keys) {
    ASSERT_OK(single_client.Get(table_, key).status());
  }
  for (const auto& result : batch_client.BatchGet(ops)) {
    ASSERT_OK(result.status());
  }

  // 4 messages to 4 distinct nodes overlap: the batch costs the slowest
  // single message, far below 4 serial round trips.
  EXPECT_LT(batch_clock.now_ns(), single_clock.now_ns() / 2);
  EXPECT_GT(batch_metrics.pipeline_overlap_saved_ns, 0u);
  EXPECT_EQ(batch_clock.now_ns() + batch_metrics.pipeline_overlap_saved_ns,
            single_clock.now_ns());
}

TEST_F(PipelineTest, DroppedCoalescedMessageRetriesPerOp) {
  FaultInjector injector(FaultPlan{
      .seed = 11,
      .rules = {FaultRule{.kind = FaultRule::Kind::kDropRequest,
                          .op = FaultOpClass::kGet,
                          .probability = 1.0,
                          .max_fires = 1}}});
  injector.Disarm();

  ClientOptions options;
  options.fault_injector = &injector;
  auto client = MakeClient(options);
  std::vector<GetOp> ops;
  for (const std::string& key : KeysOnOneNode(3)) {
    ASSERT_OK(client->Write({.table = table_, .key = key, .value = "v",
                             .conditional = false}).status());
    ops.push_back({table_, key});
  }

  injector.Arm();
  auto results = client->BatchGet(ops);
  injector.Disarm();

  // The one coalesced message was dropped; every op rode through its own
  // retry and still succeeded.
  EXPECT_EQ(injector.stats().dropped_requests, 1u);
  for (const auto& result : results) {
    ASSERT_OK_AND_ASSIGN(VersionedCell cell, result);
    EXPECT_EQ(cell.value, "v");
  }
  EXPECT_GE(metrics_.storage_retries, 3u);
  EXPECT_EQ(metrics_.storage_retries_exhausted, 0u);
}

TEST_F(PipelineTest, AmbiguousConditionalPutOnCoalescedMessageIsResolved) {
  FaultInjector injector(FaultPlan{
      .seed = 12,
      .rules = {FaultRule{.kind = FaultRule::Kind::kDropResponse,
                          .op = FaultOpClass::kConditionalPut,
                          .probability = 1.0,
                          .max_fires = 1}}});
  injector.Disarm();

  ClientOptions options;
  options.fault_injector = &injector;
  auto client = MakeClient(options);
  std::vector<std::string> keys = KeysOnOneNode(2);
  ASSERT_OK_AND_ASSIGN(uint64_t stamp, client->Write({.table = table_,
                                                      .key = keys[0],
                                                      .value = "v1",
                                                      .conditional = false}));
  ASSERT_OK(client->Write({.table = table_, .key = keys[1], .value = "other",
                           .conditional = false}).status());

  // The coalesced message carries a conditional put AND a plain put; the
  // rule matches the message because ANY contained op matches, and the lost
  // response makes both ops ambiguous.
  injector.Arm();
  auto results = client->BatchWrite(
      {WriteOp{.table = table_,
               .key = keys[0],
               .value = "v2",
               .expected_stamp = stamp},
       WriteOp{.table = table_,
               .key = keys[1],
               .value = "other2",
               .conditional = false}});
  injector.Disarm();

  EXPECT_EQ(injector.stats().dropped_responses, 1u);
  // The write applied before the response was lost: the resolver's re-read
  // recognizes our value and settles the op with the new stamp instead of
  // blindly re-issuing (which would fail the LL/SC check on its own write).
  ASSERT_OK_AND_ASSIGN(uint64_t new_stamp, results[0]);
  ASSERT_OK_AND_ASSIGN(VersionedCell after, client->Get(table_, keys[0]));
  EXPECT_EQ(after.value, "v2");
  EXPECT_EQ(after.stamp, new_stamp);
  EXPECT_GE(metrics_.ambiguous_resolved, 1u);
  ASSERT_OK(results[1].status());
  ASSERT_OK_AND_ASSIGN(VersionedCell other, client->Get(table_, keys[1]));
  EXPECT_EQ(other.value, "other2");
}

// Network accounting and fault injection observe the SAME message. A
// dropped coalesced request charges its request bytes (it was sent) but zero
// response bytes, and the injector sees one message — not one probe per
// logical op (which would both skew rule windows and charge response bytes
// for data that never arrived).
TEST_F(PipelineTest, DroppedMessageChargesNoResponseBytes) {
  FaultInjector injector(FaultPlan{
      .seed = 13,
      .rules = {FaultRule{.kind = FaultRule::Kind::kDropRequest,
                          .op = FaultOpClass::kGet,
                          .probability = 1.0,
                          .max_fires = 1}}});
  injector.Disarm();

  ClientOptions options;
  options.retry.max_attempts = 1;  // fail fast: no re-issue to muddy bytes
  options.fault_injector = &injector;
  auto client = MakeClient(options);
  std::vector<GetOp> ops;
  for (const std::string& key : KeysOnOneNode(3)) {
    ASSERT_OK(client->Write({.table = table_, .key = key,
                             .value = std::string(512, 'x'),
                             .conditional = false}).status());
    ops.push_back({table_, key});
  }

  injector.Arm();
  uint64_t sent = metrics_.bytes_sent;
  uint64_t received = metrics_.bytes_received;
  uint64_t seen = injector.stats().requests_seen;
  auto results = client->BatchGet(ops);
  injector.Disarm();

  // One message seen and dropped; request bytes charged, response bytes not.
  EXPECT_EQ(injector.stats().requests_seen - seen, 1u);
  EXPECT_EQ(injector.stats().dropped_requests, 1u);
  EXPECT_GT(metrics_.bytes_sent, sent);
  EXPECT_EQ(metrics_.bytes_received, received);
  for (const auto& result : results) {
    EXPECT_TRUE(result.status().IsUnavailable());
  }
  EXPECT_EQ(metrics_.storage_retries_exhausted, 3u);
}

// The re-read that settles an ambiguous erase is charged like any Get: its
// response carries the cell it found. A dropped erase never executed, so the
// re-read finds the full value and the erase is re-issued.
TEST_F(PipelineTest, AmbiguousEraseChargesTheReReadsResponse) {
  FaultInjector injector(FaultPlan{
      .seed = 14,
      .rules = {FaultRule{.kind = FaultRule::Kind::kDropRequest,
                          .op = FaultOpClass::kErase,
                          .probability = 1.0,
                          .max_fires = 1}}});
  injector.Disarm();

  ClientOptions options;
  options.fault_injector = &injector;
  auto client = MakeClient(options);
  ASSERT_OK(client->Write(
      {.table = table_, .key = "k", .value = std::string(1024, 'x'),
       .conditional = false}).status());

  injector.Arm();
  const uint64_t received = metrics_.bytes_received;
  ASSERT_OK(client->Write({.table = table_, .key = "k", .conditional = false,
                           .erase = true}).status());
  injector.Disarm();

  EXPECT_EQ(injector.stats().dropped_requests, 1u);
  // The dropped message brought nothing back, and the re-issued erase
  // rides the retry loop uncharged: only the re-read's 1 KiB + 8 arrive.
  EXPECT_EQ(metrics_.bytes_received - received, 1024u + 8u);
  EXPECT_TRUE(client->Get(table_, "k").status().IsNotFound());
}

}  // namespace
}  // namespace tell::store
