// Tests for the observability layer: metrics registry registration, gauges
// and worker absorption, histogram percentiles, phase tracing attribution,
// JSON export round-trip and the docs/METRICS.md coverage contract.
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "obs/bench_export.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/histogram.h"
#include "sim/metrics.h"
#include "sim/virtual_clock.h"
#include "tests/test_util.h"
#include "workload/tpcc/tpcc_driver.h"
#include "workload/tpcc/tpcc_loader.h"

namespace tell {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough for the exporter's output (objects,
// arrays, strings with the writer's escapes, numbers, bools).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char e = text_[pos_++];
        switch (e) {
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u':
            // The writer only emits \u00xx for control bytes; decode as-is.
            if (pos_ + 4 > text_.size()) return false;
            out->push_back(static_cast<char>(
                std::stoi(text_.substr(pos_, 4), nullptr, 16)));
            pos_ += 4;
            break;
          default: out->push_back(e);
        }
      } else {
        out->push_back(c);
      }
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = JsonValue::kObject;
      SkipWs();
      if (Consume('}')) return true;
      while (true) {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        if (Consume(',')) continue;
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out->type = JsonValue::kArray;
      SkipWs();
      if (Consume(']')) return true;
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->array.push_back(std::move(value));
        if (Consume(',')) continue;
        return Consume(']');
      }
    }
    if (c == '"') {
      out->type = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->type = JsonValue::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->type = JsonValue::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return false;
    out->type = JsonValue::kNumber;
    out->number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, RegistrationIsIdempotentAndKindChecked) {
  obs::MetricsRegistry registry(/*builtins=*/false);
  obs::MetricId a = registry.AddCounter("x", "ops", "first");
  obs::MetricId b = registry.AddCounter("x", "other", "second");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.metrics().size(), 1u);
  EXPECT_EQ(registry.metrics()[0].name, "x");
  EXPECT_EQ(registry.metrics()[0].unit, "ops");
}

TEST(MetricsRegistryTest, GaugesAreAbsolute) {
  obs::MetricsRegistry registry(/*builtins=*/false);
  registry.AddGauge("test.gauge", "items", "test");
  EXPECT_TRUE(registry.SetGauge("test.gauge", 7));
  EXPECT_TRUE(registry.SetGauge("test.gauge", 5));  // last write wins
  EXPECT_EQ(registry.Snapshot().Scalar("test.gauge"),
            std::optional<uint64_t>(5));
  EXPECT_FALSE(registry.SetGauge("missing", 1));
}

TEST(MetricsRegistryTest, AbsorbsWorkerMetricsThroughDescriptorTables) {
  obs::MetricsRegistry registry;  // builtin catalog
  sim::WorkerMetrics worker;
  worker.committed = 11;
  worker.aborted = 3;
  worker.buffer_hits = 5;
  worker.response_time.Record(1000);
  worker.phase_ns[static_cast<size_t>(sim::TxnPhase::kCommit)].Record(42);
  registry.AbsorbWorker(worker);
  registry.AbsorbWorker(worker);  // accumulates like WorkerMetrics::Merge

  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Scalar("tx.committed"), std::optional<uint64_t>(22));
  EXPECT_EQ(snapshot.Scalar("tx.aborted"), std::optional<uint64_t>(6));
  EXPECT_EQ(snapshot.Scalar("buffer.hits"), std::optional<uint64_t>(10));
  const sim::Histogram* resp = snapshot.Hist("tx.response_time");
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->count(), 2u);
  const sim::Histogram* commit = snapshot.Hist("tx.phase.commit");
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->count(), 2u);
}

// ---------------------------------------------------------------------------
// Histogram percentiles
// ---------------------------------------------------------------------------

TEST(HistogramTest, PercentilesWithinBucketError) {
  sim::Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10000u);
  EXPECT_NEAR(h.Mean(), 5000.5, 0.5);
  // 4 buckets per doubling => <= ~19% relative bucket error.
  for (double p : {50.0, 95.0, 99.0}) {
    double exact = p / 100.0 * 10000.0;
    double approx = static_cast<double>(h.Percentile(p));
    EXPECT_NEAR(approx, exact, exact * 0.19)
        << "p" << p << " = " << approx << " vs exact " << exact;
  }
  EXPECT_LE(h.Percentile(50), h.Percentile(95));
  EXPECT_LE(h.Percentile(95), h.Percentile(99));
}

TEST(HistogramTest, MergePreservesMoments) {
  sim::Histogram a, b;
  for (uint64_t v = 1; v <= 100; ++v) a.Record(v);
  for (uint64_t v = 101; v <= 200; ++v) b.Record(v);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 200u);
  EXPECT_NEAR(a.Mean(), 100.5, 1e-9);
}

// ---------------------------------------------------------------------------
// TxnTracer
// ---------------------------------------------------------------------------

TEST(TxnTracerTest, NestedSpansAttributeExclusively) {
  sim::VirtualClock clock;
  sim::WorkerMetrics metrics;
  obs::TxnTracer tracer(&clock, &metrics);

  tracer.BeginTxn();
  tracer.Enter(sim::TxnPhase::kRead);
  clock.Advance(100);
  tracer.Enter(sim::TxnPhase::kIndexLookup);  // suspends kRead
  clock.Advance(50);
  tracer.Exit();
  clock.Advance(25);
  tracer.Exit();
  clock.Advance(10);  // outside any span: unattributed
  tracer.Enter(sim::TxnPhase::kCommit);
  clock.Advance(5);
  tracer.Exit();

  EXPECT_EQ(tracer.accumulated_ns(sim::TxnPhase::kRead), 125u);
  EXPECT_EQ(tracer.accumulated_ns(sim::TxnPhase::kIndexLookup), 50u);
  EXPECT_EQ(tracer.accumulated_ns(sim::TxnPhase::kCommit), 5u);
  EXPECT_EQ(tracer.depth(), 0u);

  tracer.EndTxn();
  auto count_of = [&](sim::TxnPhase p) {
    return metrics.phase_ns[static_cast<size_t>(p)].count();
  };
  EXPECT_EQ(count_of(sim::TxnPhase::kRead), 1u);
  EXPECT_EQ(count_of(sim::TxnPhase::kIndexLookup), 1u);
  EXPECT_EQ(count_of(sim::TxnPhase::kCommit), 1u);
  EXPECT_EQ(count_of(sim::TxnPhase::kWrite), 0u);
  // One sample per phase per transaction; the mean IS the attributed time.
  EXPECT_NEAR(
      metrics.phase_ns[static_cast<size_t>(sim::TxnPhase::kRead)].Mean(), 125,
      1e-9);

  tracer.EndTxn();  // idempotent (abort path + destructor both call it)
  EXPECT_EQ(count_of(sim::TxnPhase::kRead), 1u);
}

TEST(TxnTracerTest, SpansOutsideTransactionAreNoOps) {
  sim::VirtualClock clock;
  sim::WorkerMetrics metrics;
  obs::TxnTracer tracer(&clock, &metrics);
  {
    obs::PhaseScope scope(&tracer, sim::TxnPhase::kRead);
    clock.Advance(100);
  }
  tracer.EndTxn();
  EXPECT_EQ(metrics.phase_ns[static_cast<size_t>(sim::TxnPhase::kRead)].count(),
            0u);
}

TEST(TxnTracerTest, BeginTxnResetsPreviousAccumulation) {
  sim::VirtualClock clock;
  sim::WorkerMetrics metrics;
  obs::TxnTracer tracer(&clock, &metrics);
  tracer.BeginTxn();
  {
    obs::PhaseScope scope(&tracer, sim::TxnPhase::kValidate);
    clock.Advance(30);
  }
  tracer.EndTxn();
  tracer.BeginTxn();
  EXPECT_EQ(tracer.accumulated_ns(sim::TxnPhase::kValidate), 0u);
  tracer.EndTxn();
  EXPECT_EQ(
      metrics.phase_ns[static_cast<size_t>(sim::TxnPhase::kValidate)].count(),
      1u);
}

// ---------------------------------------------------------------------------
// JSON export round-trip
// ---------------------------------------------------------------------------

TEST(BenchExportTest, JsonRoundTrip) {
  obs::MetricsRegistry registry;
  sim::WorkerMetrics worker;
  worker.committed = 42;
  worker.response_time.Record(5000);
  worker.response_time.Record(7000);
  registry.AbsorbWorker(worker);
  registry.SetGauge("commitmgr.commits", 42);

  obs::BenchReport report("roundtrip");
  report.AddConfig("mix", "write \"intensive\"\n");
  obs::BenchRun run;
  run.label = "r0";
  run.derived.emplace_back("tpmc", 123.5);
  run.snapshot = registry.Snapshot();
  run.nodes.push_back({"sn0", {{"gets", 9}}});
  report.AddRun(std::move(run));

  JsonValue doc;
  ASSERT_TRUE(JsonParser(report.ToJson()).Parse(&doc));
  ASSERT_EQ(doc.type, JsonValue::kObject);
  EXPECT_EQ(doc.Get("schema_version")->number, 1);
  EXPECT_EQ(doc.Get("bench")->str, "roundtrip");
  EXPECT_EQ(doc.Get("config")->Get("mix")->str, "write \"intensive\"\n");

  const JsonValue* runs = doc.Get("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const JsonValue& r = runs->array[0];
  EXPECT_EQ(r.Get("label")->str, "r0");
  EXPECT_EQ(r.Get("derived")->Get("tpmc")->number, 123.5);
  EXPECT_EQ(r.Get("counters")->Get("tx.committed")->number, 42);
  EXPECT_EQ(r.Get("gauges")->Get("commitmgr.commits")->number, 42);
  const JsonValue* resp = r.Get("histograms")->Get("tx.response_time");
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->Get("count")->number, 2);
  EXPECT_EQ(resp->Get("unit")->str, "ns");
  EXPECT_EQ(resp->Get("min")->number, 5000);
  EXPECT_EQ(resp->Get("max")->number, 7000);
  EXPECT_NEAR(resp->Get("mean")->number, 6000, 1e-6);
  EXPECT_EQ(r.Get("nodes")->Get("sn0")->Get("gets")->number, 9);

  // Every registered metric appears in the run, even untouched ones.
  size_t emitted = r.Get("counters")->object.size() +
                   r.Get("gauges")->object.size() +
                   r.Get("histograms")->object.size();
  EXPECT_EQ(emitted, registry.metrics().size());
}

TEST(BenchExportTest, WriteFileRoundTrip) {
  obs::MetricsRegistry registry;
  obs::BenchReport report("file_roundtrip");
  obs::BenchRun run;
  run.label = "only";
  run.snapshot = registry.Snapshot();
  report.AddRun(std::move(run));

  std::string dir = ::testing::TempDir();
  auto path = report.WriteFile(dir);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_NE(path->find("BENCH_file_roundtrip.json"), std::string::npos);

  std::ifstream in(*path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(buffer.str()).Parse(&doc));
  EXPECT_EQ(doc.Get("bench")->str, "file_roundtrip");
  ASSERT_EQ(doc.Get("runs")->array.size(), 1u);
  EXPECT_EQ(doc.Get("runs")->array[0].Get("label")->str, "only");
}

// ---------------------------------------------------------------------------
// docs/METRICS.md coverage: the builtin catalog and the document must list
// exactly the same metric names (both directions).
// ---------------------------------------------------------------------------

TEST(MetricsDocTest, DocumentCoversRegistryExactly) {
  std::string path = std::string(TELL_SOURCE_DIR) + "/docs/METRICS.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;

  // Documented names: the first `backticked` token of each table row.
  std::set<std::string> documented;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    size_t start = line.find('`') + 1;
    size_t end = line.find('`', start);
    ASSERT_NE(end, std::string::npos) << "malformed row: " << line;
    documented.insert(line.substr(start, end - start));
  }

  std::set<std::string> registered;
  obs::MetricsRegistry registry;  // builtin catalog
  for (const obs::MetricDef& def : registry.metrics()) {
    registered.insert(def.name);
  }

  for (const std::string& name : registered) {
    EXPECT_TRUE(documented.count(name))
        << "metric " << name << " is registered but missing from "
        << "docs/METRICS.md";
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(registered.count(name))
        << "docs/METRICS.md documents " << name
        << " which is not registered (stale doc?)";
  }
}

// docs/RUNTIME.md names the executor's scheduler gauges inline; every
// `exec.*` token it mentions must exist in the registry (so the runtime
// doc cannot drift from the catalog), and the registry's exec.* gauges
// must all be mentioned (the doc promises the complete list).
TEST(MetricsDocTest, RuntimeDocExecGaugesMatchRegistry) {
  std::string path = std::string(TELL_SOURCE_DIR) + "/docs/RUNTIME.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;

  std::set<std::string> mentioned;
  std::string line;
  while (std::getline(in, line)) {
    size_t pos = 0;
    while ((pos = line.find("`exec.", pos)) != std::string::npos) {
      size_t start = pos + 1;
      size_t end = line.find('`', start);
      if (end == std::string::npos) break;
      std::string token = line.substr(start, end - start);
      // Skip prose references like `exec.*`; keep concrete gauge names.
      if (token.find('*') == std::string::npos) mentioned.insert(token);
      pos = end + 1;
    }
  }
  ASSERT_FALSE(mentioned.empty()) << "docs/RUNTIME.md no longer names the "
                                  << "exec.* gauges";

  std::set<std::string> registered;
  obs::MetricsRegistry registry;
  for (const obs::MetricDef& def : registry.metrics()) {
    if (def.name.rfind("exec.", 0) == 0) registered.insert(def.name);
  }

  for (const std::string& name : mentioned) {
    EXPECT_TRUE(registered.count(name))
        << "docs/RUNTIME.md mentions " << name
        << " which is not a registered gauge";
  }
  for (const std::string& name : registered) {
    EXPECT_TRUE(mentioned.count(name))
        << "exec gauge " << name << " is missing from docs/RUNTIME.md";
  }
}

// docs/RECOVERY.md promises the complete list of replication/migration
// observability: every concrete `commitmgr.repl.*`, `store.migration.*`
// and `fault.leader_kills` token it mentions must be a registered gauge,
// and every such registered gauge must be mentioned in the document.
TEST(MetricsDocTest, RecoveryDocGaugesMatchRegistry) {
  std::string path = std::string(TELL_SOURCE_DIR) + "/docs/RECOVERY.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;

  const char* kPrefixes[] = {"commitmgr.repl.", "store.migration.",
                             "fault.leader_kills"};
  std::set<std::string> mentioned;
  std::string line;
  while (std::getline(in, line)) {
    size_t pos = 0;
    while ((pos = line.find('`', pos)) != std::string::npos) {
      size_t start = pos + 1;
      size_t end = line.find('`', start);
      if (end == std::string::npos) break;
      std::string token = line.substr(start, end - start);
      if (token.find('*') == std::string::npos) {
        for (const char* prefix : kPrefixes) {
          if (token.rfind(prefix, 0) == 0) {
            mentioned.insert(token);
            break;
          }
        }
      }
      pos = end + 1;
    }
  }
  ASSERT_FALSE(mentioned.empty()) << "docs/RECOVERY.md no longer names the "
                                  << "replication/migration gauges";

  std::set<std::string> registered;
  obs::MetricsRegistry registry;
  for (const obs::MetricDef& def : registry.metrics()) {
    for (const char* prefix : kPrefixes) {
      if (def.name.rfind(prefix, 0) == 0) {
        registered.insert(def.name);
        break;
      }
    }
  }

  for (const std::string& name : mentioned) {
    EXPECT_TRUE(registered.count(name))
        << "docs/RECOVERY.md mentions " << name
        << " which is not a registered gauge";
  }
  for (const std::string& name : registered) {
    EXPECT_TRUE(mentioned.count(name))
        << "gauge " << name << " is missing from docs/RECOVERY.md";
  }
}

// ---------------------------------------------------------------------------
// The node-side catalogue: every gauge and node-row key is pinned, and each
// summed gauge equals the sum of its per-node rows.
// ---------------------------------------------------------------------------

struct PinnedGauge {
  const char* name;
  const char* unit;
  const char* help;
};

// Every builtin gauge, in catalogue order. Changing one changes the
// "gauges" object of every bench artifact.
const PinnedGauge kPinnedGauges[] = {
      {"store.node.gets", "ops", "Get requests served by storage nodes"},
      {"store.node.puts", "ops", "unconditional Put requests served"},
      {"store.node.conditional_puts", "ops",
       "store-conditional Put requests served"},
      {"store.node.llsc_failures", "ops",
       "store-conditionals rejected by stamp mismatch (server-side)"},
      {"store.node.erases", "ops", "erase writes (conditional or not) served"},
      {"store.node.scans", "ops", "scan requests served"},
      {"store.node.cells_scanned", "cells",
       "cells examined while serving scans"},
      {"store.node.atomic_increments", "ops",
       "atomic counter increments served"},
      {"store.node.stripe_conflicts", "acquisitions",
       "stripe-lock acquisitions that found the lock held (collisions)"},
      {"store.node.lock_wait_ns", "ns",
       "wall-clock time threads spent blocked on stripe locks"},
      {"store.migration.started", "migrations",
       "live partition migrations started"},
      {"store.migration.completed", "migrations",
       "live partition migrations completed (master moved)"},
      {"store.migration.cells_copied", "cells",
       "cells moved by migration bulk copies"},
      {"store.migration.delta_rounds", "rounds",
       "migration catch-up delta rounds (including the sealed final round)"},
      {"store.migration.delta_cells", "cells",
       "put cells shipped by migration catch-up deltas"},
      {"store.migration.erases_applied", "erases",
       "journaled erases applied on migration destinations"},
      {"commitmgr.starts", "txns", "start() calls served"},
      {"commitmgr.commits", "txns", "setCommitted() calls served"},
      {"commitmgr.aborts", "txns", "setAborted() calls served"},
      {"commitmgr.syncs", "rounds", "peer synchronization rounds"},
      {"commitmgr.tid_range_refills", "refills",
       "tid ranges acquired from the storage counter"},
      {"commitmgr.delta_starts", "txns",
       "delta-protocol starts answered with an incremental snapshot delta"},
      {"commitmgr.full_starts", "txns",
       "delta-protocol starts answered with the full descriptor"},
      {"commitmgr.repl.log_appends", "records",
       "change records appended to replication logs by slot leaders"},
      {"commitmgr.repl.log_bytes", "bytes",
       "wire bytes of appended change records"},
      {"commitmgr.repl.snapshots", "snapshots",
       "replica-state snapshots installed into replication logs"},
      {"commitmgr.repl.log_truncated", "records",
       "change records truncated below a log snapshot"},
      {"commitmgr.repl.snapshot_installs", "snapshots",
       "log snapshots installed into follower state (catch-up shortcuts)"},
      {"commitmgr.repl.records_replayed", "records",
       "change records replayed by followers catching up"},
      {"commitmgr.repl.elections", "elections",
       "leader elections run by commit-manager slots"},
      {"commitmgr.repl.term", "term",
       "highest election term reached by any slot"},
      {"store.cache.entries", "entries",
       "entries held by client record caches"},
      {"store.cache.evictions", "entries",
       "entries evicted from client record caches (LRU/capacity)"},
      {"store.cache.invalidations", "entries",
       "cache entries dropped because their partition's lease epoch moved"},
      {"index.cache.inner_entries", "entries",
       "inner B+tree nodes held by per-PN node caches"},
      {"index.cache.inner_hits", "nodes",
       "descent steps served an inner node by a node cache"},
      {"index.cache.inner_misses", "nodes",
       "node-cache probes for an inner node that found none"},
      {"index.cache.inner_evictions", "nodes",
       "inner nodes evicted from node caches (LRU/capacity)"},
      {"index.cache.leaf_entries", "entries",
       "B+tree leaf images held by per-PN node caches"},
      {"index.cache.leaf_hits", "lookups",
       "unique-key point lookups a cached leaf image answered"},
      {"index.cache.leaf_misses", "lookups",
       "unique-key point lookups that found no cached leaf image"},
      {"index.cache.leaf_evictions", "leaves",
       "leaf images evicted from node caches (LRU/capacity)"},
      {"index.cache.leaf_stale", "lookups",
       "unique-key point lookups whose cached leaf image was stale"},
      {"buffer.shared.hits", "reads", "shared-buffer probes served locally"},
      {"buffer.shared.misses", "reads",
       "shared-buffer probes that fetched from storage"},
      {"buffer.shared.evictions", "records", "records evicted (LRU/capacity)"},
      {"buffer.shared.write_throughs", "records",
       "commit write-throughs into the shared buffer"},
      {"gc.records_rewritten", "records",
       "records rewritten with pruned version chains by lazy GC sweeps"},
      {"gc.versions_removed", "versions",
       "record versions removed by lazy GC sweeps"},
      {"gc.records_erased", "records",
       "empty records erased by lazy GC sweeps"},
      {"gc.index_entries_removed", "entries",
       "obsolete index entries removed by lazy GC sweeps"},
      {"gc.log_entries_truncated", "entries",
       "transaction log entries truncated below the lav"},
      {"exec.threads", "threads", "executor threads the runtime ran with"},
      {"exec.tasks", "tasks", "tasks run to completion"},
      {"exec.yields", "yields",
       "task suspensions (park points / cooperative yields)"},
      {"exec.steals", "tasks", "tasks stolen from another core's run queue"},
      {"exec.parks", "parks", "executor threads sleeping on an empty queue"},
      {"exec.unparks", "wakeups", "wakeups issued to parked executor threads"},
      {"exec.run_queue_peak", "tasks", "peak run-queue depth on any core"},
      {"exec.busy_ns", "ns",
       "wall-clock time executor threads spent inside task code (summed)"},
      {"exec.wall_ns", "ns", "wall-clock duration of the executor run"},
      {"fault.requests_seen", "requests",
       "storage requests evaluated by the fault injector"},
      {"fault.injected", "faults", "fault-rule firings of any kind"},
      {"fault.dropped_requests", "requests",
       "requests dropped before reaching storage (injected)"},
      {"fault.dropped_responses", "requests",
       "responses dropped after execution (injected, ambiguous outcome)"},
      {"fault.latency_spikes", "requests",
       "requests charged an injected latency spike"},
      {"fault.node_kills", "nodes",
       "storage nodes crash-stopped by the fault plan"},
      {"fault.leader_kills", "kills",
       "commit-manager leaders crash-stopped by the fault plan"},
};

TEST(NodeStatsCatalogTest, BuiltinGaugesArePinned) {
  using Def = std::tuple<std::string, std::string, std::string>;
  std::vector<Def> registered;
  obs::MetricsRegistry registry;
  for (const obs::MetricDef& def : registry.metrics()) {
    if (def.kind == obs::MetricKind::kGauge) {
      registered.emplace_back(def.name, def.unit, def.help);
    }
  }
  std::vector<Def> pinned;
  for (const PinnedGauge& g : kPinnedGauges) {
    pinned.emplace_back(g.name, g.unit, g.help);
  }
  EXPECT_EQ(registered, pinned);
}

/// A node row's kind: its label without the node number ("pn1.cache" ->
/// "pn.cache").
std::string RowKind(const std::string& label) {
  std::string kind;
  for (char c : label) {
    if (!std::isdigit(static_cast<unsigned char>(c))) kind.push_back(c);
  }
  return kind;
}

TEST(NodeStatsCatalogTest, NodeRowsArePinnedAndSumToTheirGauges) {
  // Two PNs with the shared record buffer and the record cache, so the
  // storage-node, commit-manager, buffer and cache counters all move.
  db::TellDbOptions options;
  options.num_processing_nodes = 2;
  options.network = sim::NetworkModel::Instant();
  options.buffer_strategy = db::BufferStrategy::kSharedRecord;
  options.record_cache.enabled = true;
  db::TellDb db(options);
  tpcc::TpccScale scale;
  scale.warehouses = 2;
  scale.districts_per_warehouse = 3;
  scale.customers_per_district = 12;
  scale.items = 50;
  scale.initial_orders_per_district = 9;
  ASSERT_OK(tpcc::CreateTpccTables(&db));
  ASSERT_OK(tpcc::LoadTpcc(&db, scale));
  tpcc::TellBackend backend(&db);
  tpcc::DriverOptions driver;
  driver.scale = scale;
  driver.num_workers = 2;
  driver.duration_virtual_ms = 20;
  driver.executor_threads = 1;
  driver.pin_cores = false;
  ASSERT_OK_AND_ASSIGN(tpcc::DriverResult result,
                       tpcc::RunTpcc(&backend, driver));

  obs::MetricsRegistry registry;
  db.ExportStats(&registry);
  exec::ExportStats(result.exec_stats, &registry);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  obs::NodeRows rows = db.PerNodeStats();
  for (auto& row : exec::PerCoreRows(result.exec_stats)) {
    rows.push_back(std::move(row));
  }

  // Row kind -> (gauge prefix, row keys).
  const std::map<std::string, std::pair<std::string, std::set<std::string>>>
      kPinnedRows = {
          {"sn",
           {"store.node.",
            {"gets", "puts", "conditional_puts", "llsc_failures", "erases",
             "scans", "cells_scanned", "atomic_increments",
             "stripe_conflicts", "lock_wait_ns"}}},
          {"cm",
           {"commitmgr.",
            {"starts", "commits", "aborts", "syncs", "tid_range_refills",
             "delta_starts", "full_starts"}}},
          {"pn.buffer",
           {"buffer.shared.", {"hits", "misses", "evictions",
                               "write_throughs"}}},
          {"pn.cache",
           {"store.cache.",
            {"hits", "misses", "evictions", "invalidations", "entries"}}},
          {"exec",
           {"exec.",
            {"tasks_completed", "steals", "yields", "parks", "unparks",
             "busy_ns", "queue_peak"}}},
      };
  std::set<std::string> gauges;
  for (const obs::MetricDef& def : snapshot.metrics()) {
    if (def.kind == obs::MetricKind::kGauge) gauges.insert(def.name);
  }
  std::map<std::string, uint64_t> sums;  // gauge name -> sum over rows
  std::set<std::string> kinds;
  for (const auto& [label, row] : rows) {
    const std::string kind = RowKind(label);
    kinds.insert(kind);
    auto pinned = kPinnedRows.find(kind);
    ASSERT_NE(pinned, kPinnedRows.end()) << label;
    std::set<std::string> keys;
    for (const auto& [key, value] : row) {
      keys.insert(key);
      const std::string gauge = pinned->second.first + key;
      if (gauges.count(gauge) != 0) sums[gauge] += value;
    }
    EXPECT_EQ(keys, pinned->second.second) << label;
  }
  EXPECT_EQ(kinds.size(), kPinnedRows.size());

  for (const std::string prefix :
       {"store.node.", "commitmgr.", "buffer.shared.", "store.cache."}) {
    for (const auto& [gauge, sum] : sums) {
      if (gauge.rfind(prefix, 0) != 0) continue;
      EXPECT_EQ(snapshot.Scalar(gauge), sum) << gauge;
    }
  }
  for (const char* moved :
       {"store.node.gets", "store.node.conditional_puts", "commitmgr.starts",
        "commitmgr.commits", "buffer.shared.hits",
        "buffer.shared.write_throughs", "store.cache.entries"}) {
    EXPECT_GT(sums[moved], 0u) << moved;
  }
  // One task per worker; the exec<i> rows name the count tasks_completed.
  EXPECT_EQ(snapshot.Scalar("exec.tasks"), driver.num_workers);
}

}  // namespace
}  // namespace tell
