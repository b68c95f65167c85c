// Tests for the observability layer: metrics registry registration, gauges
// and worker absorption, histogram percentiles, phase tracing attribution,
// JSON export round-trip and the docs/METRICS.md coverage contract.
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/bench_export.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/histogram.h"
#include "sim/metrics.h"
#include "sim/virtual_clock.h"

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
  EXPECT_EQ(registry.metrics()[0].unit, "ops");
  EXPECT_TRUE(registry.Find("x").has_value());
  EXPECT_FALSE(registry.Find("y").has_value());
}

TEST(MetricsRegistryTest, GaugesAreAbsolute) {
  obs::MetricsRegistry registry(/*builtins=*/false);
  obs::MetricId g = registry.AddGauge("test.gauge", "items", "test");
  registry.SetGauge(g, 7);
  registry.SetGauge(g, 5);  // last write wins, no accumulation
  EXPECT_EQ(registry.Snapshot().Scalar("test.gauge"),
            std::optional<uint64_t>(5));
  EXPECT_TRUE(registry.SetGauge("test.gauge", 9));
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

}  // namespace
}  // namespace tell
