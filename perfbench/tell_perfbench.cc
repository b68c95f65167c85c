// tell_perfbench: the repository benchmark. Deterministic TPC-C and
// CH-benCHmark workloads against a Tell cluster, measured on two axes:
//
//   host axis     CPU time the single driver thread spends per operation
//                 (the whole cluster runs on it): what an optimisation of
//                 the code moves;
//   virtual axis  TpmC and response times of the modelled cluster: what a
//                 change to the protocol or the cost model moves.
//
// A run repeats rounds until --seconds have elapsed (at least kMinRounds).
// Each round builds and loads kSetupsPerRound fresh clusters (timed: setup)
// and keeps the last, runs a warm-up, then a fixed, seed-determined stream
// of operations (timed in segments of kSegmentTxns transactions), then reads
// the database back and checks it (untimed). Every round executes the same
// inputs in the same order on one thread, so the virtual numbers repeat
// exactly from round to round; the check asserts that.
//
// On a shared host other tenants slow this thread down, by as much as half:
// in bursts of well under a second, and for minutes at a time. Every round
// repeats the same work, so each short piece of it (one set-up, one segment)
// counts with its quickest repetition in the run, which removes the bursts.
// Each round also times a fixed calibration task three times, and host times
// are scaled by the quickest calibration of the run to a fixed reference
// speed (ScaleToReference), which removes the slow minutes.
//
// Usage:
//   tell_perfbench --workload tpcc_write|tpcc_read|chbench --seed N
//                  --seconds S --trace 0|1
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "db/tell_db.h"
#include "workload/tpcc/tpcc_loader.h"
#include "workload/tpcc/tpcc_schema.h"
#include "workload/tpcc/tpcc_transactions.h"

namespace {

using namespace tell;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  tpcc::Mix mix;
  /// Per-PN record cache plus one-sided reads (the read-path mechanism).
  bool client_cache;
  /// CH-benCHmark: an analytical query after every kOlapEvery transactions,
  /// run as storage-side scan fragments (operator pushdown on).
  bool olap;
  /// Transactions per round, after the warm-up.
  uint32_t timed_txns;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"tpcc_write", tpcc::Mix::kWriteIntensive, false, false, 3000},
    {"tpcc_read", tpcc::Mix::kReadIntensive, true, false, 3000},
    {"chbench", tpcc::Mix::kWriteIntensive, false, true, 3000},
};

constexpr uint32_t kOlapEvery = 25;
/// Timed segment length: a few milliseconds of host work, so that most
/// segments find a quiet moment in some round. A multiple of kOlapEvery, so
/// every chbench segment holds the same number of queries.
constexpr uint32_t kSegmentTxns = kOlapEvery;
constexpr size_t kSetupsPerRound = 2;
constexpr size_t kMinRounds = 3;
/// Hard stop for the round loop, well inside the caller's time limit.
constexpr double kMaxLoopSeconds = 120.0;

/// CH-benCHmark-style aggregates over the order lines. All three are
/// full-scan aggregates, so with pushdown on they run as vectorized scan
/// fragments on the storage nodes.
const char* const kOlapQueries[] = {
    "SELECT ol_number, COUNT(*), SUM(ol_quantity), AVG(ol_amount) "
    "FROM order_line WHERE ol_delivery_d > 0 GROUP BY ol_number",
    "SELECT SUM(ol_amount) FROM order_line "
    "WHERE ol_quantity >= 1 AND ol_quantity <= 5 AND ol_amount > 0.01",
    "SELECT COUNT(*) FROM order_line",
};
constexpr size_t kNumOlapQueries = std::size(kOlapQueries);

tpcc::TpccScale Scale() {
  tpcc::TpccScale scale;
  scale.warehouses = 4;
  scale.districts_per_warehouse = 10;  // Delivery walks districts 1..10
  scale.customers_per_district = 30;
  scale.items = 500;
  scale.initial_orders_per_district = 30;
  return scale;
}

/// Processing node 0 runs the workload; node 1 only reads the database
/// back, so the checks leave node 0's index and record caches untouched.
constexpr uint32_t kWorkPn = 0;
constexpr uint32_t kCheckPn = 1;

db::TellDbOptions OptionsFor(const WorkloadSpec& spec) {
  db::TellDbOptions options;
  options.num_processing_nodes = 2;
  // One commit manager: no background sync thread is needed, and without
  // it the whole cluster runs on the driver thread.
  options.commit_manager_sync_ms = 0;
  options.record_cache.enabled = spec.client_cache;
  options.one_sided_reads = spec.client_cache;
  options.operator_pushdown = spec.olap;
  options.scan_chunk_cells = 256;
  return options;
}

// ---------------------------------------------------------------------------
// Small helpers

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// CPU time of the calling thread. The harness runs the whole cluster on
/// this one thread, so this is the host work an operation costs, without
/// the time the thread waited for a core on a shared machine.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Linear-interpolated percentile of `values` (p in [0, 100]).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

/// FNV-1a over the operation stream of a round; equal digests across the
/// rounds of a run prove they executed identically.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte((v >> (8 * i)) & 0xFF);
  }
  void Add(const std::string& s) {
    for (unsigned char c : s) Byte(c);
    Add(s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  void Byte(uint64_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001B3ULL;
  }
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// ---------------------------------------------------------------------------
// Host speed calibration

uint64_t CalibrationRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// CPU seconds of a fixed task that shares no code with the system under
/// test, so no change to the system moves it: an ordered map of small
/// records (allocation, pointer chasing, copying) plus hashing, the host
/// profile of the database code. Its time tracks how fast the host
/// currently runs such code.
double CalibrationSeconds() {
  const double start = CpuSeconds();
  uint64_t state = 7;
  std::map<uint64_t, std::string> records;
  Digest digest;
  for (int i = 0; i < 60000; ++i) {
    const uint64_t x = CalibrationRandom(&state);
    records[x % 30000].assign(48 + x % 96, static_cast<char>(x));
    auto it = records.lower_bound(CalibrationRandom(&state) % 30000);
    if (it != records.end()) digest.Add(it->second);
  }
  static volatile uint64_t sink;
  sink = digest.value() + records.size();
  return CpuSeconds() - start;
}

/// The calibration time that defines the reference host speed, about the
/// quickest calibration on an otherwise idle 2.1 GHz Xeon vCPU.
constexpr double kReferenceCalibrationS = 0.035;

/// `cpu_s` measured on a host whose quickest calibration took
/// `calibration_s`, scaled to the reference host speed.
double ScaleToReference(double cpu_s, double calibration_s) {
  return cpu_s * Ratio(kReferenceCalibrationS, calibration_s);
}

std::optional<double> NumberOf(const schema::Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) return static_cast<double>(*i);
  if (const auto* d = std::get_if<double>(&v)) return *d;
  return std::nullopt;
}

bool Near(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

const char* const kTxnNames[] = {"new_order", "payment", "delivery",
                                 "order_status", "stock_level"};
constexpr size_t kNumTxnTypes = std::size(kTxnNames);

// ---------------------------------------------------------------------------
// Layer counters

/// What a timed window is measured by: the sessions' counters, the
/// per-phase virtual-time sums of their transaction tracers, and the
/// storage nodes' request counters.
struct CounterSnapshot {
  sim::WorkerMetrics worker;
  std::array<double, sim::kNumTxnPhases> phase_sum_ns{};
  store::StorageNodeStats nodes;

  static CounterSnapshot Take(const std::vector<tx::Session*>& sessions,
                              db::TellDb* db) {
    CounterSnapshot s;
    for (tx::Session* session : sessions) s.worker.Merge(*session->metrics());
    for (size_t p = 0; p < sim::kNumTxnPhases; ++p) {
      const sim::Histogram& h = s.worker.phase_ns[p];
      s.phase_sum_ns[p] = h.Mean() * static_cast<double>(h.count());
    }
    for (uint32_t i = 0; i < db->cluster()->num_nodes(); ++i) {
      s.nodes.Accumulate(db->cluster()->node(i)->stats());
    }
    return s;
  }

  /// Counter `field` accumulated since `before`.
  double Since(const CounterSnapshot& before,
               uint64_t sim::WorkerMetrics::*field) const {
    return static_cast<double>(worker.*field - before.worker.*field);
  }
};

struct RoundResult {
  bool ok = true;
  std::string failure;  // first failed check
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;

  // Host CPU seconds of each set-up, of the loader within it, of each
  // timed segment and of each calibration.
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<double> segment_s;
  std::vector<double> calibration_s;
  uint64_t timed_txns = 0;
  uint64_t timed_queries = 0;

  // Virtual axis (identical in every round of a run).
  double tpmc = 0;
  std::vector<double> op_virtual_ms;  // committed transactions + queries
  double txn_virtual_ns = 0;          // every timed transaction
  std::vector<double> olap_virtual_ms;

  // Host spans per operation kind (filled with --trace 1 only).
  std::array<std::vector<double>, kNumTxnTypes> txn_host_us;
  std::vector<double> olap_host_ms;

  // Layer counters at the edges of the timed window.
  CounterSnapshot oltp_before, oltp_after, olap_before, olap_after;

  void Fail(std::string why) {
    ++failed;
    if (ok) failure = std::move(why);
    ok = false;
  }
};

// ---------------------------------------------------------------------------
// The cluster under test

struct Terminal {
  Terminal(std::unique_ptr<tx::Session> s, const tpcc::TpccTables& tables,
           const tpcc::TpccScale& scale, tpcc::Mix mix, uint64_t seed,
           int64_t home)
      : session(std::move(s)),
        executor(session.get(), tables),
        generator(scale, mix, seed, home) {}

  std::unique_ptr<tx::Session> session;
  tpcc::TpccExecutor executor;
  tpcc::InputGenerator generator;
};

/// What the database must hold, derived from the inputs and outcomes alone.
struct Expected {
  int64_t orders = 0;
  int64_t order_lines = 0;
  int64_t history = 0;
};

/// Answers of the three analytical queries.
struct OlapAnswers {
  // Q1 per ol_number: (count, sum quantity, sum amount) of delivered lines.
  std::map<int64_t, std::tuple<int64_t, int64_t, double>> delivered;
  double selective_revenue = 0;
  int64_t selective_rows = 0;
  int64_t lines = 0;
};

/// Facts read back from one snapshot of the database.
struct DbImage {
  int64_t orders = 0;
  int64_t order_lines = 0;
  int64_t history = 0;
  /// W_YTD, and W_YTD minus the sum of its districts' D_YTD, per warehouse.
  std::map<int64_t, double> w_ytd;
  std::map<int64_t, double> ytd_gap;
  /// Violations of TPC-C consistency conditions 2-4 (clause 3.3.2).
  std::vector<std::string> violations;
  OlapAnswers olap;
};

struct Fixture {
  std::unique_ptr<db::TellDb> db;
  tpcc::TpccTables tables;
  tpcc::TpccTables check_tables;
  std::vector<std::unique_ptr<Terminal>> terminals;
  std::unique_ptr<tx::Session> olap_session;
  std::unique_ptr<tx::Session> check_session;

  std::vector<tx::Session*> OltpSessions() const {
    std::vector<tx::Session*> out;
    for (const auto& t : terminals) out.push_back(t->session.get());
    return out;
  }
};

Status SetUp(const WorkloadSpec& spec, uint64_t seed, Fixture* f,
             double* load_s) {
  const tpcc::TpccScale scale = Scale();
  f->db = std::make_unique<db::TellDb>(OptionsFor(spec));
  TELL_RETURN_NOT_OK(tpcc::CreateTpccTables(f->db.get()));
  const double load_start = CpuSeconds();
  TELL_RETURN_NOT_OK(tpcc::LoadTpcc(f->db.get(), scale, seed));
  *load_s = CpuSeconds() - load_start;
  TELL_ASSIGN_OR_RETURN(f->tables, tpcc::OpenTpccTables(f->db.get(), kWorkPn));
  TELL_ASSIGN_OR_RETURN(f->check_tables,
                        tpcc::OpenTpccTables(f->db.get(), kCheckPn));
  // One terminal per warehouse.
  for (uint32_t w = 0; w < scale.warehouses; ++w) {
    f->terminals.push_back(std::make_unique<Terminal>(
        f->db->OpenSession(kWorkPn, w), f->tables, scale, spec.mix,
        seed * 1000003ULL + w, static_cast<int64_t>(w) + 1));
  }
  f->olap_session = f->db->OpenSession(kWorkPn, scale.warehouses);
  f->check_session = f->db->OpenSession(kCheckPn, scale.warehouses + 1);
  return Status::OK();
}

/// Runs SetUp on `f` and records its host CPU time in `r`.
Status TimedSetUp(const WorkloadSpec& spec, uint64_t seed, Fixture* f,
                  RoundResult* r) {
  double load_s = 0;
  const double start = CpuSeconds();
  Status st = SetUp(spec, seed, f, &load_s);
  r->setup_s.push_back(CpuSeconds() - start);
  r->load_s.push_back(load_s);
  return st;
}

using Rows = std::vector<std::pair<uint64_t, schema::Tuple>>;

Result<Rows> ScanAll(tx::Transaction* txn, tx::TableHandle* table) {
  static const std::string kHigh(16, '\xFF');
  return txn->ScanIndexEncoded(table, -1, "", kHigh, 0);
}

/// Reads every table the workload writes, in one snapshot.
Result<DbImage> ReadBack(Fixture* f) {
  namespace col = tpcc::col;
  const tpcc::TpccTables& t = f->check_tables;
  tx::Transaction txn(f->check_session.get());
  TELL_RETURN_NOT_OK(txn.Begin());
  DbImage image;
  using District = std::pair<int64_t, int64_t>;
  std::map<District, int64_t> next_o_id;
  std::map<District, int64_t> max_o_id;
  std::map<District, int64_t> ol_cnt_sum;
  std::map<District, int64_t> line_count;
  std::map<District, std::tuple<int64_t, int64_t, int64_t>> new_orders;

  TELL_ASSIGN_OR_RETURN(Rows warehouses, ScanAll(&txn, t.warehouse));
  for (const auto& [rid, row] : warehouses) {
    const int64_t w = row.GetInt(col::kWId);
    image.w_ytd[w] = row.GetDouble(col::kWYtd);
    image.ytd_gap[w] += image.w_ytd[w];
  }
  TELL_ASSIGN_OR_RETURN(Rows districts, ScanAll(&txn, t.district));
  for (const auto& [rid, row] : districts) {
    const int64_t w = row.GetInt(col::kDWId);
    image.ytd_gap[w] -= row.GetDouble(col::kDYtd);
    next_o_id[{w, row.GetInt(col::kDId)}] = row.GetInt(col::kDNextOId);
  }
  TELL_ASSIGN_OR_RETURN(Rows orders, ScanAll(&txn, t.orders));
  image.orders = static_cast<int64_t>(orders.size());
  for (const auto& [rid, row] : orders) {
    const District d{row.GetInt(col::kOWId), row.GetInt(col::kODId)};
    max_o_id[d] = std::max(max_o_id[d], row.GetInt(col::kOId));
    ol_cnt_sum[d] += row.GetInt(col::kOOlCnt);
  }
  TELL_ASSIGN_OR_RETURN(Rows pending, ScanAll(&txn, t.new_order));
  for (const auto& [rid, row] : pending) {
    const District d{row.GetInt(col::kNoWId), row.GetInt(col::kNoDId)};
    const int64_t o = row.GetInt(col::kNoOId);
    auto& [lo, hi, n] =
        new_orders.try_emplace(d, o, o, int64_t{0}).first->second;
    lo = std::min(lo, o);
    hi = std::max(hi, o);
    ++n;
  }
  TELL_ASSIGN_OR_RETURN(Rows lines, ScanAll(&txn, t.order_line));
  image.order_lines = static_cast<int64_t>(lines.size());
  image.olap.lines = image.order_lines;
  for (const auto& [rid, row] : lines) {
    ++line_count[{row.GetInt(col::kOlWId), row.GetInt(col::kOlDId)}];
    const int64_t quantity = row.GetInt(col::kOlQuantity);
    const double amount = row.GetDouble(col::kOlAmount);
    const auto* when = std::get_if<int64_t>(&row.at(col::kOlDeliveryD));
    if (when != nullptr && *when > 0) {
      auto& [n, qty, sum] =
          image.olap.delivered[row.GetInt(col::kOlNumber)];
      ++n;
      qty += quantity;
      sum += amount;
    }
    if (quantity >= 1 && quantity <= 5 && amount > 0.01) {
      image.olap.selective_revenue += amount;
      ++image.olap.selective_rows;
    }
  }
  TELL_ASSIGN_OR_RETURN(Rows history, ScanAll(&txn, t.history));
  image.history = static_cast<int64_t>(history.size());
  TELL_RETURN_NOT_OK(txn.Commit());

  auto violation = [&](const District& d, const char* what) {
    image.violations.push_back("district (" + std::to_string(d.first) + "," +
                               std::to_string(d.second) + "): " + what);
  };
  for (const auto& [d, next] : next_o_id) {
    if (next - 1 != max_o_id[d]) {
      violation(d, "D_NEXT_O_ID - 1 != max(O_ID)");
    }
    if (auto it = new_orders.find(d); it != new_orders.end()) {
      const auto& [lo, hi, n] = it->second;
      if (hi != next - 1) violation(d, "max(NO_O_ID) != D_NEXT_O_ID - 1");
      if (hi - lo + 1 != n) violation(d, "NEW-ORDER ids are not contiguous");
    }
    if (ol_cnt_sum[d] != line_count[d]) {
      violation(d, "sum(O_OL_CNT) != count(ORDER-LINE)");
    }
  }
  return image;
}

/// Checks the SQL answer of analytical query `q` against `truth`, computed
/// independently from a scan of the same state.
bool OlapAnswerMatches(size_t q, const sql::ResultSet& rs,
                       const OlapAnswers& truth) {
  if (q == 0) {
    if (rs.rows.size() != truth.delivered.size()) return false;
    for (const schema::Tuple& row : rs.rows) {
      if (row.size() != 4) return false;
      auto number = NumberOf(row.at(0));
      auto count = NumberOf(row.at(1));
      auto quantity = NumberOf(row.at(2));
      auto avg = NumberOf(row.at(3));
      if (!number || !count || !quantity || !avg) return false;
      auto it = truth.delivered.find(static_cast<int64_t>(*number));
      if (it == truth.delivered.end()) return false;
      const auto& [n, qty, sum] = it->second;
      if (*count != static_cast<double>(n) ||
          *quantity != static_cast<double>(qty) ||
          !Near(*avg, sum / static_cast<double>(n))) {
        return false;
      }
    }
    return true;
  }
  if (rs.rows.size() != 1 || rs.rows[0].size() != 1) return false;
  auto value = NumberOf(rs.rows[0].at(0));
  if (q == 1) {
    if (truth.selective_rows == 0) return !value || *value == 0.0;
    return value && Near(*value, truth.selective_revenue);
  }
  return value && *value == static_cast<double>(truth.lines);
}

std::string ResultText(const sql::ResultSet& rs) {
  std::string out;
  for (const schema::Tuple& row : rs.rows) {
    for (const schema::Value& v : row.values()) {
      out += schema::ValueToString(v);
      out += '|';
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// One round

RoundResult RunRound(const WorkloadSpec& spec, uint64_t seed, bool trace) {
  RoundResult r;
  r.calibration_s.push_back(CalibrationSeconds());
  // Set-ups whose cluster is dropped again: only their time is kept.
  for (size_t k = 1; k < kSetupsPerRound; ++k) {
    Fixture spare;
    Status st = TimedSetUp(spec, seed, &spare, &r);
    if (!st.ok()) {
      r.Fail("setup: " + st.ToString());
      return r;
    }
  }
  Fixture f;
  Status st = TimedSetUp(spec, seed, &f, &r);
  if (!st.ok()) {
    r.Fail("setup: " + st.ToString());
    return r;
  }

  auto loaded = ReadBack(&f);
  if (!loaded.ok()) {
    r.Fail("read back after load: " + loaded.status().ToString());
    return r;
  }
  const DbImage& at_load = *loaded;
  Expected expected{at_load.orders, at_load.order_lines, at_load.history};
  r.calibration_s.push_back(CalibrationSeconds());

  Digest digest;
  const size_t num_terminals = f.terminals.size();
  const uint32_t warmup_txns = spec.timed_txns / 10;
  const uint32_t total_txns = warmup_txns + spec.timed_txns;
  std::vector<uint64_t> clock_at_start(num_terminals, 0);
  std::vector<uint64_t> new_orders(num_terminals, 0);
  size_t next_query = 0;
  double segment_start = 0;

  for (uint32_t i = 0; i < total_txns; ++i) {
    const bool timed = i >= warmup_txns;
    if (i == warmup_txns) {
      for (size_t t = 0; t < num_terminals; ++t) {
        clock_at_start[t] = f.terminals[t]->session->clock()->now_ns();
      }
      r.oltp_before = CounterSnapshot::Take(f.OltpSessions(), f.db.get());
      r.olap_before = CounterSnapshot::Take({f.olap_session.get()}, f.db.get());
      segment_start = CpuSeconds();
    } else if (timed && (i - warmup_txns) % kSegmentTxns == 0) {
      const double now = CpuSeconds();
      r.segment_s.push_back(now - segment_start);
      segment_start = now;
    }

    // One transaction on the next terminal, round-robin.
    const size_t terminal = i % num_terminals;
    Terminal& term = *f.terminals[terminal];
    const tpcc::TxnInput input = term.generator.Next();
    const size_t type = static_cast<size_t>(input.type);
    sim::VirtualClock* clock = term.session->clock();
    const uint64_t virtual_start = clock->now_ns();
    const double host_start = trace ? CpuSeconds() : 0.0;
    auto outcome = term.executor.Execute(input);
    if (trace && timed) {
      r.txn_host_us[type].push_back((CpuSeconds() - host_start) * 1e6);
    }
    const uint64_t virtual_ns = clock->now_ns() - virtual_start;
    ++r.attempted;
    const bool rollback =
        input.type == tpcc::TxnType::kNewOrder && input.new_order.rollback;
    if (!outcome.ok()) {
      r.Fail(std::string(kTxnNames[type]) + ": " +
             outcome.status().ToString());
      continue;
    }
    // Single-threaded, so no conflicts: every transaction commits, except
    // the new-orders whose input carries an unused item and must roll back.
    if (outcome->committed == rollback || outcome->user_abort != rollback) {
      r.Fail(std::string(kTxnNames[type]) +
             (rollback ? ": committed an input that must roll back"
                       : ": did not commit"));
      continue;
    }
    digest.Add(type);
    digest.Add(virtual_ns);
    if (outcome->committed) {
      if (input.type == tpcc::TxnType::kNewOrder) {
        ++expected.orders;
        expected.order_lines +=
            static_cast<int64_t>(input.new_order.lines.size());
        if (timed) ++new_orders[terminal];
      } else if (input.type == tpcc::TxnType::kPayment) {
        ++expected.history;
      }
      if (timed) {
        r.op_virtual_ms.push_back(static_cast<double>(virtual_ns) / 1e6);
      }
    }
    if (timed) {
      ++r.timed_txns;
      r.txn_virtual_ns += static_cast<double>(virtual_ns);
    }

    if (!spec.olap || (i + 1) % kOlapEvery != 0) continue;
    // One analytical query, cycling through the set.
    const size_t q = next_query++ % kNumOlapQueries;
    sim::VirtualClock* olap_clock = f.olap_session->clock();
    const uint64_t olap_virtual_start = olap_clock->now_ns();
    const double olap_host_start = trace ? CpuSeconds() : 0.0;
    auto rs = f.db->AutoCommitSql(f.olap_session.get(), kOlapQueries[q]);
    if (trace && timed) {
      r.olap_host_ms.push_back((CpuSeconds() - olap_host_start) * 1e3);
    }
    const uint64_t olap_virtual_ns = olap_clock->now_ns() - olap_virtual_start;
    ++r.attempted;
    if (!rs.ok()) {
      r.Fail(std::string("olap query: ") + rs.status().ToString());
      continue;
    }
    // The table count is known exactly from the committed new-orders.
    if (q == 2) {
      OlapAnswers truth;
      truth.lines = expected.order_lines;
      if (!OlapAnswerMatches(q, *rs, truth)) {
        r.Fail("COUNT(*) FROM order_line disagrees with the committed inserts");
        continue;
      }
    }
    digest.Add(ResultText(*rs));
    digest.Add(olap_virtual_ns);
    if (timed) {
      const double ms = static_cast<double>(olap_virtual_ns) / 1e6;
      r.op_virtual_ms.push_back(ms);
      r.olap_virtual_ms.push_back(ms);
      ++r.timed_queries;
    }
  }
  r.segment_s.push_back(CpuSeconds() - segment_start);
  r.calibration_s.push_back(CalibrationSeconds());
  r.oltp_after = CounterSnapshot::Take(f.OltpSessions(), f.db.get());
  r.olap_after = CounterSnapshot::Take({f.olap_session.get()}, f.db.get());

  for (size_t t = 0; t < num_terminals; ++t) {
    const uint64_t elapsed_ns =
        f.terminals[t]->session->clock()->now_ns() - clock_at_start[t];
    if (elapsed_ns > 0) {
      r.tpmc += static_cast<double>(new_orders[t]) * 60e9 /
                static_cast<double>(elapsed_ns);
    }
  }

  // Read the database back and check it (untimed).
  auto image = ReadBack(&f);
  if (!image.ok()) {
    r.Fail("read back: " + image.status().ToString());
    return r;
  }
  for (const std::string& v : image->violations) r.Fail(v);
  if (image->orders != expected.orders ||
      image->order_lines != expected.order_lines ||
      image->history != expected.history) {
    r.Fail("row counts differ from the committed transactions");
  }
  // Payments add the same amount to W_YTD and D_YTD, so their gap stays as
  // loaded, up to the rounding of summing amounts at W_YTD's magnitude.
  for (const auto& [w, gap] : image->ytd_gap) {
    auto it = at_load.ytd_gap.find(w);
    if (it == at_load.ytd_gap.end() ||
        std::fabs(gap - it->second) > 1e-9 * image->w_ytd[w]) {
      r.Fail("W_YTD != sum(D_YTD) for warehouse " + std::to_string(w));
    }
  }
  if (spec.olap) {
    for (size_t q = 0; q < kNumOlapQueries; ++q) {
      auto rs = f.db->AutoCommitSql(f.olap_session.get(), kOlapQueries[q]);
      if (!rs.ok() || !OlapAnswerMatches(q, *rs, image->olap)) {
        r.Fail("olap query " + std::to_string(q) +
               " disagrees with a scan of the same state");
      }
    }
  }
  digest.Add(static_cast<uint64_t>(image->order_lines));
  r.digest = digest.value();
  return r;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct HostSpeed {
  double setup_s;
  double ops_per_cpu_s;
};

/// Set-up CPU seconds and timed-stream operations per CPU second, at the
/// reference host speed.
HostSpeed QuickestHostSpeed(const std::vector<RoundResult>& rounds) {
  // Host noise only ever adds time, so each set-up and each segment counts
  // with its quickest repetition in the run (see the file comment).
  double setup_s = std::numeric_limits<double>::infinity();
  for (const RoundResult& r : rounds) {
    for (double s : r.setup_s) setup_s = std::min(setup_s, s);
  }
  const RoundResult& first = rounds.front();
  double timed_s = 0;
  for (size_t k = 0; k < first.segment_s.size(); ++k) {
    double quickest = first.segment_s[k];
    for (const RoundResult& r : rounds) {
      if (k < r.segment_s.size()) quickest = std::min(quickest, r.segment_s[k]);
    }
    timed_s += quickest;
  }
  double calibration_s = std::numeric_limits<double>::infinity();
  for (const RoundResult& r : rounds) {
    for (double s : r.calibration_s) {
      calibration_s = std::min(calibration_s, s);
    }
  }
  std::fprintf(stderr,
               "quickest: setup %.6f s, timed stream %.6f s, calibration "
               "%.6f s\n",
               setup_s, timed_s, calibration_s);
  setup_s = ScaleToReference(setup_s, calibration_s);
  timed_s = ScaleToReference(timed_s, calibration_s);
  return {setup_s,
          Ratio(static_cast<double>(first.timed_txns + first.timed_queries),
                timed_s)};
}

std::vector<Metric> EndToEnd(const std::vector<RoundResult>& rounds) {
  const RoundResult& first = rounds.front();
  return {
      {"tpmc", first.tpmc, "1/min"},
      {"virt_mean_ms", Sum(first.op_virtual_ms) /
                           static_cast<double>(first.op_virtual_ms.size()),
       "ms"},
      {"virt_p99_ms", Percentile(first.op_virtual_ms, 99), "ms"},
      {"setup_s", QuickestHostSpeed(rounds).setup_s, "s"},
  };
}

std::vector<Metric> PerLayer(const std::vector<RoundResult>& rounds) {
  std::vector<Metric> out;
  // Host spans around each call into the workload and SQL layers, pooled
  // over all rounds.
  for (size_t type = 0; type < kNumTxnTypes; ++type) {
    std::vector<double> pooled;
    for (const RoundResult& r : rounds) {
      pooled.insert(pooled.end(), r.txn_host_us[type].begin(),
                    r.txn_host_us[type].end());
    }
    out.push_back({std::string("host_") + kTxnNames[type] + "_us",
                   Median(pooled), "us"});
  }
  std::vector<double> olap_host;
  std::vector<double> load;
  for (const RoundResult& r : rounds) {
    olap_host.insert(olap_host.end(), r.olap_host_ms.begin(),
                     r.olap_host_ms.end());
    load.insert(load.end(), r.load_s.begin(), r.load_s.end());
  }
  out.push_back({"host_olap_query_ms", Median(olap_host), "ms"});
  out.push_back({"host_load_s", Median(load), "s"});
  out.push_back(
      {"ops_per_cpu_s", QuickestHostSpeed(rounds).ops_per_cpu_s, "1/s"});

  // Virtual time and counts repeat exactly in every round: take round one.
  const RoundResult& r = rounds.front();
  const double txns = static_cast<double>(r.timed_txns);
  const double queries = static_cast<double>(r.timed_queries);
  const CounterSnapshot& a = r.oltp_after;
  const CounterSnapshot& b = r.oltp_before;
  // Mean virtual time per transaction in each tracer phase; the rest of the
  // mean response time is time no phase covers.
  double phases_us = 0;
  for (size_t p = 0; p < sim::kNumTxnPhases; ++p) {
    const double us = (a.phase_sum_ns[p] - b.phase_sum_ns[p]) / txns / 1e3;
    phases_us += us;
    out.push_back(
        {std::string("virt_") + sim::kTxnPhaseNames[p] + "_us", us, "us"});
  }
  out.push_back(
      {"virt_unattributed_us", r.txn_virtual_ns / txns / 1e3 - phases_us,
       "us"});
  out.push_back({"virt_olap_query_ms",
                 Ratio(Sum(r.olap_virtual_ms), queries), "ms"});

  using W = sim::WorkerMetrics;
  auto per_txn = [&](uint64_t W::*field) { return a.Since(b, field) / txns; };
  out.push_back(
      {"store_requests_per_txn", per_txn(&W::storage_requests), "count"});
  out.push_back({"store_ops_per_txn", per_txn(&W::storage_ops), "count"});
  out.push_back({"net_bytes_per_txn",
                 per_txn(&W::bytes_sent) + per_txn(&W::bytes_received), "B"});
  out.push_back(
      {"commitmgr_msgs_per_txn", per_txn(&W::cm_messages), "count"});
  out.push_back({"commitmgr_bytes_per_txn", per_txn(&W::cm_bytes), "B"});
  out.push_back(
      {"index_lookups_per_txn", per_txn(&W::index_lookups), "count"});
  out.push_back(
      {"txlog_appends_per_txn", per_txn(&W::log_appends), "count"});
  out.push_back(
      {"llsc_failures", a.Since(b, &W::llsc_failures), "count"});
  out.push_back({"aborted_txns", a.Since(b, &W::aborted), "count"});
  const double hits = a.Since(b, &W::cache_hits);
  const double misses = a.Since(b, &W::cache_misses);
  out.push_back({"cache_hits", hits, "count"});
  out.push_back({"cache_hit_ratio", Ratio(hits, hits + misses), "ratio"});
  out.push_back(
      {"onesided_reads", a.Since(b, &W::onesided_reads), "count"});

  // Storage-node side of the same window (includes the analytical session).
  const store::StorageNodeStats& na = r.olap_after.nodes;
  const store::StorageNodeStats& nb = r.oltp_before.nodes;
  auto node_delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  out.push_back(
      {"sn_gets_per_txn", node_delta(na.gets, nb.gets) / txns, "count"});
  out.push_back({"sn_puts_per_txn",
                 (node_delta(na.puts, nb.puts) +
                  node_delta(na.conditional_puts, nb.conditional_puts)) /
                     txns,
                 "count"});
  out.push_back({"sn_cells_scanned",
                 node_delta(na.cells_scanned, nb.cells_scanned), "count"});

  // Analytical session: scan fragments and what they shipped.
  const CounterSnapshot& oa = r.olap_after;
  const CounterSnapshot& ob = r.olap_before;
  auto per_query = [&](uint64_t W::*field) {
    return Ratio(oa.Since(ob, field), queries);
  };
  out.push_back(
      {"olap_bytes_per_query", per_query(&W::bytes_received), "B"});
  out.push_back({"scan_rows_scanned_per_query",
                 per_query(&W::scan_rows_scanned), "count"});
  out.push_back({"scan_rows_returned_per_query",
                 per_query(&W::scan_rows_returned), "count"});
  out.push_back({"scan_chunk_lock_releases",
                 oa.Since(ob, &W::scan_chunk_lock_releases), "count"});
  return out;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: tell_perfbench --workload "
               "tpcc_write|tpcc_read|chbench --seed N --seconds S "
               "--trace 0|1\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  std::optional<uint64_t> seed;
  double seconds = 0;
  int trace = -1;
  if (argc % 2 != 1) return Usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) spec = &w;
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0') return Usage("bad --seconds");
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") == 0   ? 0
              : std::strcmp(value, "1") == 0 ? 1
                                             : -1;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (spec == nullptr) return Usage("unknown or missing --workload");
  if (!seed) return Usage("missing --seed");
  if (!(seconds > 0)) return Usage("--seconds must be positive");
  if (trace < 0) return Usage("--trace must be 0 or 1");

  std::vector<RoundResult> rounds;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  const Clock::time_point start = Clock::now();
  do {
    rounds.push_back(RunRound(*spec, *seed, trace == 1));
    const RoundResult& r = rounds.back();
    attempted += r.attempted;
    failed += r.failed;
    if (!r.ok) {
      std::fprintf(stderr, "round %zu failed: %s\n", rounds.size(),
                   r.failure.c_str());
      correct = false;
      break;
    }
    if (r.digest != rounds.front().digest) {
      std::fprintf(stderr, "round %zu diverged from round 1\n",
                   rounds.size());
      correct = false;
      break;
    }
    std::fprintf(stderr,
                 "round %zu: setup %.4f s (quickest of %zu), %llu ops in "
                 "%.4f s\n",
                 rounds.size(),
                 *std::min_element(r.setup_s.begin(), r.setup_s.end()),
                 r.setup_s.size(),
                 static_cast<unsigned long long>(r.timed_txns +
                                                 r.timed_queries),
                 Sum(r.segment_s));
  } while ((rounds.size() < kMinRounds ||
            Seconds(start, Clock::now()) < seconds) &&
           Seconds(start, Clock::now()) < kMaxLoopSeconds);

  PrintResult(correct, attempted, failed,
              trace == 1 ? PerLayer(rounds) : EndToEnd(rounds));
  return 0;
}
