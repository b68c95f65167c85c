// Extension bench: operator push-down (paper §5.2 — implemented here as the
// paper's "promising direction for future work"). An analytical query with
// a selective WHERE over a large table: without push-down the PN pulls the
// whole table over the network ("data is shipped to the query"); with
// push-down the aggregate runs as vectorized scan fragments on the storage
// nodes and only O(groups) partial states travel.
// Quick mode: set TELL_PUSHDOWN_QUICK=1 (the ctest round trip).
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"

using namespace tell;
using namespace tell::bench;

namespace {

void Populate(db::TellDb* db, int rows) {
  auto session = db->OpenSession(0, 0);
  auto table = *db->GetTable(0, "events");
  tx::Transaction* txn = nullptr;
  std::unique_ptr<tx::Transaction> owner;
  Random rng(3);
  for (int i = 0; i < rows; ++i) {
    if (i % 512 == 0) {
      if (owner) (void)owner->Commit();
      owner = std::make_unique<tx::Transaction>(session.get());
      (void)owner->Begin();
      txn = owner.get();
    }
    schema::Tuple row(3);
    row.Set(0, static_cast<int64_t>(i));
    row.Set(1, rng.UniformInt(0, 99));  // selectivity knob
    row.Set(2, rng.AlphaString(120, 120));
    (void)txn->Insert(table, row, false);
  }
  if (owner) (void)owner->Commit();
}

}  // namespace

int main() {
  PrintHeader("Extension", "Operator push-down (§5.2, future work implemented)",
              "pushing selection into the storage layer reduces the result "
              "set size and the amount of data sent over the network — the "
              "prerequisite for efficient mixed (OLTP+OLAP) workloads");

  const bool quick = std::getenv("TELL_PUSHDOWN_QUICK") != nullptr;
  const int kRows = quick ? 1500 : 8000;
  const int kQueries = quick ? 2 : 5;
  BenchJson json("ablation_pushdown");
  json.AddConfig("rows", static_cast<uint64_t>(kRows));
  json.AddConfig("queries", static_cast<uint64_t>(kQueries));
  std::printf("%-10s %14s %14s %16s\n", "pushdown", "MB received",
              "requests", "virtual ms/query");
  for (bool pushdown : {false, true}) {
    db::TellDbOptions options;
    options.num_storage_nodes = 7;
    options.operator_pushdown = pushdown;
    db::TellDb db(options);
    if (!db.ExecuteDdl("CREATE TABLE events (id INT, class INT, payload "
                       "VARCHAR(120), PRIMARY KEY (id))")
             .ok()) {
      return 1;
    }
    Populate(&db, kRows);
    auto session = db.OpenSession(0, 1);
    uint64_t bytes_before = session->metrics()->bytes_received;
    uint64_t requests_before = session->metrics()->storage_requests;
    uint64_t t0 = session->clock()->now_ns();
    for (int q = 0; q < kQueries; ++q) {
      // Selective analytical query: ~3% of the table matches.
      auto result = db.AutoCommitSql(
          session.get(),
          "SELECT COUNT(*), AVG(id) FROM events WHERE class < 3");
      if (!result.ok()) {
        std::fprintf(stderr, "query: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
    }
    double mb_received =
        static_cast<double>(session->metrics()->bytes_received -
                            bytes_before) /
        (1 << 20);
    uint64_t requests =
        session->metrics()->storage_requests - requests_before;
    double virtual_ms_per_query =
        static_cast<double>(session->clock()->now_ns() - t0) / 1e6 / kQueries;
    std::printf("%-10s %14.2f %14llu %16.2f\n", pushdown ? "on" : "off",
                mb_received, static_cast<unsigned long long>(requests),
                virtual_ms_per_query);
    json.AddMetrics(
        pushdown ? "pushdown_on" : "pushdown_off", *session->metrics(),
        {{"mb_received", mb_received},
         {"query_requests", static_cast<double>(requests)},
         {"virtual_ms_per_query", virtual_ms_per_query},
         // Vectorized-scan accounting (0 with pushdown off, whose scan
         // pushes nothing down): cells examined on the nodes vs partial
         // states shipped, and the response bytes the fragment path avoided.
         {"rows_scanned",
          static_cast<double>(session->metrics()->scan_rows_scanned)},
         {"rows_returned",
          static_cast<double>(session->metrics()->scan_rows_returned)},
         {"bytes_saved",
          static_cast<double>(session->metrics()->scan_bytes_saved)}});
  }
  std::printf("\nshape checks: push-down cuts transferred bytes by roughly "
              "the query's selectivity and shortens the query.\n");
  json.Write();
  PrintFooter();
  return 0;
}
