#include "obs/metrics_registry.h"

#include "common/logging.h"

namespace tell::obs {

namespace {

struct BuiltinGauge {
  const char* name;
  const char* unit;
  const char* help;
};

/// Node-side stats exported by db::TellDb::ExportStats. Aggregated across
/// nodes so the metric names are fixed; the JSON exporter additionally
/// carries a per-node breakdown outside the registry.
const BuiltinGauge kBuiltinGauges[] = {
    // StorageNode request counters, summed over all SNs.
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
    // Live partition migration totals (management node; docs/RECOVERY.md).
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
    // CommitManager counters, summed over the group.
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
    // Commit-manager replication totals (docs/RECOVERY.md; all zero with
    // replicas=1).
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
    // Client record cache totals (store/record_cache.h), summed over
    // processing nodes; per-worker hit/miss counters live in
    // store.cache.hits / store.cache.misses. All zero with the cache off.
    {"store.cache.entries", "entries",
     "entries held by client record caches"},
    {"store.cache.evictions", "entries",
     "entries evicted from client record caches (LRU/capacity)"},
    {"store.cache.invalidations", "entries",
     "cache entries dropped because their partition's lease epoch moved"},
    // Per-PN B+tree node caches, summed over processing nodes.
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
    // Shared record buffer (SB/SBVS) stats, summed over processing nodes.
    {"buffer.shared.hits", "reads", "shared-buffer probes served locally"},
    {"buffer.shared.misses", "reads",
     "shared-buffer probes that fetched from storage"},
    {"buffer.shared.evictions", "records", "records evicted (LRU/capacity)"},
    {"buffer.shared.write_throughs", "records",
     "commit write-throughs into the shared buffer"},
    // Lazy GC sweep totals (admin-side; eager GC is the worker counter
    // gc.eager_versions_removed).
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
    // Executor scheduler totals (exec::Runtime::stats, exported by
    // exec::ExportStats after a run under the thread-per-core runtime; all
    // zero under the legacy thread-per-worker drivers).
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
    // Fault-injection totals (sim::FaultInjector::stats, when a fault plan
    // is attached to the database; all zero otherwise).
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

}  // namespace

MetricsRegistry::MetricsRegistry(bool builtins) {
  if (!builtins) return;
  for (const sim::WorkerCounterField& f : sim::WorkerCounterFields()) {
    AddCounter(f.name, f.unit, f.help);
  }
  for (const sim::WorkerHistogramField& f : sim::WorkerHistogramFields()) {
    AddHistogram(f.name, f.unit, f.help);
  }
  for (const BuiltinGauge& g : kBuiltinGauges) {
    AddGauge(g.name, g.unit, g.help);
  }
}

MetricId MetricsRegistry::AddMetric(std::string name, std::string unit,
                                    std::string help, MetricKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (MetricId id = 0; id < defs_.size(); ++id) {
    if (defs_[id].name == name) {
      TELL_CHECK(defs_[id].kind == kind);
      return id;
    }
  }
  MetricId id = static_cast<MetricId>(defs_.size());
  defs_.push_back({std::move(name), std::move(unit), std::move(help), kind});
  if (kind == MetricKind::kHistogram) {
    hist_index_.push_back(static_cast<int32_t>(num_hists_++));
  } else {
    hist_index_.push_back(-1);
  }
  gauges_.push_back(0);
  return id;
}

MetricId MetricsRegistry::AddCounter(std::string name, std::string unit,
                                     std::string help) {
  return AddMetric(std::move(name), std::move(unit), std::move(help),
                   MetricKind::kCounter);
}

MetricId MetricsRegistry::AddGauge(std::string name, std::string unit,
                                   std::string help) {
  return AddMetric(std::move(name), std::move(unit), std::move(help),
                   MetricKind::kGauge);
}

MetricId MetricsRegistry::AddHistogram(std::string name, std::string unit,
                                       std::string help) {
  return AddMetric(std::move(name), std::move(unit), std::move(help),
                   MetricKind::kHistogram);
}

bool MetricsRegistry::SetGauge(std::string_view name, uint64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (MetricId id = 0; id < defs_.size(); ++id) {
    if (defs_[id].name == name && defs_[id].kind == MetricKind::kGauge) {
      gauges_[id] = value;
      return true;
    }
  }
  return false;
}

void MetricsRegistry::AbsorbWorker(const sim::WorkerMetrics& metrics) {
  std::lock_guard<std::mutex> lock(mutex_);
  absorbed_.Merge(metrics);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.defs_ = defs_;
  snap.hist_index_ = hist_index_;
  snap.scalars_.assign(defs_.size(), 0);
  snap.hists_.assign(num_hists_, sim::Histogram());

  for (MetricId id = 0; id < defs_.size(); ++id) {
    if (defs_[id].kind == MetricKind::kGauge) snap.scalars_[id] = gauges_[id];
  }
  // Absorbed worker metrics, mapped through the shared descriptor tables.
  for (const sim::WorkerCounterField& f : sim::WorkerCounterFields()) {
    for (MetricId id = 0; id < defs_.size(); ++id) {
      if (defs_[id].name == f.name) {
        snap.scalars_[id] += absorbed_.*f.field;
        break;
      }
    }
  }
  for (const sim::WorkerHistogramField& f : sim::WorkerHistogramFields()) {
    for (MetricId id = 0; id < defs_.size(); ++id) {
      if (defs_[id].name == f.name && snap.hist_index_[id] >= 0) {
        snap.hists_[static_cast<size_t>(snap.hist_index_[id])].Merge(
            sim::GetWorkerHistogram(absorbed_, f));
        break;
      }
    }
  }
  return snap;
}

std::optional<uint64_t> MetricsSnapshot::Scalar(std::string_view name) const {
  for (MetricId id = 0; id < defs_.size(); ++id) {
    if (defs_[id].name == name && defs_[id].kind != MetricKind::kHistogram) {
      return scalars_[id];
    }
  }
  return std::nullopt;
}

const sim::Histogram* MetricsSnapshot::Hist(std::string_view name) const {
  for (MetricId id = 0; id < defs_.size(); ++id) {
    if (defs_[id].name == name && hist_index_[id] >= 0) {
      return &hists_[static_cast<size_t>(hist_index_[id])];
    }
  }
  return nullptr;
}

}  // namespace tell::obs
