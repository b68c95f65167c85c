#ifndef TELL_OBS_METRICS_REGISTRY_H_
#define TELL_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stat_table.h"
#include "sim/histogram.h"
#include "sim/metrics.h"

namespace tell::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Identity of one registered metric. The full builtin catalog is documented
/// in docs/METRICS.md; obs_test diffs that document against the registry.
struct MetricDef {
  std::string name;
  std::string unit;
  std::string help;
  MetricKind kind;
};

using MetricId = uint32_t;

/// One node's counters in a bench artifact's "nodes" object ("sn0",
/// "pn1.buffer", "exec2", ...), and the rows of every node.
using NodeRow = std::vector<std::pair<std::string, uint64_t>>;
using NodeRows = std::vector<std::pair<std::string, NodeRow>>;

/// `stats` as a node row: the row keys of its descriptor table, in order.
template <typename Stats>
NodeRow StatRow(const Stats& stats) {
  NodeRow row;
  for (const StatField<Stats>& f : Stats::kFields) {
    if (f.is_row()) row.emplace_back(f.row_name(), stats.*f.member);
  }
  return row;
}

/// A consistent point-in-time view of a registry: absorbed worker metrics
/// + gauges. Self-contained (owns copies), so it survives the
/// registry and can be handed to the JSON exporter.
class MetricsSnapshot {
 public:
  const std::vector<MetricDef>& metrics() const { return defs_; }

  /// Counter or gauge value; nullopt for unknown names and histograms.
  std::optional<uint64_t> Scalar(std::string_view name) const;

  /// Histogram by name; nullptr for unknown names and scalars.
  const sim::Histogram* Hist(std::string_view name) const;

 private:
  friend class MetricsRegistry;

  std::vector<MetricDef> defs_;
  /// Indexed by MetricId; histogram slots hold 0.
  std::vector<uint64_t> scalars_;
  /// MetricId -> index into hists_, or -1 for scalars.
  std::vector<int32_t> hist_index_;
  std::vector<sim::Histogram> hists_;
};

/// A registry of named counters, gauges and histograms.
///
/// Every value arrives at the end of a run: AbsorbWorker() folds per-worker
/// sim::WorkerMetrics (the simulation's native metric carrier, absorbed
/// through the descriptor tables in sim/metrics.h, so the names always
/// match) and SetGauge() sets the gauges read from node-side stats.
/// Snapshot() copies both out.
///
/// Construction registers the builtin catalog: every WorkerMetrics field
/// plus the gauges of every node-side stats table (common/stat_table.h),
/// which db::TellDb::ExportStats and exec::ExportStats set through
/// SetGauges. Additional metrics may be registered at any time.
class MetricsRegistry {
 public:
  /// `builtins` = false creates an empty registry (tests).
  explicit MetricsRegistry(bool builtins = true);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration. Re-registering an existing name returns the existing id
  /// (the kind must match; unit/help of the first registration win).
  MetricId AddCounter(std::string name, std::string unit, std::string help);
  MetricId AddGauge(std::string name, std::string unit, std::string help);
  MetricId AddHistogram(std::string name, std::string unit, std::string help);

  const std::vector<MetricDef>& metrics() const { return defs_; }

  /// Sets a gauge to an absolute value (last write wins). False when no
  /// gauge has that name.
  bool SetGauge(std::string_view name, uint64_t value);

  /// Sets the gauges of `totals`' descriptor table. Each must be registered
  /// (the builtin catalog registers every node-side table).
  template <typename Stats>
  void SetGauges(const Stats& totals) {
    for (const StatField<Stats>& f : Stats::kFields) {
      if (!f.is_gauge()) continue;
      TELL_CHECK(SetGauge(std::string(Stats::kGaugePrefix) + f.name,
                          totals.*f.member));
    }
  }

  /// Folds a worker's native metrics into the registry via the descriptor
  /// tables of sim/metrics.h. Call once per worker at end of run (values
  /// accumulate across calls, mirroring WorkerMetrics::Merge).
  void AbsorbWorker(const sim::WorkerMetrics& metrics);

  MetricsSnapshot Snapshot() const;

 private:
  MetricId AddMetric(std::string name, std::string unit, std::string help,
                     MetricKind kind);
  /// Registers the gauges of a node-side stats table.
  template <typename Stats>
  void AddGauges() {
    for (const StatField<Stats>& f : Stats::kFields) {
      if (f.is_gauge()) {
        AddGauge(std::string(Stats::kGaugePrefix) + f.name, f.unit, f.help);
      }
    }
  }

  mutable std::mutex mutex_;
  std::vector<MetricDef> defs_;
  std::vector<int32_t> hist_index_;  // MetricId -> hist slot or -1
  size_t num_hists_ = 0;
  /// Everything AbsorbWorker collected, merged.
  sim::WorkerMetrics absorbed_;
  /// Gauge values, indexed by MetricId (0 for non-gauges).
  std::vector<uint64_t> gauges_;
};

}  // namespace tell::obs

#endif  // TELL_OBS_METRICS_REGISTRY_H_
