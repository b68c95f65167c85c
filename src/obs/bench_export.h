#ifndef TELL_OBS_BENCH_EXPORT_H_
#define TELL_OBS_BENCH_EXPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/metrics_registry.h"

namespace tell::obs {

/// One (label, metrics) row of a bench artifact — typically one sweep point
/// (e.g. "pn4" of a scale-out curve or "tell_small" of Table 4).
struct BenchRun {
  std::string label;
  /// Derived numbers already computed by the bench (tpmc, abort_rate, ...).
  std::vector<std::pair<std::string, double>> derived;
  MetricsSnapshot snapshot;
  /// Optional per-node breakdown: (node label, counter name, value). The
  /// registry gauges carry the cross-node sums; this carries the split.
  NodeRows nodes;
};

/// Machine-readable bench artifact, written as BENCH_<name>.json next to
/// the binary's stdout table. Schema v1 (validated by
/// tools/check_bench_json.py and documented in DESIGN.md "Observability"):
///
///   { "schema_version": 1,
///     "bench": "<name>",
///     "config": { "<key>": "<string>" , ... },
///     "runs": [ { "label": "...",
///                 "derived":    { "<key>": number, ... },
///                 "counters":   { "<metric>": integer, ... },
///                 "gauges":     { "<metric>": integer, ... },
///                 "histograms": { "<metric>": { "unit": "...",
///                                   "count": n, "min": n, "max": n,
///                                   "mean": x, "stddev": x,
///                                   "p50": n, "p95": n, "p99": n }, ... },
///                 "nodes":      { "<node>": { "<counter>": integer } } },
///               ... ] }
///
/// Every run contains ALL registered metrics (histograms of phases a run
/// never touched appear with count 0), so consumers can rely on the keys.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void AddConfig(std::string key, std::string value) {
    config_.emplace_back(std::move(key), std::move(value));
  }
  void AddRun(BenchRun run) { runs_.push_back(std::move(run)); }

  const std::string& name() const { return name_; }
  size_t num_runs() const { return runs_.size(); }
  const BenchRun& last_run() const { return runs_.back(); }

  std::string ToJson() const;

  /// Writes BENCH_<name>.json into `dir` (default: current directory).
  /// Returns the path written.
  Result<std::string> WriteFile(const std::string& dir = ".") const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<BenchRun> runs_;
};

}  // namespace tell::obs

#endif  // TELL_OBS_BENCH_EXPORT_H_
