#include "obs/metrics_registry.h"

#include "commitmgr/commit_manager.h"
#include "common/logging.h"
#include "exec/runtime.h"
#include "index/btree.h"
#include "sim/fault_injector.h"
#include "store/management_node.h"
#include "store/record_cache.h"
#include "store/storage_node.h"
#include "tx/garbage_collector.h"
#include "tx/record_buffer.h"

namespace tell::obs {

MetricsRegistry::MetricsRegistry(bool builtins) {
  if (!builtins) return;
  for (const sim::WorkerCounterField& f : sim::WorkerCounterFields()) {
    AddCounter(f.name, f.unit, f.help);
  }
  for (const sim::WorkerHistogramField& f : sim::WorkerHistogramFields()) {
    AddHistogram(f.name, f.unit, f.help);
  }
  AddGauges<store::StorageNodeStats>();
  AddGauges<store::MigrationStats>();
  AddGauges<commitmgr::CommitManagerStats>();
  AddGauges<commitmgr::GroupReplicationStats>();
  AddGauges<store::RecordCacheStats>();
  AddGauges<index::NodeCache::Stats>();
  AddGauges<tx::BufferStats>();
  AddGauges<tx::GcStats>();
  AddGauges<exec::RuntimeStats::PerCore>();
  AddGauges<sim::FaultStats>();
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
