#ifndef TELL_COMMON_STAT_TABLE_H_
#define TELL_COMMON_STAT_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace tell {

/// How one node-side stat combines across nodes and where it is reported.
enum class StatKind : uint8_t {
  kSum,      // summed into a gauge; a node-row key
  kMax,      // the gauge takes the max over nodes; a node-row key
  kRowOnly,  // a node-row key only, no gauge (summed when accumulated)
  kPerRun,   // a gauge only: every row holds the run's value (max)
};

/// One row of a node-side stats struct's descriptor table: the gauge is
/// `Stats::kGaugePrefix` + `name`, the node-row key is `row_key` or, when
/// that is null, `name`.
///
/// Each stats struct (store::StorageNodeStats, tx::GcStats, ...) derives
/// from StatTable<Stats> and declares `static constexpr const char*
/// kGaugePrefix` and `static constexpr StatField<Stats> kFields[]`. That
/// table is the only place a field is named besides the struct itself: the
/// gauge catalogue (obs::MetricsRegistry), the gauge export, the per-node
/// artifact rows, Accumulate and LoadRelaxed all loop over it.
/// docs/METRICS.md documents every gauge (enforced by obs_test).
template <typename Stats>
struct StatField {
  const char* name;
  const char* unit;
  const char* help;
  uint64_t Stats::*member;
  StatKind kind = StatKind::kSum;
  const char* row_key = nullptr;

  bool is_gauge() const { return kind != StatKind::kRowOnly; }
  bool is_row() const { return kind != StatKind::kPerRun; }
  const char* row_name() const { return row_key != nullptr ? row_key : name; }
};

/// Base of every node-side stats struct (CRTP): one Accumulate for all of
/// them, driven by the struct's `kFields`.
template <typename Stats>
struct StatTable {
  /// Folds `other` in field by field: sums, or max for kMax and kPerRun
  /// fields.
  void Accumulate(const Stats& other) {
    Stats& self = static_cast<Stats&>(*this);
    for (const StatField<Stats>& f : Stats::kFields) {
      uint64_t& to = self.*f.member;
      const uint64_t value = other.*f.member;
      to = f.kind == StatKind::kMax || f.kind == StatKind::kPerRun
               ? std::max(to, value)
               : to + value;
    }
  }

  /// Whether nothing was counted (a node row with nothing to show).
  bool AllZero() const {
    const Stats& self = static_cast<const Stats&>(*this);
    for (const StatField<Stats>& f : Stats::kFields) {
      if (self.*f.member != 0) return false;
    }
    return true;
  }
};

/// Relaxed atomic add to one field of a stats struct that several threads
/// bump without a lock. Read such a struct with LoadRelaxed.
inline void AddRelaxed(uint64_t& field, uint64_t n = 1) {
  std::atomic_ref<uint64_t>(field).fetch_add(n, std::memory_order_relaxed);
}

/// Copy of a stats struct bumped with AddRelaxed. A copy racing live
/// traffic is approximate across fields but never torn within one.
template <typename Stats>
Stats LoadRelaxed(Stats& live) {
  Stats out;
  for (const StatField<Stats>& f : Stats::kFields) {
    out.*f.member = std::atomic_ref<uint64_t>(live.*f.member)
                        .load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace tell

#endif  // TELL_COMMON_STAT_TABLE_H_
