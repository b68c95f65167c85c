#ifndef TELL_STORE_FRAGMENT_H_
#define TELL_STORE_FRAGMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "store/versioned_cell.h"

namespace tell::store {

/// Per-call statistics of one chunked fragment scan over one partition
/// (StorageNode::FragmentScan). Aggregated by the caller across partitions
/// and surfaced as the `sql.scan.*` worker counters.
struct FragmentScanStats {
  /// Cells the node fed to the sink: every key of the partition, or those
  /// up to the one at which the sink stopped the scan.
  uint64_t cells_scanned = 0;
  /// Times the scan dropped every stripe lock mid-pass and re-acquired for
  /// the next chunk. Zero means the whole partition fit in one chunk; under
  /// an OLTP mix this is the "never holds the table for a full pass" proof.
  uint64_t chunk_lock_releases = 0;

  void Accumulate(const FragmentScanStats& other) {
    cells_scanned += other.cells_scanned;
    chunk_lock_releases += other.chunk_lock_releases;
  }
};

/// Storage-side consumer of a scan fragment (DESIGN.md "Vectorized scans &
/// aggregate pushdown"). The storage layer is schema-agnostic — tell_store
/// does not link tell_schema — so the node only streams raw (key, cell)
/// pairs into this interface; the typed work (visibility, tuple decode,
/// filter, then a partial-aggregate fold or row collection) lives in the
/// implementations: sql::AggregateFragmentSink and the row sink behind
/// tx::Transaction::FilteredScan.
///
/// Absorb() runs on the storage node with NO stripe locks held: the node
/// copies a chunk of cells out under its locks, releases them, then feeds
/// the chunk through the sink — so an expensive decode never blocks OLTP
/// point operations. Snapshot consistency across the lock release comes from
/// MVCC: the sink judges visibility per version against a fixed snapshot,
/// and version lists only grow (deletes are tombstone versions).
class FragmentSink {
 public:
  virtual ~FragmentSink() = default;

  /// Feeds one stored cell (raw VersionedRecord bytes) and its LL/SC stamp.
  /// Returns false to stop the scan early (limit reached); errors are
  /// latched in status().
  virtual bool Absorb(std::string_view key, std::string_view value,
                      uint64_t stamp) = 0;

  /// Serialized result after the scan — the bytes that travel back to the
  /// processing node, charged as the response payload: O(groups) for an
  /// aggregate, the matching rows' visible payloads for a row scan.
  virtual std::string Finish() = 0;

  /// Rows (groups, for an aggregate) the result carries.
  virtual uint64_t rows_returned() const = 0;
  /// Bytes a row-shipping scan would have sent for the same matches
  /// (key + visible payload + framing per matching row) — the baseline that
  /// `sql.scan.bytes_saved` is measured against.
  virtual uint64_t baseline_bytes() const = 0;
  /// First decode/fold error, if any. The scan stops on error.
  virtual Status status() const = 0;
};

/// The raw-cell sink: keeps every cell it is fed, in the partition's key
/// order, and ships them all. Log replay and truncation, the lazy GC's
/// table walk and the CREATE INDEX backfill read through it.
class CellSink : public FragmentSink {
 public:
  bool Absorb(std::string_view key, std::string_view value,
              uint64_t stamp) override {
    cells_.push_back({std::string(key), std::string(value), stamp});
    return true;
  }
  std::string Finish() override {
    BufferWriter out;
    for (const KeyCell& cell : cells_) {
      out.PutString(cell.key);
      out.PutString(cell.value);
      out.PutU64(cell.stamp);
    }
    return out.Release();
  }
  uint64_t rows_returned() const override { return cells_.size(); }
  /// Raw cells are the row-shipping baseline itself: nothing saved.
  uint64_t baseline_bytes() const override { return 0; }
  Status status() const override { return Status::OK(); }

  std::vector<KeyCell>& cells() { return cells_; }

 private:
  std::vector<KeyCell> cells_;
};

/// Builds a fresh sink for one partition's fragment execution. Called per
/// partition AND per retry attempt, so a replayed fragment (fault injection)
/// never double-counts into a half-filled sink.
using FragmentSinkFactory =
    std::function<std::unique_ptr<FragmentSink>(uint32_t partition)>;

}  // namespace tell::store

#endif  // TELL_STORE_FRAGMENT_H_
