#ifndef TELL_COMMITMGR_SNAPSHOT_DESCRIPTOR_H_
#define TELL_COMMITMGR_SNAPSHOT_DESCRIPTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/result.h"
#include "common/status.h"

namespace tell::commitmgr {

struct SnapshotDelta;

/// Transaction id; doubles as the version number of data items the
/// transaction writes (paper §4.2: "tids and version numbers are synonyms").
using Tid = uint64_t;

/// Snapshot descriptor (paper §4.2): a base version number `b` meaning every
/// transaction with tid <= b has completed, plus a bitset N of completed
/// tids above b (bit i represents tid b+1+i). The valid version set a
/// transaction may read is V' = { x | x <= b  or  x in N }.
///
/// "Completed" covers commits *and* aborts: an aborted transaction's updates
/// were rolled back, so exposing its tid as readable is harmless, and base
/// could never advance otherwise.
class SnapshotDescriptor {
 public:
  SnapshotDescriptor() = default;
  explicit SnapshotDescriptor(Tid base) : base_(base) {}

  Tid base() const { return base_; }

  /// True if a version with number `tid` is visible in this snapshot.
  bool CanRead(Tid tid) const {
    if (tid <= base_) return true;
    return completed_.Test(static_cast<size_t>(tid - base_ - 1));
  }

  /// Marks `tid` completed and advances the base across any now-contiguous
  /// prefix of completed tids.
  void MarkCompleted(Tid tid);

  /// Largest tid marked completed (>= base).
  Tid HighestCompleted() const;

  /// Number of completed tids recorded above the base.
  size_t CompletedAboveBase() const { return completed_.Count(); }

  /// Size in bytes of the bitset part (the paper sizes N at ~13 KB for
  /// 100,000 newly committed transactions).
  size_t BitsetBytes() const { return completed_.ByteSize(); }

  /// Incorporates everything the other snapshot knows: the base becomes the
  /// max of both (a base is a sound global claim — every tid below it has
  /// completed) and the completed sets are unioned. Used by commit managers
  /// to merge peer state (paper §4.2, multi-manager synchronization).
  void MergeFrom(const SnapshotDescriptor& other);

  /// True if every tid readable in this snapshot is also readable in
  /// `super`. Used by the shared record buffers (paper §5.5.2: the buffered
  /// entry can serve a transaction whose version set is a subset of the
  /// entry's version set, V_tx ⊆ B).
  bool IsSubsetOf(const SnapshotDescriptor& super) const;

  /// Applies a delta received from a commit manager: replaces the whole
  /// descriptor for a full resync, otherwise merges the base advance and
  /// marks the newly completed tids. Exact — not merely an approximation —
  /// under the delta protocol's invariant: the caller holds the manager's
  /// descriptor as of the acknowledged epoch, and the delta lists every
  /// above-base completion recorded after that epoch.
  void ApplyDelta(const SnapshotDelta& delta);

  /// Wire format: base, bit count, words.
  std::string Serialize() const;
  static Result<SnapshotDescriptor> Deserialize(std::string_view data);

  /// Size of Serialize()'s output without building the string (cost model).
  size_t SerializedBytes() const { return 16 + completed_.ByteSize(); }

  bool operator==(const SnapshotDescriptor& other) const {
    return base_ == other.base_ && completed_ == other.completed_;
  }

 private:
  void AdvanceBase();

  Tid base_ = 0;
  DenseBitset completed_;
};

/// Incremental snapshot update (DESIGN.md, "Snapshot delta sync & group
/// begin/commit"): either the full descriptor — first contact, manager
/// generation change, or when a delta would not be smaller — or the
/// manager's current base plus the tids completed since the client's
/// acknowledged epoch that are still above that base. Completed tids are
/// encoded as 32-bit offsets from the base; the completed window is bounded
/// by the bitset the paper sizes at ~13 KB (§4.2), far below 2^32.
struct SnapshotDelta {
  /// Manager incarnation. A mismatch with the client's cached generation
  /// means the epoch counters are not comparable, so the manager answers
  /// with `full` instead.
  uint32_t generation = 0;
  /// Manager epoch this delta brings the client up to (the next ack).
  uint64_t epoch = 0;
  bool full = false;
  /// Delta form: the manager's current base.
  Tid base = 0;
  /// Delta form: completed tids above `base` recorded after the ack epoch.
  std::vector<Tid> completed;
  /// Full form: the whole descriptor.
  SnapshotDescriptor snapshot;

  /// Size of Serialize()'s output without building the string (cost model).
  size_t WireBytes() const;
  /// WireBytes() of the full form carrying `snapshot`.
  static size_t FullWireBytes(const SnapshotDescriptor& snapshot);
  std::string Serialize() const;
  static Result<SnapshotDelta> Deserialize(std::string_view data);

  bool operator==(const SnapshotDelta& other) const {
    return generation == other.generation && epoch == other.epoch &&
           full == other.full && base == other.base &&
           completed == other.completed && snapshot == other.snapshot;
  }
};

}  // namespace tell::commitmgr

#endif  // TELL_COMMITMGR_SNAPSHOT_DESCRIPTOR_H_
