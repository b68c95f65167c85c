#include "commitmgr/snapshot_descriptor.h"

#include "common/serde.h"

namespace tell::commitmgr {

void SnapshotDescriptor::MarkCompleted(Tid tid) {
  if (tid <= base_) return;  // already covered by the base
  completed_.Set(static_cast<size_t>(tid - base_ - 1));
  AdvanceBase();
}

void SnapshotDescriptor::AdvanceBase() {
  size_t prefix = completed_.FirstZero();
  if (prefix == 0) return;
  base_ += prefix;
  completed_.DropFront(prefix);
}

Tid SnapshotDescriptor::HighestCompleted() const {
  Tid highest = base_;
  for (size_t i = completed_.size(); i > 0; --i) {
    if (completed_.Test(i - 1)) {
      highest = base_ + i;
      break;
    }
  }
  return highest;
}

void SnapshotDescriptor::MergeFrom(const SnapshotDescriptor& other) {
  // Collect the other's completed tids before potentially moving our base.
  if (other.base_ > base_) {
    // Everything at or below other.base_ is globally complete.
    Tid shift = other.base_ - base_;
    completed_.DropFront(static_cast<size_t>(shift));
    base_ = other.base_;
  }
  for (size_t i = 0; i < other.completed_.size(); ++i) {
    if (other.completed_.Test(i)) {
      Tid tid = other.base_ + 1 + i;
      if (tid > base_) {
        completed_.Set(static_cast<size_t>(tid - base_ - 1));
      }
    }
  }
  AdvanceBase();
}

bool SnapshotDescriptor::IsSubsetOf(const SnapshotDescriptor& super) const {
  // Everything <= base_ is readable here; super must cover it.
  if (base_ > super.base_) {
    for (Tid tid = super.base_ + 1; tid <= base_; ++tid) {
      if (!super.CanRead(tid)) return false;
    }
  }
  for (size_t i = 0; i < completed_.size(); ++i) {
    if (completed_.Test(i) && !super.CanRead(base_ + 1 + i)) return false;
  }
  return true;
}

void SnapshotDescriptor::ApplyDelta(const SnapshotDelta& delta) {
  if (delta.full) {
    *this = delta.snapshot;
    return;
  }
  // The base advance subsumes every completion that already fell below it;
  // merging an empty descriptor at delta.base drops our own covered bits.
  MergeFrom(SnapshotDescriptor(delta.base));
  for (Tid tid : delta.completed) MarkCompleted(tid);
}

std::string SnapshotDescriptor::Serialize() const {
  BufferWriter writer;
  writer.PutU64(base_);
  writer.PutU64(completed_.size());
  for (uint64_t word : completed_.words()) writer.PutU64(word);
  return writer.Release();
}

Result<SnapshotDescriptor> SnapshotDescriptor::Deserialize(
    std::string_view data) {
  BufferReader reader(data);
  TELL_ASSIGN_OR_RETURN(uint64_t base, reader.GetU64());
  TELL_ASSIGN_OR_RETURN(uint64_t num_bits, reader.GetU64());
  SnapshotDescriptor snapshot(base);
  snapshot.completed_.Resize(static_cast<size_t>(num_bits));
  for (auto& word : snapshot.completed_.mutable_words()) {
    TELL_ASSIGN_OR_RETURN(word, reader.GetU64());
  }
  snapshot.AdvanceBase();
  return snapshot;
}

// ---------------------------------------------------------------------------
// SnapshotDelta

// generation + epoch + form flag.
constexpr size_t kDeltaEnvelopeBytes = 4 + 8 + 1;

size_t SnapshotDelta::FullWireBytes(const SnapshotDescriptor& snapshot) {
  // u32 length prefix + the serialized descriptor.
  return kDeltaEnvelopeBytes + 4 + snapshot.SerializedBytes();
}

size_t SnapshotDelta::WireBytes() const {
  if (full) return FullWireBytes(snapshot);
  return kDeltaEnvelopeBytes + 8 + 4 + 4 * completed.size();
}

std::string SnapshotDelta::Serialize() const {
  BufferWriter writer;
  writer.PutU32(generation);
  writer.PutU64(epoch);
  writer.PutU8(full ? 1 : 0);
  if (full) {
    writer.PutString(snapshot.Serialize());
  } else {
    writer.PutU64(base);
    writer.PutU32(static_cast<uint32_t>(completed.size()));
    for (Tid tid : completed) {
      // tid > base always holds (the manager prunes at-or-below-base tids).
      writer.PutU32(static_cast<uint32_t>(tid - base - 1));
    }
  }
  return writer.Release();
}

Result<SnapshotDelta> SnapshotDelta::Deserialize(std::string_view data) {
  BufferReader reader(data);
  SnapshotDelta delta;
  TELL_ASSIGN_OR_RETURN(delta.generation, reader.GetU32());
  TELL_ASSIGN_OR_RETURN(delta.epoch, reader.GetU64());
  TELL_ASSIGN_OR_RETURN(uint8_t full, reader.GetU8());
  delta.full = full != 0;
  if (delta.full) {
    TELL_ASSIGN_OR_RETURN(std::string_view blob, reader.GetString());
    TELL_ASSIGN_OR_RETURN(delta.snapshot, SnapshotDescriptor::Deserialize(blob));
  } else {
    TELL_ASSIGN_OR_RETURN(delta.base, reader.GetU64());
    TELL_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
    delta.completed.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      TELL_ASSIGN_OR_RETURN(uint32_t offset, reader.GetU32());
      delta.completed.push_back(delta.base + 1 + offset);
    }
  }
  return delta;
}

}  // namespace tell::commitmgr
