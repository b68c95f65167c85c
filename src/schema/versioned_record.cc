#include "schema/versioned_record.h"

#include <cstddef>
#include <algorithm>

#include "common/serde.h"

namespace tell::schema {

void VersionedRecord::PutVersion(Tid tid, std::string payload,
                                 bool tombstone) {
  auto it = std::lower_bound(
      versions_.begin(), versions_.end(), tid,
      [](const RecordVersion& v, Tid t) { return v.version < t; });
  if (it != versions_.end() && it->version == tid) {
    it->payload = std::move(payload);
    it->tombstone = tombstone;
    return;
  }
  versions_.insert(it, RecordVersion{tid, tombstone, std::move(payload)});
}

bool VersionedRecord::RemoveVersion(Tid tid) {
  auto it = std::lower_bound(
      versions_.begin(), versions_.end(), tid,
      [](const RecordVersion& v, Tid t) { return v.version < t; });
  if (it == versions_.end() || it->version != tid) return false;
  versions_.erase(it);
  return true;
}

bool VersionedRecord::HasVersion(Tid tid) const {
  auto it = std::lower_bound(
      versions_.begin(), versions_.end(), tid,
      [](const RecordVersion& v, Tid t) { return v.version < t; });
  return it != versions_.end() && it->version == tid;
}

const RecordVersion* VersionedRecord::VisibleVersion(
    const SnapshotDescriptor& snapshot, Tid own_tid) const {
  // Versions are sorted ascending; walk from the newest down and return the
  // first visible one (v = max(V' ∩ V), paper §4.2).
  for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
    if (it->version == own_tid || snapshot.CanRead(it->version)) {
      return &*it;
    }
  }
  return nullptr;
}

const RecordVersion* VersionedRecord::Newest() const {
  return versions_.empty() ? nullptr : &versions_.back();
}

size_t VersionedRecord::CollectGarbage(Tid lav) {
  // C := { x in V | x <= lav };  G := C \ { max(C) }.
  size_t visible_to_all = 0;
  for (const RecordVersion& v : versions_) {
    if (v.version <= lav) ++visible_to_all;
  }
  if (visible_to_all <= 1) return 0;
  size_t to_remove = visible_to_all - 1;  // keep max(C)
  versions_.erase(versions_.begin(),
                  versions_.begin() + static_cast<ptrdiff_t>(to_remove));
  return to_remove;
}

bool VersionedRecord::DeadAt(Tid lav) const {
  if (versions_.empty()) return true;
  const RecordVersion& newest = versions_.back();
  return newest.tombstone && newest.version <= lav;
}

std::string VersionedRecord::Serialize() const {
  size_t bytes = 4;
  for (const RecordVersion& v : versions_) bytes += 13 + v.payload.size();
  BufferWriter writer;
  writer.Reserve(bytes);
  writer.PutU32(static_cast<uint32_t>(versions_.size()));
  for (const RecordVersion& v : versions_) {
    writer.PutU64(v.version);
    writer.PutU8(v.tombstone ? 1 : 0);
    writer.PutString(v.payload);
  }
  return writer.Release();
}

Result<VersionedRecord> VersionedRecord::Deserialize(std::string_view data) {
  BufferReader reader(data);
  TELL_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  VersionedRecord record;
  // Reserve only what the buffer could possibly hold (a corrupt count must
  // not trigger a huge allocation).
  record.versions_.reserve(
      std::min<size_t>(count, reader.remaining() / 10 + 1));
  Tid previous = 0;
  for (uint32_t i = 0; i < count; ++i) {
    RecordVersion v;
    TELL_ASSIGN_OR_RETURN(v.version, reader.GetU64());
    TELL_ASSIGN_OR_RETURN(uint8_t tombstone, reader.GetU8());
    v.tombstone = tombstone != 0;
    TELL_ASSIGN_OR_RETURN(std::string_view payload, reader.GetString());
    v.payload.assign(payload);
    if (i > 0 && v.version <= previous) {
      return Status::Corruption("record versions out of order");
    }
    previous = v.version;
    record.versions_.push_back(std::move(v));
  }
  return record;
}

}  // namespace tell::schema
