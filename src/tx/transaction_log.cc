#include "tx/transaction_log.h"

#include <algorithm>

#include "common/serde.h"

namespace tell::tx {

std::string LogEntry::Serialize() const {
  BufferWriter writer;
  writer.PutU64(tid);
  writer.PutU32(pn_id);
  writer.PutU64(timestamp_ns);
  writer.PutU8(committed ? 1 : 0);
  writer.PutU32(static_cast<uint32_t>(write_set.size()));
  for (const auto& [table, rid] : write_set) {
    writer.PutU32(table);
    writer.PutU64(rid);
  }
  return writer.Release();
}

Result<LogEntry> LogEntry::Deserialize(std::string_view data) {
  BufferReader reader(data);
  LogEntry entry;
  TELL_ASSIGN_OR_RETURN(entry.tid, reader.GetU64());
  TELL_ASSIGN_OR_RETURN(entry.pn_id, reader.GetU32());
  TELL_ASSIGN_OR_RETURN(entry.timestamp_ns, reader.GetU64());
  TELL_ASSIGN_OR_RETURN(uint8_t committed, reader.GetU8());
  entry.committed = committed != 0;
  TELL_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  entry.write_set.reserve(std::min<size_t>(count, reader.remaining() / 12 + 1));
  for (uint32_t i = 0; i < count; ++i) {
    TELL_ASSIGN_OR_RETURN(uint32_t table, reader.GetU32());
    TELL_ASSIGN_OR_RETURN(uint64_t rid, reader.GetU64());
    entry.write_set.emplace_back(table, rid);
  }
  return entry;
}

store::WriteOp TransactionLog::AppendOp(const LogEntry& entry) const {
  return {table_, EncodeOrderedU64(entry.tid), entry.Serialize(),
          store::kStampAbsent};
}

Status TransactionLog::Appended(store::StorageClient* client,
                                const Result<uint64_t>& put) const {
  client->metrics()->log_appends += 1;
  if (put.status().IsConditionFailed()) {
    return Status::AlreadyExists("log entry for tid exists");
  }
  return put.status();
}

store::WriteOp TransactionLog::MarkCommittedOp(LogEntry entry) const {
  entry.committed = true;
  // Only the owning transaction ever sets this flag, so an unconditional
  // put is safe; recovery only reads entries of *dead* PNs.
  return {table_, EncodeOrderedU64(entry.tid), entry.Serialize(),
          store::kStampAbsent, /*conditional=*/false};
}

Result<std::vector<LogEntry>> TransactionLog::ScanBackwards(
    store::StorageClient* client, Tid from_tid, Tid lav) const {
  // Entries with tid in (lav, from_tid].
  std::string start = EncodeOrderedU64(lav + 1);
  std::string end = EncodeOrderedU64(from_tid + 1);
  TELL_ASSIGN_OR_RETURN(std::vector<store::KeyCell> cells,
                        client->Scan(table_, start, end));
  std::vector<LogEntry> entries;
  entries.reserve(cells.size());
  for (auto cell = cells.rbegin(); cell != cells.rend(); ++cell) {
    TELL_ASSIGN_OR_RETURN(LogEntry entry, LogEntry::Deserialize(cell->value));
    entries.push_back(std::move(entry));
  }
  return entries;
}

Result<size_t> TransactionLog::Truncate(store::StorageClient* client,
                                        Tid lav) const {
  TELL_ASSIGN_OR_RETURN(std::vector<store::KeyCell> cells,
                        client->Scan(table_, "", EncodeOrderedU64(lav + 1)));
  std::vector<store::WriteOp> erases;
  erases.reserve(cells.size());
  for (const auto& cell : cells) {
    erases.push_back({table_, cell.key, std::string(), store::kStampAbsent,
                      /*conditional=*/false, /*erase=*/true});
  }
  size_t removed = 0;
  for (const Result<uint64_t>& result : client->BatchWrite(erases)) {
    if (result.ok()) ++removed;
  }
  return removed;
}

}  // namespace tell::tx
