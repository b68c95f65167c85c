#include "tx/transaction.h"

#include <cstddef>
#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/serde.h"

namespace tell::tx {

namespace {
constexpr std::string_view kNextRidKey = "meta/next_rid";
/// Rids are allocated from a per-table counter in ranges of this size,
/// cached per session.
constexpr uint32_t kRidRangeSize = 512;
/// Rounds of RevertVersions before a record is left to lazy GC.
constexpr int kMaxRevertRetries = 1024;

std::string RidKey(uint64_t rid) { return EncodeOrderedU64(rid); }
}  // namespace

Result<uint64_t> Session::AllocateRid(const TableMeta* table) {
  auto& range = rid_ranges_[table->data_table];
  if (range.first > range.second || range.first == 0) {
    TELL_ASSIGN_OR_RETURN(
        int64_t end, client_.AtomicIncrement(table->data_table, kNextRidKey,
                                             kRidRangeSize));
    range.second = static_cast<uint64_t>(end);
    range.first = range.second - kRidRangeSize + 1;
  }
  return range.first++;
}

Transaction::Transaction(Session* session, const TxnOptions& options)
    : session_(session),
      client_(session->client()),
      tracer_(session->tracer()),
      options_(options) {}

Transaction::~Transaction() {
  if (state_ == TxnState::kRunning) {
    (void)Abort();
  }
  // Flush the per-phase virtual-time totals into the worker's histograms
  // (idempotent; a no-op if Begin was never reached).
  tracer_->EndTxn();
}

Status Transaction::CheckWritable(const RecordState& state) const {
  const schema::RecordVersion* newest = state.record.Newest();
  if (newest != nullptr && newest->version != tid_ &&
      !snapshot_.CanRead(newest->version)) {
    return Status::Aborted(
        "write-write conflict: record has a newer invisible version");
  }
  return Status::OK();
}

Status Transaction::Begin() {
  TELL_CHECK(state_ == TxnState::kPending);
  tracer_->BeginTxn();
  obs::PhaseScope span(tracer_, sim::TxnPhase::kBegin);
  // Each processing node talks to one dedicated commit manager (§4.2);
  // fail-over, fault injection, retries and the delta-sync/batching wire
  // accounting all live in the session's CommitManagerClient. The response
  // carries the snapshot as a delta against the session's cached descriptor
  // (or the full descriptor on first contact / resync).
  TELL_ASSIGN_OR_RETURN(commitmgr::TxnBegin begin,
                        session_->commitmgr_client()->Begin(session_->pn_id()));
  commit_manager_ = session_->commitmgr_client()->last_manager();
  tid_ = begin.tid;
  snapshot_ = std::move(begin.snapshot);
  lav_ = begin.lav;
  session_->record_buffer()->OnTransactionStart(snapshot_);
  state_ = TxnState::kRunning;
  return Status::OK();
}

Result<Transaction::RecordState*> Transaction::EnsureFetched(
    TableHandle* table, uint64_t rid) {
  RecordKey key{table->meta->data_table, rid};
  if (buffer_.find(key) == buffer_.end()) {
    obs::PhaseScope span(tracer_, sim::TxnPhase::kRead);
    TELL_RETURN_NOT_OK(PrefetchMissing({{table, rid}}).status());
  }
  return &buffer_.at(key);
}

Result<std::optional<schema::Tuple>> Transaction::Read(TableHandle* table,
                                                       uint64_t rid) {
  TELL_CHECK(state_ == TxnState::kRunning);
  obs::PhaseScope span(tracer_, sim::TxnPhase::kRead);
  TELL_ASSIGN_OR_RETURN(RecordState * state, EnsureFetched(table, rid));
  const schema::RecordVersion* visible = Visible(*state);
  if (visible == nullptr || visible->tombstone) return std::optional<schema::Tuple>{};
  client_->ChargeCpu(client_->options().cpu.per_record_ns);
  TELL_ASSIGN_OR_RETURN(
      schema::Tuple tuple,
      schema::Tuple::Deserialize(table->meta->schema, visible->payload));
  return std::optional<schema::Tuple>(std::move(tuple));
}

Result<std::vector<std::pair<TableHandle*, uint64_t>>>
Transaction::PrefetchMissing(
    const std::vector<std::pair<TableHandle*, uint64_t>>& records) {
  // Ordered by (data table, rid): one table's records go out in rid order.
  std::map<RecordKey, TableHandle*> missing;
  for (const auto& [table, rid] : records) {
    RecordKey key{table->meta->data_table, rid};
    if (buffer_.find(key) == buffer_.end()) missing.emplace(key, table);
  }
  std::vector<RecordKey> keys;
  std::vector<std::pair<TableHandle*, uint64_t>> fetched;
  for (const auto& [key, table] : missing) {
    keys.push_back(key);
    fetched.emplace_back(table, key.second);
  }
  std::vector<Result<FetchedRecord>> read =
      session_->record_buffer()->Read(client_, keys, snapshot_);
  for (size_t i = 0; i < keys.size(); ++i) {
    RecordState state;
    state.table = fetched[i].first;
    if (read[i].ok()) {
      state.record = std::move(read[i]->record);
      state.stamp = read[i]->stamp;
      state.exists = true;
    } else if (!read[i].status().IsNotFound()) {
      return read[i].status();
    }
    buffer_.emplace(keys[i], std::move(state));
  }
  return fetched;
}

Result<std::vector<std::optional<schema::Tuple>>> Transaction::BatchRead(
    TableHandle* table, const std::vector<uint64_t>& rids) {
  TELL_CHECK(state_ == TxnState::kRunning);
  obs::PhaseScope span(tracer_, sim::TxnPhase::kRead);
  // Fetch everything not yet buffered in one buffer read.
  std::vector<std::pair<TableHandle*, uint64_t>> records;
  records.reserve(rids.size());
  for (uint64_t rid : rids) records.emplace_back(table, rid);
  TELL_RETURN_NOT_OK(PrefetchMissing(records).status());
  std::vector<std::optional<schema::Tuple>> out;
  out.reserve(rids.size());
  for (uint64_t rid : rids) {
    TELL_ASSIGN_OR_RETURN(std::optional<schema::Tuple> tuple,
                          Read(table, rid));
    out.push_back(std::move(tuple));
  }
  return out;
}

Status Transaction::QueueIndexInserts(TableHandle* table, uint64_t rid,
                                      const schema::Tuple& tuple,
                                      const schema::Tuple* old_tuple) {
  auto queue_for = [&](index::BTree* tree, const schema::IndexDef& def)
      -> Status {
    TELL_ASSIGN_OR_RETURN(std::string new_key,
                          schema::EncodeIndexKey(tuple, def.key_columns));
    if (old_tuple != nullptr) {
      TELL_ASSIGN_OR_RETURN(
          std::string old_key,
          schema::EncodeIndexKey(*old_tuple, def.key_columns));
      // §5.3.2: an index entry is only inserted when the indexed key
      // actually changes; obsolete entries are collected later.
      if (old_key == new_key) return Status::OK();
    }
    index_ops_.push_back({tree, new_key, rid, def.unique});
    pending_index_[{tree->table(), new_key}].push_back(rid);
    return Status::OK();
  };
  TELL_RETURN_NOT_OK(queue_for(&table->primary, table->meta->primary.def));
  for (size_t i = 0; i < table->secondaries.size(); ++i) {
    TELL_RETURN_NOT_OK(
        queue_for(&table->secondaries[i], table->meta->secondaries[i].def));
  }
  return Status::OK();
}

Result<uint64_t> Transaction::Insert(TableHandle* table,
                                     const schema::Tuple& tuple,
                                     bool check_unique) {
  TELL_CHECK(state_ == TxnState::kRunning);
  obs::PhaseScope span(tracer_, sim::TxnPhase::kWrite);
  for (uint32_t column : table->meta->primary.def.key_columns) {
    if (schema::ValueIsNull(tuple.at(column))) {
      return Status::InvalidArgument("primary key column '" +
                                     table->meta->schema.column(column).name +
                                     "' must not be NULL");
    }
  }
  if (check_unique) {
    std::vector<schema::Value> key;
    for (uint32_t column : table->meta->primary.def.key_columns) {
      key.push_back(tuple.at(column));
    }
    TELL_ASSIGN_OR_RETURN(std::optional<uint64_t> existing,
                          LookupPrimary(table, key));
    if (existing.has_value()) {
      return Status::AlreadyExists("primary key already exists in '" +
                                   table->meta->name + "'");
    }
  }
  TELL_ASSIGN_OR_RETURN(uint64_t rid, session_->AllocateRid(table->meta));
  RecordState state;
  state.table = table;
  state.is_new = true;
  state.dirty = true;
  state.exists = false;
  state.record.PutVersion(tid_, tuple.Serialize(table->meta->schema));
  buffer_[{table->meta->data_table, rid}] = std::move(state);
  TELL_RETURN_NOT_OK(QueueIndexInserts(table, rid, tuple, nullptr));
  return rid;
}

Status Transaction::Update(TableHandle* table, uint64_t rid,
                           const schema::Tuple& tuple) {
  TELL_CHECK(state_ == TxnState::kRunning);
  obs::PhaseScope span(tracer_, sim::TxnPhase::kWrite);
  TELL_ASSIGN_OR_RETURN(RecordState * state, EnsureFetched(table, rid));
  TELL_RETURN_NOT_OK(CheckWritable(*state));
  const schema::RecordVersion* visible = Visible(*state);
  if (visible == nullptr || visible->tombstone) {
    return Status::NotFound("record not visible in this snapshot");
  }
  TELL_ASSIGN_OR_RETURN(
      schema::Tuple old_tuple,
      schema::Tuple::Deserialize(table->meta->schema, visible->payload));
  state->record.PutVersion(tid_, tuple.Serialize(table->meta->schema));
  state->dirty = true;
  return QueueIndexInserts(table, rid, tuple, &old_tuple);
}

Status Transaction::Delete(TableHandle* table, uint64_t rid) {
  TELL_CHECK(state_ == TxnState::kRunning);
  obs::PhaseScope span(tracer_, sim::TxnPhase::kWrite);
  TELL_ASSIGN_OR_RETURN(RecordState * state, EnsureFetched(table, rid));
  TELL_RETURN_NOT_OK(CheckWritable(*state));
  const schema::RecordVersion* visible = Visible(*state);
  if (visible == nullptr || visible->tombstone) {
    return Status::NotFound("record not visible in this snapshot");
  }
  state->record.PutVersion(tid_, "", /*tombstone=*/true);
  state->dirty = true;
  // Index entries stay; version-unaware indexes drop them via GC once no
  // version carries the key anymore (§5.3.2, §5.4).
  return Status::OK();
}

Result<std::optional<schema::Tuple>> Transaction::ValidateIndexHit(
    TableHandle* table, index::BTree* tree, const std::string& key,
    uint64_t rid) {
  const schema::IndexDef* def = nullptr;
  if (tree == &table->primary) {
    def = &table->meta->primary.def;
  } else {
    for (size_t i = 0; i < table->secondaries.size(); ++i) {
      if (tree == &table->secondaries[i]) {
        def = &table->meta->secondaries[i].def;
        break;
      }
    }
  }
  TELL_CHECK(def != nullptr);

  RecordKey record_key{table->meta->data_table, rid};
  bool own_pending = false;
  auto pending_it = pending_index_.find({tree->table(), key});
  if (pending_it != pending_index_.end()) {
    own_pending = std::find(pending_it->second.begin(),
                            pending_it->second.end(),
                            rid) != pending_it->second.end();
  }

  TELL_ASSIGN_OR_RETURN(RecordState * state, EnsureFetched(table, rid));
  // Record gone entirely, or dead for every present and future snapshot —
  // its newest version is a tombstone at or below the lav that this
  // snapshot sees (the lazy sweep's rule; a deleted row's insert version
  // outlives its commit's eager GC): the entry is orphaned — index GC
  // (§5.4).
  if (!state->dirty &&
      (!state->exists || (state->record.DeadAt(lav_) &&
                          Visible(*state) == state->record.Newest()))) {
    if (!own_pending) QueueIndexRemoval(tree, key, rid);
    return std::optional<schema::Tuple>{};
  }
  // Does ANY version still carry this key? If not, the entry is obsolete
  // (V_a \ G = ∅ approximation: no live version contains a).
  bool key_in_some_version = false;
  std::optional<schema::Tuple> match;
  const schema::RecordVersion* visible = Visible(*state);
  for (const schema::RecordVersion& version : state->record.versions()) {
    if (version.tombstone) continue;
    auto tuple = schema::Tuple::Deserialize(table->meta->schema,
                                            version.payload);
    if (!tuple.ok()) continue;
    auto version_key = schema::EncodeIndexKey(*tuple, def->key_columns);
    if (version_key.ok() && *version_key == key) {
      key_in_some_version = true;
      if (visible != nullptr && visible->version == version.version &&
          !visible->tombstone) {
        match = std::move(*tuple);
      }
    }
  }
  if (!key_in_some_version && !own_pending) {
    QueueIndexRemoval(tree, key, rid);
  }
  return match;
}

void Transaction::QueueIndexRemoval(index::BTree* tree, const std::string& key,
                                    uint64_t rid) {
  if (gc_queued_.emplace(tree->table(), key, rid).second) {
    gc_removals_.push_back({tree, key, rid, /*unique=*/false,
                            /*remove=*/true});
  }
}

Result<std::vector<std::vector<uint64_t>>> Transaction::LookupVisible(
    const std::vector<TableHandle*>& tables,
    const std::vector<index::TreeKey>& keys) {
  TELL_CHECK(state_ == TxnState::kRunning);
  // Index-lookup span; the record fetches re-attribute their time to the
  // read phase (exclusive attribution).
  obs::PhaseScope span(tracer_, sim::TxnPhase::kIndexLookup);
  TELL_ASSIGN_OR_RETURN(std::vector<std::vector<uint64_t>> rid_lists,
                        index::BTree::BatchLookup(client_, keys));
  TELL_CHECK(rid_lists.size() == keys.size());
  // Merge this transaction's pending inserts and dedup.
  for (size_t i = 0; i < keys.size(); ++i) {
    auto pending_it = pending_index_.find({keys[i].tree->table(), keys[i].key});
    if (pending_it != pending_index_.end()) {
      for (uint64_t rid : pending_it->second) rid_lists[i].push_back(rid);
    }
    std::sort(rid_lists[i].begin(), rid_lists[i].end());
    rid_lists[i].erase(std::unique(rid_lists[i].begin(), rid_lists[i].end()),
                       rid_lists[i].end());
  }
  // Prefetch every candidate record of every table up front so the
  // validation below is served from the transaction buffer.
  {
    obs::PhaseScope read_span(tracer_, sim::TxnPhase::kRead);
    std::vector<std::pair<TableHandle*, uint64_t>> candidates;
    for (size_t i = 0; i < keys.size(); ++i) {
      for (uint64_t rid : rid_lists[i]) {
        candidates.emplace_back(tables[i], rid);
      }
    }
    TELL_RETURN_NOT_OK(PrefetchMissing(candidates).status());
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    std::vector<uint64_t> visible;
    for (uint64_t rid : rid_lists[i]) {
      TELL_ASSIGN_OR_RETURN(
          std::optional<schema::Tuple> tuple,
          ValidateIndexHit(tables[i], keys[i].tree, keys[i].key, rid));
      if (tuple.has_value()) visible.push_back(rid);
    }
    rid_lists[i] = std::move(visible);
  }
  return rid_lists;
}

Result<std::vector<uint64_t>> Transaction::LookupIndex(
    TableHandle* table, int index, const std::vector<schema::Value>& key) {
  index::BTree* tree =
      index < 0 ? &table->primary
                : &table->secondaries[static_cast<size_t>(index)];
  TELL_ASSIGN_OR_RETURN(std::string encoded,
                        schema::EncodeIndexKeyValues(key));
  TELL_ASSIGN_OR_RETURN(std::vector<std::vector<uint64_t>> rids,
                        LookupVisible({table}, {{tree, std::move(encoded)}}));
  return std::move(rids.front());
}

Result<std::optional<uint64_t>> Transaction::LookupPrimary(
    TableHandle* table, const std::vector<schema::Value>& key) {
  TELL_ASSIGN_OR_RETURN(std::vector<std::optional<uint64_t>> rids,
                        BatchLookupPrimary({{table, key}}));
  return rids.front();
}

Result<std::vector<std::optional<uint64_t>>> Transaction::BatchLookupPrimary(
    const std::vector<TableKey>& keys) {
  std::vector<TableHandle*> tables;
  std::vector<index::TreeKey> tree_keys;
  tables.reserve(keys.size());
  tree_keys.reserve(keys.size());
  for (const TableKey& k : keys) {
    TELL_ASSIGN_OR_RETURN(std::string encoded,
                          schema::EncodeIndexKeyValues(k.key));
    tables.push_back(k.table);
    tree_keys.push_back({&k.table->primary, std::move(encoded)});
  }
  TELL_ASSIGN_OR_RETURN(std::vector<std::vector<uint64_t>> rid_lists,
                        LookupVisible(tables, tree_keys));
  std::vector<std::optional<uint64_t>> out;
  out.reserve(keys.size());
  for (const std::vector<uint64_t>& rids : rid_lists) {
    if (rids.size() > 1) {
      return Status::InternalError("unique index returned multiple rids");
    }
    out.push_back(rids.empty() ? std::nullopt
                               : std::optional<uint64_t>(rids.front()));
  }
  return out;
}

Result<std::optional<schema::Tuple>> Transaction::ReadByKey(
    TableHandle* table, const std::vector<schema::Value>& key) {
  TELL_ASSIGN_OR_RETURN(std::optional<uint64_t> rid,
                        LookupPrimary(table, key));
  if (!rid.has_value()) return std::optional<schema::Tuple>{};
  return Read(table, *rid);
}

Result<std::optional<std::pair<uint64_t, schema::Tuple>>>
Transaction::ReadByKeyWithRid(TableHandle* table,
                              const std::vector<schema::Value>& key) {
  TELL_ASSIGN_OR_RETURN(std::optional<uint64_t> rid,
                        LookupPrimary(table, key));
  if (!rid.has_value()) {
    return std::optional<std::pair<uint64_t, schema::Tuple>>{};
  }
  TELL_ASSIGN_OR_RETURN(std::optional<schema::Tuple> tuple,
                        Read(table, *rid));
  if (!tuple.has_value()) {
    return std::optional<std::pair<uint64_t, schema::Tuple>>{};
  }
  return std::optional<std::pair<uint64_t, schema::Tuple>>(
      std::make_pair(*rid, std::move(*tuple)));
}

Result<std::vector<std::pair<uint64_t, schema::Tuple>>> Transaction::ScanIndex(
    TableHandle* table, int index, const std::vector<schema::Value>& start,
    const std::vector<schema::Value>& end, size_t limit) {
  std::string lo, hi;
  if (!start.empty()) {
    TELL_ASSIGN_OR_RETURN(lo, schema::EncodeIndexKeyValues(start));
  }
  if (!end.empty()) {
    TELL_ASSIGN_OR_RETURN(hi, schema::EncodeIndexKeyValues(end));
  }
  return ScanIndexEncoded(table, index, lo, hi, limit);
}

Result<std::vector<std::pair<uint64_t, schema::Tuple>>>
Transaction::ScanIndexEncoded(TableHandle* table, int index,
                              const std::string& lo, const std::string& hi,
                              size_t limit) {
  TELL_ASSIGN_OR_RETURN(auto rows,
                        BatchScanIndex({{table, index, lo, hi, limit}}));
  return std::move(rows.front());
}

Result<std::vector<std::vector<std::pair<uint64_t, schema::Tuple>>>>
Transaction::BatchScanIndex(const std::vector<IndexRange>& ranges) {
  TELL_CHECK(state_ == TxnState::kRunning);
  obs::PhaseScope span(tracer_, sim::TxnPhase::kIndexLookup);
  auto entry_less = [](const index::IndexEntry& a,
                       const index::IndexEntry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.rid < b.rid;
  };
  struct Scan {
    index::BTree* tree = nullptr;
    index::ScanCursor cursor;
    /// This transaction's pending inserts in the range, merged into the
    /// candidates up to the tree's scan horizon so that validation stays
    /// in global key order.
    std::vector<index::IndexEntry> pending;
    size_t pending_pos = 0;
    /// Entries to validate, in key order; [0, next) are validated.
    std::vector<index::IndexEntry> candidates;
    size_t next = 0;
    /// Every (key, rid) ever made a candidate: a pending insert merged at
    /// the horizon may meet its own tree entry in a later leaf.
    std::set<std::pair<std::string, uint64_t>> seen;
    bool done = false;
  };
  std::vector<Scan> scans(ranges.size());
  std::vector<std::vector<std::pair<uint64_t, schema::Tuple>>> out(
      ranges.size());
  for (size_t r = 0; r < ranges.size(); ++r) {
    const IndexRange& range = ranges[r];
    Scan& scan = scans[r];
    scan.tree = range.index < 0
                    ? &range.table->primary
                    : &range.table->secondaries[static_cast<size_t>(
                          range.index)];
    scan.cursor.tree = scan.tree;
    scan.cursor.start = range.lo;
    scan.cursor.end = range.hi;
    for (const auto& [key, rids] : pending_index_) {
      if (key.first != scan.tree->table()) continue;
      if (key.second < range.lo) continue;
      if (!range.hi.empty() && key.second >= range.hi) continue;
      for (uint64_t rid : rids) scan.pending.push_back({key.second, rid});
    }
    std::sort(scan.pending.begin(), scan.pending.end(), entry_less);
  }
  // Candidates a range still wants validated this round: the rows it
  // lacks, or everything for an unlimited range.
  auto wanted = [&](size_t r) -> size_t {
    if (ranges[r].limit == 0) return static_cast<size_t>(-1);
    return ranges[r].limit - out[r].size();
  };

  while (true) {
    // 1. Leaf rounds for every range with fewer unvalidated candidates than
    //    it wants (BTree::BatchScan reads whole leaves).
    std::vector<index::ScanCursor*> cursors;
    std::vector<size_t> scanned;
    for (size_t r = 0; r < scans.size(); ++r) {
      Scan& scan = scans[r];
      if (scan.done || scan.cursor.exhausted) continue;
      const size_t available = scan.candidates.size() - scan.next;
      if (ranges[r].limit != 0 && available >= wanted(r)) continue;
      scan.cursor.want = ranges[r].limit == 0 ? 0 : wanted(r) - available;
      cursors.push_back(&scan.cursor);
      scanned.push_back(r);
    }
    TELL_RETURN_NOT_OK(index::BTree::BatchScan(client_, cursors));
    for (size_t r : scanned) {
      Scan& scan = scans[r];
      // Drop the validated prefix; merge the new entries with the pending
      // inserts up to the horizon (all of them once the tree is done).
      scan.candidates.erase(scan.candidates.begin(),
                            scan.candidates.begin() +
                                static_cast<ptrdiff_t>(scan.next));
      scan.next = 0;
      const size_t merged_from = scan.candidates.size();
      const std::string horizon = scan.cursor.entries.empty()
                                      ? std::string()
                                      : scan.cursor.entries.back().key;
      auto add = [&scan](index::IndexEntry entry) {
        if (scan.seen.emplace(entry.key, entry.rid).second) {
          scan.candidates.push_back(std::move(entry));
        }
      };
      for (index::IndexEntry& entry : scan.cursor.entries) {
        add(std::move(entry));
      }
      scan.cursor.entries.clear();
      while (scan.pending_pos < scan.pending.size() &&
             (scan.cursor.exhausted ||
              scan.pending[scan.pending_pos].key <= horizon)) {
        add(scan.pending[scan.pending_pos++]);
      }
      std::sort(scan.candidates.begin() + static_cast<ptrdiff_t>(merged_from),
                scan.candidates.end(), entry_less);
    }

    // 2. One record round: the next wanted candidates of every range.
    std::vector<std::pair<size_t, size_t>> batch;  // range, candidates end
    std::vector<std::pair<TableHandle*, uint64_t>> records;
    for (size_t r = 0; r < scans.size(); ++r) {
      Scan& scan = scans[r];
      if (scan.done) continue;
      const size_t take =
          std::min(scan.candidates.size() - scan.next, wanted(r));
      if (take == 0 && scan.cursor.exhausted) {
        scan.done = true;
        continue;
      }
      batch.emplace_back(r, scan.next + take);
      for (size_t c = scan.next; c < scan.next + take; ++c) {
        records.emplace_back(ranges[r].table, scan.candidates[c].rid);
      }
    }
    if (batch.empty()) break;
    // Records not yet buffered travel in one batched request (§5.1) and are
    // read like BatchRead reads them, so validation below is buffer-only.
    {
      obs::PhaseScope read_span(tracer_, sim::TxnPhase::kRead);
      TELL_ASSIGN_OR_RETURN(auto fetched, PrefetchMissing(records));
      for (const auto& [table, rid] : fetched) {
        TELL_RETURN_NOT_OK(Read(table, rid).status());
      }
    }

    // 3. Validate in key order.
    for (const auto& [r, end] : batch) {
      Scan& scan = scans[r];
      for (; scan.next < end && !scan.done; ++scan.next) {
        const index::IndexEntry& entry = scan.candidates[scan.next];
        TELL_ASSIGN_OR_RETURN(
            std::optional<schema::Tuple> tuple,
            ValidateIndexHit(ranges[r].table, scan.tree, entry.key,
                             entry.rid));
        if (!tuple.has_value()) continue;
        out[r].emplace_back(entry.rid, std::move(*tuple));
        if (ranges[r].limit != 0 && out[r].size() >= ranges[r].limit) {
          scan.done = true;
        }
      }
    }
  }
  return out;
}

Status Transaction::ValidateReadSet() {
  std::vector<store::GetOp> ops;
  std::vector<uint64_t> expected;
  for (const auto& [key, state] : buffer_) {
    if (state.dirty) continue;  // writes are validated by LL/SC itself
    if (!state.exists) continue;  // absent records: phantom-style validation
                                  // is out of scope (no gap locks)
    // A version committed after our snapshot but before our read is
    // invisible to us, yet the stamp check below cannot see it: the read
    // must have returned the newest version in the cell.
    const schema::VersionedRecord& record = state.record;
    if (record.Newest() != record.VisibleVersion(snapshot_, tid_)) {
      return Status::Aborted("serializable validation: stale read");
    }
    ops.push_back({key.first, RidKey(key.second)});
    expected.push_back(state.stamp);
  }
  if (ops.empty()) return Status::OK();
  std::vector<Result<store::VersionedCell>> cells = client_->BatchGet(ops);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (!cells[i].ok() || cells[i]->stamp != expected[i]) {
      return Status::Aborted("serializable validation: read set changed");
    }
  }
  return Status::OK();
}

std::function<bool(std::string_view, std::string*)>
Transaction::VisibilityClosure() const {
  // Copies of the snapshot and tid: the closure outlives no transaction,
  // but it does run "on the storage node", conceptually shipped with the
  // request.
  SnapshotDescriptor snapshot = snapshot_;
  Tid tid = tid_;
  return [snapshot, tid](std::string_view value, std::string* payload) {
    auto record = schema::VersionedRecord::Deserialize(value);
    if (!record.ok()) return false;
    const schema::RecordVersion* visible =
        record->VisibleVersion(snapshot, tid);
    if (visible == nullptr || visible->tombstone) return false;
    payload->assign(visible->payload);
    return true;
  };
}

bool Transaction::HasDirtyWrites(const TableHandle* table) const {
  for (const auto& [key, state] : buffer_) {
    if (state.dirty && key.first == table->meta->data_table) return true;
  }
  return false;
}

bool Transaction::CanFoldOnStorage(const TableHandle* table) const {
  return !options_.serializable && !HasDirtyWrites(table);
}

namespace {

/// Serialized size charged per partition request for FilteredScan's
/// predicate, which travels as a closure rather than a descriptor.
constexpr uint64_t kFilterDescriptorBytes = 64;

/// Row-collecting sink behind FilteredScan. Per cell it judges visibility
/// under the transaction's snapshot, decodes the visible tuple and applies
/// the predicate (if any); each match ships its visible payload (not the
/// stored version history). Stops after `limit` matches (0 = unlimited).
class RowFragmentSink : public store::FragmentSink {
 public:
  using VisibleFn = std::function<bool(std::string_view, std::string*)>;

  RowFragmentSink(const schema::Schema* schema,
                  const Transaction::RowPredicate* predicate,
                  const VisibleFn* visible, size_t limit)
      : schema_(schema),
        predicate_(predicate),
        visible_(visible),
        limit_(limit) {}

  bool Absorb(std::string_view key, std::string_view value) override {
    if (!status_.ok()) return false;
    if (key.size() != sizeof(uint64_t)) return true;  // meta cells
    payload_.clear();
    if (!(*visible_)(value, &payload_)) return true;
    auto tuple = schema::Tuple::Deserialize(*schema_, payload_);
    Result<bool> pass = !tuple.ok()   ? Result<bool>(tuple.status())
                        : *predicate_ ? (*predicate_)(*tuple)
                                      : Result<bool>(true);
    if (!pass.ok()) {
      status_ = pass.status();
      return false;
    }
    if (!*pass) return true;
    wire_.PutString(key);
    wire_.PutString(payload_);
    rows_.emplace_back(DecodeOrderedU64(key), std::move(*tuple));
    return limit_ == 0 || rows_.size() < limit_;
  }
  std::string Finish() override { return wire_.data(); }
  uint64_t rows_returned() const override { return rows_.size(); }
  /// The shipped rows are the row-shipping baseline itself: nothing saved.
  uint64_t baseline_bytes() const override { return wire_.size(); }
  Status status() const override { return status_; }

  /// Matches in rid order, decoded once on the storage side.
  std::vector<std::pair<uint64_t, schema::Tuple>>& rows() { return rows_; }

 private:
  const schema::Schema* const schema_;
  const Transaction::RowPredicate* const predicate_;
  const VisibleFn* const visible_;
  const size_t limit_;
  std::vector<std::pair<uint64_t, schema::Tuple>> rows_;
  BufferWriter wire_;
  Status status_ = Status::OK();
  std::string payload_;  // scratch, reused across cells
};

}  // namespace

Result<std::vector<std::pair<uint64_t, schema::Tuple>>>
Transaction::FilteredScan(TableHandle* table, const RowPredicate& predicate,
                          size_t limit) {
  TELL_CHECK(state_ == TxnState::kRunning);
  obs::PhaseScope span(tracer_, sim::TxnPhase::kRead);
  const schema::Schema& schema = table->meta->schema;
  // Dirty buffered rows overlay the server's result below; they could both
  // displace and add rows, so a server-side limit would truncate wrongly.
  const bool has_dirty = HasDirtyWrites(table);
  if (has_dirty) limit = 0;
  const auto visible = VisibilityClosure();
  TELL_ASSIGN_OR_RETURN(
      store::FragmentScanOutcome outcome,
      FanOutFragment(
          table, kFilterDescriptorBytes,
          [&](uint32_t) {
            return std::make_unique<RowFragmentSink>(&schema, &predicate,
                                                     &visible, limit);
          },
          /*pushed_down=*/static_cast<bool>(predicate)));
  std::vector<std::pair<uint64_t, schema::Tuple>> out;
  for (const auto& sink : outcome.sinks) {
    auto* row_sink = static_cast<RowFragmentSink*>(sink.get());
    for (auto& [rid, tuple] : row_sink->rows()) {
      // Own dirty records are overlaid below from the private buffer.
      auto buffered = buffer_.find(RecordKey{table->meta->data_table, rid});
      if (buffered != buffer_.end() && buffered->second.dirty) continue;
      client_->ChargeCpu(client_->options().cpu.per_record_ns);
      out.emplace_back(rid, std::move(tuple));
    }
  }
  // Merge this transaction's own pending writes that match.
  for (const auto& [key, state] : buffer_) {
    if (!state.dirty || key.first != table->meta->data_table) continue;
    const schema::RecordVersion* visible_version =
        state.record.VisibleVersion(snapshot_, tid_);
    if (visible_version == nullptr || visible_version->tombstone) continue;
    TELL_ASSIGN_OR_RETURN(
        schema::Tuple tuple,
        schema::Tuple::Deserialize(schema, visible_version->payload));
    bool pass = true;
    if (predicate) {
      TELL_ASSIGN_OR_RETURN(pass, predicate(tuple));
    }
    if (pass) out.emplace_back(key.second, std::move(tuple));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (limit != 0 && out.size() > limit) out.resize(limit);
  if (options_.serializable) {
    // The scan's records carry no stamps; one batched read puts them in
    // the buffer, the read set ValidateReadSet checks at commit.
    std::vector<std::pair<TableHandle*, uint64_t>> records;
    records.reserve(out.size());
    for (const auto& [rid, tuple] : out) records.emplace_back(table, rid);
    TELL_RETURN_NOT_OK(PrefetchMissing(records).status());
  }
  return out;
}

Result<store::FragmentScanOutcome> Transaction::ExecuteScanFragment(
    TableHandle* table, uint64_t descriptor_bytes,
    const store::FragmentSinkFactory& make_sink) {
  TELL_CHECK(state_ == TxnState::kRunning);
  obs::PhaseScope span(tracer_, sim::TxnPhase::kRead);
  if (!CanFoldOnStorage(table)) {
    return Status::InvalidArgument(
        "scan fragment with buffered dirty writes or in a serializable "
        "transaction: fold on the processing node");
  }
  return FanOutFragment(table, descriptor_bytes, make_sink,
                        /*pushed_down=*/true);
}

Result<store::FragmentScanOutcome> Transaction::FanOutFragment(
    TableHandle* table, uint64_t descriptor_bytes,
    const store::FragmentSinkFactory& make_sink, bool pushed_down) {
  TELL_ASSIGN_OR_RETURN(
      store::FragmentScanOutcome outcome,
      client_->ExecuteFragmentScan(table->meta->data_table, descriptor_bytes,
                                   make_sink));
  if (!pushed_down) return outcome;
  sim::WorkerMetrics* metrics = client_->metrics();
  metrics->scan_fragments += outcome.partitions;
  metrics->scan_rows_scanned += outcome.rows_scanned;
  metrics->scan_rows_returned += outcome.rows_returned;
  metrics->scan_chunk_lock_releases += outcome.chunk_lock_releases;
  if (outcome.baseline_bytes > outcome.response_bytes) {
    metrics->scan_bytes_saved +=
        outcome.baseline_bytes - outcome.response_bytes;
  }
  return outcome;
}

Status Transaction::FinishCommitEmpty() {
  // A read-only transaction sends its index GC as a batch of its own; GC is
  // best effort, so a failure does not fail the commit.
  if (!gc_removals_.empty()) {
    index::BTree::Prepared prepared;
    if (PrepareIndexOps({}, nullptr, &prepared).ok()) {
      (void)WriteIndexOps(&prepared);
    }
  }
  Status st = session_->commitmgr_client()->Finish(commit_manager_, tid_,
                                                   /*committed=*/true);
  state_ = TxnState::kCommitted;
  client_->metrics()->committed += 1;
  return st;
}

Status Transaction::AbortCommit(const Status& cause) {
  (void)session_->commitmgr_client()->Finish(commit_manager_, tid_,
                                             /*committed=*/false);
  state_ = TxnState::kAborted;
  client_->metrics()->aborted += 1;
  if (cause.IsConditionFailed()) {
    return Status::Aborted("write-write conflict on commit");
  }
  if (cause.IsAlreadyExists()) {
    return Status::Aborted("unique index conflict on commit");
  }
  return cause;
}

Status Transaction::Commit() {
  if (state_ != TxnState::kRunning) {
    return Status::InvalidArgument("transaction not running");
  }
  obs::PhaseScope commit_span(tracer_, sim::TxnPhase::kCommit);
  client_->ChargeCpu(client_->options().cpu.per_txn_ns);

  std::vector<RecordKey> dirty;
  for (auto& [key, state] : buffer_) {
    if (state.dirty) dirty.push_back(key);
  }
  if (dirty.empty()) return FinishCommitEmpty();

  // 1. Try-Commit: append the log entry with the write set (§4.3 step 3).
  //    Its put travels in the first round of step 3a, the index
  //    preparation: the descent to every leaf the index ops touch, with the
  //    unique checks. Neither reads what the apply writes, and nothing of
  //    this transaction is visible before the apply — so a unique violation
  //    aborts here with nothing to undo, and the unflagged log entry makes
  //    recovery revert nothing.
  LogEntry entry;
  entry.tid = tid_;
  entry.pn_id = session_->pn_id();
  entry.timestamp_ns = session_->clock()->now_ns();
  for (const RecordKey& key : dirty) entry.write_set.push_back(key);
  index::BTree::Prepared prepared;
  std::vector<Result<uint64_t>> appended;
  Status prepare_status = PrepareIndexOps({session_->log()->AppendOp(entry)},
                                          &appended, &prepared);
  TELL_CHECK(appended.size() == 1);
  Status log_status = session_->log()->Appended(client_, appended.front());
  if (!log_status.ok() || !prepare_status.ok()) {
    // A failed append is reported as it is: its AlreadyExists means a log
    // entry for this tid exists, not a unique violation.
    Status aborted = AbortCommit(prepare_status);
    return log_status.ok() ? aborted : log_status;
  }

  // 2. Apply all buffered updates with LL/SC conditional puts. Records also
  //    get their eager version GC here (§5.4: "record GC is part of the
  //    update process"). The apply + read-set validation is the conflict
  //    detection window, traced as the validate phase. The fresh nodes of
  //    the index splits planned in step 3a ride the apply's round: nothing
  //    reaches a fresh node before its split node's shrink lands in step
  //    3b (B-link), so no entry becomes reachable before its record. An
  //    abort from here to step 3b erases them again.
  std::vector<uint64_t> new_stamps(dirty.size(), 0);
  {
    obs::PhaseScope validate_span(tracer_, sim::TxnPhase::kValidate);
    std::vector<store::WriteOp> ops;
    ops.reserve(dirty.size());
    for (const RecordKey& key : dirty) {
      RecordState& state = buffer_[key];
      client_->metrics()->eager_gc_versions +=
          state.record.CollectGarbage(lav_);
      ops.push_back({key.first, RidKey(key.second), state.record.Serialize(),
                     state.stamp, /*conditional=*/true, /*erase=*/false});
    }
    std::vector<Result<uint64_t>> results;
    Status published = index::BTree::PublishFresh(client_, &prepared,
                                                  std::move(ops), &results);
    Status failure;
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        new_stamps[i] = *results[i];
      } else if (failure.ok()) {
        failure = results[i].status();
      }
    }
    if (failure.ok()) failure = published;
    // 2b. Serializable SI: validate the read set AFTER the writes are
    //     installed (Silo-style ordering — see TxnOptions::serializable).
    if (failure.ok() && options_.serializable) failure = ValidateReadSet();
    if (!failure.ok()) {
      // Write-write conflict, read-set conflict or storage failure: revert
      // the whole dirty set — an ambiguous conditional put may have applied
      // even though it reported failure, and RollbackApplied skips records
      // without our version after one read.
      RollbackApplied(dirty, index::BTree::FreshNodeErases(prepared));
      return AbortCommit(failure);
    }
  }

  // 3b. Alter the indexes to reflect the updates (§4.3 step 4a), after the
  //     apply: an entry must never land before its record, or a reader's
  //     ValidateIndexHit would collect it as garbage. One round writes
  //     every leaf and shrinks every split node.
  // 4. The commit flag in the log rides the next round, with the
  //    separators the splits owe their parents — it waits for every index
  //    entry, and a lost separator leaves only a node reachable by its
  //    left neighbour's right link. The log's committed flag is the
  //    SOURCE OF TRUTH: recovery rolls back every unflagged entry, so
  //    telling the commit manager "committed" (step 5) while the flag
  //    write failed would let recovery silently undo a transaction other
  //    workers already observed. If the flag cannot be written even after
  //    the client's retries, the transaction must abort instead: undo
  //    indexes and data, then notify the manager of the abort.
  std::vector<Result<uint64_t>> flagged;
  Status index_status = WriteIndexOps(
      &prepared, {session_->log()->MarkCommittedOp(std::move(entry))},
      &flagged);
  if (!index_status.ok()) {
    // Unique-index race found on a retry (a racing insert of the same key
    // took the leaf after step 3a read it) or a storage failure: the data
    // updates must not become durable — and neither must the index entries
    // inserted so far (WriteIndexOps already removed them again), or
    // lookups under those keys would drag a never-committed rid through
    // validation forever (a unique index would even turn it into a
    // permanent InternalError for the racing winner's key).
    RollbackApplied(dirty);
    return AbortCommit(index_status);
  }
  TELL_CHECK(flagged.size() == 1);
  Status mark = flagged.front().status();
  if (!mark.ok()) {
    client_->metrics()->commit_flag_failures += 1;
    TELL_LOG(kWarn) << "commit flag write failed for tid " << tid_ << " ("
                    << mark.ToString() << "); aborting";
    RollbackIndexInserts(std::vector<bool>(index_ops_.size(), true));
    RollbackApplied(dirty);
    return AbortCommit(
        Status::Aborted("commit flag write failed: " + mark.ToString()));
  }

  // 5. Write-through to the PN's shared buffer (if any), then notify the
  //    commit manager. Until Finish no snapshot holds this transaction, so
  //    no buffer can serve a pre-commit copy to a snapshot that holds it,
  //    nor label this image valid for one that holds a later writer.
  {
    obs::PhaseScope sync_span(tracer_, sim::TxnPhase::kBufferSync);
    for (size_t i = 0; i < dirty.size(); ++i) {
      RecordState& state = buffer_[dirty[i]];
      session_->record_buffer()->OnApply(client_, dirty[i].first,
                                         dirty[i].second, state.record,
                                         new_stamps[i], tid_, snapshot_);
    }
  }
  (void)session_->commitmgr_client()->Finish(commit_manager_, tid_,
                                             /*committed=*/true);

  state_ = TxnState::kCommitted;
  client_->metrics()->committed += 1;
  return Status::OK();
}

RevertCounts RevertVersions(store::StorageClient* client,
                            const std::vector<RecordKey>& keys, Tid tid,
                            const std::vector<store::WriteOp>& riders) {
  RevertCounts counts;
  std::vector<RecordKey> pending = keys;
  for (int retry = 0; retry < kMaxRevertRetries && !pending.empty();
       ++retry) {
    std::vector<store::GetOp> gets;
    gets.reserve(pending.size());
    for (const RecordKey& key : pending) {
      gets.push_back({key.first, RidKey(key.second)});
    }
    static const std::vector<store::WriteOp> kNoRiders;
    std::vector<Result<store::VersionedCell>> cells =
        client->BatchReadWrite(gets, retry == 0 ? riders : kNoRiders).gets;
    std::vector<store::WriteOp> reverts;
    std::vector<RecordKey> reverting;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (!cells[i].ok()) {
        // NotFound means there is nothing to revert. Anything else is a
        // transient failure that survived the client's own retries: leave
        // the version to lazy GC rather than giving up silently.
        if (!cells[i].status().IsNotFound()) ++counts.unresolved;
        continue;
      }
      auto record = schema::VersionedRecord::Deserialize(cells[i]->value);
      if (!record.ok()) {
        ++counts.unresolved;  // corrupt cell; nothing sensible to write
        continue;
      }
      // No version `tid`: not applied, or already reverted.
      if (!record->RemoveVersion(tid)) continue;
      const bool erase = record->Empty();
      reverts.push_back({pending[i].first, RidKey(pending[i].second),
                         erase ? std::string() : record->Serialize(),
                         cells[i]->stamp, /*conditional=*/true, erase});
      reverting.push_back(pending[i]);
    }
    pending.clear();
    if (reverts.empty()) break;
    std::vector<Result<uint64_t>> results = client->BatchWrite(reverts);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        ++counts.reverted;
      } else if (results[i].status().IsConditionFailed()) {
        // A concurrent writer moved the stamp: re-read and retry.
        pending.push_back(reverting[i]);
      } else {
        ++counts.unresolved;  // the client's own retries are exhausted
      }
    }
  }
  counts.unresolved += pending.size();
  return counts;
}

void Transaction::RollbackApplied(const std::vector<RecordKey>& dirty,
                                  const std::vector<store::WriteOp>& riders) {
  client_->metrics()->rollback_unresolved +=
      RevertVersions(client_, dirty, tid_, riders).unresolved;
}

Status Transaction::PrepareIndexOps(
    const std::vector<store::WriteOp>& riders,
    std::vector<Result<uint64_t>>* rider_results,
    index::BTree::Prepared* prepared) {
  // The GC removals go first: an entry this transaction collected and then
  // inserted again must end up present.
  std::vector<index::BatchInsertOp> ops = gc_removals_;
  ops.insert(ops.end(), index_ops_.begin(), index_ops_.end());
  return index::BTree::PrepareInsert(client_, std::move(ops), riders,
                                     rider_results, prepared);
}

Status Transaction::WriteIndexOps(
    index::BTree::Prepared* prepared, std::vector<store::WriteOp> riders,
    std::vector<Result<uint64_t>>* rider_results) {
  Status st = index::BTree::WriteInsert(client_, prepared, std::move(riders),
                                        rider_results);
  const std::vector<bool>& done = prepared->inserted();
  const auto removals = static_cast<ptrdiff_t>(gc_removals_.size());
  gc_removals_.clear();
  client_->metrics()->gc_index_entries += static_cast<uint64_t>(
      std::count(done.begin(), done.begin() + removals, true));
  // Undo exactly the entries that made it in before the failure.
  if (!st.ok()) {
    RollbackIndexInserts(std::vector<bool>(done.begin() + removals,
                                           done.end()));
  }
  return st;
}

void Transaction::RollbackIndexInserts(const std::vector<bool>& applied) {
  // Undo of commit step 3. Remove is idempotent, and no other transaction
  // can have inserted the same (key, rid) pair: reaching step 3 requires
  // winning the LL/SC on the record, so two live transactions never carry
  // index ops for the same rid.
  std::vector<index::BatchInsertOp> removes;
  for (size_t i = 0; i < index_ops_.size(); ++i) {
    if (!applied[i]) continue;
    const index::BatchInsertOp& op = index_ops_[i];
    removes.push_back({op.tree, op.key, op.rid, /*unique=*/false,
                       /*remove=*/true});
  }
  if (removes.empty()) return;
  std::vector<bool> removed;
  (void)index::BTree::BatchInsert(client_, removes, &removed);
  client_->metrics()->index_rollbacks += removes.size();
}

Status Transaction::Abort() {
  if (state_ != TxnState::kRunning) {
    return Status::InvalidArgument("transaction not running");
  }
  // Manual abort: nothing was applied (we never reached Try-Commit), so only
  // the commit manager needs to know (§4.3 step 4b).
  (void)session_->commitmgr_client()->Finish(commit_manager_, tid_,
                                               /*committed=*/false);
  state_ = TxnState::kAborted;
  client_->metrics()->aborted += 1;
  return Status::OK();
}

}  // namespace tell::tx
