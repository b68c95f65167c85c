#include "store/storage_client.h"

#include <algorithm>

#include "common/logging.h"

namespace tell::store {

namespace {
// Fixed wire framing per logical op inside a request (op code, table id,
// lengths).
constexpr uint64_t kPerOpHeaderBytes = 16;
// Fixed framing per request (rpc header).
constexpr uint64_t kPerRequestHeaderBytes = 32;
// Response of a write: status plus the new stamp.
constexpr uint64_t kWriteResponseBytes = 16;

// Response of a read: the cell's value plus its stamp, or a bare status.
uint64_t ReadResponseBytes(const Result<VersionedCell>& result) {
  return result.ok() ? result->value.size() + 8 : 8;
}
}  // namespace

void StorageClient::ApplyNodeKill(const sim::FaultInjector::Decision& d) {
  if (d.kill_node >= 0 &&
      d.kill_node < static_cast<int64_t>(cluster_->num_nodes())) {
    cluster_->node(static_cast<uint32_t>(d.kill_node))->Kill();
  }
}

void StorageClient::SetFailed(Op* op, const Status& status) {
  if (op->write == nullptr) {
    op->get_result = Result<VersionedCell>(status);
  } else {
    op->write_result = Result<uint64_t>(status);
  }
}

void StorageClient::ChargeRequest(uint64_t request_bytes,
                                  uint64_t response_bytes) {
  clock_->Advance(options_.network.RequestCost(
      request_bytes + kPerRequestHeaderBytes, response_bytes));
  metrics_->storage_requests += 1;
  metrics_->bytes_sent += request_bytes + kPerRequestHeaderBytes;
  metrics_->bytes_received += response_bytes;
}

void StorageClient::ChargeParallelRequests(
    const std::vector<std::pair<uint64_t, uint64_t>>& per_request_bytes) {
  uint64_t max_cost = 0;
  for (const auto& [req, resp] : per_request_bytes) {
    max_cost = std::max(max_cost, options_.network.RequestCost(
                                      req + kPerRequestHeaderBytes, resp));
    metrics_->storage_requests += 1;
    metrics_->bytes_sent += req + kPerRequestHeaderBytes;
    metrics_->bytes_received += resp;
  }
  clock_->Advance(max_cost);
}

void StorageClient::ChargeReplication(uint64_t num_writes) {
  // Synchronous replication: the master does not acknowledge until the
  // backups have the write. Replication of the writes inside one request is
  // processed per record on the master (RamCloud forwards each object to
  // its backups and waits for the ack before acknowledging the client), so
  // the charge scales with the number of written records times the backup
  // chain length. The factor 2 covers the backup's write path (forward +
  // log append + ack), which measured RamCloud numbers put at roughly two
  // round-trip equivalents per backup.
  constexpr uint64_t kBackupWritePathFactor = 2;
  clock_->Advance(num_writes * kBackupWritePathFactor *
                  static_cast<uint64_t>(options_.replication_extra_hops) *
                  (options_.network.base_rtt_ns +
                   options_.network.software_overhead_ns));
}

uint64_t StorageClient::LeaseEpochOf(
    TableId table, const Result<Cluster::Route>& route) const {
  if (!route.ok()) return 0;
  return cluster_->lease_epochs().Epoch(table, route->partition);
}

bool StorageClient::CacheProbe(TableId table, std::string_view key,
                               const Result<uint32_t>& partition,
                               VersionedCell* out) {
  if (options_.record_cache == nullptr) return false;
  // Sampling the epoch *now* and requiring the entry's fill epoch to match
  // makes the hit byte-identical to a fresh fetch at this instant — the
  // read's linearization point (store/record_cache.h has the proof).
  const uint64_t epoch =
      partition.ok() ? cluster_->lease_epochs().Epoch(table, *partition) : 0;
  if (options_.record_cache->Get(table, key, epoch, out)) {
    metrics_->cache_hits += 1;
    return true;
  }
  metrics_->cache_misses += 1;
  return false;
}

void StorageClient::CacheFill(TableId table, std::string_view key,
                              const VersionedCell& cell, uint64_t fill_epoch) {
  if (options_.record_cache == nullptr) return;
  options_.record_cache->Put(table, key, cell, fill_epoch);
}

std::optional<Result<VersionedCell>> StorageClient::OneSidedFetch(
    Op* op, uint64_t* response_bytes) {
  // Seqlock-style validation: sample the partition's lease epoch, fetch the
  // raw cell, re-sample. An unchanged epoch proves no write raced the fetch
  // (every write bumps the epoch after mutating, inside its critical
  // section), so the bytes are exactly what a two-sided Get would return.
  const Result<Cluster::Route>& route = *op->route;
  uint64_t e0 = LeaseEpochOf(op->table, route);
  if (options_.fault_injector != nullptr) {
    sim::FaultInjector::Decision d = options_.fault_injector->OnRequest(
        sim::FaultOpClass::kOneSidedGet, op->table);
    ApplyNodeKill(d);
    if (d.extra_latency_ns > 0) clock_->Advance(d.extra_latency_ns);
    if (d.drop_request || d.drop_response) {
      // A lost READ work request or completion: the client cannot tell what
      // happened and simply re-issues through the two-sided path.
      metrics_->onesided_validation_failures += 1;
      return std::nullopt;
    }
  }
  Result<VersionedCell> result =
      route.ok() ? cluster_->OneSidedGet(*route, op->table, op->key)
                 : Result<VersionedCell>(route.status());
  if (!result.ok() && !result.status().IsNotFound()) {
    // Unroutable or dead node. The one-sided path has no fail-over story of
    // its own (there is no server to ask), so hand the op to the two-sided
    // retry machinery. NotFound is NOT a failure: with a valid epoch it is
    // the correct answer for an absent key.
    return std::nullopt;
  }
  uint64_t e1 = LeaseEpochOf(op->table, route);
  if (e1 != e0) {
    metrics_->onesided_validation_failures += 1;
    return std::nullopt;
  }
  op->fill_epoch = e0;
  *response_bytes = ReadResponseBytes(result);
  metrics_->onesided_reads += 1;
  return result;
}

// A write whose response was lost is ambiguous: blindly re-issuing a
// conditional write after it DID apply would see its own stamp and report
// ConditionFailed, turning a committed write into a spurious abort. So
// before each re-issue, re-read the cell with an ordinary Get (charged like
// any other) and decide. An unreadable cell leaves the outcome open; the
// stamp check keeps a re-issue safe.
std::optional<Result<uint64_t>> StorageClient::ResolveAmbiguousWrite(
    const WriteOp& op) {
  // Unconditional puts are idempotent in value (a re-applied put just mints
  // a fresh stamp), so they re-issue without a re-read.
  if (!op.conditional && !op.erase) return std::nullopt;
  auto cell = Get(op.table, op.key);
  const bool absent = cell.status().IsNotFound();
  if (op.erase) {
    // The postcondition is "key absent". For a conditional erase: absent ->
    // our erase applied; stamp unchanged -> not applied; new stamp ->
    // someone else wrote.
    if (absent) return uint64_t{0};
    if (!op.conditional || !cell.ok() || cell->stamp == op.expected_stamp) {
      return std::nullopt;
    }
    return Status::ConditionFailed(
        "cell overwritten during ambiguous conditional erase");
  }
  // A conditional put: stamp unchanged -> not applied; the cell holds OUR
  // value -> applied, its stamp is the result; anything else -> a
  // concurrent writer won.
  if (absent) {
    if (op.expected_stamp == kStampAbsent) return std::nullopt;
    return Status::ConditionFailed(
        "cell erased during ambiguous conditional put");
  }
  if (!cell.ok() || cell->stamp == op.expected_stamp) return std::nullopt;
  if (cell->value == op.value) return uint64_t{cell->stamp};
  return Status::ConditionFailed(
      "concurrent write superseded ambiguous conditional put");
}

sim::FaultOpClass StorageClient::OpClassOf(const Op& op) {
  if (op.write == nullptr) return sim::FaultOpClass::kGet;
  if (op.write->erase) {
    return op.write->conditional ? sim::FaultOpClass::kConditionalErase
                                 : sim::FaultOpClass::kErase;
  }
  return op.write->conditional ? sim::FaultOpClass::kConditionalPut
                               : sim::FaultOpClass::kPut;
}

sim::NetworkModel::CoalescedCost StorageClient::SendMessage(
    std::span<const std::pair<uint32_t, Op*>> members) {
  // Fault injection observes the same unit the accounting charges: one
  // decision per message, a firing drop affecting every op inside it.
  sim::FaultInjector::Decision d;
  if (options_.fault_injector != nullptr) {
    std::vector<std::pair<sim::FaultOpClass, uint32_t>> classes;
    classes.reserve(members.size());
    for (const auto& member : members) {
      classes.emplace_back(OpClassOf(*member.second), member.second->table);
    }
    d = options_.fault_injector->OnMessage(classes);
    ApplyNodeKill(d);
  }
  std::vector<std::pair<uint64_t, uint64_t>> per_op_bytes;
  per_op_bytes.reserve(members.size());
  for (const auto& member : members) {
    Op* op = member.second;
    const uint64_t value_bytes =
        op->write == nullptr || op->write->erase ? 0 : op->write->value.size();
    const uint64_t request_bytes =
        op->key.size() + value_bytes + kPerOpHeaderBytes;
    uint64_t response_bytes = 0;
    if (d.drop_request) {
      // The message never reached the node: nothing executed, no response
      // bytes received or charged.
      SetFailed(op, Status::Unavailable("injected fault: request dropped"));
    } else {
      const Result<Cluster::Route>& route = *op->route;
      if (op->write == nullptr) {
        // Cache-fill tag: the epoch must be sampled before the fetch
        // executes (store/record_cache.h).
        if (options_.record_cache != nullptr) {
          op->fill_epoch = LeaseEpochOf(op->table, route);
        }
        op->get_result = route.ok()
                             ? cluster_->Get(*route, op->table, op->key)
                             : Result<VersionedCell>(route.status());
        response_bytes = ReadResponseBytes(*op->get_result);
      } else {
        op->write_result =
            route.ok()
                ? cluster_->Write(*route, *op->write,
                                  d.drop_response ? nullptr
                                                  : op->movable_value)
                : Result<uint64_t>(route.status());
        response_bytes = kWriteResponseBytes;
      }
      if (d.drop_response) {
        // Executed, but the response was lost: every op in the message is
        // ambiguous and no bytes came back.
        SetFailed(op, Status::Unavailable(
                          "injected fault: response dropped (ambiguous "
                          "outcome)"));
        response_bytes = 0;
      } else if (op->write == nullptr && op->get_result->ok()) {
        CacheFill(op->table, op->key, **op->get_result, op->fill_epoch);
      }
    }
    per_op_bytes.emplace_back(request_bytes, response_bytes);
    metrics_->bytes_sent += request_bytes;
    metrics_->bytes_received += response_bytes;
  }
  auto cost = options_.network.CoalescedRequestCost(per_op_bytes,
                                                    kPerRequestHeaderBytes);
  metrics_->storage_requests += 1;
  metrics_->bytes_sent += kPerRequestHeaderBytes;
  metrics_->batch_size.Record(members.size());
  cost.message_ns += d.extra_latency_ns;
  cost.serial_ns += d.extra_latency_ns;
  return cost;
}

void StorageClient::Issue(std::span<Op> ops) {
  // Stage 1: client CPU, the record-cache probe and routing. A hit needs no
  // network at all; the probe instant is the read's linearization point.
  // Every other op is routed once, for all the stages below.
  metrics_->storage_ops += ops.size();
  clock_->Advance(options_.cpu.per_op_ns * ops.size());
  size_t in_flight = 0;
  for (Op& op : ops) {
    Result<uint32_t> partition =
        cluster_->partition_map().PartitionFor(op.table, op.key);
    VersionedCell cached;
    if (op.write == nullptr &&
        CacheProbe(op.table, op.key, partition, &cached)) {
      op.get_result = Result<VersionedCell>(std::move(cached));
      op.done = true;
      continue;
    }
    op.route = partition.ok()
                   ? cluster_->RouteForPartition(op.table, *partition)
                   : Result<Cluster::Route>(partition.status());
    ++in_flight;
  }
  if (in_flight == 0) return;
  metrics_->pipeline_flushes += 1;
  metrics_->pipeline_in_flight.Record(in_flight);

  // The clock advance when every message flies in parallel (batching on)
  // and when they go one after another (batching off).
  uint64_t slowest_ns = 0;
  uint64_t serial_ns = 0;

  // Stage 2: one-sided READs. Each is its own message, flying in parallel
  // with the coalesced messages below. A read that validates is done; one
  // that does not joins its node's two-sided message like any other get.
  if (OneSidedEnabled()) {
    for (Op& op : ops) {
      if (op.done || op.write != nullptr) continue;
      uint64_t response_bytes = 0;
      auto fetched = OneSidedFetch(&op, &response_bytes);
      if (!fetched.has_value()) {
        metrics_->onesided_fallbacks += 1;
        continue;
      }
      const uint64_t request_bytes = op.key.size() + kPerOpHeaderBytes;
      const uint64_t cost =
          options_.network.OneSidedReadCost(request_bytes, response_bytes);
      metrics_->storage_requests += 1;
      metrics_->bytes_sent += request_bytes;
      metrics_->bytes_received += response_bytes;
      if (fetched->ok()) CacheFill(op.table, op.key, **fetched, op.fill_epoch);
      op.get_result = std::move(*fetched);
      op.done = true;
      slowest_ns = std::max(slowest_ns, cost);
      serial_ns += cost;
    }
  }

  // Stage 3: one coalesced message per master storage node (ordered by
  // node, ops in call order), or one message per op with batching off.
  std::vector<std::pair<uint32_t, Op*>> queue;
  queue.reserve(in_flight);
  for (Op& op : ops) {
    if (op.done) continue;
    uint32_t message = static_cast<uint32_t>(queue.size());
    if (options_.batching) {
      message = op.route->ok() ? (*op.route)->placement.master : 0;
    }
    queue.emplace_back(message, &op);
  }
  // The ops lie in call order in `ops`, so their addresses order each
  // node's ops as the call does.
  std::sort(queue.begin(), queue.end());
  for (size_t begin = 0; begin < queue.size();) {
    size_t end = begin + 1;
    while (end < queue.size() && queue[end].first == queue[begin].first) ++end;
    auto cost = SendMessage(std::span(queue).subspan(begin, end - begin));
    slowest_ns = std::max(slowest_ns, cost.message_ns);
    serial_ns += cost.serial_ns;
    begin = end;
  }
  const uint64_t charged_ns = options_.batching ? slowest_ns : serial_ns;
  clock_->Advance(charged_ns);
  metrics_->pipeline_overlap_saved_ns += serial_ns - charged_ns;

  // Stage 4: every op whose first attempt came back Unavailable runs the
  // RetryPolicy on its own — fail-over, jittered backoff, ambiguous-write
  // resolution. Stage 5: synchronous replication of every applied write.
  uint64_t applied_writes = 0;
  for (Op& op : ops) {
    if (op.done) continue;
    if (op.write == nullptr) {
      op.get_result = RetryLoop(
          sim::FaultOpClass::kGet, op.table, std::move(*op.get_result),
          [&] { return cluster_->Get(op.table, op.key); },
          NoResolution<Result<VersionedCell>>);
      continue;
    }
    op.write_result = RetryLoop(
        OpClassOf(op), op.table, std::move(*op.write_result),
        [&] { return cluster_->Write(*op.write); },
        [&] { return ResolveAmbiguousWrite(*op.write); });
    if (op.write_result->status().IsConditionFailed()) {
      metrics_->llsc_failures += 1;
    }
    if (op.write_result->ok()) ++applied_writes;
  }
  ChargeReplication(applied_writes);
}

Result<VersionedCell> StorageClient::Get(TableId table, std::string_view key) {
  Op op{.table = table, .key = key};
  Issue({&op, 1});
  return std::move(*op.get_result);
}

std::vector<Result<VersionedCell>> StorageClient::BatchGet(
    const std::vector<GetOp>& ops) {
  return BatchReadWrite(ops, {}).gets;
}

Result<uint64_t> StorageClient::Write(const WriteOp& write) {
  Op op{.table = write.table, .key = write.key, .write = &write};
  Issue({&op, 1});
  return std::move(*op.write_result);
}

std::vector<Result<uint64_t>> StorageClient::BatchWrite(
    std::vector<WriteOp> ops) {
  std::vector<Op> batch;
  batch.reserve(ops.size());
  for (WriteOp& op : ops) {
    batch.push_back({.table = op.table,
                     .key = op.key,
                     .write = &op,
                     .movable_value = &op.value});
  }
  Issue(batch);
  std::vector<Result<uint64_t>> results;
  results.reserve(ops.size());
  for (Op& op : batch) results.push_back(std::move(*op.write_result));
  return results;
}

BatchResults StorageClient::BatchReadWrite(const std::vector<GetOp>& gets,
                                           const std::vector<WriteOp>& writes) {
  std::vector<Op> batch;
  batch.reserve(gets.size() + writes.size());
  for (const GetOp& op : gets) {
    batch.push_back({.table = op.table, .key = op.key});
  }
  for (const WriteOp& op : writes) {
    batch.push_back({.table = op.table, .key = op.key, .write = &op});
  }
  Issue(batch);
  BatchResults results;
  results.gets.reserve(gets.size());
  results.writes.reserve(writes.size());
  for (size_t i = 0; i < gets.size(); ++i) {
    results.gets.push_back(std::move(*batch[i].get_result));
  }
  for (size_t i = gets.size(); i < batch.size(); ++i) {
    results.writes.push_back(std::move(*batch[i].write_result));
  }
  return results;
}

/// Modelled storage-node CPU per examined cell of a pushdown/fragment scan.
/// Charged on the response latency; a dedicated scan thread would hide most
/// of it (§5.2).
constexpr uint64_t kServerScanPerRecordNs = 50;

Result<FragmentScanOutcome> StorageClient::ExecuteFragmentScan(
    TableId table, std::string_view start_key, std::string_view end_key,
    uint64_t descriptor_bytes, const FragmentSinkFactory& make_sink) {
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  auto num_partitions = cluster_->partition_map().NumPartitions(table);
  if (!num_partitions.ok()) return num_partitions.status();
  const uint32_t parts = *num_partitions;

  auto result = IssueWithRetry(
      sim::FaultOpClass::kScan, table, [&]() -> Result<FragmentScanOutcome> {
        // A retried attempt rebuilds every sink: a replayed fragment must
        // never fold rows into a half-filled partial state.
        FragmentScanOutcome out;
        out.partitions = parts;
        for (uint32_t p = 0; p < parts; ++p) {
          std::unique_ptr<FragmentSink> sink = make_sink(p);
          FragmentScanStats stats;
          TELL_RETURN_NOT_OK(cluster_->FragmentScan(
              table, p, start_key, end_key, options_.scan_chunk_cells,
              sink.get(), &stats));
          out.rows_scanned += stats.cells_scanned;
          out.chunk_lock_releases += stats.chunk_lock_releases;
          out.sinks.push_back(std::move(sink));
        }
        return out;
      });
  if (!result.ok()) return result;

  // Each partition answers with its serialized partial state — O(groups)
  // bytes, not O(rows) — and the fan-out flies in parallel, so the charged
  // time is the slowest partition's request, not the sum.
  std::vector<std::pair<uint64_t, uint64_t>> requests;
  requests.reserve(result->sinks.size());
  for (const auto& sink : result->sinks) {
    std::string partial = sink->Finish();
    result->rows_returned += sink->rows_returned();
    result->baseline_bytes += sink->baseline_bytes();
    result->response_bytes += 16 + partial.size();
    requests.push_back(
        {descriptor_bytes + kPerOpHeaderBytes, 16 + partial.size()});
  }
  ChargeParallelRequests(requests);
  clock_->Advance(result->rows_scanned * kServerScanPerRecordNs /
                  std::max<uint64_t>(parts, 1));
  return result;
}

Result<int64_t> StorageClient::AtomicIncrement(TableId table,
                                               std::string_view key,
                                               int64_t delta) {
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  auto result =
      IssueWithRetry(sim::FaultOpClass::kAtomicIncrement, table,
                     [&] { return cluster_->AtomicIncrement(table, key, delta); });
  ChargeRequest(key.size() + 8 + kPerOpHeaderBytes, 16);
  return result;
}

Result<std::vector<KeyCell>> CollectCells(StorageClient* client,
                                          TableId table,
                                          std::string_view start_key,
                                          std::string_view end_key) {
  TELL_ASSIGN_OR_RETURN(
      FragmentScanOutcome outcome,
      client->ExecuteFragmentScan(
          table, start_key, end_key, start_key.size() + end_key.size(),
          [](uint32_t) { return std::make_unique<CellSink>(); }));
  std::vector<KeyCell> cells;
  for (const auto& sink : outcome.sinks) {
    std::vector<KeyCell>& part = static_cast<CellSink*>(sink.get())->cells();
    cells.insert(cells.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
  }
  return cells;
}

}  // namespace tell::store
