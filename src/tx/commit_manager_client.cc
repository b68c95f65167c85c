#include "tx/commit_manager_client.h"

#include <algorithm>

#include "common/exec_hooks.h"

namespace tell::tx {

namespace {
// Modelled wire sizes (bytes). Begin keeps the old synchronous call's
// convention — 16-byte request, 24-byte response header plus the snapshot
// payload — with the payload now the serialized delta instead of the raw
// bitset. A finish carries a tid + flags and gets a bare ack. Framing
// matches the storage layer's per-request header.
constexpr uint64_t kFramingBytes = 32;
constexpr uint64_t kStartRequestBytes = 16;
constexpr uint64_t kStartResponseHeaderBytes = 24;
constexpr uint64_t kFinishRequestBytes = 12;
constexpr uint64_t kFinishResponseBytes = 4;
// Deferred finishes are bounded so a worker that stops beginning
// transactions cannot accumulate uncharged messages without limit.
constexpr size_t kMaxDeferredFinishes = 64;
}  // namespace

CommitManagerClient::CommitManagerClient(commitmgr::CommitManagerGroup* group,
                                         store::StorageClient* client)
    : group_(group),
      client_(client),
      rng_(client->options().retry_seed ^ 0xC933A1D6'5B7F0E24ULL),
      token_salt_(client->options().retry_seed * 0x9E3779B97F4A7C15ULL +
                  0x2545F4914F6CDD1DULL) {}

CommitManagerClient::~CommitManagerClient() { FlushPendingAccounting(); }

uint64_t CommitManagerClient::NextToken() {
  // Unique across workers with overwhelming probability: the salt mixes the
  // worker's distinct retry seed. Tokens only need to be unique among
  // concurrently active transactions of one manager (entries die with their
  // active transaction). 0 is reserved for "no token".
  uint64_t token = token_salt_ ^ (++token_counter_ * 0xFF51AFD7ED558CCDULL);
  return token == 0 ? 1 : token;
}

void CommitManagerClient::ChargeMessage(
    const std::vector<std::pair<uint64_t, uint64_t>>& ops) {
  sim::NetworkModel::CoalescedCost cost =
      client_->options().network.CoalescedRequestCost(ops, kFramingBytes);
  client_->clock()->Advance(cost.message_ns);
  uint64_t request_bytes = kFramingBytes;
  uint64_t response_bytes = 0;
  for (const auto& [req, resp] : ops) {
    request_bytes += req;
    response_bytes += resp;
  }
  sim::WorkerMetrics* m = client_->metrics();
  m->storage_requests += 1;
  m->bytes_sent += request_bytes;
  m->bytes_received += response_bytes;
  m->cm_messages += 1;
  m->cm_ops += ops.size();
  m->cm_bytes += request_bytes + response_bytes;
  m->cm_batch_size.Record(ops.size());
  m->cm_batch_saved_ns += cost.serial_ns - cost.message_ns;
}

void CommitManagerClient::FlushPendingExcept(uint32_t manager_id) {
  // Group by manager (ordered map: deterministic message order).
  std::map<uint32_t, size_t> per_manager;
  std::vector<uint32_t> kept;
  for (uint32_t id : pending_) {
    if (id == manager_id) {
      kept.push_back(id);
    } else {
      per_manager[id] += 1;
    }
  }
  pending_ = std::move(kept);
  for (const auto& [id, count] : per_manager) {
    ChargeMessage(std::vector<std::pair<uint64_t, uint64_t>>(
        count, {kFinishRequestBytes, kFinishResponseBytes}));
  }
}

void CommitManagerClient::FlushPendingAccounting() {
  // UINT32_MAX is never a manager id, so nothing is kept back.
  FlushPendingExcept(UINT32_MAX);
}

Status CommitManagerClient::Finish(commitmgr::CommitManager* manager,
                                   commitmgr::Tid tid, bool committed) {
  // State applies at the manager immediately — the snapshot base and the
  // GC horizon must see completions without delay; only the message COST is
  // deferred onto the worker's next begin (group begin/finish). Honest with
  // respect to the simulator: server-side application is instant shared
  // memory either way, so eager application with deferred accounting is
  // indistinguishable from a delayed message that cannot be lost. The
  // fault injector sees the finish as part of that begin's coalesced
  // message, the same unit the accounting charges.
  auto apply = [&](commitmgr::CommitManager* m) {
    return committed ? m->SetCommitted(tid) : m->SetAborted(tid);
  };
  Status st = apply(manager);
  // A completion must reach the slot or its tid pins the snapshot base and
  // the GC horizon. Retry against the SAME slot only — with replication the
  // probe elects and returns the new leader, which holds the begin via the
  // change log; Complete() dedup makes re-applying an ambiguous finish safe.
  // Without replication the slot stays dead, its id cannot come back from
  // the probe, and the old behavior (error reported, recovery cleans up) is
  // unchanged.
  const store::RetryPolicy& retry = client_->options().retry;
  for (uint32_t attempt = 1;
       st.IsUnavailable() && attempt < retry.max_attempts; ++attempt) {
    uint64_t election_ns = 0;
    commitmgr::CommitManager* next =
        group_->ManagerFor(manager->manager_id(), &election_ns);
    if (election_ns > 0) client_->clock()->Advance(election_ns);
    if (next == nullptr || next->manager_id() != manager->manager_id()) break;
    manager = next;
    uint64_t backoff = retry.BackoffNs(attempt, &rng_);
    client_->clock()->Advance(backoff);
    client_->metrics()->cm_retries += 1;
    client_->metrics()->retry_backoff_ns += backoff;
    st = apply(manager);
  }
  pending_.push_back(manager->manager_id());
  if (pending_.size() >= kMaxDeferredFinishes) FlushPendingAccounting();
  return st;
}

Result<commitmgr::TxnBegin> CommitManagerClient::Begin(uint32_t pn_id) {
  // Park point: a begin is a commit-manager round trip, so under the
  // executor runtime the task yields its core here and pays the modelled
  // cost when rescheduled (no-op under the legacy thread-per-worker
  // drivers; see docs/RUNTIME.md).
  exec_hooks::MaybeYield();
  uint64_t election_ns = 0;
  commitmgr::CommitManager* manager = group_->ManagerFor(pn_id, &election_ns);
  if (election_ns > 0) {
    // This worker's begin found the slot leader dead and triggered the
    // election: it pays the modelled timeout (docs/RECOVERY.md).
    client_->clock()->Advance(election_ns);
    election_ns = 0;
  }
  if (manager == nullptr) {
    return Status::Unavailable("all commit managers down");
  }
  // Deferred finishes destined to other managers (possible after fail-over)
  // cannot ride on this begin; flush them as their own messages first.
  FlushPendingExcept(manager->manager_id());
  size_t batched_finishes = pending_.size();
  pending_.clear();

  commitmgr::BeginRequest request;
  request.pn_id = pn_id;
  request.start_token = NextToken();
  auto fill_ack = [&](uint32_t id) {
    const ManagerCache& cache = cache_[id];
    request.ack_generation = cache.generation;
    request.ack_epoch = cache.epoch;
  };
  fill_ack(manager->manager_id());

  sim::FaultInjector* injector = client_->options().fault_injector;
  // One attempt with the fault plan applied, mirroring StorageClient's
  // IssueOnce. The first attempt is the coalesced message, so the injector
  // sees the finish ops it carries — the same unit the accounting charges;
  // retries re-issue the begin alone (the finishes are idempotent and
  // already applied).
  auto issue = [&](bool coalesced) -> Result<commitmgr::TxnBeginDelta> {
    sim::FaultInjector::Decision d;
    if (injector != nullptr) {
      uint32_t table = manager->state_table();
      if (coalesced && batched_finishes > 0) {
        std::vector<std::pair<sim::FaultOpClass, uint32_t>> message(
            batched_finishes, {sim::FaultOpClass::kCommitMgrFinish, table});
        message.emplace_back(sim::FaultOpClass::kCommitMgrStart, table);
        d = injector->OnMessage(message);
      } else {
        d = injector->OnRequest(sim::FaultOpClass::kCommitMgrStart, table);
      }
    }
    store::Cluster* cluster = client_->cluster();
    if (d.kill_node >= 0 &&
        d.kill_node < static_cast<int64_t>(cluster->num_nodes())) {
      cluster->node(static_cast<uint32_t>(d.kill_node))->Kill();
    }
    // Leader dies mid-Start: before the request executes (request lost), or
    // — when the same request also drops its response — after it executed,
    // leaving an ambiguous begin the token retry resolves on the successor.
    bool kill_after = d.kill_commit_leader && d.drop_response;
    if (d.kill_commit_leader && !kill_after) manager->Kill();
    if (d.extra_latency_ns > 0) client_->clock()->Advance(d.extra_latency_ns);
    if (d.drop_request) {
      return Status::Unavailable("injected fault: request dropped");
    }
    Result<commitmgr::TxnBeginDelta> result = manager->StartDelta(request);
    if (kill_after) manager->Kill();
    if (d.drop_response) {
      return Status::Unavailable(
          "injected fault: response dropped (ambiguous outcome)");
    }
    return result;
  };

  Result<commitmgr::TxnBeginDelta> result = issue(true);
  const store::RetryPolicy& retry = client_->options().retry;
  for (uint32_t attempt = 1;
       result.status().IsUnavailable() && attempt < retry.max_attempts;
       ++attempt) {
    // Fail-over: PNs "automatically switch to the next one" (§4.4.3) — the
    // round-robin assignment is client-side knowledge, no lookup round trip.
    // A replicated slot elects a successor here; against the SAME slot, the
    // start token keeps a retried begin from leaking a second tid (the new
    // leader replayed the token from the change log).
    commitmgr::CommitManager* next = group_->ManagerFor(pn_id, &election_ns);
    if (election_ns > 0) {
      client_->clock()->Advance(election_ns);
      election_ns = 0;
    }
    if (next == nullptr) break;
    if (next != manager) {
      manager = next;
      fill_ack(manager->manager_id());
    }
    uint64_t backoff = retry.BackoffNs(attempt, &rng_);
    client_->clock()->Advance(backoff);
    client_->metrics()->cm_retries += 1;
    client_->metrics()->retry_backoff_ns += backoff;
    result = issue(false);
  }

  // The message cost is charged once after the loop (the RetryLoop
  // convention: retries pay backoff, not duplicate wire charges).
  std::vector<std::pair<uint64_t, uint64_t>> ops(
      batched_finishes, {kFinishRequestBytes, kFinishResponseBytes});
  ops.emplace_back(kStartRequestBytes,
                   kStartResponseHeaderBytes +
                       (result.ok() ? result->delta.WireBytes() : 0));
  ChargeMessage(ops);

  if (!result.ok()) return result.status();

  const commitmgr::SnapshotDelta& delta = result->delta;
  ManagerCache& cache = cache_[manager->manager_id()];
  cache.snapshot.ApplyDelta(delta);
  cache.generation = delta.generation;
  cache.epoch = delta.epoch;
  sim::WorkerMetrics* m = client_->metrics();
  if (delta.full) {
    m->cm_full_syncs += 1;
  } else {
    m->cm_delta_syncs += 1;
    uint64_t full_bytes =
        commitmgr::SnapshotDelta::FullWireBytes(cache.snapshot);
    uint64_t delta_bytes = delta.WireBytes();
    if (full_bytes > delta_bytes) {
      m->cm_delta_bytes_saved += full_bytes - delta_bytes;
    }
  }
  last_manager_ = manager;

  commitmgr::TxnBegin begin;
  begin.tid = result->tid;
  begin.snapshot = cache.snapshot;
  begin.lav = result->lav;
  return begin;
}

}  // namespace tell::tx
