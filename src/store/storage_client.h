#ifndef TELL_STORE_STORAGE_CLIENT_H_
#define TELL_STORE_STORAGE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "sim/fault_injector.h"
#include "sim/metrics.h"
#include "sim/network_model.h"
#include "sim/virtual_clock.h"
#include "store/cluster.h"
#include "store/management_node.h"
#include "store/retry_policy.h"
#include "store/write_op.h"

namespace tell::store {

/// One logical read in a batch.
struct GetOp {
  TableId table;
  std::string key;
};

/// Results of StorageClient::BatchReadWrite, positionally aligned with its
/// reads and its writes.
struct BatchResults {
  std::vector<Result<VersionedCell>> gets;
  std::vector<Result<uint64_t>> writes;
};

/// Client-side knobs; the defaults reproduce the paper's configuration.
struct ClientOptions {
  sim::NetworkModel network = sim::NetworkModel::InfiniBand();
  sim::CpuModel cpu;
  /// Paper §5.1: Tell aggressively batches operations — the ops of one call
  /// bound for the same storage node travel in one coalesced message, and
  /// messages to different nodes are issued in parallel. Disabled for the
  /// batching ablation bench (each op then pays a full sequential round
  /// trip).
  bool batching = true;
  /// Extra round trips charged per write for synchronous replication
  /// (master -> backup chain). Set from the cluster's replication factor.
  uint32_t replication_extra_hops = 0;
  /// Unified retry/backoff policy for Unavailable failures (fail-over,
  /// injected faults). Shared by every request path of the client.
  RetryPolicy retry;
  /// Seed of the client's private RNG (backoff jitter). Give each worker a
  /// distinct seed for reproducible-yet-decorrelated backoff.
  uint64_t retry_seed = 0xC0FFEE;
  /// Optional deterministic fault injection: consulted once per storage
  /// request. Not owned; shared by all clients of a cluster. nullptr = no
  /// faults.
  sim::FaultInjector* fault_injector = nullptr;
  /// Optional per-PN shared record cache (store/record_cache.h), holding
  /// versioned cells and B-tree leaves under lease epochs. Not owned;
  /// shared by every worker client of the processing node. nullptr = no
  /// caching. A hit skips the network round trip entirely (only the client
  /// per-op CPU is charged) and is guaranteed byte-identical to a fresh
  /// fetch by the lease-epoch protocol.
  RecordCache* record_cache = nullptr;
  /// Model reads as one-sided RDMA READs when the NetworkModel supports
  /// them (NetworkModel::HasOneSidedReads): the fetch pays
  /// OneSidedReadCost — no software overhead, no storage-node request
  /// dispatch — and is validated client-side against the partition's lease
  /// epoch (seqlock style). Validation failure falls back to the ordinary
  /// two-sided path. Ignored on kernel-TCP models.
  bool one_sided_reads = false;
  /// Cells per chunk of a vectorized fragment scan
  /// (StorageNode::FragmentScan). Between chunks the node drops every stripe
  /// lock, so smaller chunks mean less OLTP blocking per analytical pass at
  /// the price of more lock cycling.
  uint32_t scan_chunk_cells = 1024;
};

/// Result of one fragment fan-out (ExecuteFragmentScan): the per-partition
/// sinks (holding typed partial-aggregate states for the caller to merge)
/// plus the traffic/row accounting behind the sql.scan.* counters.
struct FragmentScanOutcome {
  std::vector<std::unique_ptr<FragmentSink>> sinks;  // one per partition
  uint64_t partitions = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_returned = 0;
  /// Partial-state response bytes actually charged (incl. framing).
  uint64_t response_bytes = 0;
  /// What a row-shipping scan would have charged for the same matches.
  uint64_t baseline_bytes = 0;
  uint64_t chunk_lock_releases = 0;
};

/// The storage interface of a processing node worker (paper Fig. 3,
/// "Storage Interface / Get/Put Byte[]").
///
/// Semantically a thin veneer over Cluster; its real job is *accounting*:
/// every interaction charges modelled network + CPU time to the worker's
/// VirtualClock and updates its WorkerMetrics, which is how all benchmark
/// figures are produced. Each worker thread owns its own StorageClient, so
/// nothing here needs synchronization.
///
/// Request path: every point read and write — single-op or batched — runs
/// the same five stages (DESIGN.md "The storage request path"): CPU charge
/// and record-cache probe, one-sided READ attempt, one coalesced message per
/// master storage node, per-op retry with ambiguous-write resolution, and
/// the replication charge. Scans and increments stay on their own
/// single-request path.
///
/// Failure handling: every request path funnels through one retry loop
/// driven by ClientOptions::retry. An Unavailable response triggers
/// fail-over through the management node, an exponential backoff in virtual
/// time (jitter from the client's seeded RNG), and — for conditional writes
/// and erases, whose lost responses are ambiguous — a re-read that decides
/// whether the write applied before the op is re-issued.
class StorageClient {
 public:
  StorageClient(Cluster* cluster, ManagementNode* management,
                const ClientOptions& options, sim::VirtualClock* clock,
                sim::WorkerMetrics* metrics)
      : cluster_(cluster),
        management_(management),
        options_(options),
        clock_(clock),
        metrics_(metrics),
        rng_(options.retry_seed) {}

  StorageClient(const StorageClient&) = delete;
  StorageClient& operator=(const StorageClient&) = delete;

  const ClientOptions& options() const { return options_; }
  sim::VirtualClock* clock() { return clock_; }
  sim::WorkerMetrics* metrics() { return metrics_; }
  Cluster* cluster() { return cluster_; }

  /// Single-record read (one round trip; record cache and one-sided path
  /// applied when configured).
  Result<VersionedCell> Get(TableId table, std::string_view key);

  /// Reads many records. With batching on, ops going to the same storage
  /// node share one message and messages to distinct nodes fly in parallel,
  /// so the charged time is the *maximum* over nodes, not the sum.
  std::vector<Result<VersionedCell>> BatchGet(const std::vector<GetOp>& ops);

  /// One write (store/write_op.h): a put or an erase, store-conditional or
  /// not. Returns the new stamp of a put, 0 for an erase, or the failure.
  Result<uint64_t> Write(const WriteOp& op);

  /// Applies many writes; same batching rules as BatchGet. Results are
  /// positionally aligned with `ops`: the new stamp for puts, 0 for erases,
  /// or the failure status. Ops are *independent* — a failed conditional put
  /// does not stop the others (the transaction layer decides what to roll
  /// back).
  std::vector<Result<uint64_t>> BatchWrite(const std::vector<WriteOp>& ops);

  /// Reads and writes in one call: every op shares its storage node's
  /// coalesced message with the others bound there, read or write, by the
  /// rules of BatchGet and BatchWrite. The ops must be independent — a read
  /// of a key this call also writes may see either image. BatchGet and
  /// BatchWrite are this call with one side empty.
  BatchResults BatchReadWrite(const std::vector<GetOp>& gets,
                              const std::vector<WriteOp>& writes);

  /// Ordered scan; partition scans are issued in parallel.
  Result<std::vector<KeyCell>> Scan(TableId table, std::string_view start_key,
                                    std::string_view end_key);

  /// Vectorized fragment fan-out (DESIGN.md "Vectorized scans & aggregate
  /// pushdown"): runs one sink per partition of `table` through the chunked
  /// FragmentScan path and charges the fan-out as parallel requests — the
  /// virtual-time cost is the slowest partition's fragment, not the sum, and
  /// each response is the serialized partial state, O(groups) bytes.
  /// `descriptor_bytes` is the serialized ScanFragment size shipped with
  /// every request. The factory builds a fresh sink per partition (and per
  /// retry attempt, so replays never double-fold).
  Result<FragmentScanOutcome> ExecuteFragmentScan(
      TableId table, uint64_t descriptor_bytes,
      const FragmentSinkFactory& make_sink);

  /// Atomic fetch-add on a counter cell (one round trip). NOT idempotent:
  /// a retried ambiguous increment may apply twice. All in-tree uses hand
  /// out id ranges, where a double-applied increment merely skips ids.
  Result<int64_t> AtomicIncrement(TableId table, std::string_view key,
                                  int64_t delta);

  /// Charges pure CPU time to the worker (used by the transaction and query
  /// layers for their own modelled work).
  void ChargeCpu(uint64_t ns) { clock_->Advance(ns); }

  /// Charges one non-storage RPC (e.g. the commit manager's start() call) to
  /// the worker: same network model, counted as a request.
  void ChargeRpc(uint64_t request_bytes, uint64_t response_bytes) {
    ChargeRequest(request_bytes, response_bytes);
  }

 private:
  /// Charges one network request and updates metrics.
  void ChargeRequest(uint64_t request_bytes, uint64_t response_bytes);
  /// Charges n parallel requests (max of individual costs — here they are
  /// uniform per-group costs, so cost of the largest group).
  void ChargeParallelRequests(const std::vector<std::pair<uint64_t, uint64_t>>&
                                  per_request_bytes);
  void ChargeReplication(uint64_t num_writes);

  // NB: Result::status() returns by value, so these must too.
  static Status StatusOf(const Status& status) { return status; }
  template <typename T>
  static Status StatusOf(const Result<T>& result) {
    return result.status();
  }

  /// Crash-stops the storage node a fault decision names, if any.
  void ApplyNodeKill(const sim::FaultInjector::Decision& d);

  /// Issues one request against the cluster with the fault plan applied:
  /// may crash-stop a node, charge a latency spike, drop the request
  /// (nothing executed) or drop the response (executed, outcome lost).
  template <typename Send>
  auto IssueOnce(sim::FaultOpClass op, TableId table, Send&& send)
      -> decltype(send()) {
    if (options_.fault_injector == nullptr) return send();
    sim::FaultInjector::Decision d =
        options_.fault_injector->OnRequest(op, table);
    ApplyNodeKill(d);
    if (d.extra_latency_ns > 0) clock_->Advance(d.extra_latency_ns);
    if (d.drop_request) {
      return Status::Unavailable("injected fault: request dropped");
    }
    auto result = send();
    if (d.drop_response) {
      return Status::Unavailable(
          "injected fault: response dropped (ambiguous outcome)");
    }
    return result;
  }

  /// The single retry loop every path uses, seeded with the result of an
  /// already-issued first attempt (the request path issues first attempts
  /// inside a coalesced message, then runs this loop per still-Unavailable
  /// op). `send` re-issues the request; `resolve` is consulted after an
  /// Unavailable attempt and before the re-issue: it returns a final result
  /// if it can prove the ambiguous write's outcome (applied / superseded),
  /// or nullopt to re-issue.
  template <typename R, typename Send, typename Resolve>
  R RetryLoop(sim::FaultOpClass op, TableId table, R result, Send&& send,
              Resolve&& resolve) {
    for (uint32_t retry = 1; StatusOf(result).IsUnavailable() &&
                             retry < options_.retry.max_attempts;
         ++retry) {
      // Fail-over first: a dead master stays dead until the management node
      // promotes a replica, so retrying without it is pointless. Consulting
      // the lookup service costs one small round trip.
      if (management_ != nullptr) {
        (void)management_->DetectAndRecover();
        ChargeRequest(64, 64);
      }
      uint64_t backoff = options_.retry.BackoffNs(retry, &rng_);
      clock_->Advance(backoff);
      metrics_->storage_retries += 1;
      metrics_->retry_backoff_ns += backoff;
      auto resolved = resolve();
      if (resolved.has_value()) {
        metrics_->ambiguous_resolved += 1;
        return std::move(*resolved);
      }
      result = IssueOnce(op, table, send);
    }
    if (StatusOf(result).IsUnavailable()) {
      metrics_->storage_retries_exhausted += 1;
    }
    return result;
  }

  /// The `resolve` of an op whose outcome needs no proof: plain re-issue.
  template <typename R>
  static std::optional<R> NoResolution() {
    return std::nullopt;
  }

  /// Scans and increments: one request of their own kind, issued and
  /// re-issued without ambiguity resolution.
  template <typename Send>
  auto IssueWithRetry(sim::FaultOpClass op, TableId table, Send&& send)
      -> decltype(send()) {
    using R = decltype(send());
    return RetryLoop(op, table, IssueOnce(op, table, send),
                     std::forward<Send>(send), NoResolution<R>);
  }

  /// Whether reads may take the one-sided path (client opted in AND the
  /// network model supports RDMA READs).
  bool OneSidedEnabled() const {
    return options_.one_sided_reads && options_.network.HasOneSidedReads();
  }

  /// Current lease epoch of the partition owning (table, key); 0 when the
  /// partition cannot be resolved (the fetch will fail the same way).
  uint64_t LeaseEpochOf(TableId table, std::string_view key) const;

  /// Record-cache probe. On a hit fills `out` (byte-identical to a fresh
  /// fetch by the lease protocol) and counts a cache hit; no network is
  /// charged. Counts a miss otherwise. No-op false without a cache.
  bool CacheProbe(TableId table, std::string_view key, VersionedCell* out);

  /// Installs a fetched cell with the epoch sampled before the fetch.
  void CacheFill(TableId table, std::string_view key,
                 const VersionedCell& cell, uint64_t fill_epoch);

  /// One attempt of the one-sided protocol, uncharged: samples the epoch,
  /// fetches the raw cell bypassing the storage-node request path, and
  /// re-samples to validate. Returns the result (possibly NotFound) with
  /// `fill_epoch`/`response_bytes` set, or nullopt when validation failed —
  /// epoch moved, injected fault, or node down — in which case the caller
  /// counts the fallback and uses the two-sided path.
  std::optional<Result<VersionedCell>> OneSidedFetch(TableId table,
                                                     std::string_view key,
                                                     uint64_t* fill_epoch,
                                                     uint64_t* response_bytes);

  /// One logical op on the request path: a read of `key`, or the write
  /// `write` points to. Keys and writes point into the caller's arguments,
  /// which outlive the synchronous Issue() call.
  struct Op {
    TableId table;
    std::string_view key;
    /// nullptr for a read.
    const WriteOp* write = nullptr;
    /// Reads only: lease epoch sampled immediately before the fetch executed
    /// (the cache-fill tag and the seqlock "before" sample).
    uint64_t fill_epoch = 0;
    /// Set once the op needs no message: a cache hit or a validated
    /// one-sided read.
    bool done = false;
    /// The op's result, a read's or a write's; first the coalesced
    /// attempt's, final once Issue() returns. Erases carry 0 on success.
    std::optional<Result<VersionedCell>> get_result = std::nullopt;
    std::optional<Result<uint64_t>> write_result = std::nullopt;
  };

  /// The request path every point read and write takes (the five stages in
  /// the class comment). Fills each op's result.
  void Issue(std::span<Op> ops);
  /// Stage 3 for one message (`members` share its key, the master node):
  /// one fault decision, every member executed against the cluster, bytes
  /// and the request counted. Returns the cost, injected latency included,
  /// for Issue() to charge.
  sim::NetworkModel::CoalescedCost SendMessage(
      std::span<const std::pair<uint32_t, Op*>> members);

  static sim::FaultOpClass OpClassOf(const Op& op);
  /// Marks an op's first attempt as lost in transit.
  static void SetFailed(Op* op, const Status& status);

  /// Consulted by the retry loop after a write came back Unavailable: from
  /// a re-read through Get, decides the outcome of a write whose response
  /// was lost (applied / superseded), or returns nullopt to re-issue.
  std::optional<Result<uint64_t>> ResolveAmbiguousWrite(const WriteOp& op);

  Cluster* const cluster_;
  ManagementNode* const management_;
  const ClientOptions options_;
  sim::VirtualClock* const clock_;
  sim::WorkerMetrics* const metrics_;
  /// Private RNG for backoff jitter (seeded; decorrelates workers without
  /// giving up reproducibility).
  Random rng_;
};

}  // namespace tell::store

#endif  // TELL_STORE_STORAGE_CLIENT_H_
