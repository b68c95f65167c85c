#ifndef TELL_SIM_FAULT_INJECTOR_H_
#define TELL_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stat_table.h"

namespace tell::sim {

/// Classification of a storage request for fault-plan filtering. Mirrors the
/// request types StorageClient issues against the cluster.
enum class FaultOpClass : uint32_t {
  kAny = 0,
  kGet,
  kPut,
  kConditionalPut,
  kErase,
  kConditionalErase,
  kScan,
  kAtomicIncrement,
  /// Commit-manager begin (delta-protocol start, possibly carrying
  /// piggybacked finish notifications in the same coalesced message).
  kCommitMgrStart,
  /// Commit-manager finish notification (setCommitted / setAborted); it
  /// travels in the next begin's coalesced message.
  kCommitMgrFinish,
  /// One-sided (RDMA READ) record fetch. A dropped request or response
  /// models a lost/failed READ completion; the client counts a validation
  /// failure and retries through the two-sided path.
  kOneSidedGet,
};

/// One rule of a fault plan. A rule observes the stream of storage requests
/// that match its (op, table) filter and fires on some of them:
///
///   * the first `skip_matches` matching requests always pass untouched,
///   * after that, each matching request fires with `probability` (decided
///     by the injector's seeded RNG, so runs are reproducible),
///   * the rule disarms after `max_fires` firings (0 = unlimited).
///
/// What a firing does is `kind`:
///   * kDropRequest   — the request never reaches the storage node; the
///                      caller sees Unavailable and nothing was applied.
///   * kDropResponse  — the request IS executed but the response is lost;
///                      the caller sees Unavailable with an *ambiguous*
///                      outcome (writes may have been applied).
///   * kLatencySpike  — the request succeeds but pays `latency_ns` extra
///                      virtual time (slow link / GC pause on the node).
///   * kKillNode      — crash-stops storage node `node` (crash-stop model;
///                      the management node must fail over). The triggering
///                      request itself then proceeds normally and fails
///                      naturally if it routes to the dead node.
///   * kKillCommitLeader — crash-stops the commit-manager leader the request
///                      was addressed to (docs/RECOVERY.md). Only honored by
///                      commit-manager request paths (begin / finish); other
///                      paths ignore the flag. Alone, the
///                      leader dies BEFORE the request executes (request
///                      lost); combined with kDropResponse firing on the
///                      same request, the request executes first and the
///                      leader dies holding the response (ambiguous — the
///                      idempotency-token retry resolves it on the elected
///                      successor).
struct FaultRule {
  enum class Kind : uint32_t {
    kDropRequest = 0,
    kDropResponse,
    kLatencySpike,
    kKillNode,
    kKillCommitLeader,
  };

  Kind kind = Kind::kDropRequest;
  /// Filter: kAny matches every op class.
  FaultOpClass op = FaultOpClass::kAny;
  /// Filter: 0 matches every table (real table ids start at 1).
  uint32_t table = 0;
  /// Matching requests to let through before the rule arms.
  uint64_t skip_matches = 0;
  /// Probability a matching (armed) request fires. 1.0 = always.
  double probability = 1.0;
  /// Firings before the rule disarms forever. 0 = unlimited.
  uint64_t max_fires = 1;
  /// kLatencySpike: extra virtual ns charged to the requesting worker.
  uint64_t latency_ns = 0;
  /// kKillNode: storage node to crash-stop.
  uint32_t node = 0;
};

/// A deterministic fault plan: a seed plus an ordered rule list. Every
/// decision the injector makes derives from `seed`, so a failing chaos run
/// reproduces exactly from its seed.
struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultRule> rules;

  /// A randomized chaos plan: a handful of drop-request / drop-response /
  /// latency-spike rules with seeded filters and probabilities, plus (with
  /// `allow_node_kill`) one crash-stop of a storage node in [0, num_nodes).
  /// Same seed -> same plan.
  static FaultPlan Randomized(uint64_t seed, uint32_t num_nodes,
                              bool allow_node_kill);
};

/// Counters of what the injector actually did (exported as `fault.*` gauges
/// by db::TellDb::ExportStats when an injector is attached).
struct FaultStats : StatTable<FaultStats> {
  uint64_t requests_seen = 0;
  uint64_t injected = 0;
  uint64_t dropped_requests = 0;
  uint64_t dropped_responses = 0;
  uint64_t latency_spikes = 0;
  uint64_t node_kills = 0;
  uint64_t leader_kills = 0;

  static constexpr const char* kGaugePrefix = "fault.";
  static constexpr StatField<FaultStats> kFields[] = {
      {"requests_seen", "requests",
       "storage requests evaluated by the fault injector",
       &FaultStats::requests_seen},
      {"injected", "faults", "fault-rule firings of any kind",
       &FaultStats::injected},
      {"dropped_requests", "requests",
       "requests dropped before reaching storage (injected)",
       &FaultStats::dropped_requests},
      {"dropped_responses", "requests",
       "responses dropped after execution (injected, ambiguous outcome)",
       &FaultStats::dropped_responses},
      {"latency_spikes", "requests",
       "requests charged an injected latency spike",
       &FaultStats::latency_spikes},
      {"node_kills", "nodes", "storage nodes crash-stopped by the fault plan",
       &FaultStats::node_kills},
      {"leader_kills", "kills",
       "commit-manager leaders crash-stopped by the fault plan",
       &FaultStats::leader_kills},
  };
};

/// Deterministic per-request fault injection for the simulated cluster.
///
/// StorageClient consults the injector once per storage request (before the
/// request executes) and applies the returned decision: drop the request,
/// execute it but drop the response (ambiguous outcome), charge a latency
/// spike, and/or crash-stop a node. One injector is shared by all workers of
/// a cluster; decisions are serialized under a mutex so the rule counters
/// and the RNG stream are consistent. Determinism therefore requires a
/// single-threaded driver (the chaos suite runs one worker).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan)
      : plan_(std::move(plan)), rng_(plan_.seed) {
    fired_.assign(plan_.rules.size(), 0);
    matched_.assign(plan_.rules.size(), 0);
  }

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// What StorageClient must do for one request. Fields compose: a request
  /// can pay a latency spike and still be dropped.
  struct Decision {
    bool drop_request = false;
    bool drop_response = false;
    uint64_t extra_latency_ns = 0;
    /// >= 0: crash-stop this storage node before issuing the request.
    int64_t kill_node = -1;
    /// Crash-stop the commit-manager leader this request targets (see
    /// FaultRule::Kind::kKillCommitLeader for before/after semantics).
    bool kill_commit_leader = false;
  };

  /// Evaluates the plan against one request. Each matching armed rule rolls
  /// the seeded RNG; the first firing drop rule wins (drop_request beats
  /// drop_response), latency spikes and node kills accumulate alongside.
  Decision OnRequest(FaultOpClass op, uint32_t table);

  /// Evaluates the plan against one *coalesced message* carrying several
  /// logical ops (the request pipeline). The whole message is ONE request to
  /// the injector — exactly what the accounting layer charges: a rule
  /// matches if any contained op matches its filter, match/skip counters
  /// advance once per message, and a firing drop affects every op in the
  /// message. OnRequest is the single-op special case, so un-pipelined
  /// request streams see identical RNG and counter sequences.
  Decision OnMessage(
      const std::vector<std::pair<FaultOpClass, uint32_t>>& ops);

  /// Stops all injection (invariant-checking phase of a chaos run).
  void Disarm();
  /// Re-enables injection after Disarm().
  void Arm();

  FaultStats stats() const;
  const FaultPlan& plan() const { return plan_; }

 private:
  /// Shared rule evaluation; `ops` points at `count` (op, table) pairs all
  /// travelling in the same message. Caller holds `mutex_`.
  Decision Evaluate(const std::pair<FaultOpClass, uint32_t>* ops,
                    size_t count);

  const FaultPlan plan_;
  mutable std::mutex mutex_;
  Random rng_;
  bool armed_ = true;
  std::vector<uint64_t> fired_;    // per-rule firing count
  std::vector<uint64_t> matched_;  // per-rule match count (for skip_matches)
  FaultStats stats_;
};

}  // namespace tell::sim

#endif  // TELL_SIM_FAULT_INJECTOR_H_
