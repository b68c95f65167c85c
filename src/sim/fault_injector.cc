#include "sim/fault_injector.h"

namespace tell::sim {

FaultPlan FaultPlan::Randomized(uint64_t seed, uint32_t num_nodes,
                                bool allow_node_kill) {
  FaultPlan plan;
  plan.seed = seed;
  Random rng(seed ^ 0xFA017FA017FA017AULL);

  // A couple of transient drop rules over all tables: low probability per
  // request, bounded total firings so the run always makes progress within
  // the client's retry budget.
  static const FaultOpClass kOps[] = {
      FaultOpClass::kAny, FaultOpClass::kGet, FaultOpClass::kConditionalPut,
      FaultOpClass::kPut, FaultOpClass::kScan};
  uint32_t num_drop_rules = 2 + static_cast<uint32_t>(rng.Uniform(2));
  for (uint32_t i = 0; i < num_drop_rules; ++i) {
    FaultRule rule;
    rule.kind = rng.Bernoulli(0.5) ? FaultRule::Kind::kDropRequest
                                   : FaultRule::Kind::kDropResponse;
    rule.op = kOps[rng.Uniform(sizeof(kOps) / sizeof(kOps[0]))];
    rule.table = 0;  // any table
    rule.skip_matches = rng.Uniform(200);
    rule.probability = 0.01 + rng.NextDouble() * 0.05;
    rule.max_fires = 20 + rng.Uniform(60);
    plan.rules.push_back(rule);
  }

  // One latency-spike rule (slow link / node pause).
  {
    FaultRule rule;
    rule.kind = FaultRule::Kind::kLatencySpike;
    rule.op = FaultOpClass::kAny;
    rule.skip_matches = rng.Uniform(100);
    rule.probability = 0.02 + rng.NextDouble() * 0.05;
    rule.max_fires = 50 + rng.Uniform(100);
    rule.latency_ns = 200'000 + rng.Uniform(2'000'000);
    plan.rules.push_back(rule);
  }

  if (allow_node_kill && num_nodes > 0) {
    FaultRule rule;
    rule.kind = FaultRule::Kind::kKillNode;
    rule.op = FaultOpClass::kAny;
    rule.skip_matches = 100 + rng.Uniform(400);
    rule.probability = 1.0;
    rule.max_fires = 1;
    rule.node = static_cast<uint32_t>(rng.Uniform(num_nodes));
    plan.rules.push_back(rule);
  }
  return plan;
}

FaultInjector::Decision FaultInjector::OnRequest(FaultOpClass op,
                                                 uint32_t table) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::pair<FaultOpClass, uint32_t> one{op, table};
  return Evaluate(&one, 1);
}

FaultInjector::Decision FaultInjector::OnMessage(
    const std::vector<std::pair<FaultOpClass, uint32_t>>& ops) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Evaluate(ops.data(), ops.size());
}

FaultInjector::Decision FaultInjector::Evaluate(
    const std::pair<FaultOpClass, uint32_t>* ops, size_t count) {
  Decision decision;
  if (!armed_ || count == 0) return decision;
  ++stats_.requests_seen;
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    bool matches = false;
    for (size_t k = 0; k < count && !matches; ++k) {
      matches = (rule.op == FaultOpClass::kAny || rule.op == ops[k].first) &&
                (rule.table == 0 || rule.table == ops[k].second);
    }
    if (!matches) continue;
    if (rule.max_fires != 0 && fired_[i] >= rule.max_fires) continue;
    if (matched_[i]++ < rule.skip_matches) continue;
    // The RNG rolls once per armed matching rule — including probability
    // 1.0 rules — so adding a rule never perturbs another rule's stream
    // order within a request.
    if (!rng_.Bernoulli(rule.probability)) continue;
    ++fired_[i];
    ++stats_.injected;
    switch (rule.kind) {
      case FaultRule::Kind::kDropRequest:
        if (!decision.drop_request && !decision.drop_response) {
          decision.drop_request = true;
          ++stats_.dropped_requests;
        }
        break;
      case FaultRule::Kind::kDropResponse:
        if (!decision.drop_request && !decision.drop_response) {
          decision.drop_response = true;
          ++stats_.dropped_responses;
        }
        break;
      case FaultRule::Kind::kLatencySpike:
        decision.extra_latency_ns += rule.latency_ns;
        ++stats_.latency_spikes;
        break;
      case FaultRule::Kind::kKillNode:
        decision.kill_node = rule.node;
        ++stats_.node_kills;
        break;
      case FaultRule::Kind::kKillCommitLeader:
        decision.kill_commit_leader = true;
        ++stats_.leader_kills;
        break;
    }
  }
  return decision;
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = false;
}

void FaultInjector::Arm() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = true;
}

FaultStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace tell::sim
