#include "chaos_harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"

namespace dhnsw {
namespace {

/// Hard failure helper for the harness constructor (runs outside any gtest
/// assertion scope; must not be compiled away in Release like assert()).
void CheckOk(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "ChaosHarness: %s failed: %s\n", what,
               status.message().c_str());
  std::abort();
}

DhnswConfig MakeConfig(const ChaosHarness::Config& c) {
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = c.num_clusters;  // one partition per rep
  config.compute.mode = c.mode;
  config.compute.clusters_per_query = c.clusters_per_query;
  config.compute.cache_capacity = c.cache_capacity == 0 ? c.num_clusters : c.cache_capacity;
  config.replication.factor = c.replication_factor;
  config.num_compute_nodes = c.num_compute_nodes;
  config.num_memory_nodes = c.num_memory_nodes;
  // FaultPlans arm on every backend since the chaos decorator landed, so the
  // harness follows DHNSW_TRANSPORT by default (content-oracle suites hold
  // on real sockets too). Suites that byte-compare simulated time pin Sim()
  // through this knob.
  config.transport = c.transport;
  return config;
}

}  // namespace

ChaosHarness::ChaosHarness(Config config)
    : config_(config),
      dataset_(MakeSynthetic({.dim = config.dim,
                              .num_base = config.num_base,
                              .num_queries = config.num_queries,
                              .num_clusters = config.num_clusters,
                              .seed = config.data_seed})) {
  auto built = DhnswEngine::Build(dataset_.base, MakeConfig(config_));
  CheckOk(built.status(), "engine build");
  engine_.emplace(std::move(built).value());

  auto clean = engine_->SearchAll(dataset_.queries, config_.k, config_.ef_search);
  CheckOk(clean.status(), "baseline search");
  baseline_ = std::move(clean).value();
}

Result<BatchResult> ChaosHarness::RunUnderPlan(const rdma::FaultPlan& plan,
                                               const RetryPolicy& retry,
                                               bool partial_results) {
  ComputeNode& node = engine_->compute(0);
  node.InvalidateCache();  // every cluster must cross the (faulty) wire again
  ComputeOptions* opts = node.mutable_options();
  opts->retry = retry;
  opts->partial_results = partial_results;

  DHNSW_RETURN_IF_ERROR(engine_->fabric().ArmFaults(plan));  // fresh injector state per run
  auto result = node.SearchAll(dataset_.queries, config_.k, config_.ef_search);
  engine_->fabric().ClearFaults();

  opts->retry = RetryPolicy::Disabled();
  opts->partial_results = false;
  return result;
}

rdma::FaultPlan ChaosHarness::MakeTransientPlan(uint64_t seed) const {
  // Bit-flips must stay clear of the metadata table: its per-entry CRC skips
  // the FAA-mutated `overflow_used` counter, so a flip there would be silent.
  // Everything at or past the first cluster blob is CRC-protected (blob
  // payload, overflow records) or dead padding — detected or harmless.
  const LayoutPlan& plan = engine_->memory_node()->plan();
  uint64_t blob_area = UINT64_MAX;
  for (const ClusterMeta& e : plan.entries) {
    blob_area = std::min(blob_area, e.blob_offset);
  }

  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 0x5bf0);
  rdma::FaultPlan fault_plan(seed);
  uint64_t budget = kTransientTriggerBudget;
  const uint64_t num_rules = 3 + rng.NextBounded(2);
  for (uint64_t i = 0; i < num_rules && budget > 0; ++i) {
    rdma::FaultRule rule;
    rule.opcode = rdma::Opcode::kRead;  // search path is read-only
    rule.max_triggers = 1 + rng.NextBounded(std::min<uint64_t>(2, budget));
    budget -= rule.max_triggers;
    rule.skip_first = rng.NextBounded(4);
    if (rng.NextBounded(2) == 1) rule.every_nth = 1 + rng.NextBounded(3);
    switch (rng.NextBounded(4)) {
      case 0:
        rule.kind = rdma::FaultKind::kUnreachable;
        break;
      case 1:
        rule.kind = rdma::FaultKind::kTimeout;
        rule.delay_ns = 10'000 + rng.NextBounded(90'000);
        break;
      case 2:
        rule.kind = rdma::FaultKind::kBitFlip;
        rule.offset_lo = blob_area;
        rule.bit_flips = 1 + static_cast<uint32_t>(rng.NextBounded(3));
        break;
      default:
        rule.kind = rdma::FaultKind::kDelay;
        rule.delay_ns = 5'000 + rng.NextBounded(45'000);
        break;
    }
    fault_plan.Add(rule);
  }
  return fault_plan;
}

rdma::FaultPlan ChaosHarness::MakePermanentPlan(uint32_t* victim) {
  // Kill the byte range of one cluster's blob: its loads fail forever while
  // the header/table/meta-HNSW (and every other cluster) stay reachable.
  // Pick the cluster the most queries route to, so the schedule provably
  // exercises the partial-result path.
  std::vector<uint32_t> hits(engine_->num_partitions(), 0);
  for (size_t qi = 0; qi < dataset_.queries.size(); ++qi) {
    for (uint32_t c : RoutesOf(qi)) ++hits[c];
  }
  const uint32_t target = static_cast<uint32_t>(
      std::max_element(hits.begin(), hits.end()) - hits.begin());
  if (victim != nullptr) *victim = target;
  return MakeOutagePlan(target);
}

rdma::FaultPlan ChaosHarness::MakeOutagePlan(uint32_t cluster) const {
  const ClusterMeta& meta = engine_->memory_node()->plan().entries[cluster];
  rdma::FaultRule rule;
  rule.kind = rdma::FaultKind::kUnreachable;
  rule.opcode = rdma::Opcode::kRead;
  rule.offset_lo = meta.blob_offset;
  rule.offset_hi = meta.blob_offset + meta.blob_size;
  // max_triggers stays UINT64_MAX: permanent outage.
  return rdma::FaultPlan(cluster).Add(rule);
}

rdma::FaultPlan ChaosHarness::MakeKillPrimaryPlan(uint64_t skip_first, uint32_t slot) const {
  const ReplicaManager* manager = engine_->replication();
  const rdma::RKey primary = manager != nullptr
                                 ? manager->PrimaryRoute(slot).rkey
                                 : engine_->memory_handle().rkey_for_slot(slot);
  rdma::FaultRule rule;
  rule.kind = rdma::FaultKind::kUnreachable;
  rule.rkey = primary;  // every verb against the region, probes included
  rule.skip_first = skip_first;
  // max_triggers stays UINT64_MAX: the crashed node never comes back. (Its
  // rkey is revoked at failover anyway; see Fabric::RevokeRegion.)
  return rdma::FaultPlan(slot).Add(rule);
}

std::vector<uint32_t> ChaosHarness::RoutesOf(size_t qi) {
  return engine_->compute(0).meta().RouteMany(dataset_.queries[qi],
                                              config_.clusters_per_query);
}

bool SameResults(const BatchResult& a, const BatchResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].size() != b.results[i].size()) return false;
    for (size_t j = 0; j < a.results[i].size(); ++j) {
      if (a.results[i][j].id != b.results[i][j].id) return false;
      if (a.results[i][j].distance != b.results[i][j].distance) return false;
    }
  }
  return true;
}

}  // namespace dhnsw
