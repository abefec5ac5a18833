// Deterministic chaos-test harness (see tests/test_chaos_harness.cpp).
//
// Builds a small d-HNSW deployment once, records the fault-free answer as an
// oracle, then replays the same query batch under seeded randomized fault
// schedules armed on the fabric:
//   - transient schedules (bounded trigger budgets) must CONVERGE: with a
//     retry budget that outlasts the faults, results are byte-identical to
//     the oracle;
//   - permanent schedules (a cluster's byte range unreachable forever) must
//     DEGRADE: affected queries carry non-OK statuses and keep candidates
//     from their healthy clusters; unaffected queries still match the oracle.
//
// Everything is a pure function of the seeds: dataset, engine build, fault
// decisions (per-QP injector streams), and backoff (simulated clock), so a
// failure reproduces exactly from the seed that found it.
#pragma once

#include <cstdint>
#include <optional>

#include "core/engine.h"
#include "dataset/synthetic.h"
#include "rdma/fault_injection.h"

namespace dhnsw {

class ChaosHarness {
 public:
  struct Config {
    uint64_t data_seed = 7;
    uint32_t dim = 8;
    uint32_t num_base = 1500;
    uint32_t num_queries = 24;
    uint32_t num_clusters = 6;
    EngineMode mode = EngineMode::kFull;
    uint32_t clusters_per_query = 3;
    /// Clusters the compute cache holds; 0 means num_clusters, so a cold
    /// batch loads every cluster once in a single miss wave. A smaller
    /// cache splits the batch's misses over several waves.
    uint32_t cache_capacity = 0;
    size_t k = 5;
    uint32_t ef_search = 300;  ///< generous: sub-searches near-exhaustive
    /// Memory-pool replication factor (1 = single copy, replication off).
    /// Factor >= 2 arms failure detection + epoch-fenced failover, letting
    /// kill-the-primary schedules CONVERGE instead of degrade.
    uint32_t replication_factor = 1;
    /// Compute instances the engine provisions (the scale-out chaos tests
    /// drive a ComputePool over all of them; single-node suites keep 1).
    uint32_t num_compute_nodes = 1;
    /// Memory shards (slots). Slot 0 always holds the metadata table and
    /// the overflow counters; partitions spread over every slot.
    uint32_t num_memory_nodes = 1;
    /// Transport backend. Default (unset kind) honours DHNSW_TRANSPORT, so
    /// chaos suites run against real sockets in the tcp-chaos CI job. Tests
    /// that byte-compare simulated clocks / backoff ns / trace JSONL must
    /// pin rdma::TransportOptions::Sim() — wall time is not deterministic.
    rdma::TransportOptions transport{};
  };

  explicit ChaosHarness(Config config);

  /// Fault-free reference answer, computed at construction.
  const BatchResult& baseline() const noexcept { return baseline_; }

  /// Replays the batch under `plan` with the given recovery knobs on a cold
  /// cache. Arms the plan (fresh per-QP injector state), runs, then clears
  /// the fabric's faults again.
  Result<BatchResult> RunUnderPlan(const rdma::FaultPlan& plan, const RetryPolicy& retry,
                                   bool partial_results);

  /// Seeded randomized transient schedule: a handful of rules (unreachable /
  /// timeout / latency spikes / payload bit-flips on READs) whose combined
  /// trigger budget is bounded, so `max_attempts` retries strictly greater
  /// than that budget always converge.
  rdma::FaultPlan MakeTransientPlan(uint64_t seed) const;
  /// Trigger budget an adequate retry policy must outlast.
  static constexpr uint64_t kTransientTriggerBudget = 6;

  /// Permanent outage of one cluster's byte range on the primary shard: its
  /// loads fail forever, but the metadata table and every other cluster stay
  /// reachable. The victim is the cluster the most queries route to; it is
  /// returned via `victim`.
  rdma::FaultPlan MakePermanentPlan(uint32_t* victim);
  /// The same outage for a chosen `cluster`.
  rdma::FaultPlan MakeOutagePlan(uint32_t cluster) const;

  /// Kills `slot`'s CURRENT primary memory node mid-batch: after letting
  /// `skip_first` matching ops through (per queue pair), every access to the
  /// primary's region — any verb, including the manager's health probes —
  /// fails forever, modeling a node crash. With replication_factor >= 2 a
  /// retry budget that outlasts detection (skip window + dead_after_misses
  /// reports) converges onto the promoted replica; with factor 1 the slot is
  /// simply gone. Resolves the primary at call time, so calling it again
  /// after a failover targets the promoted replica.
  rdma::FaultPlan MakeKillPrimaryPlan(uint64_t skip_first, uint32_t slot = 0) const;

  /// Cluster ids query `qi` routes to (mode-independent).
  std::vector<uint32_t> RoutesOf(size_t qi);

  const Config& config() const noexcept { return config_; }
  const Dataset& dataset() const noexcept { return dataset_; }
  DhnswEngine& engine() noexcept { return *engine_; }

 private:
  Config config_;
  Dataset dataset_;
  std::optional<DhnswEngine> engine_;
  BatchResult baseline_;
};

/// True when both runs produced byte-identical top-k lists (ids + distances).
bool SameResults(const std::vector<std::vector<Scored>>& a,
                 const std::vector<std::vector<Scored>>& b);
inline bool SameResults(const BatchResult& a, const BatchResult& b) {
  return SameResults(a.results, b.results);
}

}  // namespace dhnsw
