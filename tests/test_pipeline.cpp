// Pipelined-vs-sequential differential suite: with pipeline_depth >= 2 a
// wave's first load round is posted before the previous wave's sub-searches
// start and executes on the prefetch worker (ComputeNode::IssueWaveLoads,
// reaped by LoadClusters). Overlap is a wall-clock-only effect — every fabric-visible
// op, fault decision, retry, cache mutation, and simulated timestamp must be
// BIT-IDENTICAL to the blocking path. These tests replay the same seeded
// batches under both modes (and across search_threads) and compare
// everything observable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chaos_harness.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace dhnsw {
namespace {

struct Observed {
  BatchResult result;
  uint64_t sim_ns = 0;
  uint64_t round_trips = 0;
  uint64_t injected_faults = 0;
  uint64_t backoff_ns = 0;
  size_t cache_size = 0;
  std::vector<uint32_t> cached;  ///< resident cluster ids, ascending
};

Observed ObserveNode(ChaosHarness& h, BatchResult result) {
  ComputeNode& node = h.engine().compute(0);
  Observed obs;
  obs.result = std::move(result);
  obs.sim_ns = node.clock().now_ns();
  obs.round_trips = node.qp_stats().round_trips;
  obs.injected_faults = node.qp_stats().injected_faults;
  obs.backoff_ns = obs.result.breakdown.backoff_ns;
  obs.cache_size = node.cache_size();
  for (uint32_t c = 0; c < h.config().num_clusters; ++c) {
    if (node.IsCached(c)) obs.cached.push_back(c);
  }
  return obs;
}

Observed RunTransient(uint32_t pipeline_depth, size_t search_threads, uint64_t plan_seed,
                      bool partial_results) {
  ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
  ComputeNode& node = h.engine().compute(0);
  node.mutable_options()->pipeline_depth = pipeline_depth;
  node.mutable_options()->search_threads = search_threads;

  RetryPolicy retry = RetryPolicy::Default();
  retry.max_attempts = ChaosHarness::kTransientTriggerBudget + 4;
  auto run = h.RunUnderPlan(h.MakeTransientPlan(plan_seed), retry, partial_results);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return ObserveNode(h, std::move(run).value());
}

void ExpectIdentical(const Observed& a, const Observed& b, const char* what) {
  EXPECT_TRUE(SameResults(a.result, b.result)) << what;
  EXPECT_EQ(a.sim_ns, b.sim_ns) << what;
  EXPECT_EQ(a.round_trips, b.round_trips) << what;
  EXPECT_EQ(a.injected_faults, b.injected_faults) << what;
  EXPECT_EQ(a.backoff_ns, b.backoff_ns) << what;
  EXPECT_EQ(a.cache_size, b.cache_size) << what;
  EXPECT_EQ(a.cached, b.cached) << what;
  ASSERT_EQ(a.result.statuses.size(), b.result.statuses.size()) << what;
  for (size_t qi = 0; qi < a.result.statuses.size(); ++qi) {
    EXPECT_EQ(a.result.statuses[qi].code(), b.result.statuses[qi].code())
        << what << " query " << qi;
  }
}

// The headline contract: pipelined execution is indistinguishable from the
// sequential path in everything but wall-clock, across thread counts, even
// while a transient fault schedule fires on the prefetched READs.
TEST(PipelineTest, BitIdenticalToSequentialUnderTransientFaults) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const Observed sequential = RunTransient(1, threads, 31, false);
    const Observed pipelined = RunTransient(2, threads, 31, false);
    ASSERT_GT(pipelined.injected_faults, 0u) << "schedule 31 never fired";
    ExpectIdentical(sequential, pipelined,
                    threads == 1 ? "depth 1 vs 2, threads 1" : "depth 1 vs 2, threads 4");
  }
}

TEST(PipelineTest, DepthZeroAndOneBothMeanSequential) {
  const Observed d0 = RunTransient(0, 1, 31, false);
  const Observed d1 = RunTransient(1, 1, 31, false);
  ExpectIdentical(d0, d1, "depth 0 vs 1");
}

// Transient kUnavailable faults striking prefetched clusters must heal on the
// shared retry machinery: with a budget that outlasts the schedule's trigger
// budget, the answers converge to the fault-free oracle.
TEST(PipelineTest, TransientFaultsOnPrefetchedClustersConverge) {
  ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
  ComputeNode& node = h.engine().compute(0);
  node.mutable_options()->pipeline_depth = 2;

  RetryPolicy retry = RetryPolicy::Default();
  retry.max_attempts = ChaosHarness::kTransientTriggerBudget + 4;
  auto run = h.RunUnderPlan(h.MakeTransientPlan(31), retry, false);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(node.qp_stats().injected_faults, 0u);
  EXPECT_TRUE(SameResults(h.baseline(), run.value()));
  for (const Status& st : run.value().statuses) EXPECT_TRUE(st.ok());
}

// Permanent outage of one cluster: graceful degradation (per-query statuses,
// candidates kept from healthy clusters) must be identical either way.
TEST(PipelineTest, PermanentFailureDegradationParity) {
  auto run_permanent = [](uint32_t pipeline_depth) {
    ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
    h.engine().compute(0).mutable_options()->pipeline_depth = pipeline_depth;
    uint32_t victim = 0;
    auto run = h.RunUnderPlan(h.MakePermanentPlan(&victim), RetryPolicy::Default(),
                              /*partial_results=*/true);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    Observed obs = ObserveNode(h, std::move(run).value());
    EXPECT_GT(obs.result.breakdown.failed_loads, 0u);
    return obs;
  };
  const Observed sequential = run_permanent(1);
  const Observed pipelined = run_permanent(2);
  ExpectIdentical(sequential, pipelined, "permanent degradation");
  EXPECT_EQ(sequential.result.breakdown.failed_loads,
            pipelined.result.breakdown.failed_loads);
}

// Without partial_results a permanent failure must fail the whole batch — and
// the abandoned prefetch must not leak into the next batch: a follow-up
// fault-free run on the SAME node returns correct answers.
TEST(PipelineTest, FailedBatchLeavesNoStalePrefetchBehind) {
  ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
  ComputeNode& node = h.engine().compute(0);
  node.mutable_options()->pipeline_depth = 2;
  uint32_t victim = 0;
  auto failing = h.RunUnderPlan(h.MakePermanentPlan(&victim), RetryPolicy::Default(),
                                /*partial_results=*/false);
  EXPECT_FALSE(failing.ok());

  // Fabric faults are cleared by RunUnderPlan; the QP must be clean too.
  auto healthy = h.engine().SearchAll(h.dataset().queries, h.config().k,
                                      h.config().ef_search);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_TRUE(SameResults(h.baseline(), healthy.value()));
  for (const Status& st : healthy.value().statuses) EXPECT_TRUE(st.ok());
}

// Warm-cache behaviour probes the LRU state the pipeline leaves behind: the
// second identical batch must see the same cache_hits count (same resident
// set AND same recency order driving the same evictions) as sequential.
TEST(PipelineTest, WarmCacheSecondBatchHitsMatchSequential) {
  auto two_batches = [](uint32_t pipeline_depth) {
    ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
    ComputeNode& node = h.engine().compute(0);
    node.mutable_options()->pipeline_depth = pipeline_depth;
    auto first = h.engine().SearchAll(h.dataset().queries, h.config().k,
                                      h.config().ef_search);
    EXPECT_TRUE(first.ok());
    auto second = h.engine().SearchAll(h.dataset().queries, h.config().k,
                                       h.config().ef_search);
    EXPECT_TRUE(second.ok());
    return std::make_pair(second.value().breakdown.cache_hits,
                          node.cache_hits());
  };
  const auto [plan_hits_seq, lru_hits_seq] = two_batches(1);
  const auto [plan_hits_pipe, lru_hits_pipe] = two_batches(2);
  EXPECT_EQ(plan_hits_seq, plan_hits_pipe);
  EXPECT_EQ(lru_hits_seq, lru_hits_pipe);
  EXPECT_GT(plan_hits_pipe, 0u);
}

// One "cluster.decode" span per successful parse, with that parse's wall
// time, whichever thread parsed: a payload bit flip on the most-routed
// cluster fails its first parse (which records nothing) and its re-read
// parses clean, at depth 1 (inline rounds) and depth 2 (prefetched first
// round, inline retry) alike.
TEST(PipelineTest, ClusterDecodeSpanPerSuccessfulParseWithWallTime) {
  for (uint32_t depth : {1u, 2u}) {
    ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
    h.engine().compute(0).mutable_options()->pipeline_depth = depth;
    h.engine().EnableTracing(1 << 16);

    std::vector<uint32_t> hits(h.engine().num_partitions(), 0);
    for (size_t qi = 0; qi < h.dataset().queries.size(); ++qi) {
      for (uint32_t c : h.RoutesOf(qi)) ++hits[c];
    }
    const uint32_t victim =
        static_cast<uint32_t>(std::max_element(hits.begin(), hits.end()) - hits.begin());
    const ClusterMeta& meta = h.engine().memory_node()->plan().entries[victim];
    rdma::FaultRule flip;
    flip.kind = rdma::FaultKind::kBitFlip;
    flip.opcode = rdma::Opcode::kRead;
    // Past the blob header: the flip must land in the CRC-covered payload.
    flip.offset_lo = meta.blob_offset + ClusterHeader::kEncodedSize;
    flip.offset_hi = meta.blob_offset + meta.blob_size;
    flip.max_triggers = 1;

    auto run = h.RunUnderPlan(rdma::FaultPlan(victim).Add(flip), RetryPolicy::Default(),
                              /*partial_results=*/false);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(SameResults(h.baseline(), run.value())) << "depth " << depth;
    EXPECT_EQ(run.value().breakdown.retries, 1u) << "depth " << depth;

    size_t misses = 0;
    size_t decodes = 0;
    size_t victim_decodes = 0;
    for (const telemetry::TraceEvent& e : h.engine().compute(0).trace().events()) {
      const std::string name = e.name;
      if (name == "cache.miss") ++misses;
      if (name != "cluster.decode") continue;
      ++decodes;
      if (e.a == victim) ++victim_decodes;
      EXPECT_GT(e.wall_ns, 0u) << "depth " << depth << " cluster " << e.a;
    }
    EXPECT_GT(misses, 0u) << "depth " << depth;
    EXPECT_EQ(decodes, misses) << "depth " << depth;
    EXPECT_EQ(victim_decodes, 1u) << "depth " << depth;
  }
}

// The prefetch pipeline has its own footprint in the process metrics.
TEST(PipelineTest, PrefetchWavesCounterAdvances) {
  telemetry::Counter* waves =
      telemetry::DefaultRegistry().GetCounter("dhnsw_compute_prefetch_waves_total");
  const uint64_t before = waves->value();

  ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
  h.engine().compute(0).mutable_options()->pipeline_depth = 2;
  auto run = h.engine().SearchAll(h.dataset().queries, h.config().k, h.config().ef_search);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(waves->value(), before);
}

// Same-seed pipelined chaos runs serialize byte-identical wall-free JSONL —
// including the new sim-instantaneous "stage.prefetch" spans — and CI
// archives + byte-compares the export (see the pipeline job).
TEST(PipelineTest, TraceJsonlByteIdenticalAcrossSameSeedPipelinedRuns) {
  const auto run_traced = [](uint64_t plan_seed) {
    ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
    h.engine().compute(0).mutable_options()->pipeline_depth = 2;
    h.engine().EnableTracing(1 << 16);
    RetryPolicy retry = RetryPolicy::Default();
    retry.max_attempts = ChaosHarness::kTransientTriggerBudget + 4;
    auto run = h.RunUnderPlan(h.MakeTransientPlan(plan_seed), retry, false);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    const telemetry::TraceBuffer& trace = h.engine().compute(0).trace();
    EXPECT_GT(trace.size(), 0u);
    EXPECT_EQ(trace.dropped(), 0u);
    return TraceToJsonl(trace, telemetry::TraceExportOptions{.include_wall = false});
  };

  const std::string first = run_traced(31);
  const std::string second = run_traced(31);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same-seed pipelined traces diverged";

  EXPECT_NE(first.find("\"stage.prefetch\""), std::string::npos);
  EXPECT_NE(first.find("\"stage.load\""), std::string::npos);
  EXPECT_NE(first.find("\"rdma.ring\""), std::string::npos);
  EXPECT_EQ(first.find("wall_ns"), std::string::npos);

  if (const char* dir = std::getenv("DHNSW_TRACE_ARTIFACT_DIR")) {
    const std::string path = std::string(dir) + "/pipeline_trace_seed31.jsonl";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(first.data(), 1, first.size(), f), first.size());
    ASSERT_EQ(std::fclose(f), 0);
  }
}

}  // namespace
}  // namespace dhnsw
