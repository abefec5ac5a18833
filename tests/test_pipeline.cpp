// Pipelined-vs-sequential differential suite: with pipeline_depth >= 2 a
// wave of at least kPrefetchMinItems work items posts the next wave's first
// load round before its own sub-searches start, and that round executes on
// the prefetch worker (ComputeNode::IssueWaveLoads, reaped by LoadClusters).
// Overlap is a wall-clock-only effect — every fabric-visible op, fault
// decision, retry, cache mutation, and simulated timestamp must be
// BIT-IDENTICAL to the blocking path. These tests replay the same seeded
// batches under both modes (and across search_threads) and compare
// everything observable, on a fixture whose batches really prefetch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "chaos_harness.h"
#include "core/batch_scheduler.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace dhnsw {
namespace {

// The differential fixture: a cache of 2 of the 6 clusters splits a cold
// batch into three miss waves, and 64 queries give every wave at least
// kPrefetchMinItems work items, so at depth 2 waves 1 and 2 are prefetched
// behind waves 0 and 1. (A cache holding every cluster leaves one miss wave,
// wave 0, which always loads inline.)
ChaosHarness::Config PrefetchingConfig() {
  return {.num_queries = 64, .cache_capacity = 2, .transport = rdma::TransportOptions::Sim()};
}

// The fixture's cold-cache plan, as SearchBatch's plan stage builds it.
BatchPlan ColdPlan(ChaosHarness& h) {
  std::vector<std::vector<uint32_t>> routes;
  for (size_t qi = 0; qi < h.dataset().queries.size(); ++qi) routes.push_back(h.RoutesOf(qi));
  return PlanBatch(routes, [](uint32_t) { return false; },
                   h.engine().compute(0).options().cache_capacity);
}

// Waves handed to the prefetch worker so far, process-wide.
uint64_t PrefetchedWaves() {
  return telemetry::DefaultRegistry().GetCounter("dhnsw_compute_prefetch_waves_total")->value();
}

// Every run checks which path it took, so no test can silently stop
// exercising the prefetch: depth 2 must have prefetched, depth 1 must not.
void ExpectPrefetched(uint32_t pipeline_depth, uint64_t prefetched, const std::string& what) {
  if (pipeline_depth >= 2) {
    EXPECT_GT(prefetched, 0u) << what << ": nothing was prefetched";
  } else {
    EXPECT_EQ(prefetched, 0u) << what;
  }
}

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
  ChaosHarness h(PrefetchingConfig());
  ComputeNode& node = h.engine().compute(0);
  node.mutable_options()->pipeline_depth = pipeline_depth;
  node.mutable_options()->search_threads = search_threads;

  RetryPolicy retry = RetryPolicy::Default();
  retry.max_attempts = ChaosHarness::kTransientTriggerBudget + 4;
  const uint64_t prefetched = PrefetchedWaves();
  auto run = h.RunUnderPlan(h.MakeTransientPlan(plan_seed), retry, partial_results);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  ExpectPrefetched(pipeline_depth, PrefetchedWaves() - prefetched, "transient run");
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

// A cluster of the cold plan's last wave: its loads are prefetched at depth 2.
uint32_t PrefetchedVictim(ChaosHarness& h) {
  return ColdPlan(h).waves.back().to_load.front();
}

// The fixture holds what the suite relies on: at least two miss waves, each
// at or above the threshold, and a cold depth-2 batch prefetches every wave
// but the first.
TEST(PipelineTest, PrefetchWavesCounterAdvances) {
  ChaosHarness h(PrefetchingConfig());
  const BatchPlan plan = ColdPlan(h);
  ASSERT_GE(plan.waves.size(), 3u);
  for (const LoadWave& wave : plan.waves) {
    EXPECT_FALSE(wave.to_load.empty());
    EXPECT_GE(wave.work.size(), kPrefetchMinItems);
  }

  ComputeNode& node = h.engine().compute(0);
  node.mutable_options()->pipeline_depth = 2;
  node.InvalidateCache();
  const uint64_t before = PrefetchedWaves();
  auto run = h.engine().SearchAll(h.dataset().queries, h.config().k, h.config().ef_search);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(PrefetchedWaves() - before, plan.waves.size() - 1);
  EXPECT_TRUE(SameResults(h.baseline(), run.value()));
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
  ChaosHarness h(PrefetchingConfig());
  ComputeNode& node = h.engine().compute(0);
  node.mutable_options()->pipeline_depth = 2;

  RetryPolicy retry = RetryPolicy::Default();
  retry.max_attempts = ChaosHarness::kTransientTriggerBudget + 4;
  const uint64_t prefetched = PrefetchedWaves();
  auto run = h.RunUnderPlan(h.MakeTransientPlan(31), retry, false);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ExpectPrefetched(2, PrefetchedWaves() - prefetched, "transient seed 31");
  EXPECT_GT(node.qp_stats().injected_faults, 0u);
  EXPECT_TRUE(SameResults(h.baseline(), run.value()));
  for (const Status& st : run.value().statuses) EXPECT_TRUE(st.ok());
}

// Permanent outage of a cluster in a prefetched wave: graceful degradation
// (per-query statuses, candidates kept from healthy clusters) must be
// identical either way.
TEST(PipelineTest, PermanentFailureDegradationParity) {
  auto run_permanent = [](uint32_t pipeline_depth) {
    ChaosHarness h(PrefetchingConfig());
    h.engine().compute(0).mutable_options()->pipeline_depth = pipeline_depth;
    const uint64_t prefetched = PrefetchedWaves();
    auto run = h.RunUnderPlan(h.MakeOutagePlan(PrefetchedVictim(h)), RetryPolicy::Default(),
                              /*partial_results=*/true);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    ExpectPrefetched(pipeline_depth, PrefetchedWaves() - prefetched, "permanent outage");
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

// Without partial_results a permanent failure in a prefetched wave must fail
// the whole batch — and the prefetched round must not leak into the next
// batch: a follow-up fault-free run on the SAME node returns correct answers.
TEST(PipelineTest, FailedBatchLeavesNoStalePrefetchBehind) {
  ChaosHarness h(PrefetchingConfig());
  ComputeNode& node = h.engine().compute(0);
  node.mutable_options()->pipeline_depth = 2;
  const uint64_t prefetched = PrefetchedWaves();
  auto failing = h.RunUnderPlan(h.MakeOutagePlan(PrefetchedVictim(h)), RetryPolicy::Default(),
                                /*partial_results=*/false);
  EXPECT_FALSE(failing.ok());
  ExpectPrefetched(2, PrefetchedWaves() - prefetched, "failing batch");

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
    ChaosHarness h(PrefetchingConfig());
    ComputeNode& node = h.engine().compute(0);
    node.mutable_options()->pipeline_depth = pipeline_depth;
    const uint64_t prefetched = PrefetchedWaves();
    auto first = h.engine().SearchAll(h.dataset().queries, h.config().k,
                                      h.config().ef_search);
    EXPECT_TRUE(first.ok());
    auto second = h.engine().SearchAll(h.dataset().queries, h.config().k,
                                       h.config().ef_search);
    EXPECT_TRUE(second.ok());
    ExpectPrefetched(pipeline_depth, PrefetchedWaves() - prefetched, "two batches");
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
// time, whichever thread parsed: a payload bit flip on a cluster of a
// prefetched wave fails its first parse (which records nothing) and its
// re-read parses clean, at depth 1 (inline rounds) and depth 2 (prefetched
// first round, inline retry) alike.
TEST(PipelineTest, ClusterDecodeSpanPerSuccessfulParseWithWallTime) {
  for (uint32_t depth : {1u, 2u}) {
    ChaosHarness h(PrefetchingConfig());
    h.engine().compute(0).mutable_options()->pipeline_depth = depth;
    h.engine().EnableTracing(1 << 16);

    const uint32_t victim = PrefetchedVictim(h);
    const ClusterMeta& meta = h.engine().memory_node()->plan().entries[victim];
    rdma::FaultRule flip;
    flip.kind = rdma::FaultKind::kBitFlip;
    flip.opcode = rdma::Opcode::kRead;
    // Past the blob header: the flip must land in the CRC-covered payload.
    flip.offset_lo = meta.blob_offset + ClusterHeader::kEncodedSize;
    flip.offset_hi = meta.blob_offset + meta.blob_size;
    flip.max_triggers = 1;

    const uint64_t prefetched = PrefetchedWaves();
    auto run = h.RunUnderPlan(rdma::FaultPlan(victim).Add(flip), RetryPolicy::Default(),
                              /*partial_results=*/false);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectPrefetched(depth, PrefetchedWaves() - prefetched, "bit flip");
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

// Same-seed pipelined chaos runs serialize byte-identical wall-free JSONL —
// including the sim-instantaneous "stage.prefetch" spans of prefetched
// waves — and CI archives + byte-compares the export (see the pipeline job).
TEST(PipelineTest, TraceJsonlByteIdenticalAcrossSameSeedPipelinedRuns) {
  const auto run_traced = [](uint64_t plan_seed) {
    ChaosHarness h(PrefetchingConfig());
    h.engine().compute(0).mutable_options()->pipeline_depth = 2;
    h.engine().EnableTracing(1 << 16);
    RetryPolicy retry = RetryPolicy::Default();
    retry.max_attempts = ChaosHarness::kTransientTriggerBudget + 4;
    const uint64_t prefetched = PrefetchedWaves();
    auto run = h.RunUnderPlan(h.MakeTransientPlan(plan_seed), retry, false);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    ExpectPrefetched(2, PrefetchedWaves() - prefetched, "traced run");
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

// The inline rule, for the serving path: a single-query op's waves hold at
// most b items, below the threshold, so at depth 2 it runs exactly as at
// depth 1 — a hits wave, then a miss wave loaded at its own turn — with the
// same results, statuses and wall-free trace, no "stage.prefetch" span, and
// the prefetch worker never handed a round.
TEST(PipelineTest, SingleQueryOpsLoadInlineAtEveryDepth) {
  struct Ops {
    std::vector<BatchResult> results;
    std::string trace;
    uint64_t prefetched = 0;
  };
  const auto run_ops = [](uint32_t depth) {
    ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
    ComputeNode& node = h.engine().compute(0);
    node.mutable_options()->pipeline_depth = depth;
    node.InvalidateCache();
    node.EnableTracing(1 << 12);

    // Query 0 warms the cache; `second` shares a cluster with it and routes
    // to one it does not, so its op plans a hits wave and a miss wave.
    const std::vector<uint32_t> warm = h.RoutesOf(0);
    size_t second = 0;
    for (size_t qi = 1; qi < h.dataset().queries.size() && second == 0; ++qi) {
      const std::vector<uint32_t> routes = h.RoutesOf(qi);
      const auto cached = [&warm](uint32_t c) {
        return std::find(warm.begin(), warm.end(), c) != warm.end();
      };
      if (std::any_of(routes.begin(), routes.end(), cached) &&
          !std::all_of(routes.begin(), routes.end(), cached)) {
        second = qi;
      }
    }
    EXPECT_NE(second, 0u) << "no query mixes hits and misses";

    Ops ops;
    const uint64_t before = PrefetchedWaves();
    for (size_t qi : {size_t{0}, second}) {
      auto run = node.SearchBatch(h.dataset().queries, qi, 1, h.config().k,
                                  h.config().ef_search);
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_GT(run.value().breakdown.clusters_loaded, 0u) << "query " << qi;
      ops.results.push_back(std::move(run).value());
    }
    EXPECT_GT(ops.results.back().breakdown.cache_hits, 0u);
    ops.prefetched = PrefetchedWaves() - before;
    ops.trace = TraceToJsonl(node.trace(), telemetry::TraceExportOptions{.include_wall = false});
    return ops;
  };

  const Ops sequential = run_ops(1);
  const Ops pipelined = run_ops(2);
  ASSERT_EQ(sequential.results.size(), pipelined.results.size());
  for (size_t i = 0; i < sequential.results.size(); ++i) {
    EXPECT_TRUE(SameResults(sequential.results[i], pipelined.results[i])) << "op " << i;
    ASSERT_EQ(pipelined.results[i].statuses.size(), 1u);
    EXPECT_EQ(sequential.results[i].statuses[0].code(),
              pipelined.results[i].statuses[0].code())
        << "op " << i;
  }
  EXPECT_EQ(pipelined.prefetched, 0u);
  EXPECT_EQ(pipelined.trace.find("\"stage.prefetch\""), std::string::npos);
  EXPECT_EQ(sequential.trace, pipelined.trace);
}

// Wave 0 has nothing before it to hide a hand-off behind: even a miss wave
// far above the threshold loads inline, its READs inside its own
// "stage.load", and the first "stage.prefetch" is wave 1's, posted after
// wave 0 has loaded and before wave 0's sub-searches.
TEST(PipelineTest, WaveZeroLoadsInlineAndWaveOneIsPrefetched) {
  ChaosHarness h(PrefetchingConfig());
  ComputeNode& node = h.engine().compute(0);
  node.mutable_options()->pipeline_depth = 2;
  node.InvalidateCache();
  node.EnableTracing(1 << 16);
  const BatchPlan plan = ColdPlan(h);
  ASSERT_GE(plan.waves.size(), 2u);
  ASSERT_GE(plan.waves[0].work.size(), kPrefetchMinItems);

  auto run = h.engine().SearchAll(h.dataset().queries, h.config().k, h.config().ef_search);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Spans append when they close, so a stage's nested spans precede it.
  const std::span<const telemetry::TraceEvent> events = node.trace().events();
  const auto first_named = [&events](const std::string& name, size_t from) {
    for (size_t i = from; i < events.size(); ++i) {
      if (name == events[i].name) return i;
    }
    return events.size();
  };
  const size_t plan_at = first_named("stage.plan", 0);
  const size_t load0 = first_named("stage.load", plan_at);
  const size_t sub0 = first_named("stage.sub", load0);
  ASSERT_LT(sub0, events.size());

  // Wave 0's READs ring inside its stage.load, in sim time as in order.
  const size_t ring0 = first_named("rdma.ring", plan_at);
  ASSERT_LT(ring0, load0) << "wave 0's round did not run inside stage.load";
  EXPECT_GE(events[ring0].sim_start_ns, events[load0].sim_start_ns);
  EXPECT_LE(events[ring0].sim_end_ns, events[load0].sim_end_ns);

  std::vector<size_t> prefetches;
  for (size_t i = 0; i < events.size(); ++i) {
    if (std::string(events[i].name) == "stage.prefetch") prefetches.push_back(i);
  }
  ASSERT_EQ(prefetches.size(), plan.waves.size() - 1);
  EXPECT_GT(prefetches.front(), load0) << "wave 0 was prefetched";
  EXPECT_LT(prefetches.front(), sub0) << "wave 1 was not prefetched behind wave 0";
  EXPECT_EQ(events[prefetches.front()].a, plan.waves[1].to_load.size());
}

}  // namespace
}  // namespace dhnsw
