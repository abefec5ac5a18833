// Scale-out differential suite (DESIGN.md §12): N ComputeNode instances
// running CONCURRENTLY behind a ComputePool must be indistinguishable — at
// quiescence — from one node replaying the same schedule sequentially.
//
// Why quiescence and not per-op: concurrent inserts allocate overflow slots
// with remote FAAs, so the slot ORDER interleaves nondeterministically, but
// the record SET is fixed by the schedule. A fresh cold-cache search after
// the traffic therefore has a deterministic answer, and that is what gets
// byte-compared against the single-node sequential oracle — across pool
// sizes {2,4,8}, search_threads {1,4}, and pipeline_depth {1,2}.
//
// Also here: the per-op differential for read-only traffic (searches are
// pure functions of the query, so even per-op results must match — also
// under kLeastLoaded's cache-affinity placement and with routes computed at
// dispatch), the dispatch rule as a pure function, the RetryBudget
// cross-inflation regression (concurrent nodes' sim clocks and
// backoff must equal their solo runs exactly), paced-mode admission-control
// behaviour, the sharded front end (SearchSharded queues one shard per lane,
// also while a paced Run streams ops through the same lanes), and the
// same-seed wall-free trace byte-identity contract CI archives.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "chaos_harness.h"
#include "core/compute_pool.h"
#include "core/engine.h"
#include "core/workload_gen.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace dhnsw {
namespace {

constexpr size_t kK = 5;
constexpr uint32_t kEf = 200;
constexpr uint32_t kNumTenants = 3;

Dataset ScaleData() {
  return MakeSynthetic({.dim = 8, .num_base = 1200, .num_queries = 24,
                        .num_clusters = 6, .seed = 77});
}

DhnswConfig ScaleConfig(size_t nodes) {
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 6;
  config.sub_hnsw.M = 8;
  config.sub_hnsw.ef_construction = 60;
  config.compute.clusters_per_query = 3;
  config.compute.cache_capacity = 4;  // < clusters: LRU churn under traffic
  config.num_compute_nodes = nodes;
  config.layout.overflow_bytes_per_group = 1 << 18;
  return config;
}

std::vector<WorkloadOp> ScaleOps(const Dataset& ds, double read_fraction,
                                 size_t num_ops = 160, uint64_t seed = 21,
                                 double target_qps = 50'000.0) {
  WorkloadGenOptions opt;
  opt.seed = seed;
  opt.num_ops = num_ops;
  opt.target_qps = target_qps;
  opt.arrivals = ArrivalProcess::kPoisson;
  opt.zipf_s = 1.1;
  opt.num_topics = 6;
  opt.read_fraction = read_fraction;
  opt.num_tenants = kNumTenants;
  opt.first_insert_id = static_cast<uint32_t>(ds.base.size());
  return WorkloadGenerator(ds.base, opt).Generate();
}

ComputePoolOptions ScalePoolOptions() {
  ComputePoolOptions popt;
  popt.dispatch = DispatchPolicy::kLeastAssigned;
  popt.k = kK;
  popt.ef_search = kEf;
  popt.num_tenants = kNumTenants;
  popt.admission.node_queue_capacity = 64;
  popt.admission.tenant_inflight_limit = 0;
  return popt;
}

/// Replays one op exactly the way a pool worker does, so the oracle and the
/// concurrent runs share the code path being compared.
Status ReplayOp(ComputeNode& node, const WorkloadOp& op,
                std::vector<Scored>* results) {
  if (op.kind == WorkloadOp::Kind::kSearch) {
    VectorSet one(node.dim());
    one.Append(op.vector);
    auto run = node.SearchBatch(one, 0, 1, kK, kEf);
    if (!run.ok()) return run.status();
    if (results != nullptr) *results = run.value().results[0];
    return run.value().statuses.empty() ? Status::Ok() : run.value().statuses[0];
  }
  return node.Insert(op.vector, op.global_id).status();
}

struct OracleRun {
  std::vector<std::vector<Scored>> per_op;  ///< search ops only
  BatchResult quiescence;
};

/// Single-node sequential execution of the schedule + cold verification
/// search: the ground truth every concurrent geometry must reproduce.
OracleRun SequentialOracle(const Dataset& ds, const std::vector<WorkloadOp>& ops) {
  auto built = DhnswEngine::Build(ds.base, ScaleConfig(1));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  DhnswEngine& engine = built.value();

  OracleRun out;
  out.per_op.resize(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const Status st = ReplayOp(engine.compute(0), ops[i], &out.per_op[i]);
    EXPECT_TRUE(st.ok()) << "oracle op " << i << ": " << st.ToString();
  }
  engine.compute(0).InvalidateCache();
  auto verify = engine.SearchAll(ds.queries, kK, kEf);
  EXPECT_TRUE(verify.ok()) << verify.status().ToString();
  out.quiescence = std::move(verify).value();
  return out;
}

/// Concurrent pool execution of the same schedule on N nodes; returns the
/// cold quiescence verification search.
BatchResult PoolQuiescence(const Dataset& ds, const std::vector<WorkloadOp>& ops,
                           size_t nodes, size_t threads, uint32_t depth,
                           PoolRunStats* stats_out = nullptr,
                           std::vector<OpOutcome>* outcomes = nullptr) {
  auto built = DhnswEngine::Build(ds.base, ScaleConfig(nodes));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  DhnswEngine& engine = built.value();
  for (size_t i = 0; i < nodes; ++i) {
    engine.compute(i).mutable_options()->search_threads = threads;
    engine.compute(i).mutable_options()->pipeline_depth = depth;
  }

  PoolRunStats stats;
  {
    ComputePool pool(engine.compute_nodes(), ScalePoolOptions());
    stats = pool.Run(ops, PoolRunMode::kDrain, outcomes);
  }
  EXPECT_EQ(stats.admitted, ops.size());
  EXPECT_EQ(stats.completed_ok, ops.size()) << stats.failed << " ops failed";
  if (stats_out != nullptr) *stats_out = stats;

  engine.compute(0).InvalidateCache();
  auto verify = engine.SearchAll(ds.queries, kK, kEf);
  EXPECT_TRUE(verify.ok()) << verify.status().ToString();
  return std::move(verify).value();
}

// The headline invariant: every (N, threads, pipeline_depth) geometry ends
// in the same quiescent state as the single-node sequential replay.
TEST(ScaleoutTest, QuiescenceOracleIdenticalAcrossPoolGeometries) {
  const Dataset ds = ScaleData();
  const auto ops = ScaleOps(ds, /*read_fraction=*/0.8);
  const OracleRun oracle = SequentialOracle(ds, ops);
  ASSERT_EQ(oracle.quiescence.results.size(), ds.queries.size());

  for (size_t nodes : {size_t{2}, size_t{4}, size_t{8}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (uint32_t depth : {1u, 2u}) {
        const BatchResult got = PoolQuiescence(ds, ops, nodes, threads, depth);
        EXPECT_TRUE(SameResults(oracle.quiescence, got))
            << "divergence at N=" << nodes << " threads=" << threads
            << " depth=" << depth;
      }
    }
  }
}

// Read-only traffic is a pure function of each query — even PER-OP results
// must match the sequential replay, not just the quiescent state.
TEST(ScaleoutTest, SearchOnlyPerOpResultsMatchSequential) {
  const Dataset ds = ScaleData();
  const auto ops = ScaleOps(ds, /*read_fraction=*/1.0, /*num_ops=*/96);
  const OracleRun oracle = SequentialOracle(ds, ops);

  std::vector<OpOutcome> outcomes;
  PoolRunStats stats;
  (void)PoolQuiescence(ds, ops, /*nodes=*/4, /*threads=*/1, /*depth=*/2, &stats,
                       &outcomes);
  ASSERT_EQ(outcomes.size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok()) << "op " << i;
    ASSERT_EQ(outcomes[i].results.size(), oracle.per_op[i].size()) << "op " << i;
    for (size_t j = 0; j < oracle.per_op[i].size(); ++j) {
      EXPECT_EQ(outcomes[i].results[j].id, oracle.per_op[i][j].id) << "op " << i;
      EXPECT_EQ(outcomes[i].results[j].distance, oracle.per_op[i][j].distance)
          << "op " << i;
    }
  }
  // Every node actually served traffic (least-assigned spreads 96 ops evenly).
  for (uint64_t per_node : stats.per_node_ops) EXPECT_EQ(per_node, 24u);
}

// Placement never changes answers: a paced kLeastLoaded run routes every
// search at the dispatcher (walking node 0's meta-HNSW while the lanes
// search) and places it by cache affinity, yet each op returns exactly what
// the single-node sequential replay returned for it.
TEST(ScaleoutTest, LeastLoadedPacedPerOpResultsMatchSequential) {
  const Dataset ds = ScaleData();
  const auto ops = ScaleOps(ds, /*read_fraction=*/1.0, /*num_ops=*/96);
  const OracleRun oracle = SequentialOracle(ds, ops);

  auto built = DhnswEngine::Build(ds.base, ScaleConfig(3));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  DhnswEngine& engine = built.value();
  engine.EnableTracing(1 << 14);
  ComputePoolOptions popt = ScalePoolOptions();
  popt.dispatch = DispatchPolicy::kLeastLoaded;
  popt.admission.node_queue_capacity = ops.size();  // nothing is shed
  popt.trace_capacity = 1 << 12;
  ComputePool pool(engine.compute_nodes(), popt);
  std::vector<OpOutcome> outcomes;
  const PoolRunStats stats = pool.Run(ops, PoolRunMode::kPaced, &outcomes);

  ASSERT_EQ(stats.dropped(), 0u);
  ASSERT_EQ(outcomes.size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok()) << "op " << i << ": " << outcomes[i].status.ToString();
    ASSERT_EQ(outcomes[i].results.size(), oracle.per_op[i].size()) << "op " << i;
    for (size_t j = 0; j < oracle.per_op[i].size(); ++j) {
      EXPECT_EQ(outcomes[i].results[j].id, oracle.per_op[i][j].id) << "op " << i;
      EXPECT_EQ(outcomes[i].results[j].distance, oracle.per_op[i][j].distance)
          << "op " << i;
    }
  }
  // Every search was routed once, at the dispatcher (no lane ran its own
  // route stage), and its lookups are accounted to the node that served it.
  const auto count = [](const telemetry::TraceBuffer& trace, const char* name) {
    size_t n = 0;
    for (const telemetry::TraceEvent& ev : trace.events()) n += std::strcmp(ev.name, name) == 0;
    return n;
  };
  EXPECT_EQ(count(pool.dispatch_trace(), "pool.route"), ops.size());
  size_t batches = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    batches += count(engine.trace(i), "batch");
    EXPECT_EQ(count(engine.trace(i), "stage.meta"), 0u) << "node " << i;
  }
  EXPECT_EQ(batches, ops.size());
  uint64_t lookups = 0;
  for (uint64_t n : stats.per_node_cache_lookups) lookups += n;
  EXPECT_EQ(lookups, ops.size() * ScaleConfig(3).compute.clusters_per_query);
  EXPECT_GE(stats.cache_hit_share(), 0.0);
  EXPECT_LE(stats.cache_hit_share(), 1.0);
}

// Nodes that route differently (b = 3 and b = 1 here) cannot share one route
// list, so the dispatcher places without routing and each lane routes for
// itself: every op returns what the node that served it returns on its own.
TEST(ScaleoutTest, LeastLoadedMixedRoutingPoolLetsLanesRoute) {
  const Dataset ds = ScaleData();
  const auto ops = ScaleOps(ds, /*read_fraction=*/1.0, /*num_ops=*/48);
  auto built = DhnswEngine::Build(ds.base, ScaleConfig(2));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  DhnswEngine& engine = built.value();
  engine.compute(1).mutable_options()->clusters_per_query = 1;
  ComputePoolOptions popt = ScalePoolOptions();
  popt.dispatch = DispatchPolicy::kLeastLoaded;
  popt.admission.node_queue_capacity = ops.size();
  popt.trace_capacity = 1 << 10;
  ComputePool pool(engine.compute_nodes(), popt);
  std::vector<OpOutcome> outcomes;
  const PoolRunStats stats = pool.Run(ops, PoolRunMode::kPaced, &outcomes);
  ASSERT_EQ(stats.completed_ok, ops.size());

  for (const telemetry::TraceEvent& ev : pool.dispatch_trace().events()) {
    EXPECT_STRNE(ev.name, "pool.route");
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_LT(outcomes[i].node, 2u) << "op " << i;
    std::vector<Scored> want;
    ASSERT_TRUE(ReplayOp(engine.compute(outcomes[i].node), ops[i], &want).ok());
    ASSERT_EQ(outcomes[i].results.size(), want.size()) << "op " << i;
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(outcomes[i].results[j].id, want[j].id) << "op " << i;
    }
  }
}

// A batch handed the routes its route stage would compute is the same batch:
// same results, statuses, simulated time, fabric traffic and cache contents,
// batch after batch (the cache carries over between them).
TEST(ScaleoutTest, SearchBatchWithPrecomputedRoutesMatchesRoutedBatch) {
  const Dataset ds = ScaleData();
  DhnswConfig config = ScaleConfig(1);
  config.transport = rdma::TransportOptions::Sim();  // sim-ns are compared
  auto routed_engine = DhnswEngine::Build(ds.base, config);
  auto given_engine = DhnswEngine::Build(ds.base, config);
  ASSERT_TRUE(routed_engine.ok() && given_engine.ok());
  ComputeNode& routed = routed_engine.value().compute(0);
  ComputeNode& given = given_engine.value().compute(0);

  constexpr size_t kBatch = 8;
  for (size_t begin = 0; begin < ds.queries.size(); begin += kBatch) {
    std::vector<std::vector<uint32_t>> routes;
    for (size_t q = begin; q < begin + kBatch; ++q) routes.push_back(given.Route(ds.queries[q]));
    auto want = routed.SearchBatch(ds.queries, begin, kBatch, kK, kEf);
    auto got = given.SearchBatch(ds.queries, begin, kBatch, kK, kEf, routes);
    ASSERT_TRUE(want.ok() && got.ok()) << "batch at " << begin;
    EXPECT_TRUE(SameResults(want.value(), got.value())) << "batch at " << begin;
    EXPECT_EQ(want.value().statuses, got.value().statuses) << "batch at " << begin;
    EXPECT_EQ(routed.clock().now_ns(), given.clock().now_ns()) << "batch at " << begin;
    const rdma::QpStats& a = routed.qp_stats();
    const rdma::QpStats& b = given.qp_stats();
    EXPECT_EQ(a.round_trips, b.round_trips);
    EXPECT_EQ(a.work_requests, b.work_requests);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.bytes_read, b.bytes_read);
    EXPECT_EQ(a.sim_network_ns, b.sim_network_ns);
    ASSERT_EQ(routed.cache_size(), given.cache_size());
    for (uint32_t c = 0; c < routed.num_clusters(); ++c) {
      EXPECT_EQ(routed.IsCached(c), given.IsCached(c)) << "cluster " << c;
    }
  }

  // Routes must cover the batch and name real clusters.
  const std::vector<std::vector<uint32_t>> one = {given.Route(ds.queries[0])};
  EXPECT_EQ(given.SearchBatch(ds.queries, 0, 2, kK, kEf, one).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<std::vector<uint32_t>> bogus = {{given.num_clusters()}};
  EXPECT_EQ(given.SearchBatch(ds.queries, 0, 1, kK, kEf, bogus).status().code(),
            StatusCode::kInvalidArgument);
}

// kLeastLoaded's dispatch rule as a pure function: in-service ops count as
// load, cache affinity decides among the idle, and ties are deterministic.
TEST(ScaleoutTest, DispatchRuleIdleLaneBeatsBusyLaneWithEmptyQueue) {
  // Lane 0 runs one op (its queue is empty) and holds every route; lane 1
  // is idle and holds none. The idle lane wins.
  const std::vector<size_t> outstanding = {1, 0};
  const std::vector<std::vector<uint32_t>> recent = {{4, 5, 6}, {}};
  const std::vector<uint64_t> assigned = {0, 9};
  const std::vector<uint32_t> routes = {4, 5, 6};
  EXPECT_EQ(PickLeastLoaded(outstanding, recent, assigned, routes), 1u);
}

TEST(ScaleoutTest, DispatchRuleIdleLaneHoldingMostRoutesWins) {
  const std::vector<size_t> outstanding = {0, 0, 0, 2};
  const std::vector<std::vector<uint32_t>> recent = {{1}, {7, 1, 2}, {2, 9}, {1, 2, 3}};
  const std::vector<uint64_t> assigned = {0, 5, 0, 0};
  const std::vector<uint32_t> routes = {1, 2, 3};
  // Lane 1 holds two routes, more than any other idle lane; the busy lane 3
  // holds all three but is not idle.
  EXPECT_EQ(PickLeastLoaded(outstanding, recent, assigned, routes), 1u);
}

TEST(ScaleoutTest, DispatchRuleTiesGoToFewerAssignedThenLowerIndex) {
  const std::vector<size_t> outstanding = {0, 0, 0};
  const std::vector<std::vector<uint32_t>> recent = {{3}, {3}, {3}};
  const std::vector<uint32_t> routes = {3, 8};
  const std::vector<uint64_t> uneven = {4, 2, 3};
  EXPECT_EQ(PickLeastLoaded(outstanding, recent, uneven, routes), 1u);
  const std::vector<uint64_t> even = {2, 2, 2};
  EXPECT_EQ(PickLeastLoaded(outstanding, recent, even, routes), 0u);
  // No routes (an insert): fewest outstanding, then fewest assigned.
  const std::vector<size_t> busy_first = {1, 0, 0};
  EXPECT_EQ(PickLeastLoaded(busy_first, recent, uneven, {}), 1u);
}

TEST(ScaleoutTest, RecencyListIsCappedAndUpdatedInRouteOrder) {
  constexpr size_t kCapacity = 4;
  std::vector<uint32_t> recent;
  TouchRecent(&recent, std::vector<uint32_t>{1, 2, 3}, kCapacity);
  EXPECT_EQ(recent, (std::vector<uint32_t>{1, 2, 3}));
  // A held route moves to the most-recent end; the list then overflows and
  // drops its least recent entry.
  TouchRecent(&recent, std::vector<uint32_t>{2, 4, 5}, kCapacity);
  EXPECT_EQ(recent, (std::vector<uint32_t>{3, 2, 4, 5}));
  TouchRecent(&recent, std::vector<uint32_t>{9, 8, 7, 6, 5}, kCapacity);
  EXPECT_EQ(recent, (std::vector<uint32_t>{8, 7, 6, 5}));
  for (uint32_t c = 0; c < 50; ++c) {
    TouchRecent(&recent, std::vector<uint32_t>{c, c + 1, c + 2}, kCapacity);
    EXPECT_LE(recent.size(), kCapacity);
  }
  TouchRecent(&recent, std::vector<uint32_t>{1, 2}, 0);
  EXPECT_TRUE(recent.empty());
}

// Regression for the shared-SimClock hazard: each RetryBudget must charge
// backoff to ITS node's private clock. Four nodes retrying through the same
// seeded transient fault schedule concurrently must observe exactly the sim
// timeline, backoff, and answers of their solo runs — any cross-node clock
// sharing would inflate elapsed time and flip deadline decisions.
TEST(ScaleoutTest, ConcurrentRetryBackoffDoesNotCrossInflateSimClocks) {
  constexpr uint32_t kNodes = 4;
  constexpr uint64_t kPlanSeed = 31;

  struct Obs {
    uint64_t sim_ns = 0;
    uint64_t backoff_ns = 0;
    uint64_t retries = 0;
    uint64_t round_trips = 0;
    uint64_t injected_faults = 0;
    BatchResult result;
  };

  RetryPolicy retry = RetryPolicy::Default();
  retry.max_attempts = ChaosHarness::kTransientTriggerBudget + 4;
  retry.deadline_ns = 10'000'000;  // exercises the elapsed-time check

  const auto observe = [](ChaosHarness& h, size_t i) {
    Obs obs;
    ComputeNode& node = h.engine().compute(i);
    obs.sim_ns = node.clock().now_ns();
    obs.backoff_ns = 0;  // filled from the breakdown below
    obs.round_trips = node.qp_stats().round_trips;
    obs.injected_faults = node.qp_stats().injected_faults;
    return obs;
  };

  const auto prep_node = [&retry](ChaosHarness& h, size_t i) {
    ComputeNode& node = h.engine().compute(i);
    node.mutable_options()->retry = retry;
    node.InvalidateCache();
  };

  // Solo baselines: one node at a time, fresh deployment each, same plan.
  std::vector<Obs> solo(kNodes);
  for (size_t i = 0; i < kNodes; ++i) {
    ChaosHarness h({.num_compute_nodes = kNodes,
                    .transport = rdma::TransportOptions::Sim()});
    prep_node(h, i);
    ASSERT_TRUE(h.engine().fabric().ArmFaults(h.MakeTransientPlan(kPlanSeed)).ok());
    auto run = h.engine().compute(i).SearchAll(h.dataset().queries, h.config().k,
                                               h.config().ef_search);
    h.engine().fabric().ClearFaults();
    ASSERT_TRUE(run.ok()) << "solo node " << i << ": " << run.status().ToString();
    solo[i] = observe(h, i);
    solo[i].backoff_ns = run.value().breakdown.backoff_ns;
    solo[i].retries = run.value().breakdown.retries;
    solo[i].result = std::move(run).value();
  }

  // Concurrent: all four nodes at once on one deployment.
  ChaosHarness h({.num_compute_nodes = kNodes,
                  .transport = rdma::TransportOptions::Sim()});
  for (size_t i = 0; i < kNodes; ++i) prep_node(h, i);
  ASSERT_TRUE(h.engine().fabric().ArmFaults(h.MakeTransientPlan(kPlanSeed)).ok());
  std::vector<Result<BatchResult>> runs(kNodes, Status::Internal("never ran"));
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kNodes; ++i) {
      threads.emplace_back([&, i] {
        runs[i] = h.engine().compute(i).SearchAll(h.dataset().queries, h.config().k,
                                                  h.config().ef_search);
      });
    }
    for (auto& t : threads) t.join();
  }
  h.engine().fabric().ClearFaults();

  uint64_t total_injected = 0;
  for (size_t i = 0; i < kNodes; ++i) {
    ASSERT_TRUE(runs[i].ok()) << "concurrent node " << i;
    Obs conc = observe(h, i);
    conc.backoff_ns = runs[i].value().breakdown.backoff_ns;
    conc.retries = runs[i].value().breakdown.retries;
    EXPECT_EQ(conc.sim_ns, solo[i].sim_ns) << "node " << i << " sim clock inflated";
    EXPECT_EQ(conc.backoff_ns, solo[i].backoff_ns) << "node " << i;
    EXPECT_EQ(conc.retries, solo[i].retries) << "node " << i;
    EXPECT_EQ(conc.round_trips, solo[i].round_trips) << "node " << i;
    EXPECT_EQ(conc.injected_faults, solo[i].injected_faults) << "node " << i;
    EXPECT_TRUE(SameResults(runs[i].value(), solo[i].result)) << "node " << i;
    total_injected += conc.injected_faults;
  }
  ASSERT_GT(total_injected, 0u) << "plan seed " << kPlanSeed << " never fired";
}

// Paced mode with starved queues must DROP at admission — with terminal
// outcomes for every op and consistent accounting — never block or lose ops.
TEST(ScaleoutTest, AdmissionControlDropsInsteadOfHanging) {
  const Dataset ds = ScaleData();
  WorkloadGenOptions wopt;
  wopt.seed = 13;
  wopt.num_ops = 300;
  wopt.target_qps = 2e6;  // far beyond serviceable: arrivals are immediate
  wopt.read_fraction = 1.0;
  wopt.num_tenants = kNumTenants;
  auto ops = WorkloadGenerator(ds.base, wopt).Generate();

  auto built = DhnswEngine::Build(ds.base, ScaleConfig(2));
  ASSERT_TRUE(built.ok());
  DhnswEngine& engine = built.value();

  ComputePoolOptions popt = ScalePoolOptions();
  popt.admission.node_queue_capacity = 2;
  popt.admission.tenant_inflight_limit = 3;
  ComputePool pool(engine.compute_nodes(), popt);

  std::vector<OpOutcome> outcomes;
  const PoolRunStats stats = pool.Run(ops, PoolRunMode::kPaced, &outcomes);

  EXPECT_EQ(stats.submitted, ops.size());
  EXPECT_EQ(stats.submitted, stats.admitted + stats.dropped());
  EXPECT_GT(stats.dropped(), 0u) << "starved queues never dropped";
  EXPECT_GT(stats.admitted, 0u);
  EXPECT_EQ(stats.admitted, stats.completed_ok + stats.failed);
  EXPECT_EQ(stats.latency_us.count(), stats.admitted);

  size_t dropped_seen = 0;
  for (const OpOutcome& out : outcomes) {
    if (out.dropped) {
      ++dropped_seen;
      EXPECT_EQ(out.status.code(), StatusCode::kCapacity);
    }
    // Terminal outcome for EVERY op: the sentinel must never survive a run.
    EXPECT_NE(out.status.message(), "op never completed");
  }
  EXPECT_EQ(dropped_seen, stats.dropped());

  uint64_t tenant_drops = 0;
  for (uint64_t d : stats.per_tenant_drops) tenant_drops += d;
  EXPECT_EQ(tenant_drops, stats.dropped());
}

struct ShardRig {
  Dataset ds;
  DhnswEngine engine;
};

ShardRig BuildShardRig(size_t nodes) {
  Dataset ds = MakeSynthetic({.dim = 8, .num_base = 1500, .num_queries = 60,
                              .num_clusters = 8, .seed = 121});
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 16;
  config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 50};
  config.compute.clusters_per_query = 3;
  config.compute.cache_capacity = 5;
  config.num_compute_nodes = nodes;
  auto engine = DhnswEngine::Build(ds.base, config);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return ShardRig{std::move(ds), std::move(engine).value()};
}

// A sharded batch comes back in request order with exactly the answers one
// node gives for the whole batch.
TEST(ScaleoutTest, ShardedMatchesSingleNodeInRequestOrder) {
  ShardRig rig = BuildShardRig(3);
  auto single = rig.engine.compute(0).SearchAll(rig.ds.queries, 10, 48);
  ASSERT_TRUE(single.ok());

  ComputePool pool(rig.engine.compute_nodes(), ComputePoolOptions{});
  auto sharded = pool.SearchSharded(rig.ds.queries, 10, 48);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ(sharded.value().results.size(), rig.ds.queries.size());
  EXPECT_TRUE(SameResults(single.value().results, sharded.value().results));
  for (const Status& st : sharded.value().statuses) EXPECT_TRUE(st.ok());
}

TEST(ScaleoutTest, ShardedSplitsEvenlyOverNodes) {
  ShardRig rig = BuildShardRig(3);
  ComputePool pool(rig.engine.compute_nodes(), ComputePoolOptions{});
  auto result = pool.SearchSharded(rig.ds.queries, 5, 32);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().per_node.size(), 3u);
  for (const BatchBreakdown& b : result.value().per_node) {
    EXPECT_EQ(b.num_queries, 20u);  // 60 queries / 3 nodes
    EXPECT_GT(b.round_trips, 0u);
  }
}

TEST(ScaleoutTest, ShardedUnevenSplitCoversEveryQuery) {
  ShardRig rig = BuildShardRig(7);  // 60 % 7 != 0 -> uneven shards
  ComputePool pool(rig.engine.compute_nodes(), ComputePoolOptions{});
  auto result = pool.SearchSharded(rig.ds.queries, 5, 32);
  ASSERT_TRUE(result.ok());
  size_t total = 0;
  for (const BatchBreakdown& b : result.value().per_node) total += b.num_queries;
  EXPECT_EQ(total, rig.ds.queries.size());
  for (const auto& r : result.value().results) EXPECT_FALSE(r.empty());
}

TEST(ScaleoutTest, ShardedFewerQueriesThanNodesAndEmptyBatch) {
  ShardRig rig = BuildShardRig(4);
  ComputePool pool(rig.engine.compute_nodes(), ComputePoolOptions{});
  VectorSet two(8);
  two.Append(rig.ds.queries[0]);
  two.Append(rig.ds.queries[1]);
  auto result = pool.SearchSharded(two, 5, 32);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().results.size(), 2u);
  for (const auto& r : result.value().results) EXPECT_FALSE(r.empty());

  auto empty = pool.SearchSharded(VectorSet(8), 5, 32);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().results.empty());
  EXPECT_TRUE(empty.value().statuses.empty());
  for (const BatchBreakdown& b : empty.value().per_node) EXPECT_EQ(b.num_queries, 0u);
}

TEST(ScaleoutTest, ShardedRecallMatchesQuality) {
  ShardRig rig = BuildShardRig(3);
  ComputeGroundTruth(&rig.ds, 10);
  ComputePool pool(rig.engine.compute_nodes(), ComputePoolOptions{});
  auto result = pool.SearchSharded(rig.ds.queries, 10, 64);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(MeanRecallAtK(rig.ds, result.value().results, 10), 0.8);
}

// Searches are pure functions of the query: the same answers, ids and
// distances, however the batch is split (pools over 1 to 4 of the nodes).
TEST(ScaleoutTest, ShardedAnswersDoNotDependOnTheSplit) {
  const Dataset ds = ScaleData();
  auto built = DhnswEngine::Build(ds.base, ScaleConfig(4));
  ASSERT_TRUE(built.ok());
  DhnswEngine& engine = built.value();
  auto whole = engine.compute(0).SearchAll(ds.queries, kK, kEf);
  ASSERT_TRUE(whole.ok());

  const std::vector<ComputeNode*> nodes = engine.compute_nodes();
  for (size_t n = 1; n <= nodes.size(); ++n) {
    ComputePool pool({nodes.begin(), nodes.begin() + static_cast<std::ptrdiff_t>(n)},
                     ScalePoolOptions());
    auto sharded = pool.SearchSharded(ds.queries, kK, kEf);
    ASSERT_TRUE(sharded.ok()) << "pool of " << n;
    EXPECT_TRUE(SameResults(whole.value().results, sharded.value().results))
        << "pool of " << n;
  }
}

// Sharded batches and a paced Run share the lanes. While a read-only Run
// streams single-query ops at 4k q/s, another thread calls SearchSharded
// over and over. Every node is still driven by its own lane's worker only,
// so every sharded answer equals the single-node oracle's and every op
// completes OK with the oracle's results. Under TSan this also shows that no
// second executor touches a node while its lane runs.
TEST(ScaleoutTest, SearchShardedDuringPacedRunMatchesOracle) {
  const Dataset ds = ScaleData();
  const auto ops = ScaleOps(ds, /*read_fraction=*/1.0, /*num_ops=*/400, /*seed=*/21,
                            /*target_qps=*/4000.0);
  const OracleRun oracle = SequentialOracle(ds, ops);

  auto built = DhnswEngine::Build(ds.base, ScaleConfig(2));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  DhnswEngine& engine = built.value();
  ComputePoolOptions popt = ScalePoolOptions();
  popt.admission.node_queue_capacity = ops.size();  // nothing is shed
  ComputePool pool(engine.compute_nodes(), popt);

  std::atomic<bool> run_done{false};
  std::vector<Result<ShardedResult>> sharded;
  std::thread front([&] {
    do {
      sharded.push_back(pool.SearchSharded(ds.queries, kK, kEf));
    } while (!run_done.load());
  });
  std::vector<OpOutcome> outcomes;
  const PoolRunStats stats = pool.Run(ops, PoolRunMode::kPaced, &outcomes);
  run_done.store(true);
  front.join();

  EXPECT_EQ(stats.completed_ok, ops.size());
  EXPECT_EQ(stats.dropped(), 0u);
  ASSERT_EQ(outcomes.size(), ops.size());
  std::vector<std::vector<Scored>> per_op(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok()) << "op " << i << ": " << outcomes[i].status.ToString();
    per_op[i] = outcomes[i].results;
  }
  EXPECT_TRUE(SameResults(oracle.per_op, per_op));
  ASSERT_FALSE(sharded.empty());
  for (size_t c = 0; c < sharded.size(); ++c) {
    ASSERT_TRUE(sharded[c].ok()) << "call " << c << ": " << sharded[c].status().ToString();
    EXPECT_TRUE(SameResults(oracle.quiescence.results, sharded[c].value().results))
        << "call " << c;
  }
}

// Pool telemetry: per-node counters/gauges and per-tenant accounting line up
// with the run stats, and queue-depth gauges return to zero at quiescence.
TEST(ScaleoutTest, PoolMetricsAccountForEveryOp) {
  const Dataset ds = ScaleData();
  const auto ops = ScaleOps(ds, /*read_fraction=*/0.9, /*num_ops=*/120);
  auto built = DhnswEngine::Build(ds.base, ScaleConfig(4));
  ASSERT_TRUE(built.ok());
  DhnswEngine& engine = built.value();

  telemetry::MetricRegistry& reg = telemetry::DefaultRegistry();
  const uint64_t admitted_before = reg.GetCounter("dhnsw_pool_admitted_total")->value();
  const uint64_t node0_before = reg.GetCounter("dhnsw_pool_node0_ops_total")->value();

  ComputePool pool(engine.compute_nodes(), ScalePoolOptions());
  const PoolRunStats stats = pool.Run(ops, PoolRunMode::kDrain);

  EXPECT_EQ(stats.admitted, ops.size());
  EXPECT_EQ(reg.GetCounter("dhnsw_pool_admitted_total")->value() - admitted_before,
            ops.size());
  EXPECT_EQ(reg.GetCounter("dhnsw_pool_node0_ops_total")->value() - node0_before,
            stats.per_node_ops[0]);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pool.queue_depth(i), 0u);
    EXPECT_EQ(reg.GetGauge("dhnsw_pool_node" + std::to_string(i) + "_queue_depth")
                  ->value(),
              0);
  }
  uint64_t node_sum = 0;
  for (uint64_t n : stats.per_node_ops) node_sum += n;
  EXPECT_EQ(node_sum, stats.admitted);
  size_t tenant_samples = 0;
  for (const auto& rec : stats.per_tenant_latency_us) tenant_samples += rec.count();
  EXPECT_EQ(tenant_samples, stats.admitted);
  size_t want_inserts = 0;
  for (const WorkloadOp& op : ops) {
    if (op.kind == WorkloadOp::Kind::kInsert) ++want_inserts;
  }
  EXPECT_EQ(stats.inserts, want_inserts);
  EXPECT_EQ(stats.searches, ops.size() - want_inserts);
}

// Same-seed drain-mode runs export byte-identical wall-free traces across
// the dispatcher, every pool lane, and every node's sim-stamped spans — the
// scale-out analogue of the pipeline trace contract, byte-compared by CI.
TEST(ScaleoutTest, TraceJsonlByteIdenticalAcrossSameSeedDrainRuns) {
  const Dataset ds = ScaleData();
  const auto ops = ScaleOps(ds, /*read_fraction=*/1.0, /*num_ops=*/64);

  const auto run_traced = [&]() {
    // Byte-identical same-seed traces are a simulator-only contract.
    DhnswConfig traced_config = ScaleConfig(4);
    traced_config.transport = rdma::TransportOptions::Sim();
    auto built = DhnswEngine::Build(ds.base, traced_config);
    EXPECT_TRUE(built.ok());
    DhnswEngine& engine = built.value();
    engine.EnableTracing(1 << 14);

    ComputePoolOptions popt = ScalePoolOptions();
    popt.trace_capacity = 1 << 12;
    ComputePool pool(engine.compute_nodes(), popt);
    const PoolRunStats stats = pool.Run(ops, PoolRunMode::kDrain);
    EXPECT_EQ(stats.completed_ok, ops.size());

    const telemetry::TraceExportOptions wall_free{.include_wall = false};
    std::string text = TraceToJsonl(pool.dispatch_trace(), wall_free);
    for (size_t i = 0; i < pool.size(); ++i) {
      EXPECT_EQ(pool.lane_trace(i).dropped(), 0u);
      text += TraceToJsonl(pool.lane_trace(i), wall_free);
      text += TraceToJsonl(engine.trace(i), wall_free);
    }
    return text;
  };

  const std::string first = run_traced();
  const std::string second = run_traced();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same-seed scale-out traces diverged";
  EXPECT_NE(first.find("\"pool.dispatch\""), std::string::npos);
  EXPECT_NE(first.find("\"pool.op\""), std::string::npos);
  EXPECT_NE(first.find("\"stage.load\""), std::string::npos);
  EXPECT_EQ(first.find("wall_ns"), std::string::npos);

  if (const char* dir = std::getenv("DHNSW_TRACE_ARTIFACT_DIR")) {
    const std::string path = std::string(dir) + "/scaleout_trace_seed21.jsonl";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(first.data(), 1, first.size(), f), first.size());
    ASSERT_EQ(std::fclose(f), 0);
  }
}

}  // namespace
}  // namespace dhnsw
