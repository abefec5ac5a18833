// Failover chaos acceptance (ISSUE 4 / S3): with a replicated memory pool
// (factor 2), killing the primary memory node in the middle of a query batch
// must
//   (a) yield complete, byte-correct results for EVERY query in the batch —
//       zero wrong results, recall unchanged vs the fault-free oracle;
//   (b) cost only bounded extra latency over the healthy run (detection
//       reports + backoff + one promotion, not an unbounded stall);
//   (c) replay byte-identically from the seed: the same kill schedule
//       serializes the same wall-free trace JSONL on every run (this is the
//       artifact the failover-chaos CI job archives and byte-compares).
// Plus: online re-replication restores the factor while search keeps being
// served, and the restored copy is a real serving replica (it survives a
// second primary kill). A replicated InsertBatch killed mid-batch, between
// two groups or inside one group's record fan-out, commits on the promoted
// replica, loses no stored row, and replays its trace byte-identically.
// When every replica of a shard is gone, a sharded pool batch degrades its
// queries only under the nodes' partial_results; otherwise it fails.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "chaos_harness.h"
#include "common/timer.h"
#include "core/compute_pool.h"
#include "core/workload_gen.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace dhnsw {
namespace {

ChaosHarness::Config ReplicatedConfig() {
  ChaosHarness::Config config;
  config.replication_factor = 2;
  return config;
}

/// Lets a couple of loads through before the crash — the batch is genuinely
/// mid-flight when the primary dies.
constexpr uint64_t kKillSkipFirst = 2;

/// Outlasts detection: the kill rule's per-QP skip window absorbs the first
/// confirm probes, then two more failed reports (two misses each) walk the
/// primary alive -> suspected -> dead. ~skip + 3 rounds; 12 is generous.
RetryPolicy FailoverRetry() {
  RetryPolicy retry = RetryPolicy::Default();
  retry.max_attempts = 12;
  return retry;
}

TEST(ChaosFailoverTest, KillPrimaryMidBatchConvergesToOracle) {
  ChaosHarness h(ReplicatedConfig());
  ReplicaManager* manager = h.engine().replication();
  ASSERT_NE(manager, nullptr);
  ASSERT_EQ(manager->AliveCount(0), 2u);
  ASSERT_EQ(manager->SlotEpoch(0), 1u);

  // Strict mode: any query that lost a routed cluster would fail the batch.
  auto run = h.RunUnderPlan(h.MakeKillPrimaryPlan(kKillSkipFirst), FailoverRetry(),
                            /*partial_results=*/false);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const BatchResult& result = run.value();
  EXPECT_TRUE(SameResults(h.baseline(), result)) << "failover changed results";
  for (size_t qi = 0; qi < result.statuses.size(); ++qi) {
    EXPECT_TRUE(result.statuses[qi].ok()) << "query " << qi;
  }

  // The batch itself drove the failover: primary dead + revoked, secondary
  // promoted, epoch bumped, and the compute instance observed it.
  EXPECT_EQ(manager->health(0, 0), ReplicaHealth::kDead);
  EXPECT_EQ(manager->PrimaryRoute(0).replica, 1u);
  EXPECT_EQ(manager->SlotEpoch(0), 2u);
  EXPECT_GE(result.breakdown.failovers, 1u);
  EXPECT_GE(result.breakdown.retries, 1u);
}

TEST(ChaosFailoverTest, FailoverLatencyIsBounded) {
  // The bound below reasons about deterministic NicModel charges and
  // SimClock backoff; on a real socket the charge is measured wall time,
  // which is noisy enough that "killed > healthy" need not hold. The
  // latency *model* is a simulator contract, so pin sim here — the
  // content-oracle failover tests above run on whatever DHNSW_TRANSPORT
  // selects.
  ChaosHarness::Config config = ReplicatedConfig();
  config.transport = rdma::TransportOptions::Sim();
  ChaosHarness h(config);
  const RetryPolicy retry = FailoverRetry();

  const uint64_t t0 = h.engine().compute(0).clock().now_ns();
  auto healthy = h.RunUnderPlan(rdma::FaultPlan(0), retry, false);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  const uint64_t healthy_ns = h.engine().compute(0).clock().now_ns() - t0;

  const uint64_t t1 = h.engine().compute(0).clock().now_ns();
  auto killed = h.RunUnderPlan(h.MakeKillPrimaryPlan(kKillSkipFirst), retry, false);
  ASSERT_TRUE(killed.ok()) << killed.status().ToString();
  const uint64_t failover_ns = h.engine().compute(0).clock().now_ns() - t1;

  ASSERT_TRUE(SameResults(h.baseline(), killed.value()));
  EXPECT_GT(failover_ns, healthy_ns) << "the kill schedule never cost anything?";
  // Detection adds a handful of failed rounds plus exponential backoff
  // (20us * 2^k, capped at 5ms) before the promoted replica serves the
  // retried loads. Budget 3x the healthy batch plus the worst-case backoff
  // sum for the rounds the retry policy allows — deterministic, so this
  // bound either always holds or never does.
  uint64_t backoff_budget = 0;
  for (uint32_t k = 1; k < retry.max_attempts; ++k) backoff_budget += retry.BackoffNs(k);
  EXPECT_LT(failover_ns, 3 * healthy_ns + backoff_budget);
}

TEST(ChaosFailoverTest, TraceJsonlIsByteIdenticalAcrossSameSeedKillRuns) {
  // A failover run's span log — compute side AND the replica manager's
  // control-plane events — must be a pure function of the seeds, in the
  // wall-free export form. CI archives exactly this serialization.
  const auto run_traced = [] {
    // Byte-compared wall-free traces are a simulator contract: real-socket
    // runs retry/timeout on wall time, which perturbs span counts.
    ChaosHarness::Config config = ReplicatedConfig();
    config.transport = rdma::TransportOptions::Sim();
    ChaosHarness h(config);
    h.engine().EnableTracing(1 << 16);
    auto run = h.RunUnderPlan(h.MakeKillPrimaryPlan(kKillSkipFirst), FailoverRetry(), false);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(SameResults(h.baseline(), run.value()));
    const telemetry::TraceExportOptions wall_free{.include_wall = false};
    return TraceToJsonl(h.engine().compute(0).trace(), wall_free) +
           TraceToJsonl(h.engine().replication()->trace(), wall_free);
  };

  const std::string first = run_traced();
  const std::string second = run_traced();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same-seed failover traces diverged";

  // The trace narrates the failover end to end: the compute instance's
  // observation and the manager's suspect -> death -> promotion sequence.
  EXPECT_NE(first.find("replication.failover_observed"), std::string::npos);
  EXPECT_NE(first.find("replication.suspect"), std::string::npos);
  EXPECT_NE(first.find("replication.death"), std::string::npos);
  EXPECT_NE(first.find("replication.failover"), std::string::npos);
  EXPECT_EQ(first.find("wall_ns"), std::string::npos);

  // CI artifact hook: archive the canonical failover trace when set.
  if (const char* dir = std::getenv("DHNSW_TRACE_ARTIFACT_DIR")) {
    const std::string path = std::string(dir) + "/failover_trace.jsonl";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(first.data(), 1, first.size(), f), first.size());
    ASSERT_EQ(std::fclose(f), 0);
  }
}

/// A base row nudged off its original: an exact self-query's top-1 can only
/// be the inserted copy.
std::vector<float> Nudged(std::span<const float> src) {
  std::vector<float> v(src.begin(), src.end());
  v[0] += 0.25f;
  return v;
}

/// One nudged row per partition, so every partition group of a batch is a
/// single record. Drawn from the end of the base set.
VectorSet OneRowPerPartition(ChaosHarness& h) {
  const ComputeNode& node = h.engine().compute(0);
  std::vector<bool> covered(node.num_clusters(), false);
  VectorSet rows(node.dim());
  for (size_t i = h.dataset().base.size(); i-- > 0 && rows.size() < covered.size();) {
    const std::vector<float> v = Nudged(h.dataset().base[i]);
    const uint32_t partition = node.meta().RouteOne(v);
    if (covered[partition]) continue;
    covered[partition] = true;
    rows.Append(v);
  }
  return rows;
}

/// `count` nudged base rows that all route to one partition stored on
/// memory slot `slot`, so an InsertBatch of them is a single group.
VectorSet RowsOfOnePartition(ChaosHarness& h, size_t count, uint32_t slot = 0) {
  const ComputeNode& node = h.engine().compute(0);
  const LayoutPlan& plan = h.engine().memory_node()->plan();
  std::optional<uint32_t> target;
  VectorSet rows(node.dim());
  for (size_t i = 0; i < h.dataset().base.size() && rows.size() < count; ++i) {
    const std::vector<float> v = Nudged(h.dataset().base[i]);
    const uint32_t partition = node.meta().RouteOne(v);
    if (plan.entries[partition].node_slot != slot) continue;
    if (!target) target = partition;
    if (partition == *target) rows.Append(v);
  }
  return rows;
}

/// InsertBatch of `rows` with `slot`'s primary killed after the first
/// group's first WRITE/READ-back pair on it. Allocation (FAA + partner READ)
/// always runs on slot 0, so on slot 0 that is four of this node's verbs
/// and on any other slot two. With one row per partition the kill lands on
/// the next group's allocation ring, whatever order the groups go in; with
/// a single many-row group it lands inside that group's record fan-out.
Result<uint32_t> InsertBatchUnderKill(ChaosHarness& h, const VectorSet& rows,
                                      std::vector<size_t>* rejected, uint32_t slot = 0) {
  ComputeNode& node = h.engine().compute(0);
  node.mutable_options()->retry = FailoverRetry();
  DHNSW_RETURN_IF_ERROR(h.engine().fabric().ArmFaults(
      h.MakeKillPrimaryPlan(/*skip_first=*/slot == 0 ? 4 : 2, slot)));
  auto first = h.engine().InsertBatch(rows, rejected);
  h.engine().fabric().ClearFaults();
  node.mutable_options()->retry = RetryPolicy::Disabled();
  return first;
}

/// Every row is the exact top-1 of its own flat-scan self-query on a cold
/// cache: ids `first`, `first + 1`, ... were stored and none was lost.
void ExpectStored(ChaosHarness& h, const VectorSet& rows, uint32_t first) {
  ComputeNode& node = h.engine().compute(0);
  node.mutable_options()->sub_search = SubSearchMode::kFlatScan;
  node.InvalidateCache();
  auto found = node.SearchAll(rows, 1, h.config().ef_search);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_FALSE(found.value().results[i].empty()) << "row " << i;
    EXPECT_EQ(found.value().results[i][0].id, first + i) << "row " << i;
  }
}

TEST(ChaosFailoverTest, ReplicatedInsertBatchSurvivesPrimaryKill) {
  ChaosHarness h(ReplicatedConfig());
  ReplicaManager* manager = h.engine().replication();
  ASSERT_NE(manager, nullptr);
  telemetry::Counter* insert_acks =
      telemetry::DefaultRegistry().GetCounter("dhnsw_replication_insert_acks_total");

  // Healthy: every row is read-back acked by both replicas. (Rows from the
  // front of the base set, clear of OneRowPerPartition's.)
  VectorSet healthy(h.engine().dim());
  for (size_t i = 0; i < 40; ++i) healthy.Append(Nudged(h.dataset().base[7 * i]));
  const uint64_t acks_before = insert_acks->value();
  std::vector<size_t> healthy_rejected;
  auto healthy_first = h.engine().InsertBatch(healthy, &healthy_rejected);
  ASSERT_TRUE(healthy_first.ok()) << healthy_first.status().ToString();
  ASSERT_TRUE(healthy_rejected.empty());
  EXPECT_EQ(insert_acks->value() - acks_before, 2 * healthy.size());

  // Killed mid-batch: the batch drives the failover and still commits.
  const VectorSet killed = OneRowPerPartition(h);
  std::vector<size_t> killed_rejected;
  auto killed_first = InsertBatchUnderKill(h, killed, &killed_rejected);
  ASSERT_TRUE(killed_first.ok()) << killed_first.status().ToString();
  ASSERT_TRUE(killed_rejected.empty());
  EXPECT_EQ(manager->health(0, 0), ReplicaHealth::kDead);
  EXPECT_GE(manager->SlotEpoch(0), 2u);

  // No lost acks: every row of both batches is stored on the promoted replica.
  ExpectStored(h, healthy, healthy_first.value());
  ExpectStored(h, killed, killed_first.value());
}

TEST(ChaosFailoverTest, ReplicatedInsertBatchSurvivesPrimaryKillInsideAGroup) {
  ChaosHarness h(ReplicatedConfig());
  ReplicaManager* manager = h.engine().replication();
  ASSERT_NE(manager, nullptr);
  const VectorSet rows = RowsOfOnePartition(h, 40);
  ASSERT_EQ(rows.size(), 40u);

  // The primary dies inside the group's record fan-out. Its failed rounds
  // feed the failure detector, the slot fails over, and the fenced fan-out
  // restarts the allocation on the promoted replica.
  std::vector<size_t> rejected;
  auto first = InsertBatchUnderKill(h, rows, &rejected);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(rejected.empty());
  EXPECT_EQ(manager->health(0, 0), ReplicaHealth::kDead);
  EXPECT_GE(manager->SlotEpoch(0), 2u);
  ExpectStored(h, rows, first.value());
}

TEST(ChaosFailoverTest, ShardedInsertBatchSurvivesRecordSlotKillInsideAGroup) {
  // Two memory slots: the allocation runs on slot 0's primary, the group's
  // records live on slot 1. Killing slot 1's primary inside the fan-out
  // fails over slot 1 only; the claim on slot 0 stands, so the fan-out is
  // re-issued in slot 1's new era without a second FAA.
  ChaosHarness::Config config = ReplicatedConfig();
  config.num_memory_nodes = 2;
  ChaosHarness h(config);
  ReplicaManager* manager = h.engine().replication();
  ASSERT_NE(manager, nullptr);
  const VectorSet rows = RowsOfOnePartition(h, 40, /*slot=*/1);
  ASSERT_EQ(rows.size(), 40u);

  std::vector<size_t> rejected;
  auto first = InsertBatchUnderKill(h, rows, &rejected, /*slot=*/1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(rejected.empty());
  EXPECT_EQ(manager->health(1, 0), ReplicaHealth::kDead);
  EXPECT_GE(manager->SlotEpoch(1), 2u);
  EXPECT_EQ(manager->SlotEpoch(0), 1u);
  ExpectStored(h, rows, first.value());
}

TEST(ChaosFailoverTest, InsertBatchKillTraceIsByteIdenticalAcrossSameSeedRuns) {
  const auto run_traced = [] {
    ChaosHarness::Config config = ReplicatedConfig();
    config.transport = rdma::TransportOptions::Sim();  // wall-free traces: sim only
    ChaosHarness h(config);
    h.engine().EnableTracing(1 << 16);
    std::vector<size_t> rejected;
    auto first = InsertBatchUnderKill(h, OneRowPerPartition(h), &rejected);
    EXPECT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_GE(h.engine().replication()->SlotEpoch(0), 2u);
    const telemetry::TraceExportOptions wall_free{.include_wall = false};
    return TraceToJsonl(h.engine().compute(0).trace(), wall_free) +
           TraceToJsonl(h.engine().replication()->trace(), wall_free);
  };

  const std::string first = run_traced();
  const std::string second = run_traced();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same-seed InsertBatch failover traces diverged";
  EXPECT_NE(first.find("insert.append"), std::string::npos);
  EXPECT_NE(first.find("replication.failover"), std::string::npos);

  // CI artifact hook, as for the search kill trace above.
  if (const char* dir = std::getenv("DHNSW_TRACE_ARTIFACT_DIR")) {
    const std::string path = std::string(dir) + "/insert_batch_failover_trace.jsonl";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(first.data(), 1, first.size(), f), first.size());
    ASSERT_EQ(std::fclose(f), 0);
  }
}

TEST(ChaosFailoverTest, RereplicationRestoresFactorOnlineAndCopyServes) {
  ChaosHarness h(ReplicatedConfig());
  ReplicaManager* manager = h.engine().replication();
  ASSERT_NE(manager, nullptr);

  // Round 1: kill the original primary; the batch converges on replica 1.
  auto first = h.RunUnderPlan(h.MakeKillPrimaryPlan(kKillSkipFirst), FailoverRetry(), false);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(SameResults(h.baseline(), first.value()));
  ASSERT_EQ(manager->AliveCount(0), 1u);

  // Restore the factor online: stream onto a fresh node, admit at epoch 3.
  ASSERT_TRUE(manager->RereplicateAll().ok());
  EXPECT_EQ(manager->AliveCount(0), 2u);
  EXPECT_EQ(manager->SlotEpoch(0), 3u);

  // Serving continued: the admission epoch bump only forces a route refresh.
  auto after = h.RunUnderPlan(rdma::FaultPlan(0), FailoverRetry(), false);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(SameResults(h.baseline(), after.value()));

  // Round 2: kill the promoted primary too. Only the streamed copy remains —
  // correct results now prove the re-replicated bytes are a real replica.
  auto second = h.RunUnderPlan(h.MakeKillPrimaryPlan(kKillSkipFirst), FailoverRetry(), false);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(SameResults(h.baseline(), second.value()));
  EXPECT_EQ(manager->AliveCount(0), 1u);
  EXPECT_EQ(manager->SlotEpoch(0), 4u);
  EXPECT_EQ(manager->PrimaryRoute(0).replica, 2u);
}

// Chaos UNDER LOAD (ISSUE 6): kill slot 0's primary while a 4-node compute
// pool serves an open-loop mixed schedule at a target rate far above what
// the pool can drain. Required behaviour while degraded:
//   - every op reaches a terminal outcome: OK, an explicit error (nack), or
//     an admission-control drop — never a hang, never a lost op;
//   - no lost acks: every insert the pool acked OK is retrievable at
//     quiescence from the promoted replica;
//   - the overload is shed by ADMISSION (kCapacity drops at dispatch), and
//   - the whole episode completes in bounded wall time with the failover
//     actually observed (epoch bumped, primary dead).
TEST(ChaosFailoverTest, KillPrimaryUnderOpenLoopLoadShedsButNeverLosesAcks) {
  ChaosHarness::Config config = ReplicatedConfig();
  config.num_compute_nodes = 4;
  ChaosHarness h(config);
  ReplicaManager* manager = h.engine().replication();
  ASSERT_NE(manager, nullptr);
  for (size_t i = 0; i < 4; ++i) {
    h.engine().compute(i).mutable_options()->retry = FailoverRetry();
  }

  WorkloadGenOptions wopt;
  wopt.seed = 43;
  wopt.num_ops = 400;
  wopt.target_qps = 500'000.0;  // >> serviceable: forces queue pressure
  wopt.read_fraction = 0.8;
  wopt.num_topics = config.num_clusters;
  wopt.num_tenants = 2;
  wopt.first_insert_id = static_cast<uint32_t>(config.num_base);
  auto ops = WorkloadGenerator(h.dataset().base, wopt).Generate();

  ComputePoolOptions popt;
  popt.dispatch = DispatchPolicy::kLeastLoaded;
  popt.k = config.k;
  popt.ef_search = config.ef_search;
  popt.num_tenants = 2;
  popt.admission.node_queue_capacity = 8;
  popt.admission.tenant_inflight_limit = 48;

  ASSERT_TRUE(h.engine().fabric().ArmFaults(h.MakeKillPrimaryPlan(/*skip_first=*/6)).ok());
  std::vector<OpOutcome> outcomes;
  PoolRunStats stats;
  {
    ComputePool pool(h.engine().compute_nodes(), popt);
    WallTimer wall;
    stats = pool.Run(ops, PoolRunMode::kPaced, &outcomes);
    EXPECT_LT(wall.elapsed_ns(), 60ull * 1'000'000'000) << "degraded pool stalled";
  }
  h.engine().fabric().ClearFaults();

  // Accounting closes: terminal fate for every op, no lost ops.
  EXPECT_EQ(stats.submitted, ops.size());
  EXPECT_EQ(stats.submitted, stats.admitted + stats.dropped());
  EXPECT_EQ(stats.admitted, stats.completed_ok + stats.failed);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_NE(outcomes[i].status.message(), "op never completed") << "op " << i;
    if (outcomes[i].dropped) {
      EXPECT_EQ(outcomes[i].status.code(), StatusCode::kCapacity) << "op " << i;
    }
  }
  // The overload was shed at admission, not absorbed as unbounded queueing.
  EXPECT_GT(stats.dropped(), 0u);
  EXPECT_GT(stats.completed_ok, 0u);

  // The traffic drove the failover mid-run.
  EXPECT_EQ(manager->health(0, 0), ReplicaHealth::kDead);
  EXPECT_GE(manager->SlotEpoch(0), 2u);

  // No lost acks: every OK-acked insert is served from the promoted replica.
  h.engine().compute(0).InvalidateCache();
  size_t acked = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (ops[i].kind != WorkloadOp::Kind::kInsert) continue;
    if (outcomes[i].dropped || !outcomes[i].status.ok()) continue;
    ++acked;
    VectorSet one(h.engine().dim());
    one.Append(ops[i].vector);
    auto found = h.engine().compute(0).SearchBatch(one, 0, 1, config.k,
                                                   config.ef_search);
    ASSERT_TRUE(found.ok()) << "verification search failed for op " << i;
    bool present = false;
    for (const Scored& s : found.value().results[0]) {
      present = present || s.id == ops[i].global_id;
    }
    EXPECT_TRUE(present) << "acked insert op " << i << " (gid " << ops[i].global_id
                         << ") vanished after failover";
  }
  EXPECT_GT(acked, 0u) << "schedule never acked an insert; test proves nothing";

  // Post-episode the deployment still serves reads cleanly.
  auto after = h.engine().SearchAll(h.dataset().queries, config.k, config.ef_search);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  for (const Status& st : after.value().statuses) EXPECT_TRUE(st.ok());
}

TEST(ChaosFailoverTest, AllReplicasDeadDegradesOnlyUnderPartialResults) {
  ChaosHarness h(ReplicatedConfig());
  ReplicaManager* manager = h.engine().replication();
  ASSERT_NE(manager, nullptr);

  // Kill the whole replica set of slot 0 at once (skip_first 0: immediate).
  rdma::FaultPlan wipeout(99);
  for (const ReplicaManager::Route& route : manager->WriteRoutes(0)) {
    rdma::FaultRule rule;
    rule.kind = rdma::FaultKind::kUnreachable;
    rule.rkey = route.rkey;
    wipeout.Add(rule);
  }

  // Compute level: with the metadata slot's whole replica set gone there is
  // nothing partial to serve — the batch fails in both modes.
  auto strict = h.RunUnderPlan(wipeout, FailoverRetry(), /*partial_results=*/false);
  EXPECT_FALSE(strict.ok());
  auto compute_partial = h.RunUnderPlan(wipeout, FailoverRetry(), /*partial_results=*/true);
  EXPECT_FALSE(compute_partial.ok());

  // Pool level: a shard its node cannot serve at all degrades only under
  // that node's partial_results. Without it the request fails; with it
  // every query of the wiped shard comes back empty with the error attached
  // instead of wrong data. (Both replicas are dead + revoked by now, so no
  // re-arming is needed.)
  ComputePool pool(h.engine().compute_nodes(), ComputePoolOptions{});
  auto pool_strict =
      pool.SearchSharded(h.dataset().queries, h.config().k, h.config().ef_search);
  EXPECT_FALSE(pool_strict.ok());
  for (ComputeNode* node : h.engine().compute_nodes()) {
    node->mutable_options()->partial_results = true;
  }
  auto degraded = pool.SearchSharded(h.dataset().queries, h.config().k, h.config().ef_search);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_EQ(degraded.value().statuses.size(), h.dataset().queries.size());
  for (size_t qi = 0; qi < degraded.value().statuses.size(); ++qi) {
    EXPECT_FALSE(degraded.value().statuses[qi].ok()) << "query " << qi;
    EXPECT_TRUE(degraded.value().results[qi].empty()) << "query " << qi;
  }
}

}  // namespace
}  // namespace dhnsw
