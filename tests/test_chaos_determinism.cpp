// Seed-determinism acceptance tests: the same (config, data seed, fault
// plan) replays byte-identically — same result ids AND bit-exact distances,
// same simulated-ns total, same wire counters — across independent runs and
// across search_threads settings. This is what makes a chaos failure
// reproducible from nothing but the seed that found it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chaos_harness.h"
#include "telemetry/trace.h"

namespace dhnsw {
namespace {

struct Observed {
  BatchResult result;
  uint64_t sim_ns = 0;        ///< compute instance's clock after the run
  uint64_t round_trips = 0;
  uint64_t injected_faults = 0;
  uint64_t backoff_ns = 0;
};

Observed RunOnce(size_t search_threads, uint64_t plan_seed) {
  ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
  ComputeNode& node = h.engine().compute(0);
  node.mutable_options()->search_threads = search_threads;

  RetryPolicy retry = RetryPolicy::Default();
  retry.max_attempts = ChaosHarness::kTransientTriggerBudget + 4;
  auto run = h.RunUnderPlan(h.MakeTransientPlan(plan_seed), retry, false);
  EXPECT_TRUE(run.ok()) << run.status().ToString();

  Observed obs;
  obs.result = std::move(run).value();
  obs.sim_ns = node.clock().now_ns();
  obs.round_trips = node.qp_stats().round_trips;
  obs.injected_faults = node.qp_stats().injected_faults;
  obs.backoff_ns = obs.result.breakdown.backoff_ns;
  return obs;
}

void ExpectIdentical(const Observed& a, const Observed& b, const char* what) {
  EXPECT_TRUE(SameResults(a.result, b.result)) << what;
  EXPECT_EQ(a.sim_ns, b.sim_ns) << what;
  EXPECT_EQ(a.round_trips, b.round_trips) << what;
  EXPECT_EQ(a.injected_faults, b.injected_faults) << what;
  EXPECT_EQ(a.backoff_ns, b.backoff_ns) << what;
}

TEST(ChaosDeterminismTest, IdenticalAcrossIndependentRuns) {
  const Observed first = RunOnce(1, 31);
  const Observed second = RunOnce(1, 31);
  ASSERT_GT(first.injected_faults, 0u) << "schedule 31 never fired";
  ExpectIdentical(first, second, "run 1 vs run 2");
}

TEST(ChaosDeterminismTest, IdenticalAcrossSearchThreadCounts) {
  // RDMA traffic (and thus fault decisions, retries, and simulated time) is
  // issued from the batch's caller thread; intra-instance search parallelism
  // must not perturb any of it.
  const Observed serial = RunOnce(1, 31);
  for (size_t threads : {2, 4}) {
    const Observed parallel = RunOnce(threads, 31);
    ExpectIdentical(serial, parallel, "search_threads");
  }
}

TEST(ChaosDeterminismTest, DifferentPlanSeedsGiveDifferentSchedules) {
  const Observed a = RunOnce(1, 31);
  const Observed b = RunOnce(1, 32);
  // Same data, same oracle answers — but a different fault schedule shows up
  // in the wire/time accounting.
  EXPECT_TRUE(SameResults(a.result, b.result));
  EXPECT_NE(a.sim_ns, b.sim_ns);
}

/// Wall-free JSONL trace of one transient-fault chaos run.
std::string TracedRun(uint64_t plan_seed, size_t search_threads = 1) {
  ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
  h.engine().compute(0).mutable_options()->search_threads = search_threads;
  h.engine().EnableTracing(1 << 16);
  RetryPolicy retry = RetryPolicy::Default();
  retry.max_attempts = ChaosHarness::kTransientTriggerBudget + 4;
  auto run = h.RunUnderPlan(h.MakeTransientPlan(plan_seed), retry, false);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  const telemetry::TraceBuffer& trace = h.engine().compute(0).trace();
  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  return TraceToJsonl(trace, telemetry::TraceExportOptions{.include_wall = false});
}

// The trace subsystem must inherit the same determinism: a chaos run's span
// log (in the wall-free export form) is a pure function of the seeds. Two
// fresh deployments replaying the same plan must serialize byte-identical
// JSONL — this is what CI byte-compares and archives.
TEST(ChaosDeterminismTest, TraceJsonlIsByteIdenticalAcrossSameSeedRuns) {
  const std::string first = TracedRun(31);
  const std::string second = TracedRun(31);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same-seed chaos traces diverged";

  // The trace shows the batch anatomy including the fabric traffic the
  // fault schedule perturbs.
  EXPECT_NE(first.find("\"name\":\"batch\""), std::string::npos);
  EXPECT_NE(first.find("\"stage.load\""), std::string::npos);
  EXPECT_NE(first.find("\"rdma.ring\""), std::string::npos);
  // wall_ns is omitted in the deterministic form by construction.
  EXPECT_EQ(first.find("wall_ns"), std::string::npos);

  // A different schedule perturbs simulated time, so the trace differs.
  const std::string other = TracedRun(32);
  EXPECT_NE(first, other);

  // CI artifact hook: archive the canonical trace when the env var is set.
  if (const char* dir = std::getenv("DHNSW_TRACE_ARTIFACT_DIR")) {
    const std::string path = std::string(dir) + "/chaos_trace_seed31.jsonl";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(first.data(), 1, first.size(), f), first.size());
    ASSERT_EQ(std::fclose(f), 0);
  }
}

// Pool workers only time the per-query routing and per-item sub-search
// spans; the owner appends them in order after each join. So the trace,
// those spans included, does not depend on how many threads did the work.
TEST(ChaosDeterminismTest, TraceJsonlIsByteIdenticalAcrossSearchThreadCounts) {
  const std::string serial = TracedRun(31, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_NE(serial.find("\"query.meta\""), std::string::npos);
  EXPECT_NE(serial.find("\"query.sub\""), std::string::npos);
  for (size_t threads : {size_t{2}, size_t{4}}) {
    EXPECT_EQ(serial, TracedRun(31, threads)) << "search_threads " << threads;
  }
}

TEST(ChaosDeterminismTest, PermanentSchedulesReplayIdenticallyToo) {
  auto run_permanent = [] {
    ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
    uint32_t victim = 0;
    auto run = h.RunUnderPlan(h.MakePermanentPlan(&victim), RetryPolicy::Default(),
                              /*partial_results=*/true);
    EXPECT_TRUE(run.ok());
    Observed obs;
    obs.result = std::move(run).value();
    obs.sim_ns = h.engine().compute(0).clock().now_ns();
    obs.round_trips = h.engine().compute(0).qp_stats().round_trips;
    obs.injected_faults = h.engine().compute(0).qp_stats().injected_faults;
    obs.backoff_ns = obs.result.breakdown.backoff_ns;
    return obs;
  };
  const Observed a = run_permanent();
  const Observed b = run_permanent();
  ExpectIdentical(a, b, "permanent schedule");
  for (size_t qi = 0; qi < a.result.statuses.size(); ++qi) {
    EXPECT_EQ(a.result.statuses[qi].code(), b.result.statuses[qi].code()) << qi;
  }
}

}  // namespace
}  // namespace dhnsw
