// Scale-out benchmark for the compute pool (DESIGN.md §12). Two experiments
// over N in {1, 2, 4, 8} ComputeNode instances sharing one memory pool:
//
//   A. Capacity: a drain run through the live pool (worker threads,
//      backpressure) gives wall throughput, and a sequential per-node replay
//      of the run's own assignment (median of 5 replays per node, each timed
//      on the process CPU clock) gives MODELED capacity ops / max_n(busy_n)
//      — the throughput an N-core
//      deployment achieves, reported alongside wall because wall cannot
//      scale past the host's core count (CI runs this on small machines).
//      Scaling is sub-linear in the model too: each node has its own cold
//      cache, so N nodes duplicate cluster loads the single node amortized.
//      Recall parity is checked per N via the front-end sharded batch path.
//
//   B. Open-loop latency: the same workload is released at its Poisson
//      arrival times for three target-QPS levels derived from the measured
//      N=1 capacity (0.5x, 1.0x, 2.0x) under cache-affinity dispatch
//      (kLeastLoaded), reporting sojourn p50/p99/p999, admission drops and
//      the pool's cache hit share. Above capacity the pool must shed load
//      (drops), not queue unboundedly — latency stays finite because queues
//      are bounded.
//
// `--json=PATH` archives both grids (default BENCH_scaleout.json, the CI
// artifact). `--ops=K` sizes the schedules; `--read_fraction=F` adds inserts
// to the mix (default 1.0 keeps the engine immutable so every N sees the
// same index and the modeled replay stays side-effect-free).
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/stats.h"
#include "core/compute_pool.h"
#include "core/workload_gen.h"
#include "dataset/ground_truth.h"

namespace {

constexpr size_t kNodeCounts[] = {1, 2, 4, 8};
constexpr uint32_t kEfSearch = 32;

struct PoolFixture {
  std::vector<std::unique_ptr<dhnsw::ComputeNode>> owned;
  std::vector<dhnsw::ComputeNode*> nodes;
  std::unique_ptr<dhnsw::ComputePool> pool;
};

// Fresh nodes (cold caches) per measurement point, mirroring a pool scale-up.
PoolFixture MakePool(dhnsw::DhnswEngine& engine,
                     const dhnsw::bench::BenchConfig& config, size_t n,
                     dhnsw::DispatchPolicy dispatch, uint32_t num_tenants) {
  PoolFixture f;
  for (size_t i = 0; i < n; ++i) {
    f.owned.push_back(
        AttachComputeNode(engine, config, dhnsw::EngineMode::kFull));
    f.nodes.push_back(f.owned.back().get());
  }
  dhnsw::ComputePoolOptions opt;
  opt.dispatch = dispatch;
  opt.k = config.gt_k;
  opt.ef_search = kEfSearch;
  opt.num_tenants = num_tenants;
  f.pool = std::make_unique<dhnsw::ComputePool>(f.nodes, opt);
  return f;
}

dhnsw::WorkloadGenOptions BaseWorkload(const dhnsw::bench::BenchConfig& config,
                                       size_t num_ops, double read_fraction,
                                       size_t num_base) {
  dhnsw::WorkloadGenOptions w;
  w.seed = config.seed;
  w.num_ops = num_ops;
  w.read_fraction = read_fraction;
  w.num_tenants = 4;
  w.num_topics = 32;
  w.first_insert_id = static_cast<uint32_t>(num_base);
  return w;
}

/// CPU time this process has used, in µs: every thread's (the replay's and
/// the prefetch worker's), and none of the time a thread waits off the CPU.
double ProcessCpuUs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

// Modeled capacity: replay each node's share of the drain run — the ops the
// run's OpOutcome::node says it executed — to completion on a fresh node, one
// node at a time, through the same per-op path the pool workers use. Each
// share is replayed kReplays times, each on a fresh node (cold cache, as in
// the run), and its busy time is the median replay's process CPU time: a
// wall clock would also count the time the replay thread is descheduled on
// a shared host, or waiting for the prefetch worker to wake. The bottleneck
// node's busy time bounds the run on an N-core host:
//   modeled_qps = ops / max_n(busy_n).
// Search-only workloads only — replaying inserts would mutate the shared
// region twice.
double ModeledCapacityQps(dhnsw::DhnswEngine& engine,
                          const dhnsw::bench::BenchConfig& config, size_t n,
                          const std::vector<dhnsw::WorkloadOp>& ops,
                          const std::vector<dhnsw::OpOutcome>& outcomes) {
  constexpr int kReplays = 5;
  std::vector<std::vector<const dhnsw::WorkloadOp*>> per_node(n);
  for (size_t i = 0; i < ops.size(); ++i) per_node[outcomes[i].node].push_back(&ops[i]);

  double max_busy_us = 0.0;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> busy_us;
    for (int rep = 0; rep < kReplays; ++rep) {
      auto node = AttachComputeNode(engine, config, dhnsw::EngineMode::kFull);
      const double start_us = ProcessCpuUs();
      for (const dhnsw::WorkloadOp* op : per_node[i]) {
        dhnsw::VectorSet one(node->dim());
        one.Append(op->vector);
        auto run = node->SearchBatch(one, 0, 1, config.gt_k, kEfSearch);
        if (!run.ok()) {
          std::fprintf(stderr, "modeled replay failed: %s\n",
                       run.status().ToString().c_str());
          std::exit(1);
        }
      }
      busy_us.push_back(ProcessCpuUs() - start_us);
    }
    std::nth_element(busy_us.begin(), busy_us.begin() + kReplays / 2, busy_us.end());
    max_busy_us = std::max(max_busy_us, busy_us[kReplays / 2]);
  }
  return static_cast<double>(ops.size()) / (max_busy_us / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhnsw::bench;
  // Bench-local flags come out before ParseFlags (unknown keys are fatal).
  std::string json_path = "BENCH_scaleout.json";
  size_t num_ops = 1500;
  double read_fraction = 1.0;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      num_ops = static_cast<size_t>(std::strtoull(argv[i] + 6, nullptr, 10));
    } else if (std::strncmp(argv[i], "--read_fraction=", 16) == 0) {
      read_fraction = std::strtod(argv[i] + 16, nullptr);
    } else {
      args.push_back(argv[i]);
    }
  }
  // Scale-out stresses per-op dispatch (no batch amortization), so the
  // default stand-in is smaller than the batch benches'.
  BenchConfig defaults = BenchConfig::ForWorkload(Workload::kSiftLike);
  defaults.num_base = 8000;
  defaults.num_queries = 500;
  BenchConfig config =
      ParseFlags(static_cast<int>(args.size()), args.data(), defaults);

  std::printf("==== Scale-out: compute pool over one memory pool ====\n");
  dhnsw::Dataset ds = LoadDataset(config);
  dhnsw::DhnswEngine engine = BuildEngine(ds, config);
  JsonWriter json;

  // ---- A. Capacity (wall + modeled) and recall parity ----
  std::printf("\n%8s %12s %12s %12s %12s %10s\n", "nodes", "wall", "modeled",
              "modeled", "efficiency", "recall");
  std::printf("%8s %12s %12s %12s %12s %10s\n", "", "(ops/s)", "(ops/s)",
              "speedup", "(vs N*N1)", "@10");
  double base_qps = 0.0;          // N=1 wall capacity, used for paced levels
  double base_modeled_qps = 0.0;  // N=1 modeled capacity
  double modeled_speedup_n4 = 0.0;
  for (size_t n : kNodeCounts) {
    auto schedule =
        dhnsw::WorkloadGenerator(
            ds.base, BaseWorkload(config, num_ops, read_fraction, ds.base.size()))
            .Generate();
    PoolFixture f = MakePool(engine, config, n,
                             dhnsw::DispatchPolicy::kLeastAssigned, 4);
    std::vector<dhnsw::OpOutcome> outcomes;
    dhnsw::PoolRunStats stats =
        f.pool->Run(schedule, dhnsw::PoolRunMode::kDrain, &outcomes);
    if (stats.failed != 0 || stats.dropped() != 0) {
      std::fprintf(stderr, "drain N=%zu: %llu failures, %llu drops\n", n,
                   (unsigned long long)stats.failed,
                   (unsigned long long)stats.dropped());
      return 1;
    }
    const double modeled_qps =
        read_fraction == 1.0
            ? ModeledCapacityQps(engine, config, n, schedule, outcomes)
            : stats.achieved_qps;  // replay is search-only; fall back to wall
    auto sharded = f.pool->SearchSharded(ds.queries, config.gt_k, kEfSearch);
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharded search failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    const double recall =
        dhnsw::MeanRecallAtK(ds, sharded.value().results, config.gt_k);
    if (n == 1) {
      base_qps = stats.achieved_qps;
      base_modeled_qps = modeled_qps;
    }
    const double modeled_speedup = modeled_qps / base_modeled_qps;
    if (n == 4) modeled_speedup_n4 = modeled_speedup;
    const double efficiency = modeled_speedup / static_cast<double>(n);
    std::printf("%8zu %12.0f %12.0f %11.2fx %12.2f %10.4f\n", n,
                stats.achieved_qps, modeled_qps, modeled_speedup, efficiency,
                recall);
    LabelNic(json.Row("scaleout_capacity"), engine)
        .Label("nodes", std::to_string(n))
        .Field("wall_qps", stats.achieved_qps)
        .Field("modeled_qps", modeled_qps)
        .Field("modeled_speedup_vs_n1", modeled_speedup)
        .Field("scaling_efficiency", efficiency)
        .Field("recall_at_k", recall)
        .Field("ops", static_cast<double>(stats.completed_ok));
  }

  // ---- B. Open-loop latency at target QPS ----
  // Levels are fractions of the measured N=1 wall capacity so the grid
  // stresses the same relative operating points on any machine.
  const double levels[] = {0.5, 1.0, 2.0};
  std::printf("\n%8s %10s %12s %12s %10s %10s %10s %10s %10s\n", "nodes", "level",
              "target", "achieved", "p50", "p99", "p999", "drops", "cache");
  std::printf("%8s %10s %12s %12s %10s %10s %10s %10s %10s\n", "", "(xN1)",
              "(ops/s)", "(ops/s)", "(us)", "(us)", "(us)", "", "hits");
  for (size_t n : kNodeCounts) {
    for (double level : levels) {
      const double target = base_qps * level;
      dhnsw::WorkloadGenOptions w =
          BaseWorkload(config, num_ops, read_fraction, ds.base.size());
      w.target_qps = target;
      auto schedule = dhnsw::WorkloadGenerator(ds.base, w).Generate();
      PoolFixture f = MakePool(engine, config, n,
                               dhnsw::DispatchPolicy::kLeastLoaded, 4);
      dhnsw::PoolRunStats stats =
          f.pool->Run(schedule, dhnsw::PoolRunMode::kPaced);
      std::printf("%8zu %9.1fx %12.0f %12.0f %10.1f %10.1f %10.1f %10llu %10.3f\n", n,
                  level, target, stats.achieved_qps, stats.latency_us.p50(),
                  stats.latency_us.p99(), stats.latency_us.percentile(99.9),
                  (unsigned long long)stats.dropped(), stats.cache_hit_share());
      LabelNic(json.Row("scaleout_paced"), engine)
          .Label("nodes", std::to_string(n))
          .Label("level", std::to_string(level))
          .Field("target_qps", target)
          .Field("offered_qps", stats.offered_qps)
          .Field("achieved_qps", stats.achieved_qps)
          .Field("p50_us", stats.latency_us.p50())
          .Field("p99_us", stats.latency_us.p99())
          .Field("p999_us", stats.latency_us.percentile(99.9))
          .Field("dropped", static_cast<double>(stats.dropped()))
          .Field("drop_rate",
                 static_cast<double>(stats.dropped()) /
                     static_cast<double>(stats.submitted))
          .Field("cache_hit_share", stats.cache_hit_share());
    }
  }

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("\n# N=4 vs N=1 modeled speedup: %.2fx (%u hardware threads)\n",
              modeled_speedup_n4, cores);
  if (cores < 4) {
    std::printf(
        "# NOTE: fewer than 4 cores — the wall column timeslices pool\n"
        "# workers on a shared core; the modeled column (sequential replay,\n"
        "# bottleneck-node busy time) is the N-core deployment number.\n");
  }
  LabelNic(json.Row("scaleout_summary"), engine)
      .Field("modeled_speedup_n4_vs_n1", modeled_speedup_n4)
      .Field("n1_capacity_qps", base_qps)
      .Field("n1_modeled_qps", base_modeled_qps)
      .Field("hardware_threads", static_cast<double>(cores))
      .Field("read_fraction", read_fraction)
      .Field("ops_per_point", static_cast<double>(num_ops));
  if (!json_path.empty() && !json.WriteFile(json_path)) return 1;
  return 0;
}
