// Throughput scaling across the compute pool (paper §4 runs 24 instances
// over 3 servers; §1 targets "high-throughput vector query"). The client
// load balancer shards each batch across instances; with independent QPs
// and caches, throughput should scale near-linearly until the shards get so
// small that per-batch fixed costs (metadata refresh, cold loads) dominate.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/stats.h"
#include "common/timer.h"
#include "dataset/ground_truth.h"
#include "telemetry/metrics.h"

namespace {

// One cell of the pipeline grid: fresh node (cold cache) per repetition,
// best-of-reps wall latency for the full 2000-query batch.
struct PipelinePoint {
  double latency_us = 0;
  double throughput_qps = 0;
  double recall = 0;
  double overlap_ms = 0;  ///< pipeline_overlap_ns from the best rep
};

PipelinePoint MeasurePipeline(dhnsw::DhnswEngine& engine, const dhnsw::Dataset& ds,
                              const dhnsw::bench::BenchConfig& config,
                              uint32_t pipeline_depth, size_t search_threads, int reps) {
  PipelinePoint point;
  double best_us = 0;
  for (int rep = 0; rep < reps; ++rep) {
    auto node = AttachComputeNode(engine, config, dhnsw::EngineMode::kFull);
    node->mutable_options()->pipeline_depth = pipeline_depth;
    node->mutable_options()->search_threads = search_threads;
    dhnsw::WallTimer timer;
    auto result = node->SearchAll(ds.queries, 10, 32);
    const double us = timer.elapsed_us();
    if (!result.ok()) {
      std::fprintf(stderr, "pipeline bench failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (std::getenv("DHNSW_BENCH_DIAG") != nullptr) {
      const dhnsw::BatchBreakdown& b = result.value().breakdown;
      std::fprintf(stderr,
                   "diag d=%u t=%zu wall=%.0fus net=%.0f meta=%.0f sub=%.0f deser=%.0f "
                   "overlap=%.0fus loaded=%llu\n",
                   pipeline_depth, search_threads, us, b.network_us, b.meta_us, b.sub_us,
                   b.deserialize_us, b.pipeline_overlap_ns / 1e3,
                   (unsigned long long)b.clusters_loaded);
    }
    if (rep == 0 || us < best_us) {
      best_us = us;
      point.recall = dhnsw::MeanRecallAtK(ds, result.value().results, 10);
      point.overlap_ms =
          static_cast<double>(result.value().breakdown.pipeline_overlap_ns) / 1e6;
    }
  }
  point.latency_us = best_us;
  point.throughput_qps = static_cast<double>(ds.queries.size()) / (best_us / 1e6);
  return point;
}

// The batch-size axis: whether prefetching the next wave pays depends on how
// much sub-search the current wave holds to hide the hand-off behind, so each
// cell sweeps every query through a warm node in consecutive batches of one
// size, at depth 1 and depth 2 alternately.
struct SweepCell {
  dhnsw::LatencyRecorder batch_us;   ///< every timed batch's wall latency
  std::vector<double> sweep_qps;     ///< one per timed sweep
  uint64_t batches = 0;
  uint64_t waves = 0;
  uint64_t items = 0;                ///< work items searched
  uint64_t prefetched = 0;           ///< waves handed to the prefetch worker
};

void SweepOnce(dhnsw::ComputeNode& node, const dhnsw::Dataset& ds, size_t batch,
               SweepCell* cell) {
  dhnsw::telemetry::MetricRegistry& r = dhnsw::telemetry::DefaultRegistry();
  const dhnsw::telemetry::Counter* waves = r.GetCounter("dhnsw_scheduler_waves_total");
  const dhnsw::telemetry::Counter* prefetched =
      r.GetCounter("dhnsw_compute_prefetch_waves_total");
  const dhnsw::telemetry::ShardedCounter* items =
      r.GetShardedCounter("dhnsw_compute_sub_searches_total");
  const uint64_t waves0 = waves->value(), prefetched0 = prefetched->value();
  const uint64_t items0 = items->value();
  const size_t n = ds.queries.size();
  dhnsw::WallTimer sweep_timer;
  for (size_t begin = 0; begin < n; begin += batch) {
    dhnsw::WallTimer timer;
    auto result = node.SearchBatch(ds.queries, begin, std::min(batch, n - begin), 10, 32);
    if (!result.ok()) {
      std::fprintf(stderr, "batch axis failed: %s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    cell->batch_us.Add(timer.elapsed_us());
    cell->batches += 1;
  }
  cell->sweep_qps.push_back(static_cast<double>(n) / (sweep_timer.elapsed_us() / 1e6));
  cell->waves += waves->value() - waves0;
  cell->prefetched += prefetched->value() - prefetched0;
  cell->items += items->value() - items0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhnsw::bench;
  // `--json=PATH` archives the pipeline grid and the batch-size axis;
  // everything else goes to ParseFlags (which treats unknown keys as fatal).
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  BenchConfig config = ParseFlags(static_cast<int>(args.size()), args.data(),
                                  BenchConfig::ForWorkload(Workload::kSiftLike));
  config.num_queries = 2000;

  std::printf("==== Throughput scaling over compute instances ====\n");
  dhnsw::Dataset ds = LoadDataset(config);
  dhnsw::DhnswEngine engine = BuildEngine(ds, config);

  std::printf("\n%10s %16s %16s %14s %14s %14s\n", "instances", "batch latency",
              "throughput", "recall", "shard p50", "shard max");
  std::printf("%10s %16s %16s %14s %14s %14s\n", "", "(us)", "(queries/s)", "@10",
              "(us)", "(us)");
  const size_t n = ds.queries.size();
  for (size_t instances : {1u, 2u, 4u, 8u, 16u}) {
    // The batch splits into one contiguous shard per instance. Each shard
    // runs alone on its own fresh node (cold cache), one after another, so
    // it has the host to itself as an instance has its own cores, and the
    // batch takes as long as its slowest shard. Each shard records into its
    // own recorder/stat (in a real pool each instance aggregates locally),
    // then the shards are Merge()d into a pool-wide view — no re-sort of the
    // combined samples, no double-counting of Welford terms.
    std::vector<std::vector<dhnsw::Scored>> results(n);
    dhnsw::LatencyRecorder pool_latency;
    dhnsw::RunningStat pool_stat;
    for (size_t s = 0; s < instances; ++s) {
      const size_t begin = s * n / instances;
      const size_t count = (s + 1) * n / instances - begin;
      auto node = AttachComputeNode(engine, config, dhnsw::EngineMode::kFull);
      auto shard = node->SearchBatch(ds.queries, begin, count, 10, 32);
      if (!shard.ok()) {
        std::fprintf(stderr, "shard failed: %s\n", shard.status().ToString().c_str());
        return 1;
      }
      std::move(shard.value().results.begin(), shard.value().results.end(),
                results.begin() + static_cast<std::ptrdiff_t>(begin));
      const dhnsw::BatchBreakdown& b = shard.value().breakdown;
      dhnsw::LatencyRecorder shard_latency;
      dhnsw::RunningStat shard_stat;
      const double shard_us = b.network_us + b.meta_us + b.sub_us + b.deserialize_us;
      shard_latency.Add(shard_us);
      shard_stat.Add(shard_us);
      pool_latency.Merge(shard_latency);
      pool_stat.Merge(shard_stat);
    }
    const double batch_latency_us = pool_stat.max();
    const double throughput =
        batch_latency_us > 0.0 ? static_cast<double>(n) / (batch_latency_us / 1e6) : 0.0;
    double recall = dhnsw::MeanRecallAtK(ds, results, 10);
    std::printf("%10zu %16.1f %16.0f %14.4f %14.1f %14.1f\n", instances, batch_latency_us,
                throughput, recall, pool_latency.p50(), pool_stat.max());
  }
  std::printf("\n# latency = slowest shard; throughput = batch size / latency.\n");

  // ---- Pipelined wave execution: depth x threads grid on one instance ----
  // depth=1 is the blocking seed path; depth=2 posts each wave's READs while
  // the previous wave's sub-searches run. The threads=1 vs threads=4 rows at
  // depth=1 also document the persistent-pool fix: per-wave pool construction
  // used to make multi-threaded search SLOWER than single-threaded on the
  // small waves this cache budget produces.
  std::printf("\n==== Pipelined wave execution (single instance, cold cache) ====\n");
  std::printf("\n%8s %10s %16s %16s %10s %14s\n", "depth", "threads", "batch latency",
              "throughput", "recall", "overlap");
  std::printf("%8s %10s %16s %16s %10s %14s\n", "", "", "(us)", "(queries/s)", "@10",
              "(ms wall)");
  constexpr int kReps = 3;
  JsonWriter json;
  PipelinePoint grid[2][2];  // [depth-1][threads index], threads in {1, 4}
  const size_t kThreads[2] = {1, 4};
  for (uint32_t depth : {1u, 2u}) {
    for (size_t ti = 0; ti < 2; ++ti) {
      PipelinePoint p = MeasurePipeline(engine, ds, config, depth, kThreads[ti], kReps);
      grid[depth - 1][ti] = p;
      std::printf("%8u %10zu %16.1f %16.0f %10.4f %14.2f\n", depth, kThreads[ti],
                  p.latency_us, p.throughput_qps, p.recall, p.overlap_ms);
      LabelNic(json.Row("pipeline_grid"), engine)
          .Label("pipeline_depth", std::to_string(depth))
          .Label("search_threads", std::to_string(kThreads[ti]))
          .Field("batch_latency_us", p.latency_us)
          .Field("throughput_qps", p.throughput_qps)
          .Field("recall_at_10", p.recall)
          .Field("pipeline_overlap_ms", p.overlap_ms);
    }
  }
  const double pipeline_speedup =
      grid[1][1].throughput_qps / grid[0][1].throughput_qps;
  const double thread_speedup = grid[0][1].throughput_qps / grid[0][0].throughput_qps;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("\n# pipeline speedup (depth 2 vs 1, threads 4): %.2fx\n", pipeline_speedup);
  std::printf("# thread speedup   (threads 4 vs 1, depth 1):  %.2fx\n", thread_speedup);
  if (cores <= 1) {
    std::printf(
        "# NOTE: only %u CPU core available. The prefetch worker and the\n"
        "# search threads timeslice a single core, so wall-clock overlap\n"
        "# cannot materialize (it shows up as scheduler interleaving overhead\n"
        "# instead); the overlap column only proves the pipeline is active.\n"
        "# Run on >= 2 cores to measure the real latency win.\n",
        cores);
  }
  json.Row("pipeline_summary")
      .Field("pipeline_speedup_d2_vs_d1_t4", pipeline_speedup)
      .Field("thread_speedup_t4_vs_t1_d1", thread_speedup)
      .Field("hardware_threads", static_cast<double>(cores));

  // ---- Batch-size axis: where prefetching starts to pay ----
  // Depth 2 prefetches wave w+1 only behind a wave of at least
  // kPrefetchMinItems work items; this axis is where that constant comes
  // from. Each (batch, threads) cell warms one node per depth with a full
  // sweep, then alternates timed sweeps between them. Nodes run the default
  // sub-search mode, as serving does.
  constexpr int kSweepReps = 5;
  std::printf("\n==== Batch-size axis (single instance, warm cache, %d sweeps of %zu "
              "queries) ====\n",
              kSweepReps, ds.queries.size());
  std::printf("# kPrefetchMinItems = %zu\n", dhnsw::kPrefetchMinItems);
  std::printf("\n%7s %8s %6s %12s %14s %12s %12s %10s\n", "batch", "threads", "depth",
              "batch p50", "throughput", "items/wave", "prefetched", "d2/d1");
  std::printf("%7s %8s %6s %12s %14s %12s %12s %10s\n", "", "", "", "(us)", "(queries/s)",
              "", "waves/batch", "qps");
  for (size_t batch : {1u, 4u, 16u, 64u, 256u, 2000u}) {
    for (size_t threads : kThreads) {
      std::unique_ptr<dhnsw::ComputeNode> nodes[2];
      SweepCell warm[2], cells[2];
      for (uint32_t d = 0; d < 2; ++d) {
        nodes[d] = AttachComputeNode(engine, config, dhnsw::EngineMode::kFull);
        dhnsw::ComputeOptions* opts = nodes[d]->mutable_options();
        opts->sub_search = dhnsw::ComputeOptions{}.sub_search;
        opts->pipeline_depth = d + 1;
        opts->search_threads = threads;
        SweepOnce(*nodes[d], ds, batch, &warm[d]);
      }
      for (int rep = 0; rep < kSweepReps; ++rep) {
        for (uint32_t d = 0; d < 2; ++d) SweepOnce(*nodes[d], ds, batch, &cells[d]);
      }
      const double ratio = Median(cells[1].sweep_qps) / Median(cells[0].sweep_qps);
      for (uint32_t d = 0; d < 2; ++d) {
        const SweepCell& c = cells[d];
        const double items_per_wave =
            c.waves == 0 ? 0.0 : static_cast<double>(c.items) / static_cast<double>(c.waves);
        const double prefetched_per_batch =
            static_cast<double>(c.prefetched) / static_cast<double>(c.batches);
        std::printf("%7zu %8zu %6u %12.1f %14.0f %12.1f %12.2f", batch, threads, d + 1,
                    c.batch_us.p50(), Median(c.sweep_qps), items_per_wave,
                    prefetched_per_batch);
        if (d == 1) std::printf(" %10.3f", ratio);
        std::printf("\n");
        LabelNic(json.Row("pipeline_batch_axis"), engine)
            .Label("batch_queries", std::to_string(batch))
            .Label("search_threads", std::to_string(threads))
            .Label("pipeline_depth", std::to_string(d + 1))
            .Field("batch_p50_us", c.batch_us.p50())
            .Field("throughput_qps", Median(c.sweep_qps))
            .Field("items_per_wave", items_per_wave)
            .Field("prefetched_waves_per_batch", prefetched_per_batch)
            .Field("prefetch_min_items", static_cast<double>(dhnsw::kPrefetchMinItems));
      }
    }
  }
  std::printf("\n# d2/d1 = median sweep throughput at depth 2 over depth 1. A batch\n"
              "# whose waves all hold fewer than kPrefetchMinItems items runs the\n"
              "# same rounds inline at both depths.\n");
  if (!json_path.empty() && !json.WriteFile(json_path)) return 1;
  return 0;
}
