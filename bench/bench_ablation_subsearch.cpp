// Ablation A9: what the sub-HNSW *graphs* buy inside partitions, and where
// an exact scan overtakes them. Three modes search the same resident
// clusters (network traffic is identical, so this isolates compute):
//   graph — the paper's sub-HNSW walk (SubSearchMode::kGraph),
//   flat  — exact scan of every routed cluster, the "d-IVF" ablation,
//   auto  — the default: scan clusters of at most kAutoScanRowsPerEf x ef
//           rows, walk larger ones.
// Each is measured as one 500-query batch on 4 search threads, where scans
// run cluster-major, and as single-query ops on one thread, across
// partition sizes and at two efSearch values.
//
// Partition sizes vary around their mean, and queries land more often in
// the large ones, so the first table also gives the mean rows of a routed
// (query, cluster) pair. The second table sets kAutoScanRowsPerEf: every
// searched item's "query.sub" span (its wall time; a scanned item's share of
// its unit's) is binned by its cluster's row count, pooled over all runs.
#include <array>
#include <cstdio>

#include "bench_common.h"
#include "dataset/ground_truth.h"

namespace {

using namespace dhnsw;
using namespace dhnsw::bench;

constexpr size_t kK = 10;
constexpr uint32_t kEfs[] = {32, 128};
constexpr uint32_t kBinEdges[] = {250, 500, 750, 1000, 1500, 2000, 3000, 4000, UINT32_MAX};
constexpr size_t kBins = std::size(kBinEdges);

struct Mode {
  SubSearchMode mode;
  const char* name;
};
constexpr Mode kModes[] = {{SubSearchMode::kGraph, "graph"},
                           {SubSearchMode::kFlatScan, "flat"},
                           {SubSearchMode::kAuto, "auto"}};

/// Per-item sub-search wall time, binned by the item's cluster row count.
struct Bins {
  std::array<double, kBins> us{};
  std::array<uint64_t, kBins> items{};

  void Add(const telemetry::TraceBuffer& trace, const std::vector<uint32_t>& sizes) {
    for (const telemetry::TraceEvent& e : trace.events()) {
      if (std::string_view(e.name) != "query.sub") continue;
      size_t bin = 0;
      while (sizes[e.a] > kBinEdges[bin]) ++bin;
      us[bin] += static_cast<double>(e.wall_ns) / 1e3;
      ++items[bin];
    }
  }
  double Mean(size_t bin) const { return items[bin] == 0 ? 0.0 : us[bin] / items[bin]; }
};

/// [mode][ef][batch?] bins, pooled over every partition-size setting.
Bins g_bins[std::size(kModes)][std::size(kEfs)][2];

struct ModeRun {
  double recall = 0.0;
  double batch_sub_us = 0.0;   ///< sub-search wall per query, one batch
  double single_sub_us = 0.0;  ///< sub-search wall per query, one query per call
};

std::unique_ptr<ComputeNode> Attach(DhnswEngine& engine, const BenchConfig& config,
                                    uint32_t reps, SubSearchMode mode, size_t threads) {
  ComputeOptions options;
  options.clusters_per_query = config.clusters_per_query;
  options.cache_capacity = reps;  // cache everything: isolate compute
  options.search_threads = threads;
  options.sub_search = mode;
  auto node = std::make_unique<ComputeNode>(&engine.fabric(), engine.memory_handle(), options);
  if (!node->Connect().ok()) std::exit(1);
  return node;
}

ModeRun Measure(DhnswEngine& engine, const Dataset& ds, const BenchConfig& config,
                uint32_t reps, size_t mode, size_t ef_index) {
  const SubSearchMode sub = kModes[mode].mode;
  const uint32_t ef = kEfs[ef_index];
  const std::vector<uint32_t>& sizes = engine.partition_sizes();
  ModeRun run;
  {
    auto node = Attach(engine, config, reps, sub, 4);
    RunPoint(*node, ds, kK, ef);  // warm-up: loads every routed cluster
    node->EnableTracing(size_t{1} << 16);
    const SweepPoint p = RunPoint(*node, ds, kK, ef);
    run.recall = p.recall;
    run.batch_sub_us = p.breakdown.sub_us / static_cast<double>(p.breakdown.num_queries);
    g_bins[mode][ef_index][1].Add(node->trace(), sizes);
  }
  auto node = Attach(engine, config, reps, sub, 1);
  double sub_us = 0.0;
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms the cache
    if (pass == 1) node->EnableTracing(size_t{1} << 16);
    sub_us = 0.0;
    for (size_t i = 0; i < ds.queries.size(); ++i) {
      auto result = node->SearchBatch(ds.queries, i, 1, kK, ef);
      if (!result.ok()) {
        std::fprintf(stderr, "search failed: %s\n", result.status().ToString().c_str());
        std::exit(1);
      }
      sub_us += result.value().breakdown.sub_us;
    }
  }
  run.single_sub_us = sub_us / static_cast<double>(ds.queries.size());
  g_bins[mode][ef_index][0].Add(node->trace(), sizes);
  return run;
}

/// Mean rows of the clusters the queries are routed to.
double RowsPerRoutedPair(DhnswEngine& engine, const Dataset& ds) {
  double rows = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < ds.queries.size(); ++i) {
    for (uint32_t cluster : engine.compute(0).Route(ds.queries[i])) {
      rows += engine.partition_sizes()[cluster];
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : rows / static_cast<double>(pairs);
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config =
      ParseFlags(argc, argv, BenchConfig::ForWorkload(Workload::kSiftLike));
  config.num_base = 20000;
  config.num_queries = 500;

  std::printf("==== Ablation: graph vs flat-scan sub-search (d-IVF), and auto ====\n");
  std::printf("# auto scans clusters of <= %u x ef rows; batch = %u queries on 4 threads,\n"
              "# single = one query per SearchBatch on 1 thread; sub = sub-search wall\n",
              kAutoScanRowsPerEf, config.num_queries);
  Dataset ds = LoadDataset(config);

  std::printf("\n%9s %9s %5s | %-6s %8s %16s %17s\n", "vec/part", "rows/pair", "ef", "mode",
              "r@10", "batch sub(us/q)", "single sub(us/q)");
  for (uint32_t reps : {80u, 40u, 20u, 10u, 5u}) {
    BenchConfig point = config;
    point.num_representatives = reps;
    DhnswEngine engine = BuildEngine(ds, point);
    const double rows_per_pair = RowsPerRoutedPair(engine, ds);
    for (size_t e = 0; e < std::size(kEfs); ++e) {
      for (size_t m = 0; m < std::size(kModes); ++m) {
        const ModeRun r = Measure(engine, ds, point, reps, m, e);
        std::printf("%9u %9.0f %5u | %-6s %8.4f %16.2f %17.2f\n", config.num_base / reps,
                    rows_per_pair, kEfs[e], kModes[m].name, r.recall, r.batch_sub_us,
                    r.single_sub_us);
      }
    }
  }

  std::printf("\n# per searched item, us, by the cluster's rows (all settings pooled);\n"
              "# flat is the same at both ef, so its two runs are pooled too\n");
  std::printf("%11s | %9s %9s %9s | %9s %9s %9s | %7s\n", "rows", "1q graph", "1q g@128",
              "1q flat", "bat graph", "bat g@128", "bat flat", "items");
  uint32_t lo = 0;
  for (size_t bin = 0; bin < kBins; ++bin) {
    auto flat = [&](int batch) {
      const Bins& a = g_bins[1][0][batch];
      const Bins& b = g_bins[1][1][batch];
      const uint64_t n = a.items[bin] + b.items[bin];
      return n == 0 ? 0.0 : (a.us[bin] + b.us[bin]) / static_cast<double>(n);
    };
    char range[32];
    if (kBinEdges[bin] == UINT32_MAX) {
      std::snprintf(range, sizeof range, "> %u", lo);
    } else {
      std::snprintf(range, sizeof range, "%u-%u", lo, kBinEdges[bin]);
    }
    std::printf("%11s | %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f | %7llu\n", range,
                g_bins[0][0][0].Mean(bin), g_bins[0][1][0].Mean(bin), flat(0),
                g_bins[0][0][1].Mean(bin), g_bins[0][1][1].Mean(bin), flat(1),
                static_cast<unsigned long long>(g_bins[0][0][0].items[bin]));
    lo = kBinEdges[bin];
  }
  std::printf("\n# flat is exact within the routed partitions, so its recall bounds the\n"
              "# others'; as partitions grow, graph search pulls ahead of exact scans —\n"
              "# the reason d-HNSW stores graphs, and auto keeps them for large clusters.\n");
  return 0;
}
