// Bulk index-build benchmark: wall time of the full d-HNSW build pipeline
// (k-means, classification, sub-HNSW construction, serialization)
// as a function of build_threads, with recall@10 measured on the freshly
// built system so speed never silently trades away quality.
//
// Defaults are laptop-scale (100k x 128-d); `--n=1000000` reproduces the 1M
// acceptance run. Speedups are only visible on multi-core hosts — on a
// single-core container every thread count shares one core and the numbers
// mainly validate that the parallel path adds no overhead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"

namespace {

struct BuildFlags {
  uint32_t n = 100000;
  uint32_t dim = 128;
  uint32_t queries = 100;
  int reps = 1;
  std::vector<size_t> threads = {1, 2, 8};
  bool kmeans = false;
  bool deterministic = false;
  std::string json_path;
};

std::vector<size_t> ParseThreadList(const char* csv) {
  std::vector<size_t> out;
  std::string token;
  for (const char* p = csv;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) out.push_back(static_cast<size_t>(std::stoul(token)));
      token.clear();
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  return out;
}

BuildFlags ParseBuildFlags(int argc, char** argv) {
  BuildFlags f;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--n=", 4) == 0) {
      f.n = static_cast<uint32_t>(std::stoul(a + 4));
    } else if (std::strncmp(a, "--dim=", 6) == 0) {
      f.dim = static_cast<uint32_t>(std::stoul(a + 6));
    } else if (std::strncmp(a, "--queries=", 10) == 0) {
      f.queries = static_cast<uint32_t>(std::stoul(a + 10));
    } else if (std::strncmp(a, "--reps=", 7) == 0) {
      f.reps = std::stoi(a + 7);
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      f.threads = ParseThreadList(a + 10);
    } else if (std::strcmp(a, "--kmeans") == 0) {
      f.kmeans = true;
    } else if (std::strcmp(a, "--deterministic") == 0) {
      f.deterministic = true;
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      f.json_path = a + 7;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      std::exit(2);
    }
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhnsw;
  using dhnsw::bench::JsonWriter;
  const BuildFlags flags = ParseBuildFlags(argc, argv);

  std::printf("build bench: n=%u dim=%u queries=%u reps=%d kmeans=%d det=%d "
              "(host has %u hardware thread(s))\n",
              flags.n, flags.dim, flags.queries, flags.reps, flags.kmeans ? 1 : 0,
              flags.deterministic ? 1 : 0, std::thread::hardware_concurrency());

  Dataset ds = MakeSynthetic({.dim = flags.dim, .num_base = flags.n,
                              .num_queries = flags.queries,
                              .num_clusters = std::max(8u, flags.n / 10000),
                              .seed = 20250706});
  ComputeGroundTruth(&ds, 10, Metric::kL2,
                     std::max<size_t>(1, std::thread::hardware_concurrency()));

  JsonWriter json;
  std::printf("%8s %10s %12s %10s %9s\n", "threads", "build_s", "vectors/s",
              "recall@10", "parts");
  for (const size_t threads : flags.threads) {
    double best_seconds = 0.0;
    double recall = 0.0;
    uint32_t partitions = 0;
    for (int rep = 0; rep < std::max(1, flags.reps); ++rep) {
      DhnswConfig config = DhnswConfig::Defaults();
      // Paper scale: R = 500 representatives on 1M; keep partitions ~2k
      // vectors at smaller n so the sub-graphs stay realistic.
      config.meta.num_representatives =
          std::min<uint32_t>(500, std::max<uint32_t>(16, flags.n / 2000));
      if (flags.kmeans) {
        config.meta.selection = RepresentativeSelection::kKmeans;
      }
      config.sub_hnsw = HnswOptions{.M = 16, .ef_construction = 100};
      config.compute.clusters_per_query = 4;
      config.build_threads = threads;
      config.deterministic_build = flags.deterministic;
      config.transport.kind = rdma::TransportKind::kSim;

      WallTimer timer;
      auto engine = DhnswEngine::Build(ds.base, config);
      const double seconds = timer.elapsed_us() / 1e6;
      if (!engine.ok()) {
        std::fprintf(stderr, "build failed: %s\n", engine.status().ToString().c_str());
        return 1;
      }
      if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
      if (rep == 0) {
        partitions = engine.value().num_partitions();
        auto result = engine.value().SearchAll(ds.queries, 10, 128);
        if (!result.ok()) {
          std::fprintf(stderr, "search failed: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
        recall = MeanRecallAtK(ds, result.value().results, 10);
      }
    }
    const double rate = static_cast<double>(flags.n) / best_seconds;
    std::printf("%8zu %10.2f %12.0f %10.4f %9u\n", threads, best_seconds, rate,
                recall, partitions);
    json.Row("build")
        .Label("threads", std::to_string(threads))
        .Label("kmeans", flags.kmeans ? "1" : "0")
        .Label("deterministic", flags.deterministic ? "1" : "0")
        .Field("n", flags.n)
        .Field("dim", flags.dim)
        .Field("build_seconds", best_seconds)
        .Field("vectors_per_sec", rate)
        .Field("recall_at_10", recall)
        .Field("partitions", partitions);
  }

  if (!flags.json_path.empty() && !json.WriteFile(flags.json_path)) return 1;
  return 0;
}
