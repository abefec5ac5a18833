// Microbenchmark for the SIMD distance-kernel subsystem (index/distance.h):
// pairwise scalar vs the dispatched tier, plus the batched gather/rows/tile
// kernels, across all metrics at the paper's dims (SIFT=128, GIST=960). The
// tile row scores kTileQueries queries against the same rows, so its
// ns/vector is per (query, row) pair.
//
// The acceptance question it answers: does the batched one-to-many kernel
// beat a scalar pairwise loop at dim >= 32? Output is a table on stdout and,
// with --json=PATH, a machine-readable file (archived per commit by CI).
//
//   ./bench_distance_kernels [--reps=200] [--json=kernels.json]
//
// Set DHNSW_FORCE_SCALAR=1 to measure the scalar tier as "active".
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "index/distance.h"

namespace {

using namespace dhnsw;

constexpr size_t kBatch = 64;    // neighbor-list-sized one-to-many batch
constexpr size_t kRows = 10000;  // base rows the gather indexes into

struct Workbench {
  size_t dim;
  std::vector<float> query;
  std::vector<float> base;        // kRows x dim
  std::vector<uint32_t> ids;      // kBatch random row ids (gather)
  std::vector<float> tile_queries;  // kTileQueries x dim
  std::vector<float> out;

  explicit Workbench(size_t d)
      : dim(d), query(d), base(kRows * d), ids(kBatch), tile_queries(kTileQueries * d),
        out(kTileQueries * kBatch) {
    Xoshiro256 rng(0xbe7cu + d);
    for (float& v : query) v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    for (float& v : tile_queries) v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    for (float& v : base) v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    for (uint32_t& id : ids) id = static_cast<uint32_t>(rng.NextBounded(kRows));
  }
};

/// Times `fn` (which must consume `per_call` vectors per invocation) and
/// returns ns per vector pair scored.
template <typename Fn>
double TimePerVector(size_t reps, size_t per_call, Fn&& fn) {
  fn();  // warm caches and the dispatch path
  WallTimer timer;
  for (size_t r = 0; r < reps; ++r) fn();
  return static_cast<double>(timer.elapsed_ns()) /
         static_cast<double>(reps * per_call);
}

volatile float g_sink;  // defeat dead-code elimination

void RunDim(size_t dim, size_t reps, bench::JsonWriter& json) {
  Workbench wb(dim);
  const KernelTable& scalar = KernelsForTier(SimdTier::kScalar);
  const KernelTable& active = ActiveKernels();

  std::printf("\n-- dim %zu (active tier: %s, batch %zu) --\n", dim,
              std::string(SimdTierName(active.tier)).c_str(), kBatch);
  std::printf("%-10s %-22s %12s %10s\n", "metric", "kernel", "ns/vector", "GB/s");

  for (Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    const PairKernel scalar_pair = scalar.Pair(metric);
    const PairKernel active_pair = active.Pair(metric);
    const GatherKernel gather = active.Gather(metric);
    const RowsKernel rows = active.Rows(metric);
    const TileKernel tile = active.Tile(metric);
    const float* tile_queries[kTileQueries];
    for (size_t i = 0; i < kTileQueries; ++i) tile_queries[i] = wb.tile_queries.data() + i * dim;

    struct Variant {
      const char* name;
      double ns_per_vector;
    };
    Variant variants[] = {
        // Scalar pairwise loop over the batch: the reference the batched
        // kernels must beat.
        {"pair_scalar_loop", TimePerVector(reps, kBatch, [&] {
           float acc = 0.0f;
           for (uint32_t id : wb.ids) {
             acc += scalar_pair(wb.query.data(), wb.base.data() + id * dim, dim);
           }
           g_sink = acc;
         })},
        {"pair_active_loop", TimePerVector(reps, kBatch, [&] {
           float acc = 0.0f;
           for (uint32_t id : wb.ids) {
             acc += active_pair(wb.query.data(), wb.base.data() + id * dim, dim);
           }
           g_sink = acc;
         })},
        {"gather_batched", TimePerVector(reps, kBatch, [&] {
           gather(wb.query.data(), wb.base.data(), dim, wb.ids.data(), kBatch,
                  wb.out.data());
           g_sink = wb.out[0];
         })},
        {"rows_contiguous", TimePerVector(reps, kBatch, [&] {
           rows(wb.query.data(), wb.base.data(), dim, kBatch, wb.out.data());
           g_sink = wb.out[0];
         })},
        {"tile_contiguous", TimePerVector(reps, kTileQueries * kBatch, [&] {
           tile(tile_queries, kTileQueries, wb.base.data(), dim, kBatch, wb.out.data());
           g_sink = wb.out[0];
         })},
    };

    const std::string metric_name(MetricName(metric));
    for (const Variant& v : variants) {
      // Two float rows are streamed per scored pair.
      const double gbps = 2.0 * static_cast<double>(dim) * sizeof(float) /
                          v.ns_per_vector;
      std::printf("%-10s %-22s %12.2f %10.2f\n", metric_name.c_str(), v.name,
                  v.ns_per_vector, gbps);
      json.Row(std::string(v.name) + "/" + metric_name + "/" +
               std::to_string(dim))
          .Label("metric", metric_name)
          .Label("kernel", v.name)
          .Label("tier", std::string(std::strstr(v.name, "scalar") != nullptr
                                         ? SimdTierName(SimdTier::kScalar)
                                         : SimdTierName(active.tier)))
          .Field("dim", static_cast<double>(dim))
          .Field("batch", static_cast<double>(kBatch))
          .Field("ns_per_vector", v.ns_per_vector)
          .Field("gb_per_s", gbps);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  size_t reps = 2000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = static_cast<size_t>(std::atol(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }

  std::printf("active tier: %s; available:",
              std::string(SimdTierName(ActiveTier())).c_str());
  for (SimdTier t : AvailableTiers()) {
    std::printf(" %s", std::string(SimdTierName(t)).c_str());
  }
  std::printf("\n");

  dhnsw::bench::JsonWriter json;
  for (size_t dim : {size_t{128}, size_t{960}}) RunDim(dim, reps, json);

  if (!json_path.empty()) {
    if (!json.WriteFile(json_path)) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
