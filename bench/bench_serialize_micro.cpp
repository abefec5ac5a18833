// Microbenchmarks for the serialization layer (the deserialize cost is a
// visible component of per-load latency — naive mode pays it per duplicate
// load, which is most of the paper's sub-HNSW column gap).
#include <benchmark/benchmark.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "serialize/cluster_blob.h"
#include "serialize/overflow.h"

namespace dhnsw {
namespace {

Cluster MakeCluster(uint32_t count, uint32_t dim) {
  Xoshiro256 rng(count * 7919 + dim);
  HnswIndex index(dim, {.M = 8, .ef_construction = 60});
  std::vector<uint32_t> gids;
  std::vector<float> v(dim);
  for (uint32_t i = 0; i < count; ++i) {
    for (auto& x : v) x = rng.NextFloat();
    index.Add(v);
    gids.push_back(i);
  }
  return Cluster(0, std::move(index), std::move(gids));
}

void BM_EncodeCluster(benchmark::State& state) {
  const Cluster cluster = MakeCluster(static_cast<uint32_t>(state.range(0)), 128);
  size_t bytes = 0;
  for (auto _ : state) {
    auto blob = EncodeCluster(cluster);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_EncodeCluster)->Arg(100)->Arg(400)->Arg(1600)->Unit(benchmark::kMicrosecond);

void BM_DecodeCluster(benchmark::State& state) {
  const Cluster cluster = MakeCluster(static_cast<uint32_t>(state.range(0)), 128);
  const std::vector<uint8_t> blob = EncodeCluster(cluster);
  for (auto _ : state) {
    auto decoded = DecodeCluster(blob, HnswOptions{});
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_DecodeCluster)->Arg(100)->Arg(400)->Arg(1600)->Unit(benchmark::kMicrosecond);

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  Xoshiro256 rng(3);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(1 << 20);

void BM_OverflowAreaDecode(benchmark::State& state) {
  const uint32_t dim = 128;
  const size_t rec = OverflowRecordSize(dim);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<uint8_t> area(rec * n);
  std::vector<float> v(dim, 1.5f);
  for (uint32_t i = 0; i < n; ++i) {
    EncodeOverflowRecord(i, v, std::span<uint8_t>(area).subspan(i * rec, rec));
  }
  for (auto _ : state) {
    auto records = DecodeOverflowArea(area, area.size(), dim);
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_OverflowAreaDecode)->Arg(16)->Arg(256);

}  // namespace
}  // namespace dhnsw
