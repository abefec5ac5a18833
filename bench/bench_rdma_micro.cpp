// Microbenchmarks for the simulated RDMA fabric (micro M2): verifies the
// cost model's behaviour (READ scaling with size, doorbell coalescing,
// atomic surcharge) and measures the simulator's host-side overhead.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/sim_clock.h"
#include "rdma/fabric.h"
#include "rdma/queue_pair.h"

namespace dhnsw::rdma {
namespace {

struct Rig {
  Fabric fabric;
  RKey rkey = 0;
  Rig() {
    const NodeId node = fabric.AddNode("mem");
    fabric.AddNode("compute");
    rkey = fabric.RegisterMemory(node, 64 << 20).value();
  }
};

void BM_ReadSimulatedLatency(benchmark::State& state) {
  Rig rig;
  const size_t bytes = static_cast<size_t>(state.range(0));
  SimClock clock;
  QueuePair qp(&rig.fabric, &clock);
  AlignedBuffer buf(bytes, 64);
  uint64_t last = 0;
  for (auto _ : state) {
    if (!qp.Read(rig.rkey, 0, buf.span()).ok()) {
      state.SkipWithError("read failed");
      break;
    }
    benchmark::DoNotOptimize(buf.data());
  }
  last = clock.now_ns() / std::max<uint64_t>(1, state.iterations());
  state.counters["sim_ns_per_read"] = static_cast<double>(last);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_ReadSimulatedLatency)->Arg(64)->Arg(4096)->Arg(1 << 16)->Arg(1 << 20);

void BM_DoorbellCoalescing(benchmark::State& state) {
  Rig rig;
  const uint32_t wrs = static_cast<uint32_t>(state.range(0));
  SimClock clock;
  QueuePair qp(&rig.fabric, &clock, /*max_doorbell_wrs=*/64);
  std::vector<AlignedBuffer> bufs;
  for (uint32_t i = 0; i < wrs; ++i) bufs.emplace_back(4096, 64);
  for (auto _ : state) {
    for (uint32_t i = 0; i < wrs; ++i) {
      qp.PostRead(rig.rkey, i * 8192, bufs[i].span());
    }
    qp.RingDoorbell();
    Completion c;
    while (qp.PollCompletion(&c)) benchmark::DoNotOptimize(c);
  }
  state.counters["sim_ns_per_batch"] =
      static_cast<double>(clock.now_ns()) / static_cast<double>(state.iterations());
  state.counters["sim_ns_per_wr"] =
      static_cast<double>(clock.now_ns()) /
      static_cast<double>(state.iterations() * wrs);
}
BENCHMARK(BM_DoorbellCoalescing)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_AtomicFaa(benchmark::State& state) {
  Rig rig;
  SimClock clock;
  QueuePair qp(&rig.fabric, &clock);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp.FetchAdd(rig.rkey, 0, 1));
  }
  state.counters["sim_ns_per_faa"] =
      static_cast<double>(clock.now_ns()) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_AtomicFaa);

void BM_WriteSimulatedLatency(benchmark::State& state) {
  Rig rig;
  const size_t bytes = static_cast<size_t>(state.range(0));
  SimClock clock;
  QueuePair qp(&rig.fabric, &clock);
  AlignedBuffer buf(bytes, 64);
  for (auto _ : state) {
    if (!qp.Write(rig.rkey, 0, buf.span()).ok()) {
      state.SkipWithError("write failed");
      break;
    }
  }
  state.counters["sim_ns_per_write"] =
      static_cast<double>(clock.now_ns()) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_WriteSimulatedLatency)->Arg(64)->Arg(1 << 16);

}  // namespace
}  // namespace dhnsw::rdma
