#include "rdma/queue_pair.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/trace.h"

namespace dhnsw::rdma {
namespace {

class QueuePairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem_node_ = fabric_.AddNode("mem");
    fabric_.AddNode("compute");
    auto rkey = fabric_.RegisterMemory(mem_node_, kRegionSize);
    ASSERT_TRUE(rkey.ok());
    rkey_ = rkey.value();
  }

  static constexpr size_t kRegionSize = 1 << 20;
  // Exact NicModel cost assertions are a simulator-only contract: pin the
  // sim backend so the suite stays valid under DHNSW_TRANSPORT=tcp.
  Fabric fabric_{NicModelConfig{}, TransportOptions::Sim()};
  NodeId mem_node_ = 0;
  RKey rkey_ = 0;
  SimClock clock_;
};

TEST_F(QueuePairTest, WriteThenReadRoundTrip) {
  QueuePair qp(&fabric_, &clock_);
  std::vector<uint8_t> out(16);
  std::iota(out.begin(), out.end(), 1);
  ASSERT_TRUE(qp.Write(rkey_, 256, out).ok());
  std::vector<uint8_t> in(16, 0);
  ASSERT_TRUE(qp.Read(rkey_, 256, in).ok());
  EXPECT_EQ(in, out);
}

TEST_F(QueuePairTest, EachOneShotOpIsOneRoundTrip) {
  QueuePair qp(&fabric_, &clock_);
  std::vector<uint8_t> buf(8);
  ASSERT_TRUE(qp.Write(rkey_, 0, buf).ok());
  ASSERT_TRUE(qp.Read(rkey_, 0, buf).ok());
  ASSERT_TRUE(qp.FetchAdd(rkey_, 0, 1).ok());
  EXPECT_EQ(qp.stats().round_trips, 3u);
  EXPECT_EQ(qp.stats().work_requests, 3u);
}

TEST_F(QueuePairTest, DoorbellBatchIsSingleRoundTrip) {
  QueuePair qp(&fabric_, &clock_, /*max_doorbell_wrs=*/16);
  std::vector<std::vector<uint8_t>> bufs(8, std::vector<uint8_t>(64));
  for (size_t i = 0; i < bufs.size(); ++i) {
    qp.PostRead(rkey_, i * 1024, bufs[i], i);
  }
  EXPECT_EQ(qp.pending_wrs(), 8u);
  const uint32_t rings = qp.RingDoorbell();
  EXPECT_EQ(rings, 1u);
  EXPECT_EQ(qp.stats().round_trips, 1u);
  EXPECT_EQ(qp.stats().work_requests, 8u);
  EXPECT_EQ(qp.pending_wrs(), 0u);
}

TEST_F(QueuePairTest, DoorbellWindowSplitsLargeBatches) {
  QueuePair qp(&fabric_, &clock_, /*max_doorbell_wrs=*/4);
  std::vector<std::vector<uint8_t>> bufs(10, std::vector<uint8_t>(8));
  for (size_t i = 0; i < bufs.size(); ++i) qp.PostRead(rkey_, i * 64, bufs[i]);
  const uint32_t rings = qp.RingDoorbell();
  EXPECT_EQ(rings, 3u);  // ceil(10/4)
  EXPECT_EQ(qp.stats().round_trips, 3u);
}

TEST_F(QueuePairTest, CompletionsCarryWrIdsInOrder) {
  QueuePair qp(&fabric_, &clock_);
  std::vector<uint8_t> buf(8);
  qp.PostRead(rkey_, 0, buf, 111);
  qp.PostRead(rkey_, 8, buf, 222);
  qp.RingDoorbell();
  Completion c;
  ASSERT_TRUE(qp.PollCompletion(&c));
  EXPECT_EQ(c.wr_id, 111u);
  ASSERT_TRUE(qp.PollCompletion(&c));
  EXPECT_EQ(c.wr_id, 222u);
  EXPECT_FALSE(qp.PollCompletion(&c));
}

TEST_F(QueuePairTest, SimulatedTimeAdvancesPerRing) {
  QueuePair qp(&fabric_, &clock_);
  std::vector<uint8_t> buf(4096);
  EXPECT_EQ(clock_.now_ns(), 0u);
  ASSERT_TRUE(qp.Read(rkey_, 0, buf).ok());
  const uint64_t after_one = clock_.now_ns();
  EXPECT_GT(after_one, 0u);
  ASSERT_TRUE(qp.Read(rkey_, 0, buf).ok());
  EXPECT_EQ(clock_.now_ns(), 2 * after_one);  // deterministic model
  EXPECT_EQ(qp.stats().sim_network_ns, clock_.now_ns());
}

TEST_F(QueuePairTest, BatchedReadsCheaperThanIndividual) {
  QueuePair batched(&fabric_, nullptr, 16);
  QueuePair individual(&fabric_, nullptr, 16);
  std::vector<std::vector<uint8_t>> bufs(8, std::vector<uint8_t>(4096));

  for (size_t i = 0; i < bufs.size(); ++i) batched.PostRead(rkey_, i * 8192, bufs[i]);
  batched.RingDoorbell();

  for (size_t i = 0; i < bufs.size(); ++i) {
    individual.PostRead(rkey_, i * 8192, bufs[i]);
    individual.RingDoorbell();
  }
  EXPECT_LT(batched.stats().sim_network_ns, individual.stats().sim_network_ns);
  EXPECT_EQ(batched.stats().bytes_read, individual.stats().bytes_read);
}

TEST_F(QueuePairTest, CompareSwapSemantics) {
  QueuePair qp(&fabric_, &clock_);
  auto old1 = qp.CompareSwap(rkey_, 64, 0, 42);
  ASSERT_TRUE(old1.ok());
  EXPECT_EQ(old1.value(), 0u);
  auto old2 = qp.CompareSwap(rkey_, 64, 0, 99);  // mismatch: stays 42
  ASSERT_TRUE(old2.ok());
  EXPECT_EQ(old2.value(), 42u);
  uint64_t now = 0;
  std::vector<uint8_t> buf(8);
  ASSERT_TRUE(qp.Read(rkey_, 64, buf).ok());
  std::memcpy(&now, buf.data(), 8);
  EXPECT_EQ(now, 42u);
}

TEST_F(QueuePairTest, FetchAddSemantics) {
  QueuePair qp(&fabric_, &clock_);
  auto r1 = qp.FetchAdd(rkey_, 128, 10);
  auto r2 = qp.FetchAdd(rkey_, 128, 32);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), 0u);
  EXPECT_EQ(r2.value(), 10u);
}

TEST_F(QueuePairTest, MisalignedAtomicFails) {
  QueuePair qp(&fabric_, &clock_);
  EXPECT_FALSE(qp.FetchAdd(rkey_, 13, 1).ok());
  EXPECT_FALSE(qp.CompareSwap(rkey_, 7, 0, 1).ok());
}

TEST_F(QueuePairTest, OutOfBoundsAccessCompletesWithError) {
  QueuePair qp(&fabric_, &clock_);
  std::vector<uint8_t> buf(64);
  const Status st = qp.Read(rkey_, kRegionSize - 8, buf);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST_F(QueuePairTest, UnknownRkeyFails) {
  QueuePair qp(&fabric_, &clock_);
  std::vector<uint8_t> buf(8);
  EXPECT_FALSE(qp.Read(12345, 0, buf).ok());
}

TEST_F(QueuePairTest, UnreachableNodeSurfacesUnavailable) {
  QueuePair qp(&fabric_, &clock_);
  std::vector<uint8_t> buf(8);
  fabric_.SetNodeReachable(mem_node_, false);
  const Status st = qp.Read(rkey_, 0, buf);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  fabric_.SetNodeReachable(mem_node_, true);
  EXPECT_TRUE(qp.Read(rkey_, 0, buf).ok());
}

TEST_F(QueuePairTest, FlushReturnsAllCompletions) {
  QueuePair qp(&fabric_, &clock_);
  std::vector<uint8_t> buf(8);
  qp.PostRead(rkey_, 0, buf, 1);
  qp.PostWrite(rkey_, 8, buf, 2);
  const std::vector<Completion> cs = qp.Flush();
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].wr_id, 1u);
  EXPECT_EQ(cs[1].wr_id, 2u);
  EXPECT_EQ(cs[1].opcode, Opcode::kWrite);
}

TEST_F(QueuePairTest, StatsTrackBytesByDirection) {
  QueuePair qp(&fabric_, &clock_);
  std::vector<uint8_t> buf(100);
  ASSERT_TRUE(qp.Write(rkey_, 0, buf).ok());
  std::vector<uint8_t> buf2(40);
  ASSERT_TRUE(qp.Read(rkey_, 0, buf2).ok());
  EXPECT_EQ(qp.stats().bytes_written, 100u);
  EXPECT_EQ(qp.stats().bytes_read, 40u);
  EXPECT_EQ(qp.stats().reads, 1u);
  EXPECT_EQ(qp.stats().writes, 1u);
  qp.ResetStats();
  EXPECT_EQ(qp.stats().bytes_read, 0u);
}

TEST_F(QueuePairTest, StatsDeltaSubtraction) {
  QueuePair qp(&fabric_, &clock_);
  std::vector<uint8_t> buf(8);
  ASSERT_TRUE(qp.Read(rkey_, 0, buf).ok());
  const QpStats snapshot = qp.stats();
  ASSERT_TRUE(qp.Read(rkey_, 0, buf).ok());
  ASSERT_TRUE(qp.Read(rkey_, 0, buf).ok());
  const QpStats delta = qp.stats() - snapshot;
  EXPECT_EQ(delta.round_trips, 2u);
  EXPECT_EQ(delta.bytes_read, 16u);
}

// Every ring runs post -> execute -> reap: RingDoorbell runs the three steps
// inline, and a batch executed on another thread must be indistinguishable
// from it. Two twin QPs take the same WRs — a group the doorbell window
// splits, then a group holding an out-of-bounds READ — one ringing each
// group, the other staging both and executing them on a std::thread.
TEST_F(QueuePairTest, AsyncBatchOnAThreadMatchesRingDoorbell) {
  struct Twin {
    SimClock clock;
    telemetry::TraceBuffer trace{64};
    telemetry::TraceContext ctx{&trace, &clock};
    std::vector<std::vector<uint8_t>> bufs =
        std::vector<std::vector<uint8_t>>(8, std::vector<uint8_t>(256));
    std::vector<uint8_t> record = std::vector<uint8_t>(64, 0x5a);
  };
  const auto post_group = [this](QueuePair& qp, Twin& t, size_t group) {
    if (group == 0) {  // 6 WRs against a window of 4: two round trips
      qp.PostWrite(rkey_, 4096, t.record, 100);
      for (uint64_t i = 0; i < 5; ++i) qp.PostRead(rkey_, 4096 + i * 64, t.bufs[i], i);
    } else {  // 3 WRs, the middle one past the end of the region
      qp.PostRead(rkey_, 0, t.bufs[5], 5);
      qp.PostRead(rkey_, kRegionSize - 8, t.bufs[6], 6);
      qp.PostRead(rkey_, 8192, t.bufs[7], 7);
    }
  };
  const auto drain = [](QueuePair& qp) {
    std::vector<Completion> out;
    Completion c;
    while (qp.PollCompletion(&c)) out.push_back(c);
    return out;
  };

  Twin a;
  QueuePair ringing(&fabric_, &a.clock, /*max_doorbell_wrs=*/4);
  ringing.set_trace(&a.ctx);
  uint32_t rings_a = 0;
  for (size_t group = 0; group < 2; ++group) {
    post_group(ringing, a, group);
    rings_a += ringing.RingDoorbell();
  }

  Twin b;
  QueuePair threaded(&fabric_, &b.clock, /*max_doorbell_wrs=*/4);
  threaded.set_trace(&b.ctx);
  for (size_t group = 0; group < 2; ++group) {
    post_group(threaded, b, group);
    threaded.StageAsyncRing();
  }
  std::unique_ptr<AsyncBatch> batch = threaded.TakeAsyncBatch();
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->num_wrs(), 9u);
  std::thread worker([&threaded, &batch] { threaded.ExecuteAsyncBatch(batch.get()); });
  worker.join();
  ASSERT_TRUE(batch->executed());
  const uint32_t rings_b = threaded.ReapAsyncBatch(batch.get());

  EXPECT_EQ(rings_a, 3u);
  EXPECT_EQ(rings_b, rings_a);
  const std::vector<Completion> ca = drain(ringing);
  const std::vector<Completion> cb = drain(threaded);
  ASSERT_EQ(ca.size(), 9u);
  ASSERT_EQ(cb.size(), ca.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].wr_id, cb[i].wr_id) << i;
    EXPECT_EQ(ca[i].status, cb[i].status) << i;
    EXPECT_EQ(ca[i].byte_len, cb[i].byte_len) << i;
    EXPECT_EQ(ca[i].status == WcStatus::kSuccess, ca[i].wr_id != 6) << i;
  }
  EXPECT_EQ(ca[7].status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(a.bufs, b.bufs);

  const QpStats& sa = ringing.stats();
  const QpStats& sb = threaded.stats();
  EXPECT_EQ(sa.round_trips, 3u);
  EXPECT_EQ(sb.round_trips, sa.round_trips);
  EXPECT_EQ(sb.work_requests, sa.work_requests);
  EXPECT_EQ(sb.reads, sa.reads);
  EXPECT_EQ(sb.writes, sa.writes);
  EXPECT_EQ(sb.atomics, sa.atomics);
  EXPECT_EQ(sb.bytes_read, sa.bytes_read);
  EXPECT_EQ(sb.bytes_written, sa.bytes_written);
  EXPECT_EQ(sb.sim_network_ns, sa.sim_network_ns);
  EXPECT_EQ(sb.injected_faults, sa.injected_faults);
  EXPECT_GT(a.clock.now_ns(), 0u);
  EXPECT_EQ(b.clock.now_ns(), a.clock.now_ns());

  const telemetry::TraceExportOptions wall_free{.include_wall = false};
  EXPECT_EQ(a.trace.size(), 3u);  // one "rdma.ring" per round trip
  EXPECT_EQ(TraceToJsonl(b.trace, wall_free), TraceToJsonl(a.trace, wall_free));
}

}  // namespace
}  // namespace dhnsw::rdma
