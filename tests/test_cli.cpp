// In-process tests of the dhnsw_cli tool: build -> info -> query -> insert
// -> compact round trips over real fvecs/snapshot files.
#include "cli.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "dataset/vecs_io.h"

namespace dhnsw {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A unique directory per test (name + pid): ctest runs each test as its
    // own process, possibly in parallel, and the fixture's fixed file names
    // would otherwise race across concurrent CliTest processes.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "dhnsw_cli_" + info->name() + "_" +
           std::to_string(static_cast<long>(::getpid()));
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0) << dir_;
    ds_ = MakeSynthetic({.dim = 8, .num_base = 600, .num_queries = 20,
                         .num_clusters = 5, .seed = 191});
    ComputeGroundTruth(&ds_, 10);
    ASSERT_TRUE(WriteFvecs(Path("base.fvecs"), ds_.base).ok());
    ASSERT_TRUE(WriteFvecs(Path("queries.fvecs"), ds_.queries).ok());
    IvecsData gt;
    gt.row_dim = ds_.gt_k;
    gt.values = ds_.ground_truth;
    ASSERT_TRUE(WriteIvecs(Path("gt.ivecs"), gt).ok());
  }

  void TearDown() override {
    for (const char* f : {"base.fvecs", "queries.fvecs", "gt.ivecs", "region.dsnp",
                          "updated.dsnp", "compacted.dsnp", "ids.ivecs", "new.fvecs",
                          "trace.jsonl"}) {
      std::remove(Path(f).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  int Run(std::vector<std::string> args, std::string* out) {
    return cli::RunCli(args, out);
  }

  std::string dir_;
  Dataset ds_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  std::string out;
  EXPECT_EQ(Run({}, &out), 2);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  std::string out;
  EXPECT_EQ(Run({"frobnicate"}, &out), 2);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, MalformedFlagFails) {
  std::string out;
  EXPECT_EQ(Run({"build", "--base"}, &out), 2);
}

TEST_F(CliTest, BuildQueryRoundTripWithRecall) {
  std::string out;
  ASSERT_EQ(Run({"build", "--base=" + Path("base.fvecs"), "--out=" + Path("region.dsnp"),
                 "--reps=10", "--m=8", "--efc=50"},
                &out), 0)
      << out;
  EXPECT_NE(out.find("built 10 partitions"), std::string::npos);
  EXPECT_NE(out.find("snapshot written"), std::string::npos);

  out.clear();
  ASSERT_EQ(Run({"query", "--snapshot=" + Path("region.dsnp"),
                 "--queries=" + Path("queries.fvecs"), "--k=10", "--ef=64", "--b=3",
                 "--gt=" + Path("gt.ivecs"), "--out=" + Path("ids.ivecs")},
                &out), 0)
      << out;
  EXPECT_NE(out.find("recall@10"), std::string::npos);

  // recall printed should be decent on clustered data.
  const auto pos = out.find("recall@10 = ");
  ASSERT_NE(pos, std::string::npos);
  const double recall = std::strtod(out.c_str() + pos + 12, nullptr);
  EXPECT_GT(recall, 0.75) << out;

  // Written ids decode and have the right shape.
  auto ids = ReadIvecs(Path("ids.ivecs"));
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value().row_dim, 10u);
  EXPECT_EQ(ids.value().rows(), ds_.queries.size());
}

TEST_F(CliTest, InfoShowsTopology) {
  std::string out;
  ASSERT_EQ(Run({"build", "--base=" + Path("base.fvecs"), "--out=" + Path("region.dsnp"),
                 "--reps=10"},
                &out), 0);
  out.clear();
  ASSERT_EQ(Run({"info", "--snapshot=" + Path("region.dsnp")}, &out), 0) << out;
  EXPECT_NE(out.find("10 partitions"), std::string::npos);
  EXPECT_NE(out.find("memory shard"), std::string::npos);
}

TEST_F(CliTest, InsertThenCompactPipeline) {
  std::string out;
  ASSERT_EQ(Run({"build", "--base=" + Path("base.fvecs"), "--out=" + Path("region.dsnp"),
                 "--reps=10", "--m=8"},
                &out), 0);

  // 30 new vectors to insert.
  VectorSet fresh(8);
  for (int i = 0; i < 30; ++i) {
    std::vector<float> v(ds_.base[i].begin(), ds_.base[i].end());
    v[0] += 0.5f;
    fresh.Append(v);
  }
  ASSERT_TRUE(WriteFvecs(Path("new.fvecs"), fresh).ok());

  out.clear();
  ASSERT_EQ(Run({"insert", "--snapshot=" + Path("region.dsnp"),
                 "--vectors=" + Path("new.fvecs"), "--out=" + Path("updated.dsnp")},
                &out), 0)
      << out;
  EXPECT_NE(out.find("inserted 30 vectors"), std::string::npos);

  out.clear();
  ASSERT_EQ(Run({"compact", "--snapshot=" + Path("updated.dsnp"),
                 "--out=" + Path("compacted.dsnp")},
                &out), 0)
      << out;
  EXPECT_NE(out.find("folded 30 inserts"), std::string::npos);

  // The compacted snapshot still answers queries.
  out.clear();
  ASSERT_EQ(Run({"query", "--snapshot=" + Path("compacted.dsnp"),
                 "--queries=" + Path("queries.fvecs"), "--k=5"},
                &out), 0)
      << out;
  EXPECT_NE(out.find("searched 20 queries"), std::string::npos);
}

TEST_F(CliTest, StatsEmitsPrometheusSnapshot) {
  std::string out;
  ASSERT_EQ(Run({"build", "--base=" + Path("base.fvecs"), "--out=" + Path("region.dsnp"),
                 "--reps=10", "--m=8"},
                &out), 0);

  out.clear();
  ASSERT_EQ(Run({"stats", "--snapshot=" + Path("region.dsnp"),
                 "--queries=" + Path("queries.fvecs"), "--k=5"},
                &out), 0)
      << out;
  // Drove a batch first, then sampled the registry.
  EXPECT_NE(out.find("ran 20 queries"), std::string::npos);
  // Prometheus exposition format with engine topology gauges and compute
  // counters that the query batch must have bumped.
  EXPECT_NE(out.find("# TYPE dhnsw_engine_partitions gauge"), std::string::npos);
  EXPECT_NE(out.find("dhnsw_engine_partitions 10"), std::string::npos);
  EXPECT_NE(out.find("# TYPE dhnsw_compute_batches_total counter"), std::string::npos);
  EXPECT_NE(out.find("dhnsw_rdma_round_trips_total"), std::string::npos);

  // Without --queries it still prints a (topology-only) snapshot.
  out.clear();
  ASSERT_EQ(Run({"stats", "--snapshot=" + Path("region.dsnp")}, &out), 0) << out;
  EXPECT_EQ(out.find("ran "), std::string::npos);
  EXPECT_NE(out.find("dhnsw_engine_compute_nodes"), std::string::npos);
}

TEST_F(CliTest, TraceDumpsJsonlSpans) {
  std::string out;
  ASSERT_EQ(Run({"build", "--base=" + Path("base.fvecs"), "--out=" + Path("region.dsnp"),
                 "--reps=10", "--m=8"},
                &out), 0);

  // To stdout: one JSON object per span, covering the batch stage taxonomy.
  out.clear();
  ASSERT_EQ(Run({"trace", "--snapshot=" + Path("region.dsnp"),
                 "--queries=" + Path("queries.fvecs"), "--k=5"},
                &out), 0)
      << out;
  EXPECT_NE(out.find("{\"name\":\"batch\""), std::string::npos);
  EXPECT_NE(out.find("\"stage.meta\""), std::string::npos);
  EXPECT_NE(out.find("\"stage.sub\""), std::string::npos);
  EXPECT_NE(out.find("\"rdma.ring\""), std::string::npos);

  // To a file, deterministic form: no wall_ns key anywhere.
  out.clear();
  ASSERT_EQ(Run({"trace", "--snapshot=" + Path("region.dsnp"),
                 "--queries=" + Path("queries.fvecs"), "--k=5", "--deterministic=1",
                 "--out=" + Path("trace.jsonl")},
                &out), 0)
      << out;
  EXPECT_NE(out.find("wrote "), std::string::npos);
  std::FILE* f = std::fopen(Path("trace.jsonl").c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) contents.append(buf, n);
  std::fclose(f);
  EXPECT_NE(contents.find("\"stage.load\""), std::string::npos);
  EXPECT_EQ(contents.find("wall_ns"), std::string::npos);

  // Missing --queries is a usage error.
  out.clear();
  EXPECT_EQ(Run({"trace", "--snapshot=" + Path("region.dsnp")}, &out), 1);
}

TEST_F(CliTest, TopologyPrintsReplicaHealthTable) {
  std::string out;
  ASSERT_EQ(Run({"topology", "--replicas=2"}, &out), 0) << out;
  EXPECT_NE(out.find("replication factor 2"), std::string::npos) << out;
  EXPECT_NE(out.find("slot 0: epoch 1"), std::string::npos) << out;
  EXPECT_NE(out.find("alive"), std::string::npos) << out;
  EXPECT_NE(out.find("search served 8/8 queries"), std::string::npos) << out;

  // Factor 1: the subsystem is off and the command says so.
  out.clear();
  ASSERT_EQ(Run({"topology", "--replicas=1"}, &out), 0) << out;
  EXPECT_NE(out.find("replication disabled"), std::string::npos) << out;
}

TEST_F(CliTest, TopologySurvivesAKilledMemoryNode) {
  // The README walkthrough: kill slot 0's primary, watch the probe loop
  // declare it dead, fail over, re-replicate, and keep serving.
  std::string out;
  ASSERT_EQ(Run({"topology", "--replicas=2", "--kill=0", "--rereplicate=1"}, &out), 0) << out;
  EXPECT_NE(out.find("killed memory-node"), std::string::npos) << out;
  EXPECT_NE(out.find("failed over"), std::string::npos) << out;
  EXPECT_NE(out.find("factor 2 restored online"), std::string::npos) << out;
  EXPECT_NE(out.find("search served 8/8 queries"), std::string::npos) << out;
  // Post-failover + admission: epoch 3, the dead primary visible + revoked.
  EXPECT_NE(out.find("slot 0: epoch 3"), std::string::npos) << out;
  EXPECT_NE(out.find("dead [revoked]"), std::string::npos) << out;
}

// The scaleout subcommand is synthetic-only (no snapshot files), so these
// run fixture-free: CliTest's SetUp/TearDown churns fixed-name files in the
// shared temp dir, which races against parallel CliTest processes.
TEST(CliScaleoutTest, DrainRunsEveryOpAndReportsPercentiles) {
  // Deterministic backpressure mode: every op admitted, none dropped, work
  // spread across all nodes by the least-assigned dispatcher.
  std::string out;
  ASSERT_EQ(cli::RunCli({"scaleout", "--nodes=3", "--ops=120", "--rows=600",
                         "--read_fraction=1.0", "--drain=1"},
                        &out), 0) << out;
  EXPECT_NE(out.find("scaleout: 3 nodes, 120 ops (100% reads)"),
            std::string::npos) << out;
  EXPECT_NE(out.find("drain (deterministic backpressure)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("admitted 120  ok 120  failed 0  dropped 0"),
            std::string::npos) << out;
  EXPECT_NE(out.find("sojourn p50"), std::string::npos) << out;
  EXPECT_NE(out.find("node0=40 node1=40 node2=40"), std::string::npos) << out;
  EXPECT_NE(out.find("per-node cache hit share: node0=0."), std::string::npos) << out;
}

TEST(CliScaleoutTest, PacedOverloadShedsInsteadOfHanging) {
  // Paced mode at an absurd target QPS with tiny queues: admission control
  // must drop (queue-full), and the accounting must still close.
  std::string out;
  ASSERT_EQ(cli::RunCli({"scaleout", "--nodes=2", "--ops=200", "--rows=600",
                         "--qps=5000000", "--queue_capacity=2"},
                        &out), 0) << out;
  EXPECT_NE(out.find("paced open-loop with admission control"),
            std::string::npos) << out;
  EXPECT_EQ(out.find("dropped 0 "), std::string::npos) << out;
  EXPECT_NE(out.find("per-node cache hit share: node0="), std::string::npos) << out;

  out.clear();
  EXPECT_EQ(cli::RunCli({"scaleout", "--nodes=0"}, &out), 1);
  EXPECT_NE(out.find("--nodes must be >= 1"), std::string::npos) << out;
}

TEST(CliChaosTest, TransientDrillConvergesOnTcpAndSim) {
  // Fixture-free like CliScaleoutTest: synthetic-only, no snapshot files.
  // The transient schedule is a pure function of the seed, so both backends
  // inject the same fault sequence and both must converge to the oracle.
  for (const char* transport : {"sim", "tcp"}) {
    std::string out;
    ASSERT_EQ(cli::RunCli({"chaos", "--mode=transient", "--rows=900",
                           std::string("--transport=") + transport},
                          &out), 0) << out;
    EXPECT_NE(out.find(std::string("transport=") + transport),
              std::string::npos) << out;
    EXPECT_NE(out.find("transient rule(s)"), std::string::npos) << out;
    EXPECT_NE(out.find("converged: results byte-identical"), std::string::npos)
        << out;
    EXPECT_EQ(out.find("injected 0 fault"), std::string::npos)
        << "the plan never fired?\n" << out;
  }
}

TEST(CliChaosTest, KillDrillFailsOverOnRealSockets) {
  std::string out;
  ASSERT_EQ(cli::RunCli({"chaos", "--mode=kill", "--transport=tcp",
                         "--rows=900"},
                        &out), 0) << out;
  EXPECT_NE(out.find("slot-0 primary crashes"), std::string::npos) << out;
  EXPECT_NE(out.find("1 failover(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("converged: results byte-identical"), std::string::npos)
      << out;

  out.clear();
  EXPECT_EQ(cli::RunCli({"chaos", "--mode=bogus"}, &out), 1);
  EXPECT_NE(out.find("--mode must be transient|kill"), std::string::npos) << out;
}

TEST_F(CliTest, MissingFilesSurfaceErrors) {
  std::string out;
  EXPECT_EQ(Run({"build", "--base=/nope.fvecs", "--out=" + Path("region.dsnp")}, &out), 1);
  EXPECT_NE(out.find("error:"), std::string::npos);
  out.clear();
  EXPECT_EQ(Run({"query", "--snapshot=/nope.dsnp", "--queries=" + Path("queries.fvecs")},
                &out), 1);
  out.clear();
  EXPECT_EQ(Run({"build", "--base=" + Path("base.fvecs"), "--out=" + Path("region.dsnp"),
                 "--metric=hamming"},
                &out), 1);
  EXPECT_NE(out.find("unknown metric"), std::string::npos);
}

}  // namespace
}  // namespace dhnsw
