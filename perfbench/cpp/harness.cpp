#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#include "common/rng.h"
#include "common/timer.h"
#include "index/distance.h"
#include "dataset/ground_truth.h"

namespace perfbench {

using dhnsw::VectorSet;

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  return std::max<unsigned>(1, std::thread::hardware_concurrency());
}

/// The corpus is fixed, like a dataset file: every run indexes the same base
/// vectors. The run's seed draws what the system is asked to do.
constexpr uint64_t kCorpusSeed = 20250706;

/// Independent generator stream per (seed, purpose, index).
uint64_t StreamSeed(uint64_t seed, uint64_t purpose, uint64_t index) {
  dhnsw::SplitMix64 mix(seed * 0x9E3779B97F4A7C15ULL + purpose * 0xBF58476D1CE4E5B9ULL +
                        index);
  return mix.Next();
}

void DrawPoint(const std::vector<float>& centers, uint32_t cluster,
               dhnsw::Xoshiro256& rng, std::vector<float>* v) {
  // SIFT-like spread: components around [0, 255]-ish centres, overlapping
  // clusters (the same shape as the library's MakeSiftLike generator).
  constexpr float kStddev = 40.0f;
  const float* c = centers.data() + static_cast<size_t>(cluster) * kDim;
  for (uint32_t d = 0; d < kDim; ++d) {
    (*v)[d] = c[d] + kStddev * static_cast<float>(rng.NextGaussian());
  }
}

}  // namespace

std::string ParseParams(int argc, char** argv, Params* p) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return "expected --key=value, got " + arg;
    }
    kv[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  const auto u32 = [](const std::string& v) {
    return static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
  };
  for (const auto& [key, value] : kv) {
    const double num = std::strtod(value.c_str(), nullptr);
    if (key == "workload") p->workload = value;
    else if (key == "kind") p->kind = value;
    else if (key == "seed") p->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "seconds") p->seconds = num;
    else if (key == "trace") p->trace = value == "1";
    else if (key == "dump_inputs") p->dump_inputs = value;
    else if (key == "transport") p->transport = value;
    else if (key == "nodes") p->nodes = u32(value);
    else if (key == "rate_qps") p->rate_qps = num;
    else if (key == "read_share") p->read_share = num;
    else if (key == "replication") p->replication = u32(value);
    else return "unknown flag --" + key;
  }
  if (p->workload.empty()) return "--workload is required";
  if (p->kind != "batch" && p->kind != "pool") return "--kind must be batch or pool";
  if (p->transport != "sim" && p->transport != "tcp") return "--transport must be sim or tcp";
  if (p->seconds <= 0.0 || p->nodes == 0) return "--seconds and --nodes must be positive";
  p->cpus = AvailableCpus();
  return "";
}

std::string MetricList::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(entries[i].name) + ": [" + Number(entries[i].value) + ", " +
           Quote(entries[i].unit) + "]";
  }
  return out + "}";
}

std::string Report::ToJson() const {
  std::string out = "{\"end_to_end\": " + end_to_end.ToJson();
  out += ", \"layers\": " + layers.ToJson();
  out += ", \"pool_layers\": " + pool_layers.ToJson();
  out += ", \"env\": {";
  for (size_t i = 0; i < env.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(env[i].first) + ": " + Quote(env[i].second);
  }
  out += "}, \"counts\": {\"submitted\": " + std::to_string(submitted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"dropped\": " + std::to_string(dropped) +
         ", \"refused_inserts\": " + std::to_string(refused_inserts) + "}";
  out += ", \"violations\": [";
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(violations[i]);
  }
  return out + "]}";
}

Inputs MakeInputs() {
  Inputs in;
  dhnsw::Xoshiro256 rng(StreamSeed(kCorpusSeed, 1, 0));
  in.centers.resize(static_cast<size_t>(kGenClusters) * kDim);
  for (float& c : in.centers) c = (rng.NextFloat() * 2.0f - 1.0f) * 128.0f;
  in.base = VectorSet(kDim);
  in.base.Reserve(kBase);
  std::vector<float> v(kDim);
  for (uint32_t c = 0; c < kGenClusters; ++c) {
    const uint32_t begin = static_cast<uint32_t>(uint64_t{kBase} * c / kGenClusters);
    const uint32_t end = static_cast<uint32_t>(uint64_t{kBase} * (c + 1) / kGenClusters);
    for (uint32_t i = begin; i < end; ++i) {
      DrawPoint(in.centers, c, rng, &v);
      in.base.Append(v);
    }
  }
  return in;
}

VectorSet MakeQueryBatch(const Params& p, const Inputs& in, uint64_t index, size_t count) {
  dhnsw::Xoshiro256 rng(StreamSeed(p.seed, 2, index));
  VectorSet q(kDim);
  q.Reserve(count);
  std::vector<float> v(kDim);
  for (size_t i = 0; i < count; ++i) {
    DrawPoint(in.centers, static_cast<uint32_t>(rng.NextBounded(kGenClusters)), rng, &v);
    q.Append(v);
  }
  return q;
}

dhnsw::WorkloadGenOptions ScheduleOptions(const Params& p, uint64_t stream, size_t num_ops,
                                          double read_share, uint32_t first_insert_id) {
  dhnsw::WorkloadGenOptions w;
  w.seed = StreamSeed(p.seed, 3, stream);
  w.num_ops = num_ops;
  w.target_qps = p.rate_qps > 0.0 ? p.rate_qps : 1000.0;
  w.arrivals = dhnsw::ArrivalProcess::kPoisson;
  w.zipf_s = kZipf;
  w.num_topics = kTopics;
  w.read_fraction = read_share;
  w.num_tenants = 1;
  w.first_insert_id = first_insert_id;
  return w;
}

void AppendBytes(const VectorSet& v, std::string* out) {
  const auto flat = v.flat();
  out->append(reinterpret_cast<const char*>(flat.data()), flat.size_bytes());
}

void AppendBytes(const std::vector<dhnsw::WorkloadOp>& ops, std::string* out) {
  for (const dhnsw::WorkloadOp& op : ops) {
    const uint64_t fixed[5] = {static_cast<uint64_t>(op.kind), op.arrival_ns, op.tenant,
                               op.topic, op.global_id};
    out->append(reinterpret_cast<const char*>(fixed), sizeof fixed);
    out->append(reinterpret_cast<const char*>(op.vector.data()),
                op.vector.size() * sizeof(float));
  }
}

void WriteDump(const std::string& path, const std::string& bytes, Report* report) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const bool ok = f != nullptr && std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (f != nullptr && std::fclose(f) != 0) report->Violation("cannot close " + path);
  if (!ok) report->Violation("cannot write " + path);
}

dhnsw::DhnswConfig MakeConfig(const Params& p) {
  dhnsw::DhnswConfig c = dhnsw::DhnswConfig::Defaults();
  c.meta.num_representatives = kPartitions;
  c.sub_hnsw.M = kSubM;
  c.sub_hnsw.ef_construction = kEfConstruction;
  c.transport = p.transport == "tcp" ? dhnsw::rdma::TransportOptions::Tcp()
                                     : dhnsw::rdma::TransportOptions::Sim();
  c.compute.mode = dhnsw::EngineMode::kFull;
  c.compute.clusters_per_query = kB;
  c.compute.cache_capacity = kCacheClusters;
  c.compute.doorbell_batch = 16;
  c.compute.search_threads = p.search_threads();
  c.num_compute_nodes = p.nodes;
  c.build_threads = p.cpus;
  c.replication.factor = p.replication;
  return c;
}

namespace {

/// One timed DhnswEngine::Build, accounted in the report's set-up fields.
std::unique_ptr<dhnsw::DhnswEngine> TimedBuild(const dhnsw::DhnswConfig& config,
                                               const Inputs& in, Report* report) {
  const auto before = dhnsw::telemetry::DefaultRegistry().Snapshot();
  const dhnsw::WallTimer timer;
  auto built = dhnsw::DhnswEngine::Build(in.base, config);
  report->setup_walls.push_back(static_cast<double>(timer.elapsed_ns()) / 1e9);
  if (!built.ok()) {
    report->Violation("DhnswEngine::Build failed: " + built.status().ToString());
    return nullptr;
  }
  const auto after = dhnsw::telemetry::DefaultRegistry().Snapshot();
  const auto* h0 = before.Find("dhnsw_memory_provision_us");
  const auto* h1 = after.Find("dhnsw_memory_provision_us");
  if (h1 != nullptr) {
    report->provisions += static_cast<double>(h1->value - (h0 ? h0->value : 0));
    report->provision_us += static_cast<double>(h1->sum - (h0 ? h0->sum : 0));
  }
  return std::make_unique<dhnsw::DhnswEngine>(std::move(built).value());
}

}  // namespace

std::unique_ptr<dhnsw::DhnswEngine> SetUp(const Params& p, const Inputs& in, Report* report) {
  std::unique_ptr<dhnsw::DhnswEngine> engine = TimedBuild(MakeConfig(p), in, report);
  if (engine != nullptr) {
    const std::string got(engine->fabric().transport().name());
    if (got != p.transport) report->Violation("transport is " + got + ", workload pins " + p.transport);
  }
  return engine;
}

void FinishSetUp(const Params& p, Report* report) {
  if (report->setup_walls.empty()) return;  // the workload never got to build
  // Once an output is wrong the run is rejected anyway: report the builds
  // made so far instead of adding more.
  if (report->violations.empty()) {
    const Inputs in = MakeInputs();
    const dhnsw::DhnswConfig config = MakeConfig(p);
    while (report->setup_walls.size() < kSetupBuilds) {
      if (TimedBuild(config, in, report) == nullptr) break;
    }
  }
  report->end_to_end.Add("setup_s", Median(report->setup_walls), "s");
  report->layers.Add("memory_node.provision_ms",
                     report->provisions > 0 ? report->provision_us / report->provisions / 1e3 : 0.0,
                     "ms");
  report->layers.Add("base.setup_builds", static_cast<double>(report->setup_walls.size()),
                     "count");
}

void CaptureEnv(const Params& p, dhnsw::DhnswEngine& engine, size_t busy_threads,
                Report* report) {
  report->env = {
      {"workload", p.workload},
      {"seed", std::to_string(p.seed)},
      {"nproc", std::to_string(p.cpus)},
      {"kernel_tier", std::string(dhnsw::SimdTierName(dhnsw::ActiveTier()))},
      {"transport", std::string(engine.fabric().transport().name())},
      {"nic_source", engine.fabric().nic_config().source},
      {"busy_threads", std::to_string(busy_threads)},
      {"build_threads", std::to_string(p.cpus)},
      {"compute_nodes", std::to_string(p.nodes)},
      {"search_threads", std::to_string(p.search_threads())},
  };
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

double RecallAgainstExact(VectorSet data, const std::vector<uint32_t>& ids, VectorSet queries,
                          const std::vector<std::vector<dhnsw::Scored>>& found, size_t threads) {
  dhnsw::Dataset ds;
  ds.base = std::move(data);
  ds.queries = std::move(queries);
  dhnsw::ComputeGroundTruth(&ds, kK, dhnsw::Metric::kL2, threads);
  if (!ids.empty()) {
    for (uint32_t& id : ds.ground_truth) id = ids[id];
  }
  return dhnsw::MeanRecallAtK(ds, found, kK);
}

Counters Counters::Take(dhnsw::DhnswEngine& engine) {
  Counters c;
  c.snap = engine.MetricsSnapshot();
  for (dhnsw::ComputeNode* node : engine.compute_nodes()) {
    const dhnsw::rdma::QpStats& s = node->qp_stats();
    c.qp.round_trips += s.round_trips;
    c.qp.work_requests += s.work_requests;
    c.qp.bytes_read += s.bytes_read;
    c.qp.bytes_written += s.bytes_written;
    c.qp.sim_network_ns += s.sim_network_ns;
  }
  return c;
}

double Counters::Delta(const Counters& before, const char* name) const {
  return static_cast<double>(snap.Value(name) - before.snap.Value(name));
}

double Counters::SumDelta(const Counters& before, const char* name) const {
  const auto* a = snap.Find(name);
  const auto* b = before.snap.Find(name);
  return static_cast<double>((a ? a->sum : 0) - (b ? b->sum : 0));
}

void ReportCounterLayers(const Counters& before, const Counters& after,
                         uint64_t inserts, Report* report) {
  const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double plans = after.Delta(before, "dhnsw_scheduler_plans_total");
  const double queries = after.Delta(before, "dhnsw_compute_queries_total");
  const double pairs = queries * kB;
  const double hits = after.Delta(before, "dhnsw_compute_cache_hit_clusters_total");
  const double misses = after.Delta(before, "dhnsw_compute_cache_miss_clusters_total");
  const double search_rt = after.SumDelta(before, "dhnsw_compute_batch_round_trips");
  const double rings = static_cast<double>(after.qp.round_trips - before.qp.round_trips);
  const double wrs = static_cast<double>(after.qp.work_requests - before.qp.work_requests);
  const double ins = static_cast<double>(inserts);
  MetricList& l = report->layers;

  l.Add("batch_scheduler.unique_clusters_per_batch",
        per(after.Delta(before, "dhnsw_scheduler_unique_clusters_total"), plans), "count");
  l.Add("batch_scheduler.dedup_saved_share",
        per(after.Delta(before, "dhnsw_scheduler_dedup_saved_loads_total"), pairs), "share");
  l.Add("compute_node.cache_hit_share", per(hits, hits + misses), "share");
  l.Add("compute_node.clusters_loaded_per_query",
        per(after.Delta(before, "dhnsw_compute_cluster_loads_total"), queries), "count");
  l.Add("rdma.round_trips_per_search", per(search_rt, queries), "count");
  l.Add("rdma.bytes_read_per_search",
        per(after.Delta(before, "dhnsw_compute_bytes_loaded_total"), queries), "bytes");
  l.Add("rdma.network_us_per_search",
        per(after.SumDelta(before, "dhnsw_compute_batch_network_ns") / 1e3, queries), "us");
  l.Add("rdma.wrs_per_ring", per(wrs, rings), "count");
  l.Add("rdma.round_trips_per_insert", per(rings - search_rt, ins), "count");
  l.Add("rdma.bytes_written_per_insert",
        per(static_cast<double>(after.qp.bytes_written - before.qp.bytes_written), ins),
        "bytes");
  l.Add("replication.acks_per_insert",
        per(after.Delta(before, "dhnsw_replication_insert_acks_total"), ins), "count");
  l.Add("replication.failovers", after.Delta(before, "dhnsw_replication_failovers_total"),
        "count");

  l.Add("base.batches", plans, "count");
  l.Add("base.search_queries", queries, "count");
  l.Add("base.routed_pairs", pairs, "count");
  l.Add("base.cluster_lookups", hits + misses, "count");
  l.Add("base.rings", rings, "count");
  l.Add("base.inserts", ins, "count");
}

}  // namespace perfbench
