#include "cli.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>

#include "common/rng.h"
#include "common/timer.h"
#include "core/compute_pool.h"
#include "core/engine.h"
#include "core/workload_gen.h"
#include "rdma/fault_injection.h"
#include "rdma/queue_pair.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "dataset/vecs_io.h"

namespace dhnsw::cli {
namespace {

/// printf-append onto the output string.
void Emit(std::string* out, const char* fmt, ...) {
  char line[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(line, sizeof line, fmt, args);
  va_end(args);
  *out += line;
  *out += '\n';
}

struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  uint64_t GetU64(const std::string& key, uint64_t fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  double GetF64(const std::string& key, double fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
  bool Has(const std::string& key) const { return values.count(key) != 0; }
};

Result<Flags> ParseFlags(const std::vector<std::string>& args, size_t first) {
  Flags flags;
  for (size_t i = first; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Status::InvalidArgument("expected --key=value, got: " + arg);
    }
    flags.values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

Result<Metric> ParseMetric(const std::string& name) {
  if (name == "l2") return Metric::kL2;
  if (name == "ip") return Metric::kInnerProduct;
  if (name == "cosine") return Metric::kCosine;
  return Status::InvalidArgument("unknown metric: " + name + " (l2|ip|cosine)");
}

DhnswConfig ConfigFromFlags(const Flags& flags, Metric metric) {
  DhnswConfig config = DhnswConfig::Defaults(metric);
  config.meta.num_representatives =
      static_cast<uint32_t>(flags.GetU64("reps", 500));
  config.sub_hnsw.M = static_cast<uint32_t>(flags.GetU64("m", 16));
  config.sub_hnsw.ef_construction = static_cast<uint32_t>(flags.GetU64("efc", 100));
  config.compute.clusters_per_query = static_cast<uint32_t>(flags.GetU64("b", 4));
  config.compute.cache_capacity = static_cast<uint32_t>(flags.GetU64(
      "cache", std::max<uint64_t>(1, config.meta.num_representatives / 10)));
  config.num_memory_nodes = flags.GetU64("shards", 1);
  return config;
}

Status CmdBuild(const Flags& flags, std::string* out) {
  const std::string base_path = flags.Get("base");
  const std::string out_path = flags.Get("out");
  if (base_path.empty() || out_path.empty()) {
    return Status::InvalidArgument("build requires --base=<fvecs> and --out=<snapshot>");
  }
  DHNSW_ASSIGN_OR_RETURN(VectorSet base,
                         ReadFvecs(base_path, flags.GetU64("max_rows", 0)));
  DHNSW_ASSIGN_OR_RETURN(const Metric metric, ParseMetric(flags.Get("metric", "l2")));
  Emit(out, "loaded %zu vectors (dim %u) from %s", base.size(), base.dim(),
       base_path.c_str());

  WallTimer timer;
  DHNSW_ASSIGN_OR_RETURN(DhnswEngine engine,
                         DhnswEngine::Build(base, ConfigFromFlags(flags, metric)));
  Emit(out, "built %u partitions in %.1f ms (meta-HNSW %.1f KB)",
       engine.num_partitions(), timer.elapsed_ms(),
       static_cast<double>(engine.meta_blob_bytes()) / 1024.0);
  DHNSW_RETURN_IF_ERROR(engine.SaveSnapshot(out_path));
  Emit(out, "snapshot written to %s", out_path.c_str());
  return Status::Ok();
}

/// Shared open-from-snapshot helper. `next_global_id` conservatively starts
/// beyond any id a snapshot may hold (exact id continuity is persisted data
/// the CLI does not track across runs).
Result<DhnswEngine> OpenSnapshot(const Flags& flags, Metric metric) {
  const std::string path = flags.Get("snapshot");
  if (path.empty()) return Status::InvalidArgument("missing --snapshot=<file>");
  DhnswConfig config = ConfigFromFlags(flags, metric);
  return DhnswEngine::BuildFromSnapshot(
      path, config, static_cast<uint32_t>(flags.GetU64("next_id", 1u << 30)));
}

Status CmdQuery(const Flags& flags, std::string* out) {
  const std::string query_path = flags.Get("queries");
  if (query_path.empty()) return Status::InvalidArgument("missing --queries=<fvecs>");
  DHNSW_ASSIGN_OR_RETURN(const Metric metric, ParseMetric(flags.Get("metric", "l2")));
  DHNSW_ASSIGN_OR_RETURN(DhnswEngine engine, OpenSnapshot(flags, metric));
  DHNSW_ASSIGN_OR_RETURN(VectorSet queries,
                         ReadFvecs(query_path, flags.GetU64("max_rows", 0)));

  const size_t k = flags.GetU64("k", 10);
  const uint32_t ef = static_cast<uint32_t>(flags.GetU64("ef", 48));
  DHNSW_ASSIGN_OR_RETURN(BatchResult result, engine.SearchAll(queries, k, ef));

  const BatchBreakdown& b = result.breakdown;
  Emit(out, "searched %zu queries, k=%zu, efSearch=%u over %u partitions",
       queries.size(), k, ef, engine.num_partitions());
  Emit(out, "network %.1f us (%.4f RT/query), meta %.1f us, sub %.1f us, %lu loads",
       b.network_us, b.per_query_round_trips(), b.meta_us, b.sub_us,
       static_cast<unsigned long>(b.clusters_loaded));

  if (flags.Has("gt")) {
    DHNSW_ASSIGN_OR_RETURN(IvecsData gt, ReadIvecs(flags.Get("gt"), queries.size()));
    if (gt.rows() < queries.size() || gt.row_dim < k) {
      return Status::InvalidArgument("ground truth too small for this query set / k");
    }
    double total = 0.0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      total += RecallAtK(result.results[qi],
                         {gt.values.data() + qi * gt.row_dim, gt.row_dim}, k);
    }
    Emit(out, "recall@%zu = %.4f", k, total / static_cast<double>(queries.size()));
  }

  if (flags.Has("out")) {
    IvecsData ids;
    ids.row_dim = static_cast<uint32_t>(k);
    for (const auto& top : result.results) {
      for (size_t j = 0; j < k; ++j) {
        ids.values.push_back(j < top.size() ? top[j].id : 0xFFFFFFFFu);
      }
    }
    DHNSW_RETURN_IF_ERROR(WriteIvecs(flags.Get("out"), ids));
    Emit(out, "result ids written to %s", flags.Get("out").c_str());
  }
  return Status::Ok();
}

Status CmdInsert(const Flags& flags, std::string* out) {
  const std::string vec_path = flags.Get("vectors");
  const std::string out_path = flags.Get("out");
  if (vec_path.empty() || out_path.empty()) {
    return Status::InvalidArgument("insert requires --vectors=<fvecs> and --out=<snapshot>");
  }
  DHNSW_ASSIGN_OR_RETURN(const Metric metric, ParseMetric(flags.Get("metric", "l2")));
  DHNSW_ASSIGN_OR_RETURN(DhnswEngine engine, OpenSnapshot(flags, metric));
  DHNSW_ASSIGN_OR_RETURN(VectorSet vectors,
                         ReadFvecs(vec_path, flags.GetU64("max_rows", 0)));

  std::vector<size_t> rejected;
  DHNSW_ASSIGN_OR_RETURN(const uint32_t first_id, engine.InsertBatch(vectors, &rejected));
  Emit(out, "inserted %zu vectors (ids from %u), %zu rejected (overflow full)",
       vectors.size() - rejected.size(), first_id, rejected.size());
  if (!rejected.empty()) {
    Emit(out, "hint: run `compact` to fold overflow into the base blobs");
  }
  DHNSW_RETURN_IF_ERROR(engine.SaveSnapshot(out_path));
  Emit(out, "snapshot written to %s", out_path.c_str());
  return Status::Ok();
}

Status CmdCompact(const Flags& flags, std::string* out) {
  const std::string out_path = flags.Get("out");
  if (out_path.empty()) return Status::InvalidArgument("compact requires --out=<snapshot>");
  DHNSW_ASSIGN_OR_RETURN(const Metric metric, ParseMetric(flags.Get("metric", "l2")));
  DHNSW_ASSIGN_OR_RETURN(DhnswEngine engine, OpenSnapshot(flags, metric));

  DHNSW_ASSIGN_OR_RETURN(CompactionStats stats, engine.Compact());
  Emit(out, "compacted %u clusters: folded %u inserts, applied %u tombstones",
       stats.clusters, stats.live_records_folded, stats.tombstones_applied);
  DHNSW_RETURN_IF_ERROR(engine.SaveSnapshot(out_path));
  Emit(out, "snapshot written to %s", out_path.c_str());
  return Status::Ok();
}

Status CmdInfo(const Flags& flags, std::string* out) {
  DHNSW_ASSIGN_OR_RETURN(const Metric metric, ParseMetric(flags.Get("metric", "l2")));
  DHNSW_ASSIGN_OR_RETURN(DhnswEngine engine, OpenSnapshot(flags, metric));
  *out += engine.DebugString();
  *out += '\n';
  const auto& sizes = engine.partition_sizes();
  if (!sizes.empty()) {
    Emit(out, "partition sizes: %zu entries", sizes.size());
  } else {
    Emit(out, "dim %u, %u partitions (sizes live in the blobs)", engine.dim(),
         engine.num_partitions());
  }
  return Status::Ok();
}

Status CmdStats(const Flags& flags, std::string* out) {
  DHNSW_ASSIGN_OR_RETURN(const Metric metric, ParseMetric(flags.Get("metric", "l2")));
  DHNSW_ASSIGN_OR_RETURN(DhnswEngine engine, OpenSnapshot(flags, metric));

  // Optionally drive a query batch first so the snapshot shows live counters
  // (loads, rings, cache traffic), not just topology.
  if (flags.Has("queries")) {
    DHNSW_ASSIGN_OR_RETURN(VectorSet queries,
                           ReadFvecs(flags.Get("queries"), flags.GetU64("max_rows", 0)));
    const size_t k = flags.GetU64("k", 10);
    const uint32_t ef = static_cast<uint32_t>(flags.GetU64("ef", 48));
    DHNSW_ASSIGN_OR_RETURN(BatchResult result, engine.SearchAll(queries, k, ef));
    Emit(out, "# ran %zu queries (k=%zu, efSearch=%u) before sampling",
         queries.size(), k, ef);
    (void)result;
  }
  *out += engine.MetricsText();
  return Status::Ok();
}

Status CmdTrace(const Flags& flags, std::string* out) {
  const std::string query_path = flags.Get("queries");
  if (query_path.empty()) return Status::InvalidArgument("trace requires --queries=<fvecs>");
  DHNSW_ASSIGN_OR_RETURN(const Metric metric, ParseMetric(flags.Get("metric", "l2")));
  DHNSW_ASSIGN_OR_RETURN(DhnswEngine engine, OpenSnapshot(flags, metric));
  DHNSW_ASSIGN_OR_RETURN(VectorSet queries,
                         ReadFvecs(query_path, flags.GetU64("max_rows", 0)));

  engine.EnableTracing(flags.GetU64("capacity", 65536));
  const size_t k = flags.GetU64("k", 10);
  const uint32_t ef = static_cast<uint32_t>(flags.GetU64("ef", 48));
  DHNSW_ASSIGN_OR_RETURN(BatchResult result, engine.SearchAll(queries, k, ef));
  (void)result;

  // --deterministic=1 drops wall_ns so same-seed runs are byte-identical.
  telemetry::TraceExportOptions options;
  options.include_wall = flags.GetU64("deterministic", 0) == 0;
  const telemetry::TraceBuffer& trace = engine.trace(0);
  if (flags.Has("out")) {
    DHNSW_RETURN_IF_ERROR(telemetry::WriteTraceJsonl(trace, flags.Get("out"), options));
    Emit(out, "wrote %zu spans (%llu dropped) to %s", trace.size(),
         static_cast<unsigned long long>(trace.dropped()), flags.Get("out").c_str());
  } else {
    *out += telemetry::TraceToJsonl(trace, options);
  }
  return Status::Ok();
}

Status CmdTopology(const Flags& flags, std::string* out) {
  // Synthetic stand-in deployment: `topology` demonstrates the replication
  // control plane — per-node health, fence epochs, failover, and online
  // re-replication — without needing a snapshot on disk. `--kill=<slot>`
  // crashes that slot's current primary and lets the probe loop detect it;
  // `--rereplicate=1` then restores the configured factor.
  const uint32_t replicas = static_cast<uint32_t>(flags.GetU64("replicas", 2));
  const uint32_t clusters = static_cast<uint32_t>(flags.GetU64("clusters", 4));
  const Dataset ds =
      MakeSynthetic({.dim = static_cast<uint32_t>(flags.GetU64("dim", 8)),
                     .num_base = static_cast<uint32_t>(flags.GetU64("rows", 600)),
                     .num_queries = 8,
                     .num_clusters = clusters,
                     .seed = flags.GetU64("seed", 42)});
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = clusters;
  config.compute.cache_capacity = clusters;
  config.replication.factor = replicas;
  DHNSW_ASSIGN_OR_RETURN(DhnswEngine engine, DhnswEngine::Build(ds.base, config));

  ReplicaManager* manager = engine.replication();
  if (manager == nullptr) {
    Emit(out, "replication disabled (factor 1): single-copy memory pool");
    return Status::Ok();
  }

  if (flags.Has("kill")) {
    const uint32_t slot = static_cast<uint32_t>(flags.GetU64("kill", 0));
    if (slot >= manager->num_slots()) {
      return Status::InvalidArgument("--kill: no such slot");
    }
    DHNSW_ASSIGN_OR_RETURN(const rdma::NodeId owner,
                           engine.fabric().OwnerOf(manager->PrimaryRoute(slot).rkey));
    engine.fabric().SetNodeReachable(owner, false);
    Emit(out, "killed %s (slot %u primary)", engine.fabric().NodeName(owner).c_str(), slot);
    const uint32_t ticks = manager->options().dead_after_misses;
    for (uint32_t i = 0; i < ticks; ++i) manager->Tick();
    Emit(out, "probe loop declared it dead after %u tick(s); failed over", ticks);
    if (flags.GetU64("rereplicate", 0) != 0) {
      DHNSW_RETURN_IF_ERROR(manager->RereplicateAll());
      Emit(out, "re-replicated: factor %u restored online", manager->factor());
    }
  }

  // Prove the topology still serves before printing it.
  DHNSW_ASSIGN_OR_RETURN(const BatchResult probe, engine.SearchAll(ds.queries, 5, 64));
  Emit(out, "search served %zu/%zu queries through this topology",
       probe.statuses.size(), ds.queries.size());
  *out += manager->TopologyText();
  return Status::Ok();
}

Status CmdScaleout(const Flags& flags, std::string* out) {
  // Synthetic stand-in deployment for the compute pool (DESIGN.md §12):
  // N ComputeNode instances over one memory pool, driven by the open-loop
  // workload generator. `--drain=1` runs the deterministic backpressure mode
  // (kLeastAssigned dispatch); the default is paced open-loop at `--qps`
  // with cache-affinity dispatch (kLeastLoaded) and admission control, where
  // drops under overload are the expected signal.
  const uint32_t nodes = static_cast<uint32_t>(flags.GetU64("nodes", 4));
  const uint32_t clusters = static_cast<uint32_t>(flags.GetU64("clusters", 8));
  const uint32_t rows = static_cast<uint32_t>(flags.GetU64("rows", 3000));
  if (nodes == 0) return Status::InvalidArgument("--nodes must be >= 1");
  const Dataset ds =
      MakeSynthetic({.dim = static_cast<uint32_t>(flags.GetU64("dim", 16)),
                     .num_base = rows,
                     .num_queries = 8,
                     .num_clusters = clusters,
                     .seed = flags.GetU64("seed", 42)});
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = clusters;
  config.compute.cache_capacity = std::max(1u, clusters / 2);
  config.num_compute_nodes = nodes;
  DHNSW_ASSIGN_OR_RETURN(DhnswEngine engine, DhnswEngine::Build(ds.base, config));

  WorkloadGenOptions wopt;
  wopt.seed = flags.GetU64("seed", 42);
  wopt.num_ops = flags.GetU64("ops", 2000);
  wopt.target_qps = flags.GetF64("qps", 20000.0);
  wopt.read_fraction = flags.GetF64("read_fraction", 0.9);
  wopt.zipf_s = flags.GetF64("zipf", 1.1);
  wopt.num_topics = clusters;
  wopt.num_tenants = static_cast<uint32_t>(flags.GetU64("tenants", 2));
  wopt.first_insert_id = rows;
  WorkloadGenerator gen(ds.base, wopt);
  const auto ops = gen.Generate();

  const bool drain = flags.GetU64("drain", 0) != 0;
  ComputePoolOptions popt;
  popt.dispatch =
      drain ? DispatchPolicy::kLeastAssigned : DispatchPolicy::kLeastLoaded;
  popt.k = flags.GetU64("k", 10);
  popt.ef_search = static_cast<uint32_t>(flags.GetU64("ef", 48));
  popt.num_tenants = wopt.num_tenants;
  popt.admission.node_queue_capacity = flags.GetU64("queue_capacity", 64);
  popt.admission.tenant_inflight_limit = flags.GetU64("tenant_limit", 0);
  ComputePool pool(engine.compute_nodes(), popt);
  const PoolRunStats stats =
      pool.Run(ops, drain ? PoolRunMode::kDrain : PoolRunMode::kPaced);

  Emit(out, "scaleout: %u nodes, %zu ops (%.0f%% reads), %s", nodes, ops.size(),
       wopt.read_fraction * 100.0,
       drain ? "drain (deterministic backpressure)"
             : "paced open-loop with admission control");
  Emit(out, "admitted %llu  ok %llu  failed %llu  dropped %llu "
       "(queue %llu, tenant %llu, invalid %llu)",
       static_cast<unsigned long long>(stats.admitted),
       static_cast<unsigned long long>(stats.completed_ok),
       static_cast<unsigned long long>(stats.failed),
       static_cast<unsigned long long>(stats.dropped()),
       static_cast<unsigned long long>(stats.dropped_queue_full),
       static_cast<unsigned long long>(stats.dropped_tenant_limit),
       static_cast<unsigned long long>(stats.dropped_invalid));
  Emit(out, "offered %.0f ops/s  achieved %.0f ops/s", stats.offered_qps,
       stats.achieved_qps);
  Emit(out, "sojourn p50 %.1f us  p99 %.1f us  p999 %.1f us",
       stats.latency_us.p50(), stats.latency_us.p99(),
       stats.latency_us.percentile(99.9));
  std::string per_node = "per-node ops:";
  for (size_t i = 0; i < stats.per_node_ops.size(); ++i) {
    per_node += " node" + std::to_string(i) + "=" +
                std::to_string(stats.per_node_ops[i]);
  }
  Emit(out, "%s", per_node.c_str());
  std::string hit_share = "per-node cache hit share:";
  for (size_t i = 0; i < stats.per_node_ops.size(); ++i) {
    char cell[32];
    std::snprintf(cell, sizeof(cell), " node%zu=%.2f", i, stats.cache_hit_share(i));
    hit_share += cell;
  }
  Emit(out, "%s", hit_share.c_str());
  for (uint32_t t = 0; t < wopt.num_tenants; ++t) {
    if (stats.per_tenant_drops[t] != 0) {
      Emit(out, "tenant %u: %llu drops", t,
           static_cast<unsigned long long>(stats.per_tenant_drops[t]));
    }
  }
  return Status::Ok();
}

Status CmdChaos(const Flags& flags, std::string* out) {
  // Chaos drill on a synthetic deployment: build, record the fault-free
  // oracle, arm a seeded FaultPlan on the fabric (any backend — the chaos
  // decorator injects on real sockets, the simulator in ExecuteWr), replay
  // the batch with retries, and report whether it converged. Two schedules:
  //   --mode=transient  bounded budget of unreachable/timeout/bit-flip/delay
  //                     rules; a retry policy that outlasts it must converge
  //   --mode=kill       the slot-0 primary dies mid-batch (every verb against
  //                     its region fails forever, probes included); with
  //                     --replicas>=2 the batch drives detection + epoch-
  //                     fenced failover and converges on the promoted copy
  const std::string mode = flags.Get("mode", "transient");
  if (mode != "transient" && mode != "kill") {
    return Status::InvalidArgument("--mode must be transient|kill, got: " + mode);
  }
  const uint32_t replicas = static_cast<uint32_t>(
      flags.GetU64("replicas", mode == "kill" ? 2 : 1));
  const uint32_t clusters = static_cast<uint32_t>(flags.GetU64("clusters", 6));
  const uint64_t seed = flags.GetU64("seed", 42);
  const Dataset ds =
      MakeSynthetic({.dim = static_cast<uint32_t>(flags.GetU64("dim", 8)),
                     .num_base = static_cast<uint32_t>(flags.GetU64("rows", 1500)),
                     .num_queries = static_cast<uint32_t>(flags.GetU64("queries", 16)),
                     .num_clusters = clusters,
                     .seed = seed});
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = clusters;
  config.compute.clusters_per_query = 3;
  config.compute.cache_capacity = clusters;
  config.replication.factor = replicas;
  if (flags.Has("transport")) {
    DHNSW_ASSIGN_OR_RETURN(config.transport.kind,
                           rdma::ParseTransportKind(flags.Get("transport")));
  }  // default: unset kind honours DHNSW_TRANSPORT
  DHNSW_ASSIGN_OR_RETURN(DhnswEngine engine, DhnswEngine::Build(ds.base, config));
  Emit(out, "chaos drill: mode=%s transport=%s replicas=%u seed=%llu",
       mode.c_str(), std::string(engine.fabric().transport().name()).c_str(),
       replicas, static_cast<unsigned long long>(seed));

  const size_t k = flags.GetU64("k", 5);
  const uint32_t ef = static_cast<uint32_t>(flags.GetU64("ef", 300));
  DHNSW_ASSIGN_OR_RETURN(const BatchResult baseline, engine.SearchAll(ds.queries, k, ef));

  rdma::FaultPlan plan(seed);
  if (mode == "kill") {
    const ReplicaManager* manager = engine.replication();
    rdma::FaultRule rule;
    rule.kind = rdma::FaultKind::kUnreachable;
    rule.rkey = manager != nullptr ? manager->PrimaryRoute(0).rkey
                                   : engine.memory_handle().rkey_for_slot(0);
    rule.skip_first = flags.GetU64("skip", 4);
    plan.Add(rule);  // max_triggers stays unbounded: the node never returns
    Emit(out, "armed: slot-0 primary crashes after %llu ops (probes included)",
         static_cast<unsigned long long>(rule.skip_first));
  } else {
    // Bounded transient schedule, bit-flips confined to CRC-protected blob
    // bytes (the metadata table's FAA counter is outside its CRC).
    uint64_t blob_area = UINT64_MAX;
    for (const ClusterMeta& e : engine.memory_node()->plan().entries) {
      blob_area = std::min(blob_area, e.blob_offset);
    }
    Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 0x5bf0);
    uint64_t budget = flags.GetU64("budget", 6);
    uint32_t num_rules = 0;
    while (budget > 0) {
      rdma::FaultRule rule;
      rule.opcode = rdma::Opcode::kRead;
      rule.max_triggers = 1 + rng.NextBounded(std::min<uint64_t>(2, budget));
      budget -= rule.max_triggers;
      rule.skip_first = rng.NextBounded(4);
      switch (rng.NextBounded(4)) {
        case 0: rule.kind = rdma::FaultKind::kUnreachable; break;
        case 1:
          rule.kind = rdma::FaultKind::kTimeout;
          rule.delay_ns = 10'000 + rng.NextBounded(90'000);
          break;
        case 2:
          rule.kind = rdma::FaultKind::kBitFlip;
          rule.offset_lo = blob_area;
          rule.bit_flips = 1 + static_cast<uint32_t>(rng.NextBounded(3));
          break;
        default:
          rule.kind = rdma::FaultKind::kDelay;
          rule.delay_ns = 5'000 + rng.NextBounded(45'000);
          break;
      }
      plan.Add(rule);
      ++num_rules;
    }
    Emit(out, "armed: %u transient rule(s), total trigger budget %llu", num_rules,
         flags.GetU64("budget", 6));
  }

  ComputeNode& node = engine.compute(0);
  node.InvalidateCache();  // every cluster crosses the faulty wire again
  RetryPolicy retry = RetryPolicy::Default();
  retry.max_attempts = static_cast<uint32_t>(flags.GetU64("attempts", 12));
  node.mutable_options()->retry = retry;
  const uint64_t faults_before = node.qp_stats().injected_faults;

  DHNSW_RETURN_IF_ERROR(engine.fabric().ArmFaults(plan));
  auto run = node.SearchAll(ds.queries, k, ef);
  engine.fabric().ClearFaults();
  DHNSW_RETURN_IF_ERROR(run.status());
  const BatchResult& result = run.value();

  size_t ok = 0;
  for (const Status& st : result.statuses) ok += st.ok() ? 1 : 0;
  const BatchBreakdown& b = result.breakdown;
  Emit(out, "injected %llu fault(s); %llu retries, %llu failover(s), %llu failed load(s)",
       static_cast<unsigned long long>(node.qp_stats().injected_faults - faults_before),
       static_cast<unsigned long long>(b.retries),
       static_cast<unsigned long long>(b.failovers),
       static_cast<unsigned long long>(b.failed_loads));
  Emit(out, "queries ok: %zu/%zu", ok, result.statuses.size());

  bool converged = baseline.results.size() == result.results.size();
  for (size_t i = 0; converged && i < result.results.size(); ++i) {
    converged = baseline.results[i].size() == result.results[i].size();
    for (size_t j = 0; converged && j < result.results[i].size(); ++j) {
      converged = baseline.results[i][j].id == result.results[i][j].id &&
                  baseline.results[i][j].distance == result.results[i][j].distance;
    }
  }
  if (!converged || ok != result.statuses.size()) {
    Emit(out, "DIVERGED from the fault-free oracle");
    return Status::Corruption("chaos run diverged from oracle");
  }
  Emit(out, "converged: results byte-identical to the fault-free oracle");
  return Status::Ok();
}

/// Runs `iters` identical rings built by `post` and returns the median
/// per-ring network charge in ns — the NicModel cost on the simulator, the
/// measured wall time of the round trip on a real transport (tcp/verbs).
template <typename PostFn>
uint64_t MedianRingNs(rdma::QueuePair& qp, uint32_t iters, PostFn&& post) {
  std::vector<uint64_t> samples;
  samples.reserve(iters);
  for (uint32_t i = 0; i < iters + 1; ++i) {
    const uint64_t before = qp.stats().sim_network_ns;
    post();
    qp.RingDoorbell();
    rdma::Completion c;
    while (qp.PollCompletion(&c)) {
    }
    if (i == 0) continue;  // warm-up ring: connection setup, cold caches
    samples.push_back(qp.stats().sim_network_ns - before);
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
  return samples[samples.size() / 2];
}

Status CmdCalibrate(const Flags& flags, std::string* out) {
  DHNSW_ASSIGN_OR_RETURN(const rdma::TransportKind kind,
                         rdma::ParseTransportKind(flags.Get("transport", "tcp")));
  const uint32_t iters =
      static_cast<uint32_t>(std::max<uint64_t>(3, flags.GetU64("iters", 33)));
  const size_t large_bytes = std::max<uint64_t>(4096, flags.GetU64("bytes", 1u << 20));

  rdma::TransportOptions options;
  options.kind = kind;
  rdma::Fabric fabric(rdma::NicModelConfig{}, options);
  if (fabric.transport().kind() != kind) {
    return Status::Unavailable("requested transport failed to initialise");
  }
  const rdma::NodeId mem = fabric.AddNode("calib-mem");
  fabric.AddNode("calib-compute");
  DHNSW_ASSIGN_OR_RETURN(const rdma::RKey rkey,
                         fabric.RegisterMemory(mem, large_bytes + 4096));
  SimClock clock;
  rdma::QueuePair qp(&fabric, &clock);
  std::vector<uint8_t> buf(large_bytes);
  Emit(out, "calibrating on transport=%s iters=%u payload=%zuB",
       std::string(fabric.transport().name()).c_str(), iters, large_bytes);

  // 1. Base round trip: a single 8-byte READ per ring.
  const uint64_t t_small = MedianRingNs(
      qp, iters, [&] { qp.PostRead(rkey, 0, {buf.data(), 8}); });
  // 2. Per-byte bandwidth: one large READ per ring; the delta over the base
  //    round trip is pure payload time.
  const uint64_t t_large = MedianRingNs(
      qp, iters, [&] { qp.PostRead(rkey, 0, {buf.data(), large_bytes}); });
  // 3. Doorbell amortization, linear region: 16 small READs in one ring.
  const uint64_t t_batch16 = MedianRingNs(qp, iters, [&] {
    for (uint32_t w = 0; w < 16; ++w) qp.PostRead(rkey, w * 8, {buf.data() + w * 8, 8});
  });
  // 4. Saturated region: 64 small READs in one ring.
  const uint64_t t_batch64 = MedianRingNs(qp, iters, [&] {
    for (uint32_t w = 0; w < 64; ++w) qp.PostRead(rkey, w * 8, {buf.data() + w * 8, 8});
  });
  // 5. Atomic surcharge: one FAA per ring (offset 0 is 8-aligned).
  const uint64_t t_atomic = MedianRingNs(
      qp, iters, [&] { qp.PostFetchAdd(rkey, large_bytes, 0); });

  rdma::NicModelConfig fitted;
  fitted.base_round_trip_ns = t_small;
  const uint64_t payload_ns = t_large > t_small ? t_large - t_small : 1;
  fitted.bandwidth_gbps =
      static_cast<double>(large_bytes) * 8.0 / static_cast<double>(payload_ns);
  fitted.per_wr_dma_ns = t_batch16 > t_small ? (t_batch16 - t_small) / 15 : 0;
  // Model: cost(64) = base + 63*per_wr + (64 - limit)*saturated (+ payload,
  // negligible at 8B/WR). Anything the linear terms do not explain is the
  // saturated per-WR cost beyond the default window of 16.
  const uint64_t linear64 = t_small + 63 * fitted.per_wr_dma_ns;
  fitted.doorbell_saturated_ns = t_batch64 > linear64 ? (t_batch64 - linear64) / 48 : 0;
  fitted.atomic_extra_ns = t_atomic > t_small ? t_atomic - t_small : 0;
  fitted.source = "calibrated-" + std::string(rdma::TransportKindName(kind));

  Emit(out, "base_round_trip_ns=%llu bandwidth_gbps=%.3f per_wr_dma_ns=%llu",
       static_cast<unsigned long long>(fitted.base_round_trip_ns), fitted.bandwidth_gbps,
       static_cast<unsigned long long>(fitted.per_wr_dma_ns));
  Emit(out, "doorbell_saturated_ns=%llu atomic_extra_ns=%llu source=%s",
       static_cast<unsigned long long>(fitted.doorbell_saturated_ns),
       static_cast<unsigned long long>(fitted.atomic_extra_ns), fitted.source.c_str());

  const std::string json = fitted.ToJson();
  const std::string out_path = flags.Get("out", "nic_calibration.json");
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + out_path);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IoError("short write to " + out_path);
  }
  Emit(out, "wrote %s", out_path.c_str());

  // Round-trip the artifact through the load path and drive one simulated
  // ring under the fitted constants — proof the simulator accepts them.
  DHNSW_ASSIGN_OR_RETURN(const rdma::NicModelConfig loaded,
                         rdma::NicModelConfig::LoadFromJson(json));
  rdma::Fabric sim(loaded, rdma::TransportOptions::Sim());
  const rdma::NodeId sim_mem = sim.AddNode("sim-mem");
  DHNSW_ASSIGN_OR_RETURN(const rdma::RKey sim_rkey, sim.RegisterMemory(sim_mem, 4096));
  SimClock sim_clock;
  rdma::QueuePair sim_qp(&sim, &sim_clock);
  DHNSW_RETURN_IF_ERROR(sim_qp.Read(sim_rkey, 0, {buf.data(), 8}));
  Emit(out, "sim reload check: 8B read costs %llu ns under source=%s",
       static_cast<unsigned long long>(sim_qp.stats().sim_network_ns),
       loaded.source.c_str());
  return Status::Ok();
}

const char kUsage[] =
    "usage: dhnsw_cli <build|query|insert|compact|info|stats|trace|topology|scaleout|chaos|calibrate> --key=value ...\n"
    "  build   --base=x.fvecs --out=region.dsnp [--reps --m --efc --metric --shards]\n"
    "  query   --snapshot=region.dsnp --queries=q.fvecs [--k --ef --gt --out]\n"
    "  insert  --snapshot=region.dsnp --vectors=new.fvecs --out=updated.dsnp\n"
    "  compact --snapshot=region.dsnp --out=compacted.dsnp\n"
    "  info    --snapshot=region.dsnp\n"
    "  stats   --snapshot=region.dsnp [--queries=q.fvecs --k --ef]  (Prometheus text)\n"
    "  trace   --snapshot=region.dsnp --queries=q.fvecs [--out=t.jsonl --capacity\n"
    "          --deterministic=1]  (per-query trace spans as JSONL)\n"
    "  topology [--replicas=2 --kill=<slot> --rereplicate=1 --dim --rows --clusters\n"
    "          --seed]  (per-node replica health/epoch table on a synthetic pool)\n"
    "  scaleout [--nodes=4 --ops=2000 --qps=20000 --read_fraction=0.9 --zipf=1.1\n"
    "          --tenants=2 --drain=1 --queue_capacity --tenant_limit --k --ef --dim\n"
    "          --rows --clusters --seed]  (compute-pool run on a synthetic pool)\n"
    "  chaos   [--mode=transient|kill --transport=sim|tcp|verbs --replicas --skip=4\n"
    "          --budget=6 --attempts=12 --dim --rows --queries --clusters --k --ef\n"
    "          --seed]  (seeded fault drill vs the fault-free oracle; exit 1 on divergence)\n"
    "  calibrate [--transport=tcp --iters=33 --bytes=1048576 --out=nic_calibration.json]\n"
    "          (measure real per-RT latency/bandwidth; write NicModelConfig JSON)";

}  // namespace

int RunCli(const std::vector<std::string>& args, std::string* out) {
  if (args.empty()) {
    Emit(out, "%s", kUsage);
    return 2;
  }
  auto flags = ParseFlags(args, 1);
  if (!flags.ok()) {
    Emit(out, "error: %s", flags.status().ToString().c_str());
    return 2;
  }

  Status st;
  const std::string& command = args[0];
  if (command == "build") {
    st = CmdBuild(flags.value(), out);
  } else if (command == "query") {
    st = CmdQuery(flags.value(), out);
  } else if (command == "insert") {
    st = CmdInsert(flags.value(), out);
  } else if (command == "compact") {
    st = CmdCompact(flags.value(), out);
  } else if (command == "info") {
    st = CmdInfo(flags.value(), out);
  } else if (command == "stats") {
    st = CmdStats(flags.value(), out);
  } else if (command == "trace") {
    st = CmdTrace(flags.value(), out);
  } else if (command == "topology") {
    st = CmdTopology(flags.value(), out);
  } else if (command == "scaleout") {
    st = CmdScaleout(flags.value(), out);
  } else if (command == "chaos") {
    st = CmdChaos(flags.value(), out);
  } else if (command == "calibrate") {
    st = CmdCalibrate(flags.value(), out);
  } else {
    Emit(out, "unknown command: %s\n%s", command.c_str(), kUsage);
    return 2;
  }
  if (!st.ok()) {
    Emit(out, "error: %s", st.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace dhnsw::cli
