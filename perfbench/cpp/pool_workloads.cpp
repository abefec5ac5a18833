// serve_zipf and mixed_tcp: open-loop Poisson arrivals at a fixed rate,
// every op its own request through a ComputePool, then a drain pass over a
// second schedule for saturation throughput. With inserts in the mix the
// workload also compacts and checks that every acked insert survived.
#include <algorithm>
#include <numeric>
#include <optional>

#include "common/timer.h"
#include "harness.h"

namespace perfbench {

namespace {

using dhnsw::ComputePool;
using dhnsw::OpOutcome;
using dhnsw::PoolRunMode;
using dhnsw::VectorSet;
using dhnsw::WorkloadOp;

/// Per-lane queue bound of the drain pass.
constexpr size_t kDrainQueueDepth = 4;
/// Queries in the post-compaction recall check.
constexpr size_t kVerifyQueries = 1000;

std::vector<WorkloadOp> Generate(const VectorSet& base, const dhnsw::WorkloadGenOptions& o) {
  return dhnsw::WorkloadGenerator(base, o).Generate();
}

size_t CountInserts(const std::vector<WorkloadOp>& ops) {
  return static_cast<size_t>(std::count_if(ops.begin(), ops.end(), [](const WorkloadOp& op) {
    return op.kind == WorkloadOp::Kind::kInsert;
  }));
}

dhnsw::ComputePoolOptions PoolOptions(dhnsw::DispatchPolicy dispatch) {
  dhnsw::ComputePoolOptions o;
  o.dispatch = dispatch;
  o.k = kK;
  o.ef_search = kEf;
  o.num_tenants = 1;
  return o;
}

/// What the op outcomes of the measured runs add up to.
struct Tally {
  std::vector<double> search_ms, insert_ms, queue_ms, service_ms;
  /// search_ms split by the paced schedule's kLatencyWindows windows.
  std::vector<std::vector<double>> search_windows =
      std::vector<std::vector<double>>(kLatencyWindows);
  uint64_t inserts = 0, unknown_ids = 0;
  VectorSet search_vectors;
  std::vector<std::vector<dhnsw::Scored>> search_results;
  VectorSet acked_vectors;
  std::vector<uint32_t> acked_ids;
};

/// Where a paced run's ops sit in the whole paced schedule: ops[i] is op
/// first + i of total.
struct PacedPosition {
  size_t first, total;
};

/// Folds one run's outcomes into the tally and the report's op counts.
/// `id_limit` is one past the last id any submitted insert carries: a search
/// result at or above it names a vector that was never inserted. Latencies
/// are kept only for paced runs (`paced` set).
void Account(const std::vector<WorkloadOp>& ops, const std::vector<OpOutcome>& outcomes,
             uint32_t id_limit, std::optional<PacedPosition> paced, Tally* t, Report* report) {
  for (size_t i = 0; i < ops.size(); ++i) {
    const WorkloadOp& op = ops[i];
    const OpOutcome& out = outcomes[i];
    const bool search = op.kind == WorkloadOp::Kind::kSearch;
    ++report->submitted;
    if (out.dropped) {
      ++report->dropped;
      continue;
    }
    if (!out.status.ok()) {
      if (!search && out.status.code() == dhnsw::StatusCode::kCapacity) {
        ++report->refused_inserts;
      } else {
        ++report->failed;
      }
      continue;
    }
    const double total_ms = static_cast<double>(out.total_wall_ns) / 1e6;
    const double queue_ms = static_cast<double>(out.queue_wall_ns) / 1e6;
    if (paced) {
      (search ? t->search_ms : t->insert_ms).push_back(total_ms);
      if (search) {
        const size_t window = (paced->first + i) * kLatencyWindows / paced->total;
        t->search_windows[window].push_back(total_ms);
      }
      t->queue_ms.push_back(queue_ms);
      t->service_ms.push_back(total_ms - queue_ms);
    }
    if (search) {
      for (const dhnsw::Scored& s : out.results) {
        if (s.id >= id_limit) ++t->unknown_ids;
      }
      t->search_vectors.Append(op.vector);
      t->search_results.push_back(out.results);
    } else {
      ++t->inserts;
      t->acked_vectors.Append(op.vector);
      t->acked_ids.push_back(op.global_id);
    }
  }
}

/// Ops [begin, end) of a paced schedule, with arrivals rebased to 0.
std::vector<WorkloadOp> Slice(const std::vector<WorkloadOp>& ops, size_t begin, size_t end) {
  std::vector<WorkloadOp> slice(ops.begin() + static_cast<std::ptrdiff_t>(begin),
                                ops.begin() + static_cast<std::ptrdiff_t>(end));
  const uint64_t origin = slice.empty() ? 0 : slice.front().arrival_ns;
  for (WorkloadOp& op : slice) op.arrival_ns -= origin;
  return slice;
}

/// Median over the paced windows of each window's `pct` percentile, so a
/// burst of host contention shorter than half the run moves it little.
double WindowedPercentile(const std::vector<std::vector<double>>& windows, double pct) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Percentile(w, pct));
  }
  return Median(per_window);
}

/// Post-compaction checks of the write workload: every acked insert is
/// found by a self-query, and recall@k over base plus acked inserts.
void VerifyAfterCompaction(const Params& p, const Inputs& in, dhnsw::DhnswEngine& engine,
                           const Tally& t, uint32_t id_limit, Report* report) {
  // Self-queries go to a node that scans its routed clusters exactly, so a
  // miss means the record is gone, not that a graph search passed it by.
  dhnsw::ComputeOptions exact = MakeConfig(p).compute;
  exact.sub_search = dhnsw::SubSearchMode::kFlatScan;
  dhnsw::ComputeNode verifier(&engine.fabric(), engine.memory_handle(), exact, "verifier");
  verifier.AttachReplicaManager(engine.replication());
  const dhnsw::Status connected = verifier.Connect();
  if (!connected.ok()) {
    report->Violation("verifier connect failed: " + connected.ToString());
    return;
  }
  uint64_t missing = 0, unknown = 0;
  for (size_t begin = 0; begin < t.acked_ids.size(); begin += kBatch) {
    const size_t count = std::min<size_t>(kBatch, t.acked_ids.size() - begin);
    auto run = verifier.SearchBatch(t.acked_vectors, begin, count, kK, kEf);
    if (!run.ok()) {
      report->Violation("self-query batch failed: " + run.status().ToString());
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      const auto& found = run.value().results[i];
      const uint32_t id = t.acked_ids[begin + i];
      if (std::none_of(found.begin(), found.end(),
                       [id](const dhnsw::Scored& s) { return s.id == id; })) {
        ++missing;
      }
    }
  }
  if (missing > 0) {
    report->Violation(std::to_string(missing) + " of " + std::to_string(t.acked_ids.size()) +
                      " acked inserts not returned by a self-query after compaction");
  }

  dhnsw::ComputeNode& node = engine.compute(0);
  const size_t nq = std::min(kVerifyQueries, t.search_vectors.size());
  VectorSet queries(kDim);
  for (size_t i = 0; i < nq; ++i) queries.Append(t.search_vectors[i]);
  auto run = node.SearchAll(queries, kK, kEf);
  if (!run.ok()) {
    report->Violation("verification batch failed: " + run.status().ToString());
    return;
  }
  for (const auto& found : run.value().results) {
    for (const dhnsw::Scored& s : found) unknown += s.id >= id_limit ? 1 : 0;
  }
  if (unknown > 0) {
    report->Violation(std::to_string(unknown) + " post-compaction results name ids never inserted");
  }
  VectorSet data = in.base;
  std::vector<uint32_t> ids(in.base.size());
  std::iota(ids.begin(), ids.end(), 0u);
  for (size_t i = 0; i < t.acked_ids.size(); ++i) {
    data.Append(t.acked_vectors[i]);
    ids.push_back(t.acked_ids[i]);
  }
  report->end_to_end.Add(
      "recall_at_10",
      RecallAgainstExact(std::move(data), ids, std::move(queries), run.value().results, p.cpus),
      "share");
}

}  // namespace

void RunPoolWorkload(const Params& p, Report* report) {
  Inputs in = MakeInputs();
  const bool writes = p.read_share < 1.0;
  const size_t paced_ops = std::max<size_t>(1, static_cast<size_t>(p.rate_qps * p.seconds));
  const std::vector<WorkloadOp> warm =
      Generate(in.base, ScheduleOptions(p, 0, kWarmupOps, 1.0, kBase));
  const std::vector<WorkloadOp> paced =
      Generate(in.base, ScheduleOptions(p, 1, paced_ops, p.read_share, kBase));
  const uint32_t drain_first_id = kBase + static_cast<uint32_t>(CountInserts(paced));
  const std::vector<WorkloadOp> drain =
      Generate(in.base, ScheduleOptions(p, 2, kDrainOps, p.read_share, drain_first_id));
  const uint32_t id_limit = drain_first_id + static_cast<uint32_t>(CountInserts(drain));
  if (!p.dump_inputs.empty()) {
    std::string bytes;
    AppendBytes(in.base, &bytes);
    AppendBytes(warm, &bytes);
    AppendBytes(paced, &bytes);
    AppendBytes(drain, &bytes);
    WriteDump(p.dump_inputs, bytes, report);
    return;
  }

  std::unique_ptr<dhnsw::DhnswEngine> engine = SetUp(p, in, report);
  if (engine == nullptr) return;
  const std::vector<dhnsw::ComputeNode*> nodes = engine->compute_nodes();
  CaptureEnv(p, *engine, nodes.size() + 1, report);  // lanes + dispatcher

  // Warm-up (searches only, not counted): starts lanes, fills caches.
  {
    ComputePool pool(nodes, PoolOptions(dhnsw::DispatchPolicy::kLeastAssigned));
    const dhnsw::PoolRunStats s = pool.Run(warm, PoolRunMode::kDrain);
    if (s.failed + s.dropped() > 0) report->Violation("warm-up ops failed");
  }

  // Paced phase at the fixed offered rate. A traced run paces the schedule
  // in kTraceSlices consecutive slices with the library's trace buffers on
  // for every other one, so traced and untraced ops interleave in time and
  // the overhead is not confounded with drift (overflow growth, cache
  // warming) over the run.
  Tally t;
  t.search_vectors = VectorSet(kDim);
  t.acked_vectors = VectorSet(kDim);
  const Counters before = Counters::Take(*engine);
  std::vector<uint64_t> per_node_ops(nodes.size(), 0);
  double dispatch_lag_ms = 0.0, overhead = 0.0;
  {
    ComputePool pool(nodes, PoolOptions(dhnsw::DispatchPolicy::kLeastLoaded));
    const size_t slices = p.trace ? kTraceSlices : 1;
    std::vector<double> untraced_ms, traced_ms;
    for (size_t i = 0; i < slices; ++i) {
      const bool traced = i % 2 == 1;
      const size_t first = paced.size() * i / slices;
      const std::vector<WorkloadOp> ops = Slice(paced, first, paced.size() * (i + 1) / slices);
      if (p.trace) {
        engine->EnableTracing(traced ? kTraceEvents : 0);
        pool.EnableTracing(traced ? kTraceEvents : 0);
      }
      std::vector<OpOutcome> outcomes;
      const dhnsw::PoolRunStats s = pool.Run(ops, PoolRunMode::kPaced, &outcomes);
      const size_t searches_before = t.search_ms.size();
      Account(ops, outcomes, id_limit, PacedPosition{first, paced.size()}, &t, report);
      std::vector<double>& into = traced ? traced_ms : untraced_ms;
      into.insert(into.end(), t.search_ms.begin() + static_cast<std::ptrdiff_t>(searches_before),
                  t.search_ms.end());
      for (size_t n = 0; n < nodes.size(); ++n) per_node_ops[n] += s.per_node_ops[n];
      const double span_ms = ops.empty() ? 0.0 : static_cast<double>(ops.back().arrival_ns) / 1e6;
      dispatch_lag_ms = std::max(dispatch_lag_ms, s.wall_seconds * 1e3 - span_ms);
    }
    if (p.trace) {
      engine->EnableTracing(0);
      pool.EnableTracing(0);
      overhead = Median(traced_ms) / Median(untraced_ms) - 1.0;
    }
  }
  const Counters after = Counters::Take(*engine);
  const uint64_t paced_inserts = t.inserts;

  // Drain passes: saturation throughput over a second schedule of the same
  // mix, cut into kDrainPasses consecutive slices; the median slice is
  // reported, so one disturbed slice does not move the figure. Short queues
  // and least-loaded dispatch keep every lane busy to the end of a slice.
  std::vector<double> pass_qps;
  {
    dhnsw::ComputePoolOptions options = PoolOptions(dhnsw::DispatchPolicy::kLeastLoaded);
    options.admission.node_queue_capacity = kDrainQueueDepth;
    ComputePool pool(nodes, options);
    for (size_t i = 0; i < kDrainPasses; ++i) {
      const auto begin =
          drain.begin() + static_cast<std::ptrdiff_t>(drain.size() * i / kDrainPasses);
      const auto end =
          drain.begin() + static_cast<std::ptrdiff_t>(drain.size() * (i + 1) / kDrainPasses);
      const std::vector<WorkloadOp> slice(begin, end);
      std::vector<OpOutcome> outcomes;
      pass_qps.push_back(pool.Run(slice, PoolRunMode::kDrain, &outcomes).achieved_qps);
      Account(slice, outcomes, id_limit, std::nullopt, &t, report);
    }
  }
  if (t.unknown_ids > 0) {
    report->Violation(std::to_string(t.unknown_ids) + " search results name ids never inserted");
  }

  MetricList& e = report->end_to_end;
  e.Add("search_p50_ms", WindowedPercentile(t.search_windows, 50.0), "ms");
  e.Add("search_p90_ms", WindowedPercentile(t.search_windows, 90.0), "ms");
  e.Add("search_p99_ms", Percentile(t.search_ms, 99.0), "ms");
  e.Add("capacity_qps", Median(pass_qps), "1/s");
  MetricList& l = report->layers;
  if (writes) {
    e.Add("insert_p50_ms", Median(t.insert_ms), "ms");
    e.Add("insert_p99_ms", Percentile(t.insert_ms, 99.0), "ms");
    const Counters pre = Counters::Take(*engine);
    const dhnsw::WallTimer timer;
    auto compacted = engine->Compact();
    const double compact_s = static_cast<double>(timer.elapsed_ns()) / 1e9;
    if (!compacted.ok()) {
      report->Violation("Compact failed: " + compacted.status().ToString());
      return;
    }
    const Counters post = Counters::Take(*engine);
    if (compacted.value().live_records_folded < t.acked_ids.size()) {
      report->Violation("compaction folded " +
                        std::to_string(compacted.value().live_records_folded) + " records for " +
                        std::to_string(t.acked_ids.size()) + " acked inserts");
    }
    e.Add("compact_s", compact_s, "s");
    l.Add("compactor.records_folded", compacted.value().live_records_folded, "count");
    l.Add("compactor.bytes_read", static_cast<double>(compacted.value().bytes_read), "bytes");
    report->pool_layers.Add("compactor.run_ms",
                            post.SumDelta(pre, "dhnsw_compaction_run_us") / 1e3, "ms");
    VerifyAfterCompaction(p, in, *engine, t, id_limit, report);
  } else {
    l.Add("compactor.records_folded", 0.0, "count");
    l.Add("compactor.bytes_read", 0.0, "bytes");
    e.Add("recall_at_10",
          RecallAgainstExact(std::move(in.base), {}, t.search_vectors, t.search_results, p.cpus),
          "share");
  }

  MetricList& pl = report->pool_layers;
  pl.Add("compute_pool.queue_wait_p50_ms", Median(t.queue_ms), "ms");
  pl.Add("compute_pool.queue_wait_p99_ms", Percentile(t.queue_ms, 99.0), "ms");
  pl.Add("compute_pool.service_p50_ms", Median(t.service_ms), "ms");
  pl.Add("compute_pool.dispatch_lag_ms", dispatch_lag_ms, "ms");
  const double total_ops =
      static_cast<double>(std::accumulate(per_node_ops.begin(), per_node_ops.end(), uint64_t{0}));
  const double max_ops =
      static_cast<double>(*std::max_element(per_node_ops.begin(), per_node_ops.end()));
  l.Add("compute_pool.node_imbalance",
        total_ops > 0.0 ? max_ops / (total_ops / static_cast<double>(nodes.size())) : 0.0,
        "ratio");
  l.Add("base.ops", total_ops, "count");
  l.Add("trace.overhead_share", overhead, "share");
  ReportCounterLayers(before, after, paced_inserts, report);

  if (p.trace) {
    const size_t nq = std::min<size_t>(kReplayOps, t.search_vectors.size());
    VectorSet queries(kDim);
    for (size_t i = 0; i < nq; ++i) queries.Append(t.search_vectors[i]);
    ReplayLayers(p, *engine, queries, report);
    ReplayPerOpBreakdown(p, *engine, queries, report);
  }
}

}  // namespace perfbench
