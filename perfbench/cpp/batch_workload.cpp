// batch_sift: the paper's §3.3 path. One closed-loop client sends
// consecutive SearchBatch calls of fresh queries to one ComputeNode.
#include "common/timer.h"
#include "harness.h"

namespace perfbench {

namespace {

/// Query-batch stream index of the untimed warm-up batch.
constexpr uint64_t kWarmupBatch = uint64_t{1} << 40;
/// Batches written by the input dump.
constexpr uint64_t kDumpBatches = 4;

}  // namespace

void RunBatchSift(const Params& p, Report* report) {
  Inputs in = MakeInputs();
  if (!p.dump_inputs.empty()) {
    std::string bytes;
    AppendBytes(in.base, &bytes);
    for (uint64_t j = 0; j < kDumpBatches; ++j) {
      AppendBytes(MakeQueryBatch(p, in, j, kBatch), &bytes);
    }
    WriteDump(p.dump_inputs, bytes, report);
    return;
  }

  std::unique_ptr<dhnsw::DhnswEngine> engine = SetUp(p, in, report);
  if (engine == nullptr) return;
  dhnsw::ComputeNode& node = engine->compute(0);
  CaptureEnv(p, *engine, p.search_threads(), report);

  // Warm-up: starts the search pool and fills the cluster cache.
  {
    const dhnsw::VectorSet warm = MakeQueryBatch(p, in, kWarmupBatch, kBatch);
    auto run = node.SearchAll(warm, kK, kEf);
    if (!run.ok()) {
      report->Violation("warm-up batch failed: " + run.status().ToString());
      return;
    }
  }

  // Timed phase. A traced run alternates untraced and traced batches (the
  // library's own trace buffers on), so the overhead is a paired difference.
  const Counters before = Counters::Take(*engine);
  std::vector<double> untraced_ms, traced_ms;
  dhnsw::BatchBreakdown total;
  dhnsw::VectorSet scored(kDim);
  std::vector<std::vector<dhnsw::Scored>> scored_results;
  uint64_t batches = 0, untraced_queries = 0;
  const dhnsw::WallTimer phase;
  while (phase.elapsed_ns() < static_cast<uint64_t>(p.seconds * 1e9)) {
    const dhnsw::VectorSet queries = MakeQueryBatch(p, in, batches, kBatch);
    const bool traced = p.trace && batches % 2 == 1;
    if (p.trace) {
      engine->EnableTracing(traced ? kTraceEvents : 0);
    }
    const dhnsw::WallTimer timer;
    auto run = node.SearchAll(queries, kK, kEf);
    const double ms = timer.elapsed_ms();
    ++batches;
    report->submitted += queries.size();
    if (!run.ok()) {
      report->failed += queries.size();
      report->Violation("SearchBatch failed: " + run.status().ToString());
      break;
    }
    const dhnsw::BatchResult& result = run.value();
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (!traced) untraced_queries += queries.size();
    total += result.breakdown;
    for (const dhnsw::Status& st : result.statuses) {
      if (!st.ok()) ++report->failed;
    }
    for (size_t i = 0; i < queries.size(); i += kRecallStride) {
      scored.Append(queries[i]);
      scored_results.push_back(result.results[i]);
    }
  }
  const Counters after = Counters::Take(*engine);
  if (p.trace) engine->EnableTracing(0);

  double untraced_s = 0.0;
  for (const double ms : untraced_ms) untraced_s += ms / 1e3;
  const double recall =
      RecallAgainstExact(std::move(in.base), {}, std::move(scored), scored_results, p.cpus);

  MetricList& e = report->end_to_end;
  e.Add("recall_at_10", recall, "share");
  e.Add("batch_qps", untraced_s > 0.0 ? static_cast<double>(untraced_queries) / untraced_s : 0.0,
        "1/s");
  e.Add("batch_p50_ms", Median(untraced_ms), "ms");
  // About a hundred batches per run: p90 is the highest percentile with ten
  // samples beyond it.
  e.Add("batch_p90_ms", Percentile(untraced_ms, 90.0), "ms");

  MetricList& l = report->layers;
  const double n = static_cast<double>(batches);
  l.Add("compute_node.meta_ms", total.meta_us / 1e3 / n, "ms");
  l.Add("compute_node.decode_ms", total.deserialize_us / 1e3 / n, "ms");
  l.Add("compute_node.sub_ms", total.sub_us / 1e3 / n, "ms");
  l.Add("base.breakdown_batches", n, "count");
  l.Add("compute_pool.node_imbalance", 1.0, "ratio");  // one node serves every batch
  l.Add("base.ops", n, "count");
  l.Add("trace.overhead_share",
        p.trace && !traced_ms.empty() ? Median(traced_ms) / Median(untraced_ms) - 1.0 : 0.0,
        "share");
  ReportCounterLayers(before, after, 0, report);
  // No inserts and no compaction in this workload: the counts are zero.
  l.Add("compactor.records_folded", 0.0, "count");
  l.Add("compactor.bytes_read", 0.0, "bytes");
  if (p.trace) ReplayLayers(p, *engine, MakeQueryBatch(p, in, 0, kBatch), report);
}

}  // namespace perfbench
