// Shared pieces of the benchmark harness: run parameters, seeded inputs, the
// metric report, engine set-up, and the exact ground truth used for recall.
//
// The harness only calls the library's public API. Inputs are made here from
// the run's seed; the library receives nothing but the generated vectors and
// schedules.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/topk.h"
#include "core/compute_pool.h"
#include "core/engine.h"
#include "core/workload_gen.h"
#include "dataset/dataset.h"
#include "telemetry/metrics.h"

namespace perfbench {

/// Sizing every workload shares (README.md, "Inputs").
constexpr uint32_t kBase = 50000;          ///< corpus vectors
constexpr uint32_t kDim = 128;
constexpr uint32_t kGenClusters = 120;     ///< generating Gaussian clusters
constexpr uint32_t kPartitions = 100;      ///< meta-HNSW representatives
constexpr uint32_t kSubM = 8;
constexpr uint32_t kEfConstruction = 40;
constexpr uint32_t kB = 4;                 ///< clusters searched per query
constexpr uint32_t kCacheClusters = 10;    ///< 10% of the partitions
constexpr uint32_t kEf = 32;
constexpr uint32_t kK = 10;
constexpr uint32_t kBatch = 2000;          ///< the paper's batch size
constexpr uint32_t kSetupBuilds = 5;       ///< builds behind setup_s
constexpr double kZipf = 1.1;              ///< topic skew of the schedules
constexpr uint32_t kTopics = 32;
constexpr uint32_t kRecallStride = 20;     ///< batch workload: every n-th query scored
constexpr uint32_t kReplayOps = 500;       ///< traced replays: searches replayed
constexpr uint32_t kWarmupOps = 300;       ///< pool warm-up searches
constexpr uint32_t kDrainOps = 3000;       ///< drain-pass ops, in kDrainPasses slices
constexpr uint32_t kDrainPasses = 5;
/// Trace events reserved per buffer while the library's tracing is on.
constexpr size_t kTraceEvents = size_t{1} << 16;
/// Traced pool runs: paced slices, traced on every other one.
constexpr size_t kTraceSlices = 10;
/// Pool workloads: consecutive windows of the paced schedule whose search
/// percentiles are reported as their median.
constexpr size_t kLatencyWindows = 5;

/// Everything a run is told. The knobs that differ between workloads arrive
/// as `--key=value` flags from perfbench/workloads.json (see run.py).
struct Params {
  std::string workload;
  std::string kind;              ///< "batch" (closed loop) or "pool" (open loop)
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// When non-empty: write the generated inputs to this file and exit.
  std::string dump_inputs;

  std::string transport = "sim";
  uint32_t nodes = 1;            ///< compute nodes
  double rate_qps = 0.0;         ///< fixed open-loop offered rate
  double read_share = 1.0;       ///< searches / ops in the schedule
  uint32_t replication = 1;

  size_t cpus = 1;               ///< CPUs this process may run on
  /// Sub-search threads per node: every CPU for the one batch node, one per
  /// lane in a pool.
  size_t search_threads() const { return kind == "batch" ? cpus : 1; }
};

/// Parses argv; returns an error message or "" on success.
std::string ParseParams(int argc, char** argv, Params* p);

/// Ordered name -> (value, unit) list with a JSON rendering.
struct MetricList {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;
  void Add(std::string name, double value, std::string unit) {
    entries.push_back({std::move(name), value, std::move(unit)});
  }
  std::string ToJson() const;
};

/// What one run hands back to run.py as a single JSON line.
struct Report {
  MetricList end_to_end;   ///< the workload's own end-to-end names
  MetricList layers;       ///< per-layer metrics and their bases
  MetricList pool_layers;  ///< pool/compactor timings (only where they exist)
  std::vector<std::pair<std::string, std::string>> env;
  uint64_t submitted = 0;
  uint64_t failed = 0;           ///< executed with an error (not refused)
  uint64_t dropped = 0;          ///< refused at admission
  uint64_t refused_inserts = 0;  ///< inserts refused for lack of overflow space
  std::vector<std::string> violations;
  std::vector<double> setup_walls;  ///< seconds per DhnswEngine::Build
  double provisions = 0.0;          ///< MemoryNode::Provision calls in those builds
  double provision_us = 0.0;        ///< and their summed time

  void Violation(std::string what) { violations.push_back(std::move(what)); }
  std::string ToJson() const;
};

/// --- seeded inputs --------------------------------------------------------

/// SIFT-like base set: `gen_clusters` Gaussian clusters, rows in
/// cluster-major order so the schedule generator's topics (contiguous row
/// slices) line up with regions of the space. The corpus does not depend on
/// the seed; queries, schedules and inserts do.
struct Inputs {
  dhnsw::VectorSet base;
  std::vector<float> centers;
};
Inputs MakeInputs();

/// Fresh queries for batch `index`, drawn from the same clusters.
dhnsw::VectorSet MakeQueryBatch(const Params& p, const Inputs& in, uint64_t index,
                                size_t count);

/// Open-loop schedule `stream` (0 = warm-up, 1 = paced, 2 = drain).
dhnsw::WorkloadGenOptions ScheduleOptions(const Params& p, uint64_t stream,
                                          size_t num_ops, double read_share,
                                          uint32_t first_insert_id);

/// Raw little-endian bytes of vectors / schedules, for the input dump.
void AppendBytes(const dhnsw::VectorSet& v, std::string* out);
void AppendBytes(const std::vector<dhnsw::WorkloadOp>& ops, std::string* out);
/// Writes the input dump; a failure is recorded as a violation.
void WriteDump(const std::string& path, const std::string& bytes, Report* report);

/// --- engine set-up ---------------------------------------------------------

dhnsw::DhnswConfig MakeConfig(const Params& p);

/// Builds the engine the workload runs on (one timed build).
std::unique_ptr<dhnsw::DhnswEngine> SetUp(const Params& p, const Inputs& in,
                                          Report* report);
/// After the workload and its engine are gone: repeats the build up to
/// kSetupBuilds times and reports setup_s (the median build wall time) and
/// memory_node.provision_ms (from the library's provisioning histogram).
/// Repeating after the workload keeps peak_rss_mb at one engine's footprint.
/// A run with violations makes no repeats but still reports both figures
/// from the builds it made.
void FinishSetUp(const Params& p, Report* report);

/// Environment the result depends on: CPUs, kernel tier, transport, NIC
/// model source, threads.
void CaptureEnv(const Params& p, dhnsw::DhnswEngine& engine, size_t busy_threads,
                Report* report);

/// --- measurement helpers -----------------------------------------------------

double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);

/// Mean recall@kK of `found` (one list per query) against exact search over
/// `data`, whose row i has global id ids[i] (ids empty: the row index), using
/// the library's own ground truth and recall.
double RecallAgainstExact(dhnsw::VectorSet data, const std::vector<uint32_t>& ids,
                          dhnsw::VectorSet queries,
                          const std::vector<std::vector<dhnsw::Scored>>& found, size_t threads);

/// Library instruments read before and after a phase.
struct Counters {
  dhnsw::telemetry::MetricsSnapshot snap;
  dhnsw::rdma::QpStats qp;  ///< summed over the engine's compute nodes
  static Counters Take(dhnsw::DhnswEngine& engine);
  /// Counter / histogram-count delta of `name` since `before`.
  double Delta(const Counters& before, const char* name) const;
  /// Histogram-sum delta of `name` since `before`.
  double SumDelta(const Counters& before, const char* name) const;
};

/// Per-layer metrics every workload reports from counter deltas over its
/// timed phase: scheduler, cache, fabric and replication. `inserts` are the
/// inserts the phase executed.
void ReportCounterLayers(const Counters& before, const Counters& after,
                         uint64_t inserts, Report* report);

/// Traced-run replays (layer_replays.cpp): routing, cluster READ rings, CRC,
/// decode and sub-search, timed from here over this workload's queries.
void ReplayLayers(const Params& p, dhnsw::DhnswEngine& engine,
                  const dhnsw::VectorSet& queries, Report* report);
/// Pool workloads: per-op meta / decode / sub-search milliseconds, from
/// replaying the queries one op each on a fresh node.
void ReplayPerOpBreakdown(const Params& p, dhnsw::DhnswEngine& engine,
                          const dhnsw::VectorSet& queries, Report* report);

/// Workloads.
void RunBatchSift(const Params& p, Report* report);
void RunPoolWorkload(const Params& p, Report* report);

}  // namespace perfbench
