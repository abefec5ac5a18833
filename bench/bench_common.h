// Shared harness for the paper-reproduction benches (Fig. 6, Tables 1-2, and
// the ablations). Each bench binary is a thin main() over these helpers so
// that dataset shaping, engine configuration, and table formatting stay
// consistent across experiments.
//
// Scale note: the paper runs SIFT1M/GIST1M on four 2x36-core servers; these
// benches default to a laptop-scale stand-in (tens of thousands of vectors)
// with the same dimensionality and clustered structure. Flags let you raise
// the scale or point at real .fvecs files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/compute_node.h"
#include "core/engine.h"
#include "dataset/dataset.h"

namespace dhnsw::bench {

/// Which paper dataset a bench imitates.
enum class Workload { kSiftLike, kGistLike };

struct BenchConfig {
  Workload workload = Workload::kSiftLike;
  uint32_t num_base = 20000;
  uint32_t num_queries = 2000;   ///< == the paper's batch size of 2000
  uint32_t num_representatives = 50;
  uint32_t clusters_per_query = 4;   ///< b
  double cache_fraction = 0.10;      ///< paper: cache holds 10% of clusters
  uint32_t doorbell_batch = 16;
  uint32_t sub_m = 8;
  uint32_t ef_construction = 40;
  uint32_t gt_k = 10;
  uint64_t seed = 20250706;
  /// Optional real dataset files (.fvecs); override the synthetic generator.
  std::string base_path;
  std::string query_path;

  static BenchConfig ForWorkload(Workload w);
};

/// Parses "--key=value" style args into the config (unknown keys are fatal).
BenchConfig ParseFlags(int argc, char** argv, BenchConfig defaults);

/// Builds the dataset (synthetic by default, .fvecs when paths are given)
/// with exact ground truth at config.gt_k.
Dataset LoadDataset(const BenchConfig& config);

/// Builds the full d-HNSW system for the dataset. Its compute nodes walk
/// the sub-HNSWs (SubSearchMode::kGraph), the paper's search.
DhnswEngine BuildEngine(const Dataset& ds, const BenchConfig& config);

/// Fresh compute node in the given mode, attached to the engine's fabric,
/// walking the sub-HNSWs like BuildEngine's.
std::unique_ptr<ComputeNode> AttachComputeNode(DhnswEngine& engine,
                                               const BenchConfig& config,
                                               EngineMode mode);

/// One row of a latency-recall sweep.
struct SweepPoint {
  uint32_t ef_search;
  double recall;
  double latency_us_per_query;  ///< network + meta + sub + deserialize
  BatchBreakdown breakdown;
};

/// Runs one (mode, efSearch) measurement over the full query set as a single
/// batch (the paper's batch size) and computes recall@k.
SweepPoint RunPoint(ComputeNode& node, const Dataset& ds, size_t k, uint32_t ef);

/// Pretty-prints a latency-recall table for one scheme.
void PrintSweep(const std::string& scheme, const std::vector<SweepPoint>& points);

/// Standard efSearch sweep used by all Fig. 6 reproductions.
std::vector<uint32_t> DefaultEfSweep();

/// Human-readable bytes.
std::string FormatBytes(uint64_t bytes);

/// Minimal JSON emitter for machine-readable bench output (CI archives one
/// file per commit). Each row is a flat object of string labels and numeric
/// fields; Dump() renders `{"benchmarks": [...]}`.
class JsonWriter {
 public:
  /// Starts a new row named `name` (becomes the row's "name" label).
  JsonWriter& Row(const std::string& name);
  JsonWriter& Label(const std::string& key, const std::string& value);
  JsonWriter& Field(const std::string& key, double value);

  std::string Dump() const;
  /// Writes Dump() to `path`; returns false (with a perror) on failure.
  bool WriteFile(const std::string& path) const;

 private:
  struct RowData {
    std::vector<std::pair<std::string, std::string>> labels;
    std::vector<std::pair<std::string, double>> fields;
  };
  std::vector<RowData> rows_;
};

/// Stamps the engine's NIC cost-model provenance onto a bench JSON row:
/// `nic_source` ("connectx6-datasheet" by default, "calibrated-<backend>"
/// after `dhnsw_cli calibrate`) and the `transport` backend that produced
/// the numbers. Archived artifacts then record which cost model they were
/// measured under. Returns the row for further chaining.
JsonWriter& LabelNic(JsonWriter& row, DhnswEngine& engine);

/// Runs a whole Fig.6-style experiment: 3 schemes x ef sweep; prints tables
/// and the headline speedup (naive vs d-HNSW at the largest ef).
void RunLatencyRecallFigure(const std::string& title, const BenchConfig& config, size_t k);

/// Runs a Table 1/2-style breakdown at efSearch=48, top-1, for all schemes.
void RunBreakdownTable(const std::string& title, const BenchConfig& config);

}  // namespace dhnsw::bench
