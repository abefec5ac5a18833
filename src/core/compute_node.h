// A compute instance: the active side of d-HNSW.
//
// Holds the cached meta-HNSW, a small LRU cluster cache, and a queue pair to
// the memory node. Serves batched top-k queries (paper §3.1-3.3) and dynamic
// inserts (§3.2's overflow protocol). All remote access is one-sided.
//
// The three evaluation modes of the paper map to `EngineMode`:
//   kNaive      — baseline (1): one RDMA READ round trip per (query, cluster)
//                 pair; no cluster cache, no batch dedup, no doorbell.
//   kNoDoorbell — baseline (2): meta caching + query-aware dedup + cache, but
//                 each cluster load is its own round trip.
//   kFull       — d-HNSW: additionally coalesces loads into doorbell batches.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/lru_cache.h"
#include "common/thread_pool.h"
#include "common/retry_policy.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/topk.h"
#include "core/batch_scheduler.h"
#include "core/memory_layout.h"
#include "core/memory_node.h"
#include "core/meta_hnsw.h"
#include "core/replication.h"
#include "rdma/queue_pair.h"
#include "serialize/cluster_blob.h"
#include "serialize/overflow.h"
#include "telemetry/trace.h"

namespace dhnsw {

enum class EngineMode : uint8_t { kNaive = 0, kNoDoorbell = 1, kFull = 2 };

std::string_view EngineModeName(EngineMode mode) noexcept;

/// How a loaded cluster is searched on the compute side.
enum class SubSearchMode : uint8_t {
  kGraph = 0,     ///< sub-HNSW greedy search with efSearch (the paper)
  kFlatScan = 1,  ///< exact linear scan of the cluster's vectors — the
                  ///< "d-IVF" ablation isolating the graph's contribution
  kAuto = 2,      ///< per cluster by row count: a cluster of at most
                  ///< kAutoScanRowsPerEf x efSearch rows is scanned
                  ///< exactly, a larger one walks its sub-HNSW
};

/// kAuto's crossover, in rows of a cluster's base blob per unit of efSearch
/// (768 rows at ef 32; overflow records are scanned in every mode). A9
/// (`bench_ablation_subsearch`, EXPERIMENTS.md) timed every searched item
/// by its cluster's rows on a 4-vCPU AVX-512 Xeon at 128-d: a single
/// query's exact scan costs as much as its graph walk near 22 rows per ef
/// (about 700 rows at ef 32, 2,500 at ef 128), and a batch's cluster-major
/// scan keeps winning to about twice that. The rule reads only the cluster
/// and the call's ef, so a query's answer never depends on its batch.
inline constexpr uint32_t kAutoScanRowsPerEf = 24;

/// The prefetch rule's threshold (DESIGN.md §10): at pipeline_depth >= 2,
/// wave w+1's first load round goes to the prefetch worker only when wave w
/// has at least this many work items to search meanwhile; behind a smaller
/// wave, and for wave 0, the round runs inline. `bench_throughput`'s
/// batch-size axis (EXPERIMENTS.md, "Prefetch crossover") swept warm-cache
/// batches on a 4-vCPU AVX-512 Xeon with every wave but wave 0 prefetched,
/// 3 runs x {1, 4} threads: depth 2 lost to depth 1 in all 12 cells at 1
/// and 4 queries per batch (2.5 and 4.6 items per wave), won 2 of 6 at 16
/// (9.8 items per wave), and won 6 of 6 at 64 (26.6 items per wave).
inline constexpr size_t kPrefetchMinItems = 16;

struct ComputeOptions {
  EngineMode mode = EngineMode::kFull;
  uint32_t clusters_per_query = 2;  ///< b: sub-HNSWs searched per query
  uint32_t cache_capacity = 8;      ///< c: clusters the DRAM cache holds
  uint32_t doorbell_batch = 16;     ///< D: max READ WRs coalesced per ring
  uint32_t ef_meta = 32;            ///< ef for meta-HNSW routing
  /// Intra-instance parallelism of SearchBatch: the route stage (meta-HNSW
  /// descent) and the sub-searches run on a node-owned pool of this many
  /// threads. 1 runs both inline on the caller and never starts the pool.
  size_t search_threads = 1;
  /// Pipelined wave execution (DESIGN.md §10): 0/1 runs waves sequentially
  /// (load wave N, then search it — the seed behaviour) and prefetches
  /// nothing; >= 2 double-buffers the executor behind every wave of at
  /// least kPrefetchMinItems work items — while that wave's sub-searches
  /// run, the next wave's deduped cluster READs are already posted and
  /// draining on the prefetch worker, and are reaped when the wave
  /// finishes. Wave 0, and a wave behind a smaller one, loads inline at its
  /// own turn, so a batch of small waves (every single-query op) runs
  /// exactly as at depth 1 and never starts the prefetch worker. The
  /// implementation keeps exactly one wave in flight ahead (deeper depths
  /// are clamped to that). Results, per-query statuses, cache contents,
  /// retry/fencing semantics, and the simulated timeline are bit-identical
  /// to the sequential path (tests/test_pipeline.cpp); only wall-clock time
  /// changes. kNaive mode has no wave structure to overlap and ignores it.
  uint32_t pipeline_depth = 2;
  /// Graph search (the paper), exact per-cluster scan (IVF-style ablation),
  /// or the per-cluster choice by row count.
  SubSearchMode sub_search = SubSearchMode::kAuto;
  HnswOptions sub_hnsw_template;    ///< decode-side options (metric etc.)
  /// Retry/backoff applied to every fabric operation (cluster loads,
  /// metadata refresh, insert rings). Disabled by default: fault-free
  /// deployments keep byte-identical behaviour and simulated timing.
  RetryPolicy retry;
  /// Graceful degradation: when true, a batch whose cluster loads
  /// permanently fail returns partial results — affected queries keep
  /// whatever they found elsewhere and carry a non-OK per-query status in
  /// BatchResult::statuses — instead of failing the whole batch. When false
  /// (default) the first unrecovered error fails the batch, the seed
  /// behaviour.
  bool partial_results = false;
};

/// Per-batch latency/traffic attribution — the paper's Table 1/2 columns
/// plus the round-trip counts quoted in §4.
struct BatchBreakdown {
  double network_us = 0.0;      ///< simulated fabric time
  double meta_us = 0.0;         ///< meta-HNSW (cache) computation, wall time
  double sub_us = 0.0;          ///< sub-HNSW search on loaded data, wall time
  double deserialize_us = 0.0;  ///< blob parse + overflow decode, wall time
  uint64_t round_trips = 0;
  uint64_t bytes_read = 0;
  uint64_t clusters_loaded = 0;
  uint64_t cache_hits = 0;
  uint64_t retries = 0;          ///< fabric ops re-issued after a failure
  uint64_t failed_loads = 0;     ///< cluster loads abandoned after retries
  uint64_t backoff_ns = 0;       ///< simulated ns spent backing off
  uint64_t failovers = 0;        ///< replica failovers this batch triggered
  /// Wall ns of prefetch work (wave N+1 READ draining + decode) that ran
  /// concurrently with wave N's sub-searches instead of stalling the batch —
  /// the observable win of pipeline_depth >= 2. Zero for a batch that
  /// prefetched nothing: at depth 1, or when no wave but the last reached
  /// kPrefetchMinItems items. Wall-clock derived: it never feeds spans or
  /// the simulated timeline, which stay deterministic.
  uint64_t pipeline_overlap_ns = 0;
  size_t num_queries = 0;

  BatchBreakdown& operator+=(const BatchBreakdown& rhs) noexcept;
  double per_query_network_us() const { return Per(network_us); }
  double per_query_meta_us() const { return Per(meta_us); }
  double per_query_sub_us() const { return Per(sub_us); }
  double per_query_round_trips() const { return Per(static_cast<double>(round_trips)); }

 private:
  double Per(double v) const {
    return num_queries == 0 ? 0.0 : v / static_cast<double>(num_queries);
  }
};

struct BatchResult {
  /// results[i] = top-k (global ids) for query i, ascending distance.
  std::vector<std::vector<Scored>> results;
  /// statuses[i] = OK when query i saw every routed cluster; otherwise the
  /// first load failure that reduced its candidate set (partial_results
  /// mode). Same length as `results`.
  std::vector<Status> statuses;
  BatchBreakdown breakdown;
};

struct InsertReceipt {
  uint32_t partition = 0;
  uint64_t remote_offset = 0;  ///< where the record landed
};

class ComputeNode {
 public:
  ComputeNode(rdma::Fabric* fabric, MemoryNodeHandle memory, ComputeOptions options,
              std::string name = "compute-node");

  /// Bootstrap: fetches region header, meta-HNSW blob, and metadata table
  /// via RDMA. Must be called once before queries; resets stats afterwards.
  Status Connect();

  /// Re-attaches to a (possibly different) memory region — used after
  /// compaction re-provisions the layout. Drops all cached state.
  Status Reconnect(MemoryNodeHandle memory);

  bool connected() const noexcept { return meta_.has_value(); }
  const ComputeOptions& options() const noexcept { return options_; }
  ComputeOptions* mutable_options() noexcept { return &options_; }
  const MetaHnsw& meta() const { return *meta_; }
  uint32_t num_clusters() const noexcept { return header_.num_clusters; }
  uint32_t dim() const noexcept { return header_.dim; }

  /// Attaches the replica directory: every subsequent fabric access resolves
  /// its target through the manager's PrimaryRoute and stamps the slot epoch
  /// into the work request; failures feed the manager's failure detector and
  /// inserts fan out to every live replica. Pass nullptr to detach (accesses
  /// then go straight to the provisioning-time handle, unfenced — the
  /// single-replica seed behaviour). The manager must outlive this node.
  void AttachReplicaManager(ReplicaManager* manager) noexcept { replication_ = manager; }
  ReplicaManager* replica_manager() const noexcept { return replication_; }

  /// Searches queries [begin, begin+count) of `queries` for their top-k with
  /// the given sub-HNSW ef. One call == one batch (paper batch size 2000).
  /// `routes`, when not empty, holds each query's clusters as Route() gives
  /// them (one entry per query, best first); the batch then skips its route
  /// stage, so a caller that routed already does not route twice.
  Result<BatchResult> SearchBatch(const VectorSet& queries, size_t begin, size_t count,
                                  size_t k, uint32_t ef_search,
                                  std::span<const std::vector<uint32_t>> routes = {});

  /// The b clusters `query` routes to through the cached meta-HNSW, best
  /// first: what SearchBatch's route stage computes for it. Requires
  /// connected(). Const, so another thread may route while this node
  /// searches.
  std::vector<uint32_t> Route(std::span<const float> query) const;

  /// Whole-set convenience.
  Result<BatchResult> SearchAll(const VectorSet& queries, size_t k, uint32_t ef_search) {
    return SearchBatch(queries, 0, queries.size(), k, ef_search);
  }

  /// Inserts a vector under `global_id`: routes via the cached meta-HNSW,
  /// allocates overflow space with a remote FAA (validating the shared
  /// group budget), then writes the record with a single RDMA_WRITE.
  Result<InsertReceipt> Insert(std::span<const float> v, uint32_t global_id);

  /// Deletes `global_id` by appending a tombstone record to the partition
  /// that owns it. `v` must be the stored vector (routing key — d-HNSW has
  /// no id directory, matching the paper's design). Same cost as Insert.
  Result<InsertReceipt> Remove(std::span<const float> v, uint32_t global_id);

  /// Batched insertion: routes all vectors, groups them by partition, and
  /// appends each group through the same write path as Insert — a single
  /// FAA claims space for the WHOLE group, then doorbell-batched WRITEs.
  /// Round trips drop from 2 per vector to ~2 per touched partition — the
  /// write-path analogue of §3.3's query-aware batching. All-or-nothing per
  /// partition: a partition whose shared overflow cannot fit its group is
  /// rolled back and its vector indices are reported in `rejected`
  /// (Capacity), while other partitions' inserts proceed. Any other error
  /// fails the call, but groups appended before it stay stored.
  struct BatchInsertResult {
    uint32_t inserted = 0;
    std::vector<size_t> rejected;  ///< indices into the input batch
  };
  Result<BatchInsertResult> InsertBatch(const VectorSet& vectors,
                                        std::span<const uint32_t> global_ids);

  /// Re-reads the metadata table (1 round trip). SearchBatch does this
  /// automatically at batch start; exposed for tests.
  Status RefreshMetadata();

  /// Drops all cached clusters (not the meta-HNSW).
  void InvalidateCache();

  /// --- per-query tracing (see DESIGN.md "Telemetry subsystem") ---
  /// Reserves a bounded trace buffer of `capacity` events; 0 disables tracing.
  /// The reservation allocates now so that steady-state spans never do. Spans
  /// cover the whole query path: batch umbrella, disjoint "stage.*" phases,
  /// nested per-query / per-cluster / per-ring detail.
  void EnableTracing(size_t capacity) { trace_buffer_.Reserve(capacity); }
  const telemetry::TraceBuffer& trace() const noexcept { return trace_buffer_; }
  void ClearTrace() noexcept { trace_buffer_.Clear(); }

  const rdma::QpStats& qp_stats() const noexcept { return qp_.stats(); }
  const SimClock& clock() const noexcept { return clock_; }
  size_t cache_size() const noexcept { return cache_.size(); }
  /// Test hook: whether `cluster` is resident in the LRU cache (no LRU touch).
  bool IsCached(uint32_t cluster) const noexcept { return cache_.Contains(cluster); }
  uint64_t cache_hits() const noexcept { return cache_.hits(); }
  uint64_t cache_misses() const noexcept { return cache_.misses(); }
  const std::string& name() const noexcept { return name_; }

 private:
  /// A cluster resident in compute DRAM: the fetched blob and the view that
  /// searches it in place, plus overflow records (live inserts) and the set
  /// of tombstoned ids to suppress. The view points into `buffer`, so both
  /// live and die here.
  struct LoadedCluster {
    AlignedBuffer buffer;                      ///< the whole fetched range
    std::optional<ClusterView> view;
    std::vector<OverflowRecord> overflow;      ///< live records
    std::vector<uint32_t> tombstones;          ///< deleted global ids (sorted)
    /// Overflow bytes, in allocation order, before the first slot whose FAA
    /// had landed but whose WRITE had not when the copy was read: the copy
    /// holds every record the region's counter has handed out only while
    /// that counter still equals this.
    uint64_t committed_bytes = 0;

    bool IsDeleted(uint32_t global_id) const noexcept;
    /// Whether `mode` scans this cluster exactly at `ef` rather than
    /// walking it.
    bool Scanned(SubSearchMode mode, uint32_t ef) const noexcept;

    /// Sub-HNSW walk + overflow scan for one query, pushing *global* ids
    /// into `out`.
    void Walk(std::span<const float> q, size_t k, uint32_t ef, Metric metric,
              TopKHeap* out) const;
    /// The one exact scan: every live row and overflow record against each
    /// of `queries`, query i's candidates into heaps[i]. Rows stream in
    /// L1-sized blocks, each scored by the tile kernel kTileQueries queries
    /// at a time, so a block leaves L1 only after every query has seen it.
    void Scan(std::span<const float* const> queries, Metric metric,
              TopKHeap* const* heaps) const;

   private:
    void PushOverflow(const float* q, Metric metric, TopKHeap* out) const;
  };
  using LoadedClusterPtr = std::shared_ptr<const LoadedCluster>;
  /// (cluster, resident copy) pairs a load produced. Holding them keeps the
  /// clusters alive for a whole wave even if the cache evicts one.
  using FreshLoads = std::vector<std::pair<uint32_t, LoadedClusterPtr>>;

  /// One cluster's READ in a load round: a fresh buffer for the blob plus
  /// its used overflow, and the overflow counter snapshotted at post time.
  /// ExecuteRound fills in the outcome.
  struct PendingLoad {
    uint32_t cluster;
    AlignedBuffer buffer;
    uint64_t used_bytes = 0;
    /// The parsed cluster, or why its READ or its parse failed.
    Result<LoadedClusterPtr> parsed = Status::Internal("not executed");
    uint64_t parse_ns = 0;  ///< wall time of the parse
  };

  /// Turns one fetched load into a resident cluster: the buffer moves into
  /// the LoadedCluster, which parses the view over it in place, and the
  /// overflow records are decoded beside it. Touches no trace, cache or QP
  /// state, so it may run on the prefetch worker.
  Result<LoadedClusterPtr> DecodeLoaded(PendingLoad& load);

  /// A cluster load abandoned after exhausting the retry budget.
  struct FailedLoad {
    uint32_t cluster;
    Status status;
  };

  /// One round of cluster READs (DESIGN.md §10), in three steps. PostRound
  /// (owner thread) posts one READ per cluster, closes a doorbell ring where
  /// the destination changes, and takes the rings as an async batch.
  /// ExecuteRound moves the data and parses every fetched cluster, inline or
  /// on the prefetch worker. ReapRound (owner thread) does the deferred
  /// accounting and installs what parsed. Heap-allocated so the prefetch
  /// worker can hold a stable pointer.
  struct LoadRound {
    std::vector<PendingLoad> pending;  ///< posted order, one READ each
    std::unique_ptr<rdma::AsyncBatch> batch;
    uint64_t busy_ns = 0;              ///< wall ns ExecuteRound took
    std::future<void> done;            ///< valid while on the prefetch worker
  };

  /// Loads `ids` (must not be cached) round after round: kFull coalesces up
  /// to `doorbell_batch` READs per ring, kNoDoorbell rings each singly.
  /// `first_round`, when given, is `ids`' round already posted by
  /// IssueWaveLoads; every other round is posted and executed inline here.
  /// Parsed clusters are installed into the cache; returns resident
  /// pointers for the wave. Transient failures (unreachable / timeout / CRC
  /// mismatch) are retried per options_.retry with backoff charged to the
  /// clock. Loads that still fail are reported in `failed` when non-null
  /// (graceful degradation) or fail the call with the first error when
  /// `failed` is null.
  Status LoadClusters(std::span<const uint32_t> ids, std::unique_ptr<LoadRound> first_round,
                      FreshLoads* out, BatchBreakdown* breakdown,
                      std::vector<FailedLoad>* failed);

  /// Mutable state of one LoadClusters retry sequence: retry counting,
  /// backoff and final error attribution, whichever thread executed a round.
  struct LoadRoundState {
    LoadRoundState(const RetryPolicy& policy, SimClock* clock, bool real_sleep = false)
        : budget(policy, clock, real_sleep) {}
    RetryBudget budget;
    uint32_t round_failures = 0;
    /// Sticky per-cluster last error, kept across rounds for final reporting.
    std::vector<std::pair<uint32_t, Status>> last_error;
  };

  /// kFull coalesces `doorbell_batch` READs per ring; other modes ring singly.
  uint32_t DoorbellWindow() const noexcept;
  /// Posts one READ per cluster of `ids`, sorted by owning node slot into
  /// fresh buffers, and takes them as the round's batch.
  std::unique_ptr<LoadRound> PostRound(std::vector<uint32_t> ids);
  /// Executes the round's batch and parses each cluster whose READ
  /// succeeded. No clock, stats, trace, cache or CQ access.
  void ExecuteRound(LoadRound* round);
  /// Joins the round if it ran on the prefetch worker, charges it, reports
  /// failed READs to the failure detector, and installs every parsed cluster
  /// with one "cluster.decode" span each. Returns the clusters to retry.
  std::vector<uint32_t> ReapRound(LoadRound* round, LoadRoundState* state, FreshLoads* out,
                                  BatchBreakdown* breakdown);
  /// Early-exit cleanup: joins, charges and drains a posted round whose
  /// results will never be consumed, so the next batch finds a clean QP/CQ.
  /// No-op on null.
  void AbandonRound(LoadRound* round);
  /// Drains the CQ, returning (cluster, status) for every failed READ.
  std::vector<std::pair<uint32_t, Status>> DrainReadErrors();
  void RecordLoadError(LoadRoundState* state, uint32_t cluster, Status st);
  /// Retry gate after a failed round: consumes budget, charges backoff, and
  /// records the accounting/trace event. False = give up (errors stand).
  bool AdvanceLoadRound(LoadRoundState* state, const std::vector<uint32_t>& next_round,
                        BatchBreakdown* breakdown);
  /// Final error attribution: abandoned clusters either fail the call (strict
  /// mode, `failed` null) or are reported for per-query degradation.
  Status FinalizeLoads(LoadRoundState* state, const FreshLoads& out,
                       BatchBreakdown* breakdown, std::vector<FailedLoad>* failed);

  /// Records a wave's "cache.miss" events. With `prefetch` (RunWaves sets
  /// it only for the wave after one of at least kPrefetchMinItems items, at
  /// depth >= 2) it also posts the wave's first load round and hands it to
  /// the prefetch worker under a "stage.prefetch" span. Returns that round,
  /// or null when nothing was posted: the wave's LoadStage then posts and
  /// executes the round inline.
  std::unique_ptr<LoadRound> IssueWaveLoads(const LoadWave& wave, bool prefetch);

  /// Persistent worker pools (lazily built; the search pool is rebuilt when
  /// options_.search_threads changes). Constructing a ThreadPool per wave
  /// cost ~50-100us of thread spawn/join per wave — a latency cliff for
  /// search_threads > 1 on small waves; these amortize it to once per node.
  ThreadPool* SearchPool();
  ThreadPool* PrefetchPool();

  /// Runs `fn` (returning Status) under options_.retry: transient errors are
  /// retried with backoff charged to the clock; the last error is returned
  /// when the budget is spent. Accounting lands in retries/backoff_out.
  template <typename Fn>
  Status WithRetry(Fn&& fn, uint64_t* retries_out = nullptr,
                   uint64_t* backoff_out = nullptr) {
    RetryBudget budget(options_.retry, &clock_, real_backoff_);
    uint32_t failures = 0;
    for (;;) {
      Status st = fn();
      if (st.ok() || !IsRetryable(st)) return st;
      uint64_t backoff = 0;
      if (!budget.AllowRetry(++failures, &backoff)) return st;
      if (retries_out != nullptr) ++*retries_out;
      if (backoff_out != nullptr) *backoff_out += backoff;
    }
  }

  /// One SearchBatch call's working state, threaded through its stages.
  struct BatchState {
    const VectorSet& queries;
    size_t begin = 0;  ///< row of query 0 in `queries`
    size_t count = 0;
    size_t k = 0;
    uint32_t ef_search = 0;
    std::vector<std::vector<uint32_t>> routes = {};  ///< per query, best first
    std::vector<TopKHeap> heaps = {};                ///< per-query running top-k
    BatchResult result = {};
  };

  // --- SearchBatch stages, in call order (DESIGN.md §10). Each opens its
  // own disjoint "stage.*" span under the batch umbrella. ---
  /// stage.refresh: re-reads the offset table under options_.retry.
  Status RefreshStage(BatchBreakdown* breakdown);
  /// stage.meta: routes every query to its b sub-HNSWs, on the search pool.
  void RouteStage(BatchState* batch);
  /// stage.naive (kNaive only): one READ round trip per (query, cluster)
  /// pair, no dedup, no cache, no doorbell.
  Status NaiveStage(BatchState* batch);
  /// stage.plan: dedups the routes into cache-bounded load waves (§3.3).
  BatchPlan PlanStage(BatchState* batch);
  /// The waves: each loads (stage.load) and then searches (stage.sub) its
  /// work; at depth >= 2 a wave of at least kPrefetchMinItems items first
  /// hands the next wave's READs to the prefetch worker.
  Status RunWaves(const BatchPlan& plan, BatchState* batch);
  /// stage.load: makes the wave's clusters resident, degrades the queries of
  /// clusters that failed for good, and builds the wave's resident map.
  Status LoadStage(const LoadWave& wave, std::unique_ptr<LoadRound> first_round,
                   FreshLoads* fresh, std::vector<FailedLoad>* failures, BatchState* batch);
  /// stage.sub: the wave's items as units on the search pool — a scanned
  /// cluster's items in units of up to kScanUnitQueries queries, every
  /// walked item alone — each item into its own heap, then every query
  /// merges its items' heaps in item order.
  Status SubStage(const LoadWave& wave, const std::vector<FailedLoad>& failures,
                  BatchState* batch);
  /// Lays out units_ / unit_items_ for the wave's searched items at `ef`. Fails
  /// with Internal if an item's cluster is neither resident nor failed.
  Status PlanSubUnits(const std::vector<WorkItem>& work,
                      const std::vector<FailedLoad>& failures, uint32_t ef);
  /// stage.finalize: sorts each query's heap into its result.
  void FinalizeStage(BatchState* batch);
  /// Network accounting and the always-on compute instruments of one batch.
  void RecordBatch(const rdma::QpStats& stats_before, BatchBreakdown* breakdown);

  /// Runs `fn(first, last)` over [0, n) in chunks of at most `grain`: on the
  /// search pool when search_threads > 1, else inline on the caller in one
  /// call, so a single-threaded node never starts a pool thread.
  void ForChunks(size_t n, size_t grain, const std::function<void(size_t, size_t)>& fn);

  /// Searches one resident cluster for `q` into `heap`: a one-query Scan or
  /// a Walk, as options_.sub_search picks for the cluster.
  void SearchResident(const LoadedCluster& cluster, std::span<const float> q,
                      const BatchState& batch, TopKHeap* heap) const;
  /// Whether `cluster` is among a wave's abandoned loads.
  static bool LoadFailed(const std::vector<FailedLoad>& failures, uint32_t cluster);

  /// Where ops against `slot` go right now: the replica manager's primary
  /// route (rkey + fence epoch) when attached, else the provisioning-time
  /// handle unfenced (epoch 0 — admitted regardless of region epoch).
  struct SlotRoute {
    rdma::RKey rkey = 0;
    uint64_t epoch = 0;
  };
  SlotRoute RouteFor(uint32_t slot) const;

  /// Feeds a reachability failure (kUnavailable / kDeadlineExceeded) against
  /// `slot`'s primary into the failure detector. Returns true when the report
  /// tipped the slot into failover — the caller's next RouteFor() then names
  /// the promoted replica at the bumped epoch.
  bool NoteSlotFailure(uint32_t slot, BatchBreakdown* breakdown);
  /// NoteSlotFailure for the slots behind a set of failed cluster loads.
  void ReportLoadFailures(const std::vector<std::pair<uint32_t, Status>>& read_errors,
                          BatchBreakdown* breakdown);

  /// Replicated record writes: the records of one partition group (back to
  /// back in `records`; record j goes to `offsets[j]`) land on every
  /// non-dead replica of `slot` as per-replica doorbell rings of interleaved
  /// WRITE / same-ring READ-back pairs; the CRC-carrying record bytes must
  /// read back identical (the per-replica ack). Primary failure fails the
  /// call, and each of the primary's unreachable rounds is reported through
  /// NoteSlotFailure, so a primary that dies mid-fan-out fails over; a
  /// secondary that cannot ack is reported to the failure detector and
  /// skipped. Requires an attached manager.
  ///
  /// Every WR is fenced with `fence_epoch` — the slot's epoch captured when
  /// the records' offsets were FAA-allocated — NOT a freshly resolved one. A
  /// failover between allocation and fan-out otherwise lands a record at a
  /// stale offset on the promoted replica, colliding with slots its counter
  /// hands out before the dead primary's delta is mirrored (an acked insert
  /// then silently vanishes). With the captured epoch the stale write fences
  /// out instead; the caller observes the epoch moved and restarts the whole
  /// allocation.
  Status ReplicateGroupWrites(uint32_t slot, std::span<const uint64_t> offsets,
                              std::span<const uint8_t> records, uint64_t fence_epoch);
  /// Catch-up FAAs: mirrors a counter delta onto slot 0's secondaries so
  /// their overflow counters converge with the primary's authoritative one.
  /// Fenced with the allocation-time epoch like ReplicateGroupWrites.
  /// Returns false when slot 0's epoch moved past `fence_epoch` before every
  /// live secondary absorbed the delta — the caller must restart the
  /// allocation on the new primary; true otherwise (secondaries that are
  /// simply dead are reported and skipped, never a reason to restart).
  bool ReplicateCounterAdd(uint64_t remote_offset, uint64_t add, uint64_t fence_epoch);

  /// The one write path of Insert, Remove and InsertBatch (paper §3.2):
  /// `records` holds one or more pre-encoded records of `partition`, back to
  /// back. One FAA claims room for all of them (validating the shared group
  /// budget against the partner in the same ring), then they are written —
  /// doorbell-batched WRITEs, or the replicated fan-out — inside an
  /// allocation era that restarts on failover. All or nothing: a group the
  /// shared area cannot fit is rolled back and refused with Capacity. Two
  /// round trips for a single record; returns the first record's receipt.
  Result<InsertReceipt> AppendRecords(uint32_t partition,
                                      std::span<const uint8_t> records);

  rdma::Fabric* fabric_;
  MemoryNodeHandle memory_;
  ComputeOptions options_;
  std::string name_;
  ReplicaManager* replication_ = nullptr;  ///< not owned; may be null
  /// True on real transports (tcp/verbs): retry backoff then sleeps for real
  /// instead of charging the SimClock (see RetryBudget).
  bool real_backoff_ = false;

  SimClock clock_;
  rdma::QueuePair qp_;

  RegionHeader header_;
  std::vector<ClusterMeta> table_;
  std::optional<MetaHnsw> meta_;
  LruCache<uint32_t, LoadedClusterPtr> cache_;

  /// Wave-local O(1) resident map (cluster id -> resident decoded cluster),
  /// rebuilt per wave on the owner thread; sub-search workers only read it.
  /// Replaces the old per-work-item linear scan + LruCache::Get, which both
  /// cost O(work x fresh) and raced the LRU recency splice from pool threads.
  std::vector<const LoadedCluster*> wave_resident_;
  std::vector<uint8_t> wave_probed_;  ///< clusters already looked up this wave
  /// SubStage's scratch, kept across waves and batches so a steady-state
  /// wave allocates nothing: one bounded heap per work item, the units (a
  /// range of unit_items_, which holds work-item indices; walked_items_
  /// stages the walked ones), the first item of each query's run, and
  /// per-item wall time for the query.sub spans.
  struct SubUnit {
    uint32_t first;
    uint32_t count;
  };
  std::vector<TopKHeap> item_heaps_;
  std::vector<SubUnit> units_;
  std::vector<uint32_t> unit_items_;
  std::vector<uint32_t> walked_items_;
  std::vector<size_t> query_starts_;
  std::vector<uint64_t> item_wall_;
  std::unique_ptr<ThreadPool> search_pool_;
  /// 1 thread: drains + decodes prefetches. Built at the first prefetch, so
  /// a node that only runs waves below kPrefetchMinItems never starts it.
  std::unique_ptr<ThreadPool> prefetch_pool_;

  telemetry::TraceBuffer trace_buffer_;
  /// Stamps spans with clock_; qp_ holds a pointer to it, so the batch id set
  /// at SearchBatch entry propagates to "rdma.ring" spans automatically.
  telemetry::TraceContext trace_ctx_;
  uint32_t batch_seq_ = 0;
};

}  // namespace dhnsw
