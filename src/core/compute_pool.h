// ComputePool: N ComputeNode instances served concurrently by worker threads
// behind a front-end dispatcher with admission control (DESIGN.md §12).
//
// The paper's deployment is "multiple CPU instances sharing one memory pool"
// behind a client load balancer. This class is that pool: every node has its
// own worker thread, a bounded FIFO queue, and an independent op stream, so
// cache interference, overflow-FAA contention, and failover under traffic
// actually happen concurrently. Both front ends feed the same lanes: Run's
// dispatcher places single-query ops, and SearchSharded queues one shard of a
// batch per lane. A node is only ever driven by its own lane's worker.
//
// Two run modes:
//   - kDrain: the dispatcher blocks when a queue is full (backpressure) and
//     every op is admitted. With DispatchPolicy::kLeastAssigned the
//     node assignment is a pure function of the op sequence, so the set of
//     (node, op) executions — and therefore the state at quiescence — is
//     deterministic. This is the differential-testing mode.
//   - kPaced: the dispatcher releases ops at their schedule arrival_ns
//     (open-loop). Admission control applies: a full node queue or a tenant
//     over its inflight limit DROPS the op with kCapacity — the
//     latency-under-load mode, where drops are the signal, not a bug.
//
// Determinism argument (kDrain + kLeastAssigned): assignment depends only on
// cumulative per-node assigned counts (ties to the lowest index); each lane
// is FIFO; each ComputeNode owns its clock/QP/cache, so a node's execution
// is a pure function of its op subsequence. Cross-node effects go through
// the shared memory region, where inserts allocate disjoint overflow slots
// via remote FAA — the slot ORDER may interleave differently run to run, but
// the record SET at quiescence is schedule-determined, which is why the
// scale-out suite compares quiescence-time search results against a
// single-node sequential oracle (tests/test_scaleout.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/topk.h"
#include "core/compute_node.h"
#include "core/workload_gen.h"
#include "telemetry/trace.h"

namespace dhnsw {

/// How the dispatcher picks a node for the next op.
enum class DispatchPolicy : uint8_t {
  /// Fewest ops assigned so far, ties to the lowest index. Load-aware in the
  /// cumulative sense and a pure function of the op sequence — the only
  /// policy that keeps kDrain runs deterministic.
  kLeastAssigned = 0,
  /// Cache-affinity placement on live load. The dispatcher routes each
  /// search once and, among the lanes with the fewest outstanding ops
  /// (queued plus in service), picks the one that was most recently sent
  /// the most of its clusters (PickLeastLoaded); the lane searches with
  /// those routes. Adapts to slow nodes under paced load, but depends on
  /// wall-clock service times.
  kLeastLoaded = 1,
};

struct AdmissionOptions {
  /// Bound on each node's FIFO. kPaced drops on overflow; kDrain blocks.
  size_t node_queue_capacity = 256;
  /// Max ops a tenant may have admitted-but-unfinished across the pool
  /// (kPaced only; kDrain admits everything). 0 = unlimited.
  size_t tenant_inflight_limit = 64;
};

struct ComputePoolOptions {
  DispatchPolicy dispatch = DispatchPolicy::kLeastAssigned;
  AdmissionOptions admission;
  /// Top-k and ef applied to every search op.
  size_t k = 10;
  uint32_t ef_search = 64;
  /// Tenants the stats/limits arrays are sized for; ops with tenant >= this
  /// are rejected with kInvalidArgument.
  uint32_t num_tenants = 1;
  /// Per-lane + dispatcher trace buffers (0 disables pool spans).
  size_t trace_capacity = 0;
};

enum class PoolRunMode : uint8_t { kDrain = 0, kPaced = 1 };

/// kLeastLoaded's placement rule, a pure function of the dispatcher's view
/// (all spans have one entry per lane): among the lanes with the fewest
/// `outstanding` ops, the one whose `recent` list holds the most of the
/// op's `routes`; ties go to the fewest ops `assigned` this run, then to the
/// lowest index. With no routes (inserts) it is least outstanding, then
/// least assigned.
uint32_t PickLeastLoaded(std::span<const size_t> outstanding,
                         std::span<const std::vector<uint32_t>> recent,
                         std::span<const uint64_t> assigned,
                         std::span<const uint32_t> routes);

/// Records that `routes` were sent to a lane: in route order, each moves to
/// the most-recent end (the back) of the lane's `recent` list, and the least
/// recent fall off the front beyond `capacity`, the lane node's cache size.
void TouchRecent(std::vector<uint32_t>* recent, std::span<const uint32_t> routes,
                 size_t capacity);

/// Terminal fate of one scheduled op. Every op gets exactly one.
struct OpOutcome {
  Status status = Status::Internal("op never completed");
  std::vector<Scored> results;     ///< searches only
  uint32_t node = UINT32_MAX;      ///< executing node, UINT32_MAX when dropped
  bool dropped = false;            ///< refused at admission (status says why)
  uint64_t queue_wall_ns = 0;      ///< admission -> execution start
  uint64_t total_wall_ns = 0;      ///< admission -> completion (sojourn)
};

/// SearchSharded's answer, merged back into request order.
struct ShardedResult {
  /// results[i] = top-k for queries[i].
  std::vector<std::vector<Scored>> results;
  /// statuses[i]: OK, or why query i's results are partial or empty.
  std::vector<Status> statuses;
  /// Index-aligned with the pool: the breakdown of the shard each node ran,
  /// default-constructed for a node that ran none or whose shard degraded.
  std::vector<BatchBreakdown> per_node;
};

struct PoolRunStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t completed_ok = 0;
  uint64_t failed = 0;  ///< executed but returned an error
  uint64_t dropped_queue_full = 0;
  uint64_t dropped_tenant_limit = 0;
  uint64_t dropped_invalid = 0;
  uint64_t searches = 0;  ///< executed (admitted) only
  uint64_t inserts = 0;
  double wall_seconds = 0.0;
  double offered_qps = 0.0;   ///< submitted / schedule span (kPaced) or wall
  double achieved_qps = 0.0;  ///< admitted completions / wall
  /// Sojourn latency (queue wait + service) of admitted ops, microseconds.
  LatencyRecorder latency_us;
  std::vector<LatencyRecorder> per_tenant_latency_us;  ///< size num_tenants
  std::vector<uint64_t> per_tenant_drops;              ///< size num_tenants
  std::vector<uint64_t> per_node_ops;                  ///< size pool
  /// Per node, over its searches: routed clusters found in its cache, and
  /// routed clusters looked up (hits plus loads). Size pool.
  std::vector<uint64_t> per_node_cache_hits;
  std::vector<uint64_t> per_node_cache_lookups;

  uint64_t dropped() const noexcept {
    return dropped_queue_full + dropped_tenant_limit + dropped_invalid;
  }
  /// Share of routed clusters served from cache on `node`, or pool-wide
  /// when `node` is SIZE_MAX; 0 with no lookups.
  double cache_hit_share(size_t node = SIZE_MAX) const noexcept;
};

class ComputePool {
 public:
  /// The pool does not own the nodes; all must be connected. Workers start
  /// immediately and idle until Run().
  ComputePool(std::vector<ComputeNode*> nodes, ComputePoolOptions options);
  ~ComputePool();

  ComputePool(const ComputePool&) = delete;
  ComputePool& operator=(const ComputePool&) = delete;

  size_t size() const noexcept { return lanes_.size(); }
  const ComputePoolOptions& options() const noexcept { return options_; }

  /// Executes the schedule. kDrain ignores arrival_ns and applies
  /// backpressure; kPaced sleeps the dispatcher to each op's arrival_ns and
  /// applies admission control. `outcomes` (optional) receives one terminal
  /// OpOutcome per op, index-aligned with `ops`. One Run at a time.
  PoolRunStats Run(std::span<const WorkloadOp> ops, PoolRunMode mode,
                   std::vector<OpOutcome>* outcomes = nullptr);

  /// Front-end batch search: splits `queries` into at most size() contiguous
  /// shards of balanced size, queues shard i as one batch item on lane i
  /// (FIFO behind that lane's ops, even on a full lane), and blocks until
  /// every shard has run. The lane's worker runs it as one SearchBatch, so a
  /// call may overlap a Run and other SearchSharded calls. Shards stay
  /// outside Run's accounting: no OpOutcome, no completion or tenant count.
  /// A shard whose node fails it outright fails the call, unless that node
  /// has ComputeOptions::partial_results: then its queries come back empty,
  /// each carrying the error.
  Result<ShardedResult> SearchSharded(const VectorSet& queries, size_t k,
                                      uint32_t ef_search);

  /// Live queue depth of node `i` (racy snapshot; exact once quiescent).
  size_t queue_depth(size_t i) const noexcept {
    return lanes_[i]->depth.load(std::memory_order_relaxed);
  }

  /// Pool-level spans: "pool.dispatch"/"pool.drop" events and, under
  /// kLeastLoaded, a "pool.route" span per routed search from the
  /// dispatcher; "pool.op" spans from each lane's worker. Buffers are
  /// single-writer; exports are wall-free-deterministic in kDrain mode with
  /// kLeastAssigned (the byte-compare contract of the scale-out CI job).
  void EnableTracing(size_t capacity);
  void ClearTraces();
  const telemetry::TraceBuffer& dispatch_trace() const noexcept { return dispatch_trace_; }
  const telemetry::TraceBuffer& lane_trace(size_t i) const { return lanes_[i]->trace; }

 private:
  /// One SearchSharded call: its shard items point here, and the caller
  /// waits until each has stored its result.
  struct ShardCall;

  struct QueuedOp {
    const WorkloadOp* op = nullptr;  ///< null for a shard item
    size_t index = 0;                ///< op index in the run, or shard index
    std::chrono::steady_clock::time_point admitted;
    std::vector<uint32_t> routes;  ///< routed at dispatch; empty = lane routes
    ShardCall* shard = nullptr;    ///< set for a SearchSharded shard
  };

  /// One node's worker lane. Queue state is mutex-protected; the stats block
  /// is worker-private during a run and read by Run() only after quiescence
  /// (the completion handshake provides the happens-before edge).
  struct Lane {
    ComputeNode* node = nullptr;
    uint32_t index = 0;
    std::mutex mutex;
    std::condition_variable cv_nonempty;  ///< dispatcher -> worker
    std::condition_variable cv_room;      ///< worker -> blocked dispatcher
    std::deque<QueuedOp> queue;
    std::atomic<size_t> depth{0};        ///< queue length
    std::atomic<size_t> outstanding{0};  ///< queued plus in service
    bool stop = false;
    std::thread thread;

    // Worker-private per-run accumulators (merged by Run() at quiescence).
    uint64_t ops = 0, ok = 0, failed = 0, searches = 0, inserts = 0;
    uint64_t cache_hits = 0, cache_lookups = 0;
    LatencyRecorder latency_us;
    std::vector<LatencyRecorder> tenant_latency_us;
    telemetry::TraceBuffer trace;
    telemetry::Gauge* depth_gauge = nullptr;
    telemetry::Counter* ops_counter = nullptr;
  };

  void WorkerLoop(Lane* lane);
  void ExecuteOp(Lane* lane, const QueuedOp& item);
  void RunShard(Lane* lane, const QueuedOp& item);
  uint32_t PickNode(std::span<const uint32_t> routes);

  std::vector<std::unique_ptr<Lane>> lanes_;
  ComputePoolOptions options_;
  std::vector<uint64_t> assigned_;  ///< dispatcher-only cumulative counts
  /// kLeastLoaded, dispatcher-only: per lane, the clusters most recently
  /// sent there, least recent first. They stand in for the lanes' caches,
  /// which only their own workers touch, and persist across runs as the
  /// caches do.
  std::vector<std::vector<uint32_t>> recent_;
  std::unique_ptr<std::atomic<int64_t>[]> tenant_inflight_;

  // Per-run shared state (set by Run before dispatch, cleared after).
  std::span<const WorkloadOp> run_ops_;
  std::vector<OpOutcome>* run_outcomes_ = nullptr;
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  size_t done_count_ = 0;  ///< guarded by done_mutex_
  bool run_active_ = false;

  telemetry::TraceBuffer dispatch_trace_;
  uint32_t run_seq_ = 0;

  // Process-registry instruments (registered once per pool construction).
  telemetry::Counter* ops_total_ = nullptr;
  telemetry::Counter* admitted_total_ = nullptr;
  telemetry::Counter* dropped_total_ = nullptr;
  telemetry::Counter* dropped_queue_full_total_ = nullptr;
  telemetry::Counter* dropped_tenant_limit_total_ = nullptr;
  telemetry::Counter* failures_total_ = nullptr;
  telemetry::Histogram* latency_us_hist_ = nullptr;
  telemetry::Gauge* nodes_gauge_ = nullptr;
  std::vector<telemetry::Counter*> tenant_drop_counters_;
};

}  // namespace dhnsw
