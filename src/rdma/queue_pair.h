// Queue pair: the compute-instance endpoint for one-sided verbs.
//
// Usage mirrors ibverbs: post one or more work requests, then ring the
// doorbell. All WRs posted before a ring execute in a single network round
// trip (doorbell batching); completions are polled from the completion queue.
// A QP charges network time to the SimClock it was created with — that clock
// is the "network" column of the paper's latency breakdown. Each doorbell
// chunk executes through one TransportChannel (transport.h): on the simulator
// the charge is the deterministic NicModel cost plus injected latency,
// exactly as before transports existed; on a real backend (tcp/verbs) it is
// the measured wall time of the round trip, so the clock tracks real elapsed
// network time and retry deadlines keep working.
//
// Concurrency: one QP belongs to one compute instance thread, as in the
// paper's per-instance worker design. Different QPs may be used from
// different threads; remote atomics are serialized by the memory region.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "rdma/fabric.h"
#include "rdma/rdma_types.h"
#include "telemetry/trace.h"

namespace dhnsw::rdma {

/// A set of doorbell rings on their way through the QP (post now, reap
/// completions later). Every ring takes this lifecycle, all driven by the
/// owning QueuePair; RingDoorbell runs its three steps back to back:
///   1. owner thread: post WRs, mark ring boundaries with StageAsyncRing,
///      then detach the staged groups with TakeAsyncBatch;
///   2. any thread:   ExecuteAsyncBatch — data movement and fault evaluation
///      only, in posted order;
///   3. owner thread: ReapAsyncBatch — all deferred accounting (sim-clock
///      charges, QpStats, trace spans, metric mirroring) doorbell chunk by
///      doorbell chunk, then the completions land in the CQ for polling.
/// The split keeps every non-thread-safe QP resource (SimClock, QpStats,
/// TraceBuffer, CQ) on the owner thread, so the simulated timeline of a
/// batch executed on a worker is bit-identical to ringing the same WRs.
class AsyncBatch {
 public:
  AsyncBatch() = default;
  AsyncBatch(const AsyncBatch&) = delete;
  AsyncBatch& operator=(const AsyncBatch&) = delete;

  size_t num_wrs() const noexcept { return wrs_.size(); }
  bool executed() const noexcept { return executed_; }
  /// Per-WR completions in posted order; meaningful only after execution.
  std::span<const Completion> completions() const noexcept { return completions_; }

 private:
  friend class QueuePair;
  /// One StageAsyncRing call: wrs_[begin, end). The doorbell window captured
  /// at take time further splits oversized groups into chunks, one network
  /// round trip each.
  struct RingGroup {
    size_t begin = 0;
    size_t end = 0;
  };
  std::vector<WorkRequest> wrs_;
  std::vector<RingGroup> groups_;
  uint32_t window_ = 1;
  std::vector<Completion> completions_;  ///< aligned with wrs_
  /// Raw ring charges (injected latency on sim, measured wall ns on real
  /// backends), aligned with wrs_: each doorbell chunk's charge is stored at
  /// the chunk's first WR index, zeros elsewhere, so reap-side per-chunk
  /// summation recovers exactly one charge per ring.
  std::vector<uint64_t> extra_ns_;
  uint64_t injected_faults_ = 0;
  bool executed_ = false;
};

class QueuePair {
 public:
  /// `clock` may be null (network time is then simply not recorded).
  /// `max_doorbell_wrs` caps WRs per ring; a ring with more WRs is split into
  /// ceil(N / max) round trips, modeling a bounded NIC doorbell window.
  QueuePair(Fabric* fabric, SimClock* clock, uint32_t max_doorbell_wrs = 64);

  uint32_t max_doorbell_wrs() const noexcept { return max_doorbell_wrs_; }
  void set_max_doorbell_wrs(uint32_t n) noexcept { max_doorbell_wrs_ = n == 0 ? 1 : n; }

  /// --- posting (no network activity yet) ---
  /// `expected_epoch` carries the replication fence: 0 (default) posts an
  /// unfenced op — the seed behaviour; non-zero ops execute only when they
  /// match the target region's current fence epoch (else kFenced).
  void PostRead(RKey rkey, uint64_t remote_offset, std::span<uint8_t> dst, uint64_t wr_id = 0,
                uint64_t expected_epoch = 0);
  void PostWrite(RKey rkey, uint64_t remote_offset, std::span<const uint8_t> src, uint64_t wr_id = 0,
                 uint64_t expected_epoch = 0);
  void PostCompareSwap(RKey rkey, uint64_t remote_offset, uint64_t compare, uint64_t swap,
                       uint64_t wr_id = 0, uint64_t expected_epoch = 0);
  void PostFetchAdd(RKey rkey, uint64_t remote_offset, uint64_t add, uint64_t wr_id = 0,
                    uint64_t expected_epoch = 0);

  size_t pending_wrs() const noexcept { return send_queue_.size(); }

  /// Executes everything posted since the last ring: TakeAsyncBatch,
  /// ExecuteAsyncBatch and ReapAsyncBatch run inline on the owner thread, so
  /// a ring has one lifecycle whichever thread executes it. Requires that no
  /// StageAsyncRing groups are waiting to be taken. Returns the number of
  /// network round trips this ring consumed (>= 1 if anything was posted;
  /// > 1 when the doorbell window forced a split).
  uint32_t RingDoorbell();

  /// --- async issue/poll path (see AsyncBatch) ---
  /// Moves everything posted since the last ring/stage into the pending async
  /// batch as ONE ring group — the async analogue of a RingDoorbell call
  /// boundary (used e.g. when the destination memory node changes mid-batch).
  void StageAsyncRing();
  /// Detaches the staged groups as an executable batch, capturing the current
  /// doorbell window and arming the fault injector NOW (owner thread), so
  /// fault decisions remain a pure function of this QP's WR sequence no
  /// matter which thread executes. Any posted-but-unstaged WRs are staged
  /// first. Returns nullptr when nothing is staged.
  std::unique_ptr<AsyncBatch> TakeAsyncBatch();
  /// Executes the batch's WRs in posted order: fabric data movement and fault
  /// evaluation ONLY — no clock, stats, trace, or CQ access — so it may run
  /// on a worker thread while the owner computes, PROVIDED the QP is
  /// otherwise idle (no posts, rings, one-shots, or reaps) until the matching
  /// ReapAsyncBatch. The caller supplies the happens-before edges (e.g. a
  /// future join) around this call.
  void ExecuteAsyncBatch(AsyncBatch* batch);
  /// Owner thread, after execution: performs the deferred accounting and
  /// pushes the batch's completions into the CQ. Returns the number of
  /// network round trips charged.
  uint32_t ReapAsyncBatch(AsyncBatch* batch);

  /// --- completion queue ---
  bool PollCompletion(Completion* out);
  /// Rings if needed, then drains the CQ into `out`. Convenience for callers
  /// that post a batch and want all results synchronously. Every posted WR
  /// gets its own entry with its own status — errors never swallow the
  /// completions of sibling WRs in the batch.
  std::vector<Completion> Flush();

  /// Maps a completion status to a Status. kRemoteUnreachable -> Unavailable
  /// and kTimeout -> DeadlineExceeded, both retryable under RetryPolicy.
  /// kFenced also maps to Unavailable (distinct message): the cure is the
  /// same — refresh the replica directory and retry against the new primary.
  static Status ToStatus(const Completion& c);

  /// --- one-shot conveniences (each is one round trip) ---
  /// Precondition: the CQ is drained (no stale completions); they return
  /// Internal otherwise rather than mis-attribute an old completion.
  Status Read(RKey rkey, uint64_t remote_offset, std::span<uint8_t> dst,
              uint64_t expected_epoch = 0);
  Status Write(RKey rkey, uint64_t remote_offset, std::span<const uint8_t> src,
               uint64_t expected_epoch = 0);
  Result<uint64_t> CompareSwap(RKey rkey, uint64_t remote_offset, uint64_t compare, uint64_t swap);
  Result<uint64_t> FetchAdd(RKey rkey, uint64_t remote_offset, uint64_t add,
                            uint64_t expected_epoch = 0);

  const QpStats& stats() const noexcept { return stats_; }
  void ResetStats() noexcept { stats_ = QpStats{}; }

  /// Attaches the owning instance's trace context: every doorbell ring then
  /// records an "rdma.ring" span (a = WRs in the ring, b = payload bytes)
  /// stamped with the ring's simulated start/end. Pass nullptr to detach.
  /// The context must outlive the QP (or a subsequent set_trace(nullptr)).
  void set_trace(const telemetry::TraceContext* trace) noexcept { trace_ = trace; }

  uint32_t qp_id() const noexcept { return qp_id_; }

 private:
  /// Executes one doorbell chunk through the transport channel: data movement
  /// and fault evaluation (sim: per-WR in the backend; real: client-side in
  /// the chaos decorator), no QP accounting. Returns the chunk's
  /// raw charge — injected latency on sim, measured wall ns on real backends.
  /// Fault hits are counted into `*injected_faults`, the batch-local count
  /// folded into QpStats at reap.
  uint64_t ExecuteRing(std::span<const WorkRequest> wrs, std::span<Completion> completions,
                       uint64_t* injected_faults);
  /// Shared reap-side accounting for one doorbell chunk whose WRs already
  /// executed: QpStats, clock charge (NicModel cost + `charge_ns` on sim,
  /// `charge_ns` verbatim on real backends), ring histogram, "rdma.ring"
  /// span, fenced-op counting.
  void AccountRing(std::span<const WorkRequest> wrs, std::span<const Completion> completions,
                   uint64_t charge_ns);
  /// Mirrors the QpStats delta since `before` into the process registry.
  void MirrorStatsDelta(const QpStats& before);
  /// Installs/refreshes the injector when the fabric's armed plan changed.
  /// On sim the injector is evaluated per-WR in the backend; on real
  /// transports the ChaosChannel decorator consumes it client-side.
  void RefreshInjector();

  Fabric* fabric_;
  SimClock* clock_;
  std::unique_ptr<TransportChannel> channel_;  ///< this QP's data-plane connection
  TransportKind kind_;
  bool sim_;
  uint32_t max_doorbell_wrs_;
  uint32_t qp_id_;
  std::vector<WorkRequest> send_queue_;
  std::unique_ptr<AsyncBatch> async_staging_;  ///< groups staged, not yet taken
  std::deque<Completion> completion_queue_;
  QpStats stats_;
  /// Plan the injector below was built from (pointer identity tracks re-arms).
  std::shared_ptr<const FaultPlan> armed_plan_;
  std::unique_ptr<FaultInjector> injector_;
  const telemetry::TraceContext* trace_ = nullptr;
};

}  // namespace dhnsw::rdma
