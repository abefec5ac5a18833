#include "core/compute_node.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "index/distance.h"
#include "telemetry/metrics.h"

namespace dhnsw {

namespace {

// Compute-layer instruments (shared by every instance in the process; tests
// read deltas). Resolved once — the per-batch record path is relaxed atomics
// only, preserving the allocation-free hot path.
struct ComputeInstruments {
  telemetry::Counter* batches;
  telemetry::Counter* queries;
  telemetry::Counter* cluster_loads;
  telemetry::Counter* bytes_loaded;
  telemetry::Counter* cache_hit_clusters;
  telemetry::Counter* cache_miss_clusters;
  telemetry::Counter* retries;
  telemetry::Counter* failed_loads;
  telemetry::Counter* backoff_ns;
  telemetry::Counter* inserts;
  telemetry::Counter* removes;
  telemetry::Counter* insert_rejects;
  telemetry::Counter* failovers;
  telemetry::Counter* replica_insert_acks;
  telemetry::Counter* replica_faa_acks;
  telemetry::Counter* prefetch_waves;
  telemetry::Counter* pipeline_overlap_ns;
  telemetry::ShardedCounter* sub_searches;
  telemetry::Histogram* batch_round_trips;
  telemetry::Histogram* batch_network_ns;
};

const ComputeInstruments& Compute() {
  static const ComputeInstruments instruments = [] {
    telemetry::MetricRegistry& r = telemetry::DefaultRegistry();
    return ComputeInstruments{
        r.GetCounter("dhnsw_compute_batches_total"),
        r.GetCounter("dhnsw_compute_queries_total"),
        r.GetCounter("dhnsw_compute_cluster_loads_total"),
        r.GetCounter("dhnsw_compute_bytes_loaded_total"),
        r.GetCounter("dhnsw_compute_cache_hit_clusters_total"),
        r.GetCounter("dhnsw_compute_cache_miss_clusters_total"),
        r.GetCounter("dhnsw_compute_retries_total"),
        r.GetCounter("dhnsw_compute_failed_loads_total"),
        r.GetCounter("dhnsw_compute_backoff_ns_total"),
        r.GetCounter("dhnsw_compute_inserts_total"),
        r.GetCounter("dhnsw_compute_removes_total"),
        r.GetCounter("dhnsw_compute_insert_rejects_total"),
        r.GetCounter("dhnsw_compute_failovers_total"),
        r.GetCounter("dhnsw_replication_insert_acks_total"),
        r.GetCounter("dhnsw_replication_faa_acks_total"),
        r.GetCounter("dhnsw_compute_prefetch_waves_total"),
        r.GetCounter("dhnsw_compute_pipeline_overlap_ns_total"),
        r.GetShardedCounter("dhnsw_compute_sub_searches_total"),
        r.GetHistogram("dhnsw_compute_batch_round_trips"),
        r.GetHistogram("dhnsw_compute_batch_network_ns"),
    };
  }();
  return instruments;
}

/// Queries one scan unit runs against a cluster's row blocks: enough that
/// each block's trip into L1 serves many queries, few enough that one
/// popular cluster's queries still spread over the search pool.
constexpr size_t kScanUnitQueries = 32;
/// Bytes of rows per scan block: with a unit's queries (16 KB at 128-d)
/// the block stays in a 48 KB L1 while every query scores it.
constexpr size_t kScanBlockBytes = 16 * 1024;
constexpr size_t kScanBlockMaxRows = 64;
/// Queries per chunk of SubStage's merge.
constexpr size_t kMergeGrain = 64;

/// Overflow bytes, in allocation order, before the first claimed-but-
/// unwritten slot of `area` (its `used` bytes as read). Forward records
/// grow up from the area's start and backward ones down from its end
/// (ClusterMeta::RecordOffset).
uint64_t CommittedPrefix(OverflowDirection direction, std::span<const uint8_t> area,
                         uint64_t used, size_t record_size) {
  for (uint64_t p = 0; p < used; p += record_size) {
    const uint64_t at = direction == OverflowDirection::kForward ? p : used - p - record_size;
    if (!OverflowSlotCommitted(area.subspan(at, record_size))) return p;
  }
  return used;
}

}  // namespace

std::string_view EngineModeName(EngineMode mode) noexcept {
  switch (mode) {
    case EngineMode::kNaive: return "naive";
    case EngineMode::kNoDoorbell: return "no-doorbell";
    case EngineMode::kFull: return "d-hnsw";
  }
  return "?";
}

BatchBreakdown& BatchBreakdown::operator+=(const BatchBreakdown& rhs) noexcept {
  network_us += rhs.network_us;
  meta_us += rhs.meta_us;
  sub_us += rhs.sub_us;
  deserialize_us += rhs.deserialize_us;
  round_trips += rhs.round_trips;
  bytes_read += rhs.bytes_read;
  clusters_loaded += rhs.clusters_loaded;
  cache_hits += rhs.cache_hits;
  retries += rhs.retries;
  failed_loads += rhs.failed_loads;
  backoff_ns += rhs.backoff_ns;
  failovers += rhs.failovers;
  pipeline_overlap_ns += rhs.pipeline_overlap_ns;
  num_queries += rhs.num_queries;
  return *this;
}

ComputeNode::ComputeNode(rdma::Fabric* fabric, MemoryNodeHandle memory,
                         ComputeOptions options, std::string name)
    : fabric_(fabric),
      memory_(memory),
      options_(options),
      name_(std::move(name)),
      qp_(fabric, &clock_, options.doorbell_batch),
      cache_(options.mode == EngineMode::kNaive ? 0 : options.cache_capacity) {
  fabric_->AddNode(name_);
  if (!fabric_->transport().is_sim()) {
    real_backoff_ = true;
    // Spans from this instance carry the backend name; the simulator leaves
    // the label empty so its trace JSONL stays byte-identical.
    trace_buffer_.set_transport_label(std::string(fabric_->transport().name()));
  }
  telemetry::MetricRegistry& registry = telemetry::DefaultRegistry();
  cache_.AttachTelemetry(registry.GetCounter("dhnsw_compute_cache_ref_hits_total"),
                         registry.GetCounter("dhnsw_compute_cache_ref_misses_total"),
                         registry.GetGauge("dhnsw_compute_cache_entries"));
  trace_ctx_.buffer = &trace_buffer_;
  trace_ctx_.clock = &clock_;
  qp_.set_trace(&trace_ctx_);
}

ComputeNode::SlotRoute ComputeNode::RouteFor(uint32_t slot) const {
  if (replication_ != nullptr) {
    const ReplicaManager::Route route = replication_->PrimaryRoute(slot);
    if (route.rkey != 0) return SlotRoute{route.rkey, route.epoch};
  }
  // No manager (or it knows nothing about this slot): the provisioning-time
  // handle, posted unfenced — the single-replica seed behaviour.
  return SlotRoute{memory_.rkey_for_slot(slot), 0};
}

namespace {
/// Failures that indicate the target replica (not the payload) is the
/// problem: these — and only these — feed the failure detector. Decode/CRC
/// errors stay wire-damage retries, and kFenced surfaces as kUnavailable, so
/// a stale-epoch miss also lands here (the confirm probe then clears it).
bool IsReachabilityFailure(const Status& status) noexcept {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded;
}
}  // namespace

bool ComputeNode::NoteSlotFailure(uint32_t slot, BatchBreakdown* breakdown) {
  if (replication_ == nullptr) return false;
  if (!replication_->ReportUnreachable(slot)) return false;
  Compute().failovers->Add(1);
  if (breakdown != nullptr) ++breakdown->failovers;
  trace_ctx_.Event("replication.failover_observed", telemetry::TraceEvent::kNoQuery, slot,
                   replication_->SlotEpoch(slot));
  return true;
}

void ComputeNode::ReportLoadFailures(
    const std::vector<std::pair<uint32_t, Status>>& read_errors, BatchBreakdown* breakdown) {
  if (replication_ == nullptr || read_errors.empty()) return;
  // One report per slot per round: N failed READs against one dead replica
  // are one observation, not N strikes.
  std::vector<uint32_t> reported;
  for (const auto& [cluster, status] : read_errors) {
    if (!IsReachabilityFailure(status)) continue;
    const uint32_t slot = table_[cluster].node_slot;
    if (std::find(reported.begin(), reported.end(), slot) != reported.end()) continue;
    reported.push_back(slot);
    NoteSlotFailure(slot, breakdown);
  }
}

Status ComputeNode::Connect() {
  // Each bootstrap step is retried under options_.retry: read + decode as a
  // unit, so a CRC mismatch on damaged bytes triggers a fresh read.
  // 1. Region header.
  DHNSW_RETURN_IF_ERROR(WithRetry([this] {
    const SlotRoute route = RouteFor(0);
    AlignedBuffer header_buf(RegionHeader::kEncodedSize, 64);
    Status read = qp_.Read(route.rkey, 0, header_buf.span(), route.epoch);
    if (!read.ok()) {
      if (IsReachabilityFailure(read)) NoteSlotFailure(0, nullptr);
      return read;
    }
    DHNSW_ASSIGN_OR_RETURN(header_, DecodeRegionHeader(header_buf.span()));
    return Status::Ok();
  }));

  // 2. meta-HNSW blob — cached in this instance for the engine's lifetime
  //    (paper §3.1: "we cache the lightweight meta-HNSW in the compute pool").
  DHNSW_RETURN_IF_ERROR(WithRetry([this] {
    const SlotRoute route = RouteFor(0);
    AlignedBuffer meta_buf(header_.meta_blob_size, 64);
    Status read = qp_.Read(route.rkey, header_.meta_blob_offset, meta_buf.span(), route.epoch);
    if (!read.ok()) {
      if (IsReachabilityFailure(read)) NoteSlotFailure(0, nullptr);
      return read;
    }
    const ClusterExpect expect{.metric = static_cast<Metric>(header_.metric),
                               .dim = header_.dim};
    DHNSW_ASSIGN_OR_RETURN(MetaHnsw meta, MetaHnsw::FromBlob(meta_buf.span(), expect));
    meta.set_ef_route(options_.ef_meta);
    meta_.emplace(std::move(meta));
    return Status::Ok();
  }));

  // 3. Cluster offset table (paper §3.2: offsets "are cached in all compute
  //    instances after the sub-HNSW clusters are written to the memory pool").
  DHNSW_RETURN_IF_ERROR(WithRetry([this] { return RefreshMetadata(); }));

  qp_.ResetStats();
  clock_.Reset();
  return Status::Ok();
}

Status ComputeNode::RefreshMetadata() {
  const size_t table_bytes =
      static_cast<size_t>(header_.num_clusters) * ClusterMeta::kEncodedSize;
  AlignedBuffer buf(table_bytes, 64);
  const SlotRoute route = RouteFor(0);
  Status read = qp_.Read(route.rkey, header_.table_offset, buf.span(), route.epoch);
  if (!read.ok()) {
    // Feed the detector so the WithRetry loop around this refresh converges
    // onto the promoted replica instead of hammering a dead primary.
    if (IsReachabilityFailure(read)) NoteSlotFailure(0, nullptr);
    return read;
  }
  std::vector<ClusterMeta> fresh(header_.num_clusters);
  for (uint32_t c = 0; c < header_.num_clusters; ++c) {
    DHNSW_ASSIGN_OR_RETURN(
        fresh[c],
        DecodeClusterMeta(buf.subspan(static_cast<size_t>(c) * ClusterMeta::kEncodedSize,
                                      ClusterMeta::kEncodedSize)));
  }
  // Drop cached clusters whose copy lacks a record the counter has handed
  // out: the overflow advanced since the load, or a slot it covered was
  // claimed but not yet written when it was read (a copy is complete only up
  // to its first uncommitted slot, so the counter must equal that prefix).
  for (uint32_t c = 0; c < fresh.size(); ++c) {
    const LoadedClusterPtr* resident = cache_.Peek(c);
    if (resident != nullptr && (*resident)->committed_bytes != fresh[c].overflow_used) {
      cache_.Erase(c);
    }
  }
  table_ = std::move(fresh);
  return Status::Ok();
}

void ComputeNode::InvalidateCache() { cache_.Clear(); }

bool ComputeNode::LoadedCluster::IsDeleted(uint32_t global_id) const noexcept {
  return std::binary_search(tombstones.begin(), tombstones.end(), global_id);
}

bool ComputeNode::LoadedCluster::Scanned(SubSearchMode mode, uint32_t ef) const noexcept {
  switch (mode) {
    case SubSearchMode::kGraph: return false;
    case SubSearchMode::kFlatScan: return true;
    case SubSearchMode::kAuto:
      return view->size() <= uint64_t{kAutoScanRowsPerEf} * std::max<uint32_t>(ef, 1);
  }
  return false;
}

void ComputeNode::LoadedCluster::Walk(std::span<const float> q, size_t k, uint32_t ef,
                                      Metric metric, TopKHeap* out) const {
  // Graph part: local ids -> global ids, skipping tombstoned entries. Ask
  // for a few extra candidates so deletions don't starve the top-k. The
  // result buffer is thread-local so steady-state sub-searches allocate
  // nothing.
  const size_t slack = std::min<size_t>(tombstones.size(), 64);
  static thread_local std::vector<Scored> results;
  view->Search(q, k + slack, std::max<uint32_t>(ef, 1), &results);
  const std::span<const uint32_t> gids = view->global_ids();
  for (const Scored& s : results) {
    const uint32_t gid = gids[s.id];
    if (!IsDeleted(gid)) out->Push(s.distance, gid);
  }
  PushOverflow(q.data(), metric, out);
}

void ComputeNode::LoadedCluster::Scan(std::span<const float* const> queries, Metric metric,
                                      TopKHeap* const* heaps) const {
  // IVF-style exact scan, cluster-major: each block of contiguous rows is
  // scored against every query before the next block is touched. The tile
  // kernel is bit-identical to the pair kernel, so a query's distances, and
  // with them its heap, do not depend on which queries share its unit.
  const TileKernel tile = ActiveKernels().Tile(metric);
  const uint32_t dim = view->dim();
  const size_t n = view->size();
  const float* rows = view->rows();
  const std::span<const uint32_t> gids = view->global_ids();
  const size_t block = std::clamp<size_t>(kScanBlockBytes / (size_t{dim} * sizeof(float)), 1,
                                          kScanBlockMaxRows);
  float dists[kTileQueries * kScanBlockMaxRows];
  for (size_t base = 0; base < n; base += block) {
    const size_t cnt = std::min(block, n - base);
    for (size_t first = 0; first < queries.size(); first += kTileQueries) {
      const size_t nq = std::min(kTileQueries, queries.size() - first);
      tile(queries.data() + first, nq, rows + base * dim, dim, cnt, dists);
      for (size_t i = 0; i < nq; ++i) {
        // Fold with Push's own rejection test (distance >= worst) up
        // front, so a row that cannot enter costs one compare and the
        // tombstone lookup runs only for rows that can.
        TopKHeap& heap = *heaps[first + i];
        const float* d = dists + i * cnt;
        for (size_t j = 0; j < cnt; ++j) {
          if (heap.full() && (heap.k() == 0 || d[j] >= heap.worst())) continue;
          const uint32_t gid = gids[base + j];
          if (!IsDeleted(gid)) heap.Push(d[j], gid);
        }
      }
    }
  }
  for (size_t i = 0; i < queries.size(); ++i) PushOverflow(queries[i], metric, heaps[i]);
}

void ComputeNode::LoadedCluster::PushOverflow(const float* q, Metric metric,
                                              TopKHeap* out) const {
  // The paper appends inserted vectors as raw records read back with the
  // cluster; they have no graph links yet, so they are scanned exactly.
  const PairKernel pair = ActiveKernels().Pair(metric);
  for (const OverflowRecord& rec : overflow) {
    if (!IsDeleted(rec.global_id)) {
      out->Push(pair(rec.vector.data(), q, rec.vector.size()), rec.global_id);
    }
  }
}

Result<ComputeNode::LoadedClusterPtr> ComputeNode::DecodeLoaded(PendingLoad& load) {
  const uint32_t cluster = load.cluster;
  const uint64_t used_bytes = load.used_bytes;
  const ClusterMeta& meta = table_[cluster];
  auto loaded = std::make_shared<LoadedCluster>();

  // One contiguous range: overflow records precede the blob for a backward
  // (B-side) cluster and follow it for a forward one. The bytes move into
  // the LoadedCluster before the view is built over them; moving an
  // AlignedBuffer keeps its address, so the spans below stay valid. The
  // buffer is 64-aligned and a backward blob starts after whole records
  // (an 8-byte stride), so the payload is 4-byte aligned and searched in
  // place (DESIGN.md §17).
  loaded->buffer = std::move(load.buffer);
  const std::span<const uint8_t> bytes = std::as_const(loaded->buffer).span();
  const std::span<const uint8_t> blob_bytes =
      bytes.subspan(meta.BlobOffsetInRead(used_bytes), meta.blob_size);
  const std::span<const uint8_t> overflow_bytes =
      bytes.subspan(meta.OverflowOffsetInRead(), used_bytes);
  const ClusterExpect expect{.metric = static_cast<Metric>(header_.metric),
                             .dim = header_.dim,
                             .partition_id = cluster};
  DHNSW_ASSIGN_OR_RETURN(ClusterView view, ClusterView::Parse(blob_bytes, expect));
  loaded->view.emplace(std::move(view));
  DHNSW_ASSIGN_OR_RETURN(
      std::vector<OverflowRecord> records,
      DecodeOverflowArea(overflow_bytes, used_bytes, header_.dim));

  // Split the raw records into tombstones and live inserts.
  for (OverflowRecord& rec : records) {
    if (rec.is_tombstone()) {
      loaded->tombstones.push_back(rec.global_id);
    } else {
      loaded->overflow.push_back(std::move(rec));
    }
  }
  std::sort(loaded->tombstones.begin(), loaded->tombstones.end());
  loaded->committed_bytes = CommittedPrefix(meta.direction, overflow_bytes, used_bytes,
                                            OverflowRecordSize(header_.dim));
  return LoadedClusterPtr(std::move(loaded));
}

uint32_t ComputeNode::DoorbellWindow() const noexcept {
  return options_.mode == EngineMode::kFull ? std::max<uint32_t>(options_.doorbell_batch, 1)
                                            : 1;
}

std::unique_ptr<ComputeNode::LoadRound> ComputeNode::PostRound(std::vector<uint32_t> ids) {
  // A doorbell ring is a per-destination-QP batch, so loads are grouped by
  // owning memory instance (node_slot) and a ring closes where the
  // destination changes. The QP splits a ring longer than the window, so
  // kNoDoorbell's window of 1 rings every READ singly.
  std::stable_sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) {
    return table_[a].node_slot < table_[b].node_slot;
  });
  qp_.set_max_doorbell_wrs(DoorbellWindow());
  auto round = std::make_unique<LoadRound>();
  round->pending.reserve(ids.size());
  for (uint32_t cluster : ids) {
    const ClusterMeta& meta = table_[cluster];
    if (!round->pending.empty() &&
        table_[round->pending.back().cluster].node_slot != meta.node_slot) {
      qp_.StageAsyncRing();
    }
    const SlotRoute route = RouteFor(meta.node_slot);
    const ClusterMeta::Range range = meta.ReadRange(meta.overflow_used);
    round->pending.push_back(
        PendingLoad{cluster, AlignedBuffer(range.length, 64), meta.overflow_used});
    qp_.PostRead(route.rkey, range.offset, round->pending.back().buffer.span(), cluster,
                 route.epoch);
  }
  round->batch = qp_.TakeAsyncBatch();
  return round;
}

void ComputeNode::ExecuteRound(LoadRound* round) {
  const WallTimer busy_timer;
  qp_.ExecuteAsyncBatch(round->batch.get());
  // One READ per pending load, in posted order: completion i is load i's.
  const std::span<const rdma::Completion> completions = round->batch->completions();
  for (size_t i = 0; i < round->pending.size(); ++i) {
    PendingLoad& load = round->pending[i];
    if (completions[i].status != rdma::WcStatus::kSuccess) {
      load.parsed = rdma::QueuePair::ToStatus(completions[i]);
      continue;
    }
    const WallTimer parse_timer;
    load.parsed = DecodeLoaded(load);
    load.parse_ns = parse_timer.elapsed_ns();
  }
  round->busy_ns = busy_timer.elapsed_ns();
}

std::vector<uint32_t> ComputeNode::ReapRound(LoadRound* round, LoadRoundState* state,
                                             FreshLoads* out, BatchBreakdown* breakdown) {
  if (round->done.valid()) {
    // Join the prefetch worker; whatever of its busy time we did NOT spend
    // waiting here ran concurrently with the previous wave's sub-searches.
    const WallTimer wait_timer;
    round->done.get();
    const uint64_t wait_ns = wait_timer.elapsed_ns();
    const uint64_t overlap_ns = round->busy_ns > wait_ns ? round->busy_ns - wait_ns : 0;
    breakdown->pipeline_overlap_ns += overlap_ns;
    Compute().pipeline_overlap_ns->Add(overlap_ns);
  }
  qp_.ReapAsyncBatch(round->batch.get());
  // Unreachable/fenced loads are also failure-detector observations; once
  // enough rounds strike out, the slot fails over and the next round's
  // RouteFor resolves to the promoted replica at the bumped epoch.
  ReportLoadFailures(DrainReadErrors(), breakdown);

  std::vector<uint32_t> retry;
  for (PendingLoad& load : round->pending) {
    if (!load.parsed.ok()) {
      // A failed READ, or a CRC/format mismatch on freshly read bytes (wire
      // damage: a re-read fetches a clean copy). The damaged copy is NEVER
      // cached, and a failed parse records no span.
      if (IsRetryable(load.parsed.status())) retry.push_back(load.cluster);
      RecordLoadError(state, load.cluster, load.parsed.status());
      continue;
    }
    LoadedClusterPtr loaded = std::move(load.parsed).value();
    const uint64_t transfer_bytes = loaded->buffer.size();
    // The parse ran in ExecuteRound, maybe on the prefetch worker, and the
    // trace buffer is single-writer: its span lands here, with its wall time.
    trace_ctx_.Span("cluster.decode", telemetry::TraceEvent::kNoQuery, load.parse_ns,
                    load.cluster, transfer_bytes);
    breakdown->deserialize_us += static_cast<double>(load.parse_ns) / 1e3;
    breakdown->clusters_loaded += 1;
    breakdown->bytes_read += transfer_bytes;
    if (options_.mode != EngineMode::kNaive) cache_.Put(load.cluster, loaded);
    out->emplace_back(load.cluster, std::move(loaded));
  }
  return retry;
}

void ComputeNode::AbandonRound(LoadRound* round) {
  if (round == nullptr) return;
  if (round->done.valid()) round->done.get();
  // Charge the posted round anyway (those READs did cross the fabric) and
  // drop its completions: the batch is failing, nothing will consume them,
  // and the next batch must find an empty CQ.
  qp_.ReapAsyncBatch(round->batch.get());
  rdma::Completion c;
  while (qp_.PollCompletion(&c)) {
  }
}

std::vector<std::pair<uint32_t, Status>> ComputeNode::DrainReadErrors() {
  // Drain the whole CQ before acting on errors — leaving stale completions
  // behind would poison the next batch. Each WR carries its cluster id, so
  // one failed READ never hides its siblings' outcomes.
  std::vector<std::pair<uint32_t, Status>> read_errors;
  rdma::Completion c;
  while (qp_.PollCompletion(&c)) {
    if (c.status != rdma::WcStatus::kSuccess) {
      read_errors.emplace_back(static_cast<uint32_t>(c.wr_id),
                               rdma::QueuePair::ToStatus(c));
    }
  }
  return read_errors;
}

void ComputeNode::RecordLoadError(LoadRoundState* state, uint32_t cluster, Status st) {
  for (auto& [id, s] : state->last_error) {
    if (id == cluster) {
      s = std::move(st);
      return;
    }
  }
  state->last_error.emplace_back(cluster, std::move(st));
}

bool ComputeNode::AdvanceLoadRound(LoadRoundState* state,
                                   const std::vector<uint32_t>& next_round,
                                   BatchBreakdown* breakdown) {
  uint64_t backoff = 0;
  if (!state->budget.AllowRetry(++state->round_failures, &backoff)) return false;
  breakdown->retries += next_round.size();
  breakdown->backoff_ns += backoff;
  trace_ctx_.Event("load.retry", telemetry::TraceEvent::kNoQuery, next_round.size(),
                   backoff);
  return true;
}

Status ComputeNode::FinalizeLoads(LoadRoundState* state, const FreshLoads& out,
                                  BatchBreakdown* breakdown, std::vector<FailedLoad>* failed) {
  // Whatever still carries an error and is not resident was abandoned.
  for (auto& [cluster, st] : state->last_error) {
    const bool resident = std::any_of(out.begin(), out.end(),
                                      [c = cluster](const auto& p) { return p.first == c; });
    if (resident) continue;
    breakdown->failed_loads += 1;
    if (failed == nullptr) return std::move(st);  // strict: first error fails the call
    failed->push_back(FailedLoad{cluster, std::move(st)});
  }
  return Status::Ok();
}

Status ComputeNode::LoadClusters(std::span<const uint32_t> ids,
                                 std::unique_ptr<LoadRound> first_round, FreshLoads* out,
                                 BatchBreakdown* breakdown, std::vector<FailedLoad>* failed) {
  if (ids.empty()) return Status::Ok();
  for (uint32_t cluster : ids) {
    if (cluster >= table_.size()) {
      AbandonRound(first_round.get());
      return Status::InvalidArgument("LoadClusters: bad id");
    }
  }
  // The budget starts before round 1's charge lands, prefetched or not.
  LoadRoundState state(options_.retry, &clock_, real_backoff_);
  std::unique_ptr<LoadRound> round = std::move(first_round);
  std::vector<uint32_t> remaining(ids.begin(), ids.end());
  // Each round loads `remaining`; its transient failures (unreachable,
  // timeout, CRC-detected corruption) come back as the next round, with
  // FRESH buffers, while the retry budget allows.
  for (;;) {
    if (round == nullptr) {
      round = PostRound(std::move(remaining));
      ExecuteRound(round.get());
    }
    remaining = ReapRound(round.get(), &state, out, breakdown);
    round.reset();
    if (remaining.empty() || !AdvanceLoadRound(&state, remaining, breakdown)) break;
  }
  return FinalizeLoads(&state, *out, breakdown, failed);
}

ThreadPool* ComputeNode::SearchPool() {
  const size_t want = std::max<size_t>(options_.search_threads, 1);
  if (search_pool_ == nullptr || search_pool_->num_threads() != want) {
    search_pool_ = std::make_unique<ThreadPool>(want);
  }
  return search_pool_.get();
}

ThreadPool* ComputeNode::PrefetchPool() {
  if (prefetch_pool_ == nullptr) prefetch_pool_ = std::make_unique<ThreadPool>(1);
  return prefetch_pool_.get();
}

std::unique_ptr<ComputeNode::LoadRound> ComputeNode::IssueWaveLoads(const LoadWave& wave,
                                                                    bool pipelined) {
  // Every cluster in `to_load` missed the cache at plan time, and before
  // this wave loads only the batch's other waves do, which hold other
  // clusters: each one is still a miss.
  for (uint32_t cluster : wave.to_load) {
    trace_ctx_.Event("cache.miss", telemetry::TraceEvent::kNoQuery, cluster);
  }
  Compute().cache_miss_clusters->Add(wave.to_load.size());
  if (!pipelined || wave.to_load.empty()) return nullptr;

  // Pipelined path: post this wave's READs NOW and hand the round to the
  // prefetch worker; they drain (data movement + fault evaluation + parse)
  // while the previous wave's sub-searches run. All sim-clock/stats
  // accounting waits for the reap, so the fabric-visible op sequence — and
  // with it every fault decision, retry, and simulated timestamp — is the
  // same as an inline round's. The span is sim-instantaneous (posting
  // advances no simulated time), keeping the exact stage/batch sim coverage
  // invariant.
  telemetry::TraceScope prefetch_scope(trace_ctx_, "stage.prefetch");
  std::unique_ptr<LoadRound> round = PostRound(wave.to_load);
  prefetch_scope.set_args(wave.to_load.size(), round->batch->num_wrs());
  Compute().prefetch_waves->Add(1);
  LoadRound* raw = round.get();
  round->done = PrefetchPool()->Submit([this, raw] { ExecuteRound(raw); });
  return round;
}

Result<BatchResult> ComputeNode::SearchBatch(const VectorSet& queries, size_t begin,
                                             size_t count, size_t k, uint32_t ef_search,
                                             std::span<const std::vector<uint32_t>> routes) {
  if (!connected()) return Status::Unavailable("ComputeNode: not connected");
  // No sum here: begin + count wraps for a huge count.
  if (begin > queries.size() || count > queries.size() - begin) {
    return Status::InvalidArgument("SearchBatch: range out of bounds");
  }
  if (queries.dim() != header_.dim) {
    return Status::InvalidArgument("SearchBatch: query dim mismatch");
  }
  if (!routes.empty()) {
    if (routes.size() != count) {
      return Status::InvalidArgument("SearchBatch: one route list per query");
    }
    for (const std::vector<uint32_t>& route : routes) {
      for (uint32_t cluster : route) {
        if (cluster >= header_.num_clusters) {
          return Status::InvalidArgument("SearchBatch: routed cluster out of range");
        }
      }
    }
  }

  BatchState batch{
      .queries = queries, .begin = begin, .count = count, .k = k, .ef_search = ef_search};
  batch.result.results.resize(count);
  batch.result.statuses.assign(count, Status::Ok());
  batch.result.breakdown.num_queries = count;

  // One trace "batch" umbrella per SearchBatch; the disjoint "stage.*" spans
  // of the stages partition it, so their wall/sim sums reconcile against the
  // umbrella (the >= 95% coverage contract in DESIGN.md).
  trace_ctx_.batch = ++batch_seq_;
  telemetry::TraceScope batch_scope(trace_ctx_, "batch");
  batch_scope.set_args(count, k);
  const rdma::QpStats stats_before = qp_.stats();

  DHNSW_RETURN_IF_ERROR(RefreshStage(&batch.result.breakdown));
  if (routes.empty()) {
    RouteStage(&batch);
  } else {
    batch.routes.assign(routes.begin(), routes.end());
  }
  if (options_.mode == EngineMode::kNaive) {
    DHNSW_RETURN_IF_ERROR(NaiveStage(&batch));
  } else {
    DHNSW_RETURN_IF_ERROR(RunWaves(PlanStage(&batch), &batch));
    FinalizeStage(&batch);
  }
  RecordBatch(stats_before, &batch.result.breakdown);
  return std::move(batch.result);
}

Status ComputeNode::RefreshStage(BatchBreakdown* breakdown) {
  // Offset-table refresh: one small READ per batch keeps the cached offsets
  // and overflow counters current (paper §3.2, "latest version stored at the
  // beginning of the memory space"). Retried: a transiently missed refresh
  // should not fail a whole batch.
  telemetry::TraceScope refresh_scope(trace_ctx_, "stage.refresh");
  return WithRetry([this] { return RefreshMetadata(); }, &breakdown->retries,
                   &breakdown->backoff_ns);
}

void ComputeNode::ForChunks(size_t n, size_t grain,
                            const std::function<void(size_t, size_t)>& fn) {
  if (options_.search_threads > 1) {
    SearchPool()->ParallelForChunked(n, grain, fn);
  } else if (n > 0) {
    fn(0, n);
  }
}

std::vector<uint32_t> ComputeNode::Route(std::span<const float> query) const {
  return meta_->RouteMany(query, std::max<uint32_t>(options_.clusters_per_query, 1));
}

void ComputeNode::RouteStage(BatchState* batch) {
  // --- meta-HNSW routing (the "cache computation" column of Tables 1-2) ---
  // Each query descends the cached meta-HNSW on its own (RouteMany is const
  // and leases its scratch from a thread-safe pool) and writes only its own
  // route slot, so chunks of queries go out to the search pool.
  constexpr size_t kRouteGrain = 16;
  WallTimer meta_timer;
  telemetry::TraceScope meta_scope(trace_ctx_, "stage.meta");
  const size_t count = batch->count;
  meta_scope.set_args(count, std::max<uint32_t>(options_.clusters_per_query, 1));
  batch->routes.resize(count);
  const bool traced = trace_ctx_.enabled();
  std::vector<uint64_t> walls(traced ? count : 0);
  ForChunks(count, kRouteGrain, [&](size_t first, size_t last) {
    for (size_t i = first; i < last; ++i) {
      const WallTimer timer;
      batch->routes[i] = Route(batch->queries[batch->begin + i]);
      if (traced) walls[i] = timer.elapsed_ns();
    }
  });
  // The trace buffer is single-writer: the per-query spans are appended here,
  // in query order, after the join. Routing advances no simulated time, so
  // they carry the sim stamps an in-place span would.
  for (size_t i = 0; i < walls.size(); ++i) {
    trace_ctx_.Span("query.meta", static_cast<uint32_t>(i), walls[i]);
  }
  batch->result.breakdown.meta_us = meta_timer.elapsed_us();
}

Status ComputeNode::NaiveStage(BatchState* batch) {
  // Baseline (1): no dedup, no cache, no doorbell — one READ round trip per
  // (query, cluster) pair, exactly as described in the paper's §4.
  telemetry::TraceScope naive_scope(trace_ctx_, "stage.naive");
  BatchResult& result = batch->result;
  for (size_t i = 0; i < batch->count; ++i) {
    const size_t row = batch->begin + i;
    TopKHeap heap(batch->k);
    for (uint32_t cluster : batch->routes[i]) {
      FreshLoads loaded;
      std::vector<FailedLoad> failures;
      const uint32_t id[1] = {cluster};
      DHNSW_RETURN_IF_ERROR(LoadClusters(id, nullptr, &loaded, &result.breakdown,
                                         options_.partial_results ? &failures : nullptr));
      if (!failures.empty()) {
        // Degrade this query only: it keeps candidates from its other
        // clusters; siblings in the batch are unaffected.
        if (result.statuses[i].ok()) result.statuses[i] = failures.front().status;
        continue;
      }
      WallTimer sub_timer;
      SearchResident(*loaded.front().second, batch->queries[row], *batch, &heap);
      result.breakdown.sub_us += sub_timer.elapsed_us();
    }
    result.results[i] = heap.TakeSorted();
  }
  return Status::Ok();
}

BatchPlan ComputeNode::PlanStage(BatchState* batch) {
  // --- query-aware batched loading (§3.3) ---
  telemetry::TraceScope plan_scope(trace_ctx_, "stage.plan");
  BatchPlan plan = PlanBatch(
      batch->routes, [this](uint32_t c) { return cache_.Contains(c); },
      options_.cache_capacity);
  plan_scope.set_args(plan.unique_clusters, plan.cache_hits);
  batch->result.breakdown.cache_hits = plan.cache_hits;
  Compute().cache_hit_clusters->Add(plan.cache_hits);
  return plan;
}

void ComputeNode::SearchResident(const LoadedCluster& cluster, std::span<const float> q,
                                 const BatchState& batch, TopKHeap* heap) const {
  const Metric metric = options_.sub_hnsw_template.metric;
  if (cluster.Scanned(options_.sub_search, batch.ef_search)) {
    const float* query = q.data();
    cluster.Scan({&query, 1}, metric, &heap);
  } else {
    cluster.Walk(q, batch.k, batch.ef_search, metric, heap);
  }
}

bool ComputeNode::LoadFailed(const std::vector<FailedLoad>& failures, uint32_t cluster) {
  return std::any_of(failures.begin(), failures.end(),
                     [cluster](const FailedLoad& fl) { return fl.cluster == cluster; });
}

Status ComputeNode::RunWaves(const BatchPlan& plan, BatchState* batch) {
  batch->heaps.reserve(batch->count);
  for (size_t i = 0; i < batch->count; ++i) batch->heaps.emplace_back(batch->k);

  // Pipelined wave execution: with pipeline_depth >= 2, each wave's first
  // load round is posted before the previous wave's sub-searches start, and
  // executes + parses on the prefetch worker while those searches run. The
  // reap keeps all fabric accounting on this thread in an inline round's
  // exact order, so results, statuses, the cache, and the simulated
  // timeline are bit-identical either way.
  const bool pipelined = options_.pipeline_depth >= 2;

  // The next wave's prefetched round. A failing batch must not leave it on
  // the QP: the next batch would inherit its WRs and completions.
  std::unique_ptr<LoadRound> prefetched;
  struct PrefetchDrain {
    ComputeNode* node;
    std::unique_ptr<LoadRound>* round;
    ~PrefetchDrain() { node->AbandonRound(round->get()); }
  } drain_guard{this, &prefetched};

  for (size_t wv = 0; wv < plan.waves.size(); ++wv) {
    const LoadWave& wave = plan.waves[wv];
    std::unique_ptr<LoadRound> first_round =
        pipelined && wv > 0 ? std::move(prefetched) : IssueWaveLoads(wave, pipelined);
    FreshLoads fresh;
    std::vector<FailedLoad> failures;
    DHNSW_RETURN_IF_ERROR(LoadStage(wave, std::move(first_round), &fresh, &failures, batch));
    // One wave ahead (double-buffered): the next wave's misses post now and
    // drain on the prefetch worker while this wave's sub-searches run.
    if (pipelined && wv + 1 < plan.waves.size()) {
      prefetched = IssueWaveLoads(plan.waves[wv + 1], true);
    }
    DHNSW_RETURN_IF_ERROR(SubStage(wave, failures, batch));
  }
  return Status::Ok();
}

Status ComputeNode::LoadStage(const LoadWave& wave, std::unique_ptr<LoadRound> first_round,
                              FreshLoads* fresh, std::vector<FailedLoad>* failures,
                              BatchState* batch) {
  telemetry::TraceScope load_scope(trace_ctx_, "stage.load");
  load_scope.set_args(wave.to_load.size(), wave.work.size());
  DHNSW_RETURN_IF_ERROR(LoadClusters(wave.to_load, std::move(first_round), fresh,
                                     &batch->result.breakdown,
                                     options_.partial_results ? failures : nullptr));
  // Graceful degradation: a permanently failed cluster poisons only the
  // queries routed to it — they keep candidates from their other clusters
  // and carry the failure in their per-query status.
  if (!failures->empty()) {
    for (const WorkItem& item : wave.work) {
      Status& status = batch->result.statuses[item.query_index];
      if (!status.ok()) continue;
      const auto f = std::find_if(
          failures->begin(), failures->end(),
          [&item](const FailedLoad& fl) { return fl.cluster == item.cluster; });
      if (f != failures->end()) status = f->status;
    }
  }

  // Wave-local resident map, built once on the owner thread: O(1) lookup
  // per work item and exactly one cache probe per unique cluster, so pool
  // workers never touch the LRU (whose Get splices the recency list).
  wave_resident_.assign(table_.size(), nullptr);
  wave_probed_.assign(table_.size(), 0);
  for (const auto& [id, ptr] : *fresh) {
    wave_resident_[id] = ptr.get();
    wave_probed_[id] = 1;
  }
  for (const WorkItem& item : wave.work) {
    if (wave_probed_[item.cluster] != 0) continue;
    wave_probed_[item.cluster] = 1;
    if (LoadFailed(*failures, item.cluster)) continue;
    LoadedClusterPtr* hit = cache_.Get(item.cluster);
    wave_resident_[item.cluster] = hit == nullptr ? nullptr : hit->get();
  }
  return Status::Ok();
}

Status ComputeNode::PlanSubUnits(const std::vector<WorkItem>& work,
                                 const std::vector<FailedLoad>& failures, uint32_t ef) {
  // A scanned cluster's items, in item order, are split evenly into units of
  // at most kScanUnitQueries; a walked item is a unit alone. The scan units
  // go first, so the pool's tail is filled by the small walks. Items of
  // clusters that failed at load are in no unit.
  units_.clear();
  unit_items_.clear();
  walked_items_.clear();
  for (size_t w = 0; w < work.size(); ++w) {
    if (LoadFailed(failures, work[w].cluster)) continue;
    const LoadedCluster* cluster = wave_resident_[work[w].cluster];
    if (cluster == nullptr) return Status::Internal("wave cluster not resident");
    (cluster->Scanned(options_.sub_search, ef) ? unit_items_ : walked_items_)
        .push_back(static_cast<uint32_t>(w));
  }
  std::stable_sort(unit_items_.begin(), unit_items_.end(), [&work](uint32_t a, uint32_t b) {
    return work[a].cluster < work[b].cluster;
  });
  const size_t scanned = unit_items_.size();
  for (size_t begin = 0; begin < scanned;) {
    const uint32_t cluster = work[unit_items_[begin]].cluster;
    size_t end = begin;
    while (end < scanned && work[unit_items_[end]].cluster == cluster) ++end;
    const size_t count = end - begin;
    const size_t parts = (count + kScanUnitQueries - 1) / kScanUnitQueries;
    for (size_t p = 0; p < parts; ++p) {
      const size_t lo = begin + count * p / parts, hi = begin + count * (p + 1) / parts;
      units_.push_back(SubUnit{static_cast<uint32_t>(lo), static_cast<uint32_t>(hi - lo)});
    }
    begin = end;
  }
  for (uint32_t w : walked_items_) {
    units_.push_back(SubUnit{static_cast<uint32_t>(unit_items_.size()), 1});
    unit_items_.push_back(w);
  }
  return Status::Ok();
}

Status ComputeNode::SubStage(const LoadWave& wave, const std::vector<FailedLoad>& failures,
                             BatchState* batch) {
  WallTimer sub_timer;
  telemetry::TraceScope sub_scope(trace_ctx_, "stage.sub");
  sub_scope.set_args(wave.work.size());
  const std::vector<WorkItem>& work = wave.work;
  DHNSW_RETURN_IF_ERROR(PlanSubUnits(work, failures, batch->ef_search));

  // Every item fills its own heap, so units share nothing and may run on any
  // worker in any order; the pooled heaps only need re-arming.
  while (item_heaps_.size() < work.size()) item_heaps_.emplace_back(batch->k);
  for (size_t w = 0; w < work.size(); ++w) item_heaps_[w].Reset(batch->k);
  // Workers time each unit and give each of its items an equal share of the
  // unit's wall time; the owner appends the "query.sub" spans in item order
  // after the join (single-writer buffer).
  constexpr uint64_t kNotSearched = UINT64_MAX;
  const bool traced = trace_ctx_.enabled();
  item_wall_.assign(traced ? work.size() : 0, kNotSearched);
  const Metric metric = options_.sub_hnsw_template.metric;

  ForChunks(units_.size(), 1, [&](size_t first, size_t last) {
    for (size_t u = first; u < last; ++u) {
      const SubUnit unit = units_[u];
      const uint32_t* items = unit_items_.data() + unit.first;
      const LoadedCluster& cluster = *wave_resident_[work[items[0]].cluster];
      const WallTimer timer;
      if (cluster.Scanned(options_.sub_search, batch->ef_search)) {
        const float* queries[kScanUnitQueries];
        TopKHeap* heaps[kScanUnitQueries];
        for (uint32_t i = 0; i < unit.count; ++i) {
          queries[i] = batch->queries[batch->begin + work[items[i]].query_index].data();
          heaps[i] = &item_heaps_[items[i]];
        }
        cluster.Scan({queries, unit.count}, metric, heaps);
      } else {
        SearchResident(cluster, batch->queries[batch->begin + work[items[0]].query_index],
                       *batch, &item_heaps_[items[0]]);
      }
      Compute().sub_searches->Add(unit.count);
      if (traced) {
        const uint64_t share = timer.elapsed_ns() / unit.count;
        for (uint32_t i = 0; i < unit.count; ++i) item_wall_[items[i]] = share;
      }
    }
  });

  // Merge: each query folds its items' heaps into its running heap in item
  // order, whichever worker searched them, so results do not depend on the
  // thread count. Work items are grouped by query; query g owns the item
  // range [query_starts_[g], query_starts_[g + 1]).
  query_starts_.clear();
  for (size_t w = 0; w < work.size(); ++w) {
    if (w == 0 || work[w].query_index != work[w - 1].query_index) query_starts_.push_back(w);
  }
  query_starts_.push_back(work.size());
  ForChunks(query_starts_.size() - 1, kMergeGrain, [&](size_t first, size_t last) {
    for (size_t w = query_starts_[first]; w < query_starts_[last]; ++w) {
      TopKHeap& heap = batch->heaps[work[w].query_index];
      for (const Scored& s : item_heaps_[w].SortAscending()) heap.Push(s.distance, s.id);
    }
  });
  for (size_t w = 0; w < item_wall_.size(); ++w) {
    if (item_wall_[w] == kNotSearched) continue;
    trace_ctx_.Span("query.sub", work[w].query_index, item_wall_[w], work[w].cluster);
  }
  batch->result.breakdown.sub_us += sub_timer.elapsed_us();
  return Status::Ok();
}

void ComputeNode::FinalizeStage(BatchState* batch) {
  telemetry::TraceScope finalize_scope(trace_ctx_, "stage.finalize");
  for (size_t i = 0; i < batch->count; ++i) {
    batch->result.results[i] = batch->heaps[i].TakeSorted();
  }
}

void ComputeNode::RecordBatch(const rdma::QpStats& stats_before, BatchBreakdown* breakdown) {
  const rdma::QpStats delta = qp_.stats() - stats_before;
  breakdown->network_us = static_cast<double>(delta.sim_network_ns) / 1e3;
  breakdown->round_trips = delta.round_trips;

  const ComputeInstruments& metrics = Compute();
  metrics.batches->Add(1);
  metrics.queries->Add(breakdown->num_queries);
  metrics.cluster_loads->Add(breakdown->clusters_loaded);
  metrics.bytes_loaded->Add(breakdown->bytes_read);
  metrics.retries->Add(breakdown->retries);
  metrics.failed_loads->Add(breakdown->failed_loads);
  metrics.backoff_ns->Add(breakdown->backoff_ns);
  metrics.batch_round_trips->Record(delta.round_trips);
  metrics.batch_network_ns->Record(delta.sim_network_ns);
}

Result<InsertReceipt> ComputeNode::AppendRecords(uint32_t partition,
                                                 std::span<const uint8_t> records) {
  ClusterMeta& meta = table_[partition];
  const uint64_t rec = meta.record_size;
  if (records.empty() || records.size() % rec != 0) {
    return Status::Internal("AppendRecords: bad record bytes");
  }
  const size_t count = records.size() / rec;
  const uint64_t want = records.size();
  telemetry::TraceScope append_scope(trace_ctx_, "insert.append");
  append_scope.set_args(partition, want);

  // Ring 1: ONE FAA claims `want` bytes — room for every record of the
  // group — from this cluster's side of the shared overflow area, and reads
  // the partner's counter in the SAME round trip to validate the shared
  // budget (used_A + used_B <= capacity).
  //
  // Retry semantics: a failed FAA did not execute (unreachable/timeout model
  // drops the op), so the whole ring is safely re-issued. Once the FAA has
  // landed, only the partner READ is re-issued — re-running the FAA would
  // double-allocate — and if that read permanently fails the allocation is
  // rolled back before reporting the error.
  auto used_counter_offset = [this](uint32_t cluster) {
    return header_.table_offset +
           static_cast<uint64_t>(cluster) * ClusterMeta::kEncodedSize +
           ClusterMeta::kUsedFieldOffset;
  };
  const bool has_partner = meta.partner != ClusterMeta::kNoPartner;
  uint64_t partner_used = 0;
  uint64_t old_used = 0;
  AlignedBuffer partner_buf(8, 64);
  // Allocation era, captured when the FAA lands: every ring-2 WR is fenced
  // with these epochs, never freshly resolved ones. Otherwise a failover
  // between allocation and fan-out lets a record land at its stale offset
  // on the promoted replica — whose counter hands the same slot to another
  // insert before the dead primary's delta is mirrored — and an ACKED insert
  // silently vanishes under the collision. With captured epochs the stale
  // write fences out and the whole allocation restarts in the new era.
  uint64_t faa_epoch = 0;
  uint64_t record_epoch = 0;
  rdma::RKey faa_rkey{};
  bool faa_done = false;
  RetryBudget era_budget(options_.retry, &clock_, real_backoff_);
  uint32_t era_failures = 0;
  std::vector<uint64_t> offsets(count);
  for (;;) {  // one iteration per allocation era
  {
    RetryBudget budget(options_.retry, &clock_, real_backoff_);
    uint32_t failures = 0;
    for (;;) {
      // Re-resolved every attempt: a failover (or re-replication admission)
      // between attempts moves the ring to the promoted primary / new epoch.
      const SlotRoute ctrl = RouteFor(0);
      Status ring_status;
      if (!faa_done) {
        qp_.PostFetchAdd(ctrl.rkey, used_counter_offset(partition), want, /*wr_id=*/1,
                         ctrl.epoch);
        if (has_partner) {
          qp_.PostRead(ctrl.rkey, used_counter_offset(meta.partner), partner_buf.span(), 2,
                       ctrl.epoch);
        }
        qp_.RingDoorbell();
        Status faa_status, partner_status;
        rdma::Completion c;
        while (qp_.PollCompletion(&c)) {
          Status st = rdma::QueuePair::ToStatus(c);
          if (c.wr_id == 1) {
            if (st.ok()) old_used = c.atomic_result;
            faa_status = std::move(st);
          } else {
            partner_status = std::move(st);
          }
        }
        if (faa_status.ok()) {
          faa_done = true;
          faa_epoch = ctrl.epoch;
          faa_rkey = ctrl.rkey;
          record_epoch =
              replication_ != nullptr ? replication_->SlotEpoch(meta.node_slot) : 0;
          if (partner_status.ok()) break;
          ring_status = std::move(partner_status);
        } else {
          ring_status = std::move(faa_status);
        }
      } else {
        Status st = qp_.Read(ctrl.rkey, used_counter_offset(meta.partner),
                             partner_buf.span(), ctrl.epoch);
        if (st.ok()) break;
        ring_status = std::move(st);
      }
      if (!IsRetryable(ring_status) || !budget.AllowRetry(++failures)) {
        if (faa_done) {
          // Best effort: un-claim the slots; if even this fails they leak
          // zero-filled and uncommitted, which readers skip.
          (void)qp_.FetchAdd(ctrl.rkey, used_counter_offset(partition),
                             static_cast<uint64_t>(-static_cast<int64_t>(want)), ctrl.epoch);
        }
        return ring_status;
      }
      // A reachability failure is a failure-detector observation. When the
      // report tips the slot into failover the allocation restarts on the
      // promoted primary: a claim FAAed onto the dead replica is behind the
      // revoked rkey and unreachable by construction, so re-running the FAA
      // cannot double-allocate.
      if (IsReachabilityFailure(ring_status) && NoteSlotFailure(0, nullptr)) {
        faa_done = false;
      }
    }
  }
  if (has_partner) std::memcpy(&partner_used, partner_buf.data(), 8);

  if (old_used + want + partner_used > meta.overflow_capacity) {
    // Shared area exhausted: roll the allocation back and report Capacity —
    // for the whole group, which keeps batches all-or-nothing per partition.
    // The caller can run Compact() (compactor.h) to fold overflow into the
    // base blobs and start over with an empty overflow area.
    const SlotRoute ctrl = RouteFor(0);
    auto rollback = qp_.FetchAdd(ctrl.rkey, used_counter_offset(partition),
                                 static_cast<uint64_t>(-static_cast<int64_t>(want)), ctrl.epoch);
    if (!rollback.ok()) return rollback.status();
    return Status::Capacity("overflow area full for partition " + std::to_string(partition));
  }

  // Ring(s) 2: write the records at their FAA-assigned slots, on the memory
  // instance that owns this cluster's group. The slot positions keep the
  // cluster + overflow contiguous for single-READ loads.
  for (size_t j = 0; j < count; ++j) offsets[j] = meta.RecordOffset(old_used + j * rec);
  if (replication_ == nullptr) {
    // Records of one partition are adjacent, but each is posted as its own
    // WR (the doorbell coalesces them into one round trip per window). Each
    // WR carries its record index, so only the WRITEs that actually failed
    // are re-issued — dropped WRITEs left their slots zero-filled, making
    // the replay idempotent. On permanent failure the slots are NOT rolled
    // back: concurrent inserts may have FAAed past us, and a decrement now
    // could hand two writers the same slot — an uncommitted zero slot is
    // benign (readers skip it), a collided slot is not.
    const rdma::RKey shard_rkey = memory_.rkey_for_slot(meta.node_slot);
    std::vector<size_t> to_write(count);
    for (size_t j = 0; j < count; ++j) to_write[j] = j;
    RetryBudget budget(options_.retry, &clock_, real_backoff_);
    uint32_t failures = 0;
    for (;;) {
      for (size_t j : to_write) {
        qp_.PostWrite(shard_rkey, offsets[j], records.subspan(j * rec, rec), /*wr_id=*/j);
      }
      qp_.RingDoorbell();
      std::vector<size_t> failed_writes;
      Status first_error;
      rdma::Completion c;
      while (qp_.PollCompletion(&c)) {
        if (c.status == rdma::WcStatus::kSuccess) continue;
        failed_writes.push_back(static_cast<size_t>(c.wr_id));
        if (first_error.ok()) first_error = rdma::QueuePair::ToStatus(c);
      }
      if (failed_writes.empty()) break;
      if (!IsRetryable(first_error) || !budget.AllowRetry(++failures)) {
        return first_error;
      }
      to_write = std::move(failed_writes);
    }
    break;
  }
  // Replicated fan-out: the whole group lands on every live replica of the
  // owning slot, each WRITE acked by a same-ring read-back.
  const Status fanout = ReplicateGroupWrites(meta.node_slot, offsets, records, record_epoch);
  // The FAA above advanced only the primary's counter; mirror the delta
  // onto slot 0's secondaries so a later failover hands out a converged
  // counter, and count the primary's authoritative FAA as its ack.
  const bool counters_converged =
      fanout.ok() &&
      ReplicateCounterAdd(used_counter_offset(partition), want, faa_epoch);
  if (fanout.ok() && counters_converged) {
    Compute().replica_faa_acks->Add(1);
    break;
  }
  const bool era_moved = replication_->SlotEpoch(0) != faa_epoch ||
                         replication_->SlotEpoch(meta.node_slot) != record_epoch;
  if (!era_moved) return fanout;  // genuine failure in a stable era: no ack
  if (!era_budget.AllowRetry(++era_failures)) {
    return fanout.ok()
               ? Status::Unavailable("insert: slot epoch moved before counter catch-up")
               : fanout;
  }
  // Restart. If the slot-0 primary changed, our claim sits behind the
  // revoked rkey — re-run the FAA on the promoted primary (counter deltas
  // already mirrored leak a little overflow space there; readers skip the
  // uncommitted slots). Same slot-0 primary (a re-replication admission
  // bumped an epoch, or the records' own slot failed over): the claim
  // stands, so move it into the current era and re-issue the fan-out —
  // re-writing the same bytes at the same offsets is idempotent.
  const SlotRoute ctrl = RouteFor(0);
  if (ctrl.rkey != faa_rkey) {
    faa_done = false;
  } else {
    faa_epoch = ctrl.epoch;
    record_epoch = replication_->SlotEpoch(meta.node_slot);
  }
  }  // era loop

  // Local bookkeeping: our cached table entry advances; a cached decoded
  // cluster is now stale and must be re-fetched on next use.
  meta.overflow_used = old_used + want;
  cache_.Erase(partition);
  return InsertReceipt{partition, offsets.front()};
}

Result<InsertReceipt> ComputeNode::Insert(std::span<const float> v, uint32_t global_id) {
  if (!connected()) return Status::Unavailable("ComputeNode: not connected");
  if (v.size() != header_.dim) return Status::InvalidArgument("Insert: dim mismatch");

  // Route with the cached meta-HNSW — no network needed to pick the partition.
  const uint32_t partition = meta_->RouteOne(v);
  std::vector<uint8_t> record(table_[partition].record_size);
  EncodeOverflowRecord(global_id, v, record);
  Result<InsertReceipt> receipt = AppendRecords(partition, record);
  if (receipt.ok()) {
    Compute().inserts->Add(1);
  } else if (receipt.status().code() == StatusCode::kCapacity) {
    Compute().insert_rejects->Add(1);
  }
  return receipt;
}

Result<InsertReceipt> ComputeNode::Remove(std::span<const float> v, uint32_t global_id) {
  if (!connected()) return Status::Unavailable("ComputeNode: not connected");
  if (v.size() != header_.dim) return Status::InvalidArgument("Remove: dim mismatch");

  // The tombstone must land in the partition that owns the vector; routing
  // by the vector itself reproduces the assignment/insert decision.
  const uint32_t partition = meta_->RouteOne(v);
  std::vector<uint8_t> record(table_[partition].record_size);
  EncodeOverflowTombstone(global_id, header_.dim, record);
  Result<InsertReceipt> receipt = AppendRecords(partition, record);
  if (receipt.ok()) Compute().removes->Add(1);
  return receipt;
}

Result<ComputeNode::BatchInsertResult> ComputeNode::InsertBatch(
    const VectorSet& vectors, std::span<const uint32_t> global_ids) {
  if (!connected()) return Status::Unavailable("ComputeNode: not connected");
  if (vectors.dim() != header_.dim) {
    return Status::InvalidArgument("InsertBatch: dim mismatch");
  }
  if (vectors.size() != global_ids.size()) {
    return Status::InvalidArgument("InsertBatch: ids/vectors size mismatch");
  }

  // Route everything with the cached meta-HNSW, then group by partition.
  std::unordered_map<uint32_t, std::vector<size_t>> by_partition;
  for (size_t i = 0; i < vectors.size(); ++i) {
    by_partition[meta_->RouteOne(vectors[i])].push_back(i);
  }

  BatchInsertResult result;
  for (const auto& [partition, members] : by_partition) {
    // Records don't depend on the allocation; encode the group once.
    const size_t rec = table_[partition].record_size;
    std::vector<uint8_t> records(members.size() * rec);
    for (size_t j = 0; j < members.size(); ++j) {
      EncodeOverflowRecord(global_ids[members[j]], vectors[members[j]],
                           std::span<uint8_t>(records).subspan(j * rec, rec));
    }
    Result<InsertReceipt> receipt = AppendRecords(partition, records);
    if (receipt.ok()) {
      result.inserted += static_cast<uint32_t>(members.size());
      Compute().inserts->Add(members.size());
    } else if (receipt.status().code() == StatusCode::kCapacity) {
      result.rejected.insert(result.rejected.end(), members.begin(), members.end());
      Compute().insert_rejects->Add(members.size());
    } else {
      return receipt.status();
    }
  }
  std::sort(result.rejected.begin(), result.rejected.end());
  return result;
}

Status ComputeNode::ReplicateGroupWrites(uint32_t slot, std::span<const uint64_t> offsets,
                                         std::span<const uint8_t> records,
                                         uint64_t fence_epoch) {
  const std::vector<ReplicaManager::Route> routes = replication_->WriteRoutes(slot);
  const size_t rec = records.size() / offsets.size();
  AlignedBuffer readback(records.size(), 64);
  for (size_t i = 0; i < routes.size(); ++i) {
    const ReplicaManager::Route& route = routes[i];
    const bool primary = i == 0;
    std::vector<size_t> to_write(offsets.size());
    for (size_t j = 0; j < offsets.size(); ++j) to_write[j] = j;
    RetryBudget budget(options_.retry, &clock_, real_backoff_);
    uint32_t failures = 0;
    Status replica_status;
    for (;;) {
      if (replication_->SlotEpoch(slot) != fence_epoch) {
        // Non-retryable: stale-offset writes must fence out, and retrying
        // the captured epoch against a moved slot only fences out again.
        // The caller restarts the allocation.
        replica_status = Status::NotFound("slot epoch moved during write fan-out");
        break;
      }
      if (replication_->health(slot, route.replica) == ReplicaHealth::kDead) {
        // Deliberately non-retryable: a replica that died mid-fan-out is
        // skipped (secondary) or fails the insert (primary).
        replica_status = Status::NotFound("replica died during write fan-out");
        break;
      }
      // Interleaved WRITE (wr 2j) / READ-back (wr 2j+1) pairs; the doorbell
      // window coalesces them, and the fabric executes a ring's WRs in post
      // order, so each READ returns exactly what its WRITE stored. The
      // record bytes carry their own CRC, so byte-identity is the ack.
      for (size_t j : to_write) {
        qp_.PostWrite(route.rkey, offsets[j], records.subspan(j * rec, rec), /*wr_id=*/2 * j,
                      fence_epoch);
        qp_.PostRead(route.rkey, offsets[j], readback.span().subspan(j * rec, rec),
                     /*wr_id=*/2 * j + 1, fence_epoch);
      }
      qp_.RingDoorbell();
      std::vector<size_t> failed;
      Status first_error;
      rdma::Completion c;
      while (qp_.PollCompletion(&c)) {
        if (c.status == rdma::WcStatus::kSuccess) continue;
        failed.push_back(static_cast<size_t>(c.wr_id / 2));
        if (first_error.ok()) first_error = rdma::QueuePair::ToStatus(c);
      }
      // Ack check: a pair whose verbs both "succeeded" must still read back
      // byte-identical before it counts.
      for (size_t j : to_write) {
        if (std::find(failed.begin(), failed.end(), j) != failed.end()) continue;
        if (std::memcmp(readback.data() + j * rec, records.data() + j * rec, rec) != 0) {
          failed.push_back(j);
          if (first_error.ok()) {
            first_error = Status::Corruption("replica write ack: read-back differs");
          }
        }
      }
      if (failed.empty()) break;
      // The primary's reachability failures feed the failure detector, as
      // the allocation ring's do. When a report tips the slot into failover,
      // the next round fails its epoch check and the caller restarts the
      // allocation on the promoted primary.
      if (primary && IsReachabilityFailure(first_error)) NoteSlotFailure(slot, nullptr);
      if (!IsRetryable(first_error) || !budget.AllowRetry(++failures)) {
        replica_status = std::move(first_error);
        break;
      }
      std::sort(failed.begin(), failed.end());
      failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
      to_write = std::move(failed);
    }
    if (replica_status.ok()) {
      Compute().replica_insert_acks->Add(offsets.size());
      continue;
    }
    if (primary) return replica_status;
    replication_->ReportReplicaFailure(slot, route.replica);
  }
  return Status::Ok();
}

bool ComputeNode::ReplicateCounterAdd(uint64_t remote_offset, uint64_t add,
                                      uint64_t fence_epoch) {
  const std::vector<ReplicaManager::Route> routes = replication_->WriteRoutes(0);
  for (size_t i = 1; i < routes.size(); ++i) {
    const ReplicaManager::Route& route = routes[i];
    // FAA (not WRITE): commutative with concurrent inserts from other
    // compute nodes, so catch-ups never lose deltas.
    Status st = WithRetry([&] {
      if (replication_->SlotEpoch(0) != fence_epoch) {
        return Status::NotFound("slot epoch moved during counter catch-up");
      }
      if (replication_->health(0, route.replica) == ReplicaHealth::kDead) {
        return Status::NotFound("replica died during counter catch-up");
      }
      return qp_.FetchAdd(route.rkey, remote_offset, add, fence_epoch).status();
    });
    if (st.ok()) {
      Compute().replica_faa_acks->Add(1);
      continue;
    }
    if (replication_->SlotEpoch(0) != fence_epoch) {
      // Failover (or re-replication admission) moved the slot before this
      // secondary absorbed the delta: the promoted counter may lag the
      // allocation the caller is about to ack. Not survivable by degrading
      // a replica — the caller must restart the allocation in the new epoch.
      return false;
    }
    // A secondary that cannot absorb the catch-up is degraded, never a
    // reason to fail the insert the primary already committed.
    replication_->ReportReplicaFailure(0, route.replica);
  }
  return true;
}

Status ComputeNode::Reconnect(MemoryNodeHandle memory) {
  memory_ = memory;
  meta_.reset();
  table_.clear();
  cache_.Clear();
  return Connect();
}

}  // namespace dhnsw
