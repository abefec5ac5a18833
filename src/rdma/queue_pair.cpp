#include "rdma/queue_pair.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "telemetry/metrics.h"

namespace dhnsw::rdma {

namespace {

// Registry instruments mirroring QpStats across every QP in the process.
// Resolved once per transport kind (first ring pays the registration); the
// record path is pure relaxed atomics and never allocates. The simulator
// keeps the historical bare metric names; real backends register a separate
// `{transport="..."}`-labeled set, so sim metric output stays byte-identical
// while mixed-backend processes keep their streams apart.
struct RdmaInstruments {
  telemetry::Counter* round_trips;
  telemetry::Counter* work_requests;
  telemetry::Counter* reads;
  telemetry::Counter* writes;
  telemetry::Counter* atomics;
  telemetry::Counter* bytes_read;
  telemetry::Counter* bytes_written;
  telemetry::Counter* sim_network_ns;
  telemetry::Counter* injected_faults;
  telemetry::Counter* fenced_ops;
  telemetry::Histogram* ring_wrs;
};

RdmaInstruments MakeInstruments(const std::string& label) {
  telemetry::MetricRegistry& r = telemetry::DefaultRegistry();
  auto name = [&label](const char* base) { return std::string(base) + label; };
  return RdmaInstruments{
      r.GetCounter(name("dhnsw_rdma_round_trips_total")),
      r.GetCounter(name("dhnsw_rdma_work_requests_total")),
      r.GetCounter(name("dhnsw_rdma_reads_total")),
      r.GetCounter(name("dhnsw_rdma_writes_total")),
      r.GetCounter(name("dhnsw_rdma_atomics_total")),
      r.GetCounter(name("dhnsw_rdma_bytes_read_total")),
      r.GetCounter(name("dhnsw_rdma_bytes_written_total")),
      r.GetCounter(name("dhnsw_rdma_sim_network_ns_total")),
      r.GetCounter(name("dhnsw_rdma_injected_faults_total")),
      r.GetCounter(name("dhnsw_rdma_fenced_ops_total")),
      r.GetHistogram(name("dhnsw_rdma_ring_wrs")),
  };
}

const RdmaInstruments& Rdma(TransportKind kind) {
  static const RdmaInstruments sim = MakeInstruments("");
  static const RdmaInstruments tcp = MakeInstruments("{transport=\"tcp\"}");
  static const RdmaInstruments verbs = MakeInstruments("{transport=\"verbs\"}");
  switch (kind) {
    case TransportKind::kTcp:
      return tcp;
    case TransportKind::kVerbs:
      return verbs;
    case TransportKind::kSim:
      break;
  }
  return sim;
}

}  // namespace

QueuePair::QueuePair(Fabric* fabric, SimClock* clock, uint32_t max_doorbell_wrs)
    : fabric_(fabric), clock_(clock),
      channel_(fabric->transport().CreateChannel()),
      kind_(fabric->transport().kind()),
      sim_(kind_ == TransportKind::kSim),
      max_doorbell_wrs_(max_doorbell_wrs == 0 ? 1 : max_doorbell_wrs),
      qp_id_(fabric->AllocateQpId()) {}

void QueuePair::RefreshInjector() {
  std::shared_ptr<const FaultPlan> plan = fabric_->fault_plan();
  if (plan == armed_plan_) return;
  armed_plan_ = std::move(plan);
  injector_ = (armed_plan_ == nullptr || armed_plan_->empty())
                  ? nullptr
                  : std::make_unique<FaultInjector>(armed_plan_, qp_id_);
}

void QueuePair::PostRead(RKey rkey, uint64_t remote_offset, std::span<uint8_t> dst,
                         uint64_t wr_id, uint64_t expected_epoch) {
  send_queue_.push_back(WorkRequest{
      .wr_id = wr_id, .opcode = Opcode::kRead, .rkey = rkey,
      .remote_offset = remote_offset, .local = dst,
      .expected_epoch = expected_epoch});
}

void QueuePair::PostWrite(RKey rkey, uint64_t remote_offset, std::span<const uint8_t> src,
                          uint64_t wr_id, uint64_t expected_epoch) {
  // WRITE never modifies the local buffer; the non-const span in WorkRequest
  // is a convenience for sharing the struct with READ.
  send_queue_.push_back(WorkRequest{
      .wr_id = wr_id, .opcode = Opcode::kWrite, .rkey = rkey,
      .remote_offset = remote_offset,
      .local = {const_cast<uint8_t*>(src.data()), src.size()},
      .expected_epoch = expected_epoch});
}

void QueuePair::PostCompareSwap(RKey rkey, uint64_t remote_offset, uint64_t compare,
                                uint64_t swap, uint64_t wr_id, uint64_t expected_epoch) {
  send_queue_.push_back(WorkRequest{
      .wr_id = wr_id, .opcode = Opcode::kCompareSwap, .rkey = rkey,
      .remote_offset = remote_offset, .local = {},
      .compare = compare, .swap_or_add = swap,
      .expected_epoch = expected_epoch});
}

void QueuePair::PostFetchAdd(RKey rkey, uint64_t remote_offset, uint64_t add, uint64_t wr_id,
                             uint64_t expected_epoch) {
  send_queue_.push_back(WorkRequest{
      .wr_id = wr_id, .opcode = Opcode::kFetchAdd, .rkey = rkey,
      .remote_offset = remote_offset, .local = {},
      .swap_or_add = add,
      .expected_epoch = expected_epoch});
}

uint64_t QueuePair::ExecuteRing(std::span<const WorkRequest> wrs,
                                std::span<Completion> completions,
                                uint64_t* injected_faults) {
  // Sim consumes the injector per-WR in ExecuteWr; on real backends the
  // ChaosChannel decorator consumes it before WRs reach the wire.
  const RingFaultContext faults{injector_.get(), injected_faults};
  return channel_->ExecuteRing(wrs, completions, faults);
}

void QueuePair::AccountRing(std::span<const WorkRequest> wrs,
                            std::span<const Completion> completions, uint64_t charge_ns) {
  const uint64_t ring_sim_start = trace_ != nullptr ? trace_->now_ns() : 0;
  BatchShape shape;
  uint64_t fenced = 0;
  for (size_t i = 0; i < wrs.size(); ++i) {
    const WorkRequest& wr = wrs[i];
    const Completion& c = completions[i];
    ++shape.num_wrs;
    ++stats_.work_requests;
    if (c.status == WcStatus::kFenced) ++fenced;
    switch (wr.opcode) {
      case Opcode::kRead:
        ++stats_.reads;
        if (c.status == WcStatus::kSuccess) stats_.bytes_read += c.byte_len;
        shape.payload_bytes += wr.local.size();
        break;
      case Opcode::kWrite:
        ++stats_.writes;
        if (c.status == WcStatus::kSuccess) stats_.bytes_written += c.byte_len;
        shape.payload_bytes += wr.local.size();
        break;
      case Opcode::kCompareSwap:
      case Opcode::kFetchAdd:
        ++stats_.atomics;
        ++shape.num_atomics;
        shape.payload_bytes += 8;
        break;
    }
  }
  // Sim: deterministic NicModel cost plus injected latency. Real backends:
  // the measured wall time of the round trip, verbatim — no model on top of
  // real hardware, so sim_network_ns holds real network ns there.
  const uint64_t cost_ns =
      sim_ ? CostOfBatch(fabric_->nic_config(), shape) + charge_ns : charge_ns;
  if (clock_ != nullptr) clock_->Advance(cost_ns);
  stats_.sim_network_ns += cost_ns;
  ++stats_.round_trips;
  if (fenced > 0) Rdma(kind_).fenced_ops->Add(fenced);
  Rdma(kind_).ring_wrs->Record(shape.num_wrs);
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->buffer->Append(telemetry::TraceEvent{
        "rdma.ring", trace_->batch, telemetry::TraceEvent::kNoQuery, ring_sim_start,
        trace_->now_ns(), 0, shape.num_wrs, shape.payload_bytes});
  }
}

void QueuePair::MirrorStatsDelta(const QpStats& before) {
  const RdmaInstruments& rdma = Rdma(kind_);
  rdma.round_trips->Add(stats_.round_trips - before.round_trips);
  rdma.work_requests->Add(stats_.work_requests - before.work_requests);
  rdma.reads->Add(stats_.reads - before.reads);
  rdma.writes->Add(stats_.writes - before.writes);
  rdma.atomics->Add(stats_.atomics - before.atomics);
  rdma.bytes_read->Add(stats_.bytes_read - before.bytes_read);
  rdma.bytes_written->Add(stats_.bytes_written - before.bytes_written);
  rdma.sim_network_ns->Add(stats_.sim_network_ns - before.sim_network_ns);
  rdma.injected_faults->Add(stats_.injected_faults - before.injected_faults);
}

uint32_t QueuePair::RingDoorbell() {
  assert(async_staging_ == nullptr && "RingDoorbell: staged async rings not taken");
  std::unique_ptr<AsyncBatch> batch = TakeAsyncBatch();
  if (batch == nullptr) return 0;
  ExecuteAsyncBatch(batch.get());
  return ReapAsyncBatch(batch.get());
}

void QueuePair::StageAsyncRing() {
  if (send_queue_.empty()) return;
  if (async_staging_ == nullptr) async_staging_ = std::make_unique<AsyncBatch>();
  AsyncBatch& batch = *async_staging_;
  const size_t begin = batch.wrs_.size();
  batch.wrs_.insert(batch.wrs_.end(), send_queue_.begin(), send_queue_.end());
  batch.groups_.push_back(AsyncBatch::RingGroup{begin, batch.wrs_.size()});
  send_queue_.clear();
}

std::unique_ptr<AsyncBatch> QueuePair::TakeAsyncBatch() {
  StageAsyncRing();  // pick up posted-but-unstaged WRs as a final group
  if (async_staging_ == nullptr) return nullptr;
  // Arm on the owner thread: the injector's decision stream depends only on
  // this QP's WR sequence, so evaluating it later from a worker thread keeps
  // the same deterministic outcomes the sync path would have produced.
  RefreshInjector();
  async_staging_->window_ = max_doorbell_wrs_;
  return std::move(async_staging_);
}

void QueuePair::ExecuteAsyncBatch(AsyncBatch* batch) {
  assert(batch != nullptr && !batch->executed_);
  batch->completions_.resize(batch->wrs_.size());
  batch->extra_ns_.assign(batch->wrs_.size(), 0);
  // Execute per doorbell chunk — the same chunking ReapAsyncBatch will use
  // (window captured at take time) — so each chunk is one transport round
  // trip, and its raw charge lands at the chunk's first WR index where the
  // reap-side per-chunk summation recovers it.
  for (const AsyncBatch::RingGroup& group : batch->groups_) {
    size_t begin = group.begin;
    while (begin < group.end) {
      const size_t end =
          std::min(group.end, begin + static_cast<size_t>(batch->window_));
      batch->extra_ns_[begin] =
          ExecuteRing({batch->wrs_.data() + begin, end - begin},
                      {batch->completions_.data() + begin, end - begin},
                      &batch->injected_faults_);
      begin = end;
    }
  }
  batch->executed_ = true;
}

uint32_t QueuePair::ReapAsyncBatch(AsyncBatch* batch) {
  assert(batch != nullptr && batch->executed_);
  const QpStats before = stats_;
  uint32_t rings = 0;
  for (const AsyncBatch::RingGroup& group : batch->groups_) {
    size_t begin = group.begin;
    while (begin < group.end) {
      const size_t end =
          std::min(group.end, begin + static_cast<size_t>(batch->window_));
      uint64_t extra_ns = 0;
      for (size_t i = begin; i < end; ++i) extra_ns += batch->extra_ns_[i];
      AccountRing({batch->wrs_.data() + begin, end - begin},
                  {batch->completions_.data() + begin, end - begin}, extra_ns);
      completion_queue_.insert(completion_queue_.end(), batch->completions_.begin() + begin,
                               batch->completions_.begin() + end);
      ++rings;
      begin = end;
    }
  }
  stats_.injected_faults += batch->injected_faults_;
  MirrorStatsDelta(before);
  return rings;
}

bool QueuePair::PollCompletion(Completion* out) {
  if (completion_queue_.empty()) return false;
  *out = completion_queue_.front();
  completion_queue_.pop_front();
  return true;
}

std::vector<Completion> QueuePair::Flush() {
  RingDoorbell();
  std::vector<Completion> out(completion_queue_.begin(), completion_queue_.end());
  completion_queue_.clear();
  return out;
}

Status QueuePair::ToStatus(const Completion& c) {
  switch (c.status) {
    case WcStatus::kSuccess:
      return Status::Ok();
    case WcStatus::kRemoteAccessError:
      return Status::OutOfRange("rdma remote access error");
    case WcStatus::kRemoteUnreachable:
      return Status::Unavailable("rdma remote node unreachable");
    case WcStatus::kLocalLengthError:
      return Status::InvalidArgument("rdma local buffer length error");
    case WcStatus::kTimeout:
      return Status::DeadlineExceeded("rdma op timed out");
    case WcStatus::kFenced:
      return Status::Unavailable("rdma op fenced: stale epoch or revoked rkey");
  }
  return Status::Internal("unknown completion status");
}

Status QueuePair::Read(RKey rkey, uint64_t remote_offset, std::span<uint8_t> dst,
                       uint64_t expected_epoch) {
  if (!completion_queue_.empty() || !send_queue_.empty()) {
    return Status::Internal("Read: QP has pending WRs or undrained completions");
  }
  PostRead(rkey, remote_offset, dst, /*wr_id=*/0, expected_epoch);
  RingDoorbell();
  Completion c;
  const bool have = PollCompletion(&c);
  if (!have) return Status::Internal("missing completion after Read");
  return ToStatus(c);
}

Status QueuePair::Write(RKey rkey, uint64_t remote_offset, std::span<const uint8_t> src,
                        uint64_t expected_epoch) {
  if (!completion_queue_.empty() || !send_queue_.empty()) {
    return Status::Internal("Write: QP has pending WRs or undrained completions");
  }
  PostWrite(rkey, remote_offset, src, /*wr_id=*/0, expected_epoch);
  RingDoorbell();
  Completion c;
  const bool have = PollCompletion(&c);
  if (!have) return Status::Internal("missing completion after Write");
  return ToStatus(c);
}

Result<uint64_t> QueuePair::CompareSwap(RKey rkey, uint64_t remote_offset, uint64_t compare,
                                        uint64_t swap) {
  if (!completion_queue_.empty() || !send_queue_.empty()) {
    return Status::Internal("CompareSwap: QP has pending WRs or undrained completions");
  }
  PostCompareSwap(rkey, remote_offset, compare, swap);
  RingDoorbell();
  Completion c;
  if (!PollCompletion(&c)) return Status::Internal("missing completion after CAS");
  Status st = ToStatus(c);
  if (!st.ok()) return st;
  return c.atomic_result;
}

Result<uint64_t> QueuePair::FetchAdd(RKey rkey, uint64_t remote_offset, uint64_t add,
                                     uint64_t expected_epoch) {
  if (!completion_queue_.empty() || !send_queue_.empty()) {
    return Status::Internal("FetchAdd: QP has pending WRs or undrained completions");
  }
  PostFetchAdd(rkey, remote_offset, add, /*wr_id=*/0, expected_epoch);
  RingDoorbell();
  Completion c;
  if (!PollCompletion(&c)) return Status::Internal("missing completion after FAA");
  Status st = ToStatus(c);
  if (!st.ok()) return st;
  return c.atomic_result;
}

}  // namespace dhnsw::rdma
