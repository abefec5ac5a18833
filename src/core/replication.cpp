#include "core/replication.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"
#include "telemetry/metrics.h"

namespace dhnsw {

namespace {

// Control-plane instruments: probes, failovers, and streaming all sit far
// from the query hot path, so per-call Add/Set through static pointers is
// fine (same idiom as FabricInstruments).
struct ReplicationInstruments {
  telemetry::Gauge* factor;
  telemetry::Gauge* epoch;
  telemetry::Gauge* min_alive;
  telemetry::Counter* probes;
  telemetry::Counter* probe_misses;
  telemetry::Counter* suspects;
  telemetry::Counter* deaths;
  telemetry::Counter* failovers;
  telemetry::Counter* rereplications;
  telemetry::Counter* copy_chunks;
  telemetry::Counter* copied_bytes;
};

const ReplicationInstruments& Instruments() {
  static const ReplicationInstruments instruments = [] {
    telemetry::MetricRegistry& r = telemetry::DefaultRegistry();
    return ReplicationInstruments{
        r.GetGauge("dhnsw_replication_factor"),
        r.GetGauge("dhnsw_replication_epoch"),
        r.GetGauge("dhnsw_replication_min_alive_replicas"),
        r.GetCounter("dhnsw_replication_probes_total"),
        r.GetCounter("dhnsw_replication_probe_misses_total"),
        r.GetCounter("dhnsw_replication_suspects_total"),
        r.GetCounter("dhnsw_replication_deaths_total"),
        r.GetCounter("dhnsw_replication_failovers_total"),
        r.GetCounter("dhnsw_replication_rereplications_total"),
        r.GetCounter("dhnsw_replication_copy_chunks_total"),
        r.GetCounter("dhnsw_replication_copied_bytes_total"),
    };
  }();
  return instruments;
}

}  // namespace

std::string_view ReplicaHealthName(ReplicaHealth health) noexcept {
  switch (health) {
    case ReplicaHealth::kAlive:
      return "alive";
    case ReplicaHealth::kSuspected:
      return "suspected";
    case ReplicaHealth::kDead:
      return "dead";
  }
  return "?";
}

ReplicaManager::ReplicaManager(rdma::Fabric* fabric, ReplicationOptions options)
    : fabric_(fabric), options_(options), qp_(fabric, &clock_) {
  if (options_.factor == 0) options_.factor = 1;
  if (options_.dead_after_misses < options_.suspect_after_misses) {
    options_.dead_after_misses = options_.suspect_after_misses;
  }
  trace_ctx_ = telemetry::TraceContext{&trace_buffer_, &clock_, 0};
  if (!fabric_->transport().is_sim()) {
    trace_buffer_.set_transport_label(std::string(fabric_->transport().name()));
  }
}

Status ReplicaManager::ProvisionReplicas(const MemoryNodeHandle& handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.clear();
  const size_t num_slots = handle.num_shards();
  slots_.resize(num_slots);
  for (uint32_t s = 0; s < num_slots; ++s) {
    Slot& slot = slots_[s];
    Replica original;
    original.node = handle.shard_rkeys.empty() ? handle.node : handle.shard_nodes[s];
    original.rkey = handle.rkey_for_slot(s);
    slot.replicas.push_back(original);

    const rdma::MemoryRegion* src = fabric_->FindRegion(original.rkey);
    if (src == nullptr) {
      return Status::InvalidArgument("ProvisionReplicas: slot " + std::to_string(s) +
                                     " names an unknown region");
    }
    const uint64_t size = src->size();
    for (uint32_t r = 1; r < options_.factor; ++r) {
      const rdma::NodeId node = fabric_->AddNode("memory-node-r" + std::to_string(r) + "-slot-" +
                                                 std::to_string(s));
      DHNSW_ASSIGN_OR_RETURN(const rdma::RKey rkey, fabric_->RegisterMemory(node, size));
      DHNSW_RETURN_IF_ERROR(StreamRegionLocked(original.rkey, rkey, size));
      slot.replicas.push_back(Replica{node, rkey, ReplicaHealth::kAlive, 0});
    }
    // Admit the whole replica set at epoch 1: from here on every data-path
    // access is fenced, and a replica that later dies is revoked outright.
    slot.epoch = 1;
    for (const Replica& replica : slot.replicas) {
      fabric_->SetRegionEpoch(replica.rkey, slot.epoch);
    }
  }
  Instruments().factor->Set(static_cast<int64_t>(options_.factor));
  PublishGaugesLocked();
  return Status::Ok();
}

ReplicaManager::Route ReplicaManager::PrimaryRoute(uint32_t slot) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size()) return Route{};
  const Slot& s = slots_[slot];
  const Replica& primary = s.replicas[s.primary];
  return Route{primary.rkey, s.epoch, s.primary, primary.health != ReplicaHealth::kDead};
}

std::vector<ReplicaManager::Route> ReplicaManager::WriteRoutes(uint32_t slot) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Route> routes;
  if (slot >= slots_.size()) return routes;
  const Slot& s = slots_[slot];
  routes.push_back(Route{s.replicas[s.primary].rkey, s.epoch, s.primary,
                         s.replicas[s.primary].health != ReplicaHealth::kDead});
  for (uint32_t r = 0; r < s.replicas.size(); ++r) {
    if (r == s.primary || s.replicas[r].health == ReplicaHealth::kDead) continue;
    routes.push_back(Route{s.replicas[r].rkey, s.epoch, r, true});
  }
  return routes;
}

size_t ReplicaManager::num_slots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

uint64_t ReplicaManager::SlotEpoch(uint32_t slot) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slot < slots_.size() ? slots_[slot].epoch : 0;
}

ReplicaHealth ReplicaManager::health(uint32_t slot, uint32_t replica) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size() || replica >= slots_[slot].replicas.size()) {
    return ReplicaHealth::kDead;
  }
  return slots_[slot].replicas[replica].health;
}

uint32_t ReplicaManager::AliveCount(uint32_t slot) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size()) return 0;
  uint32_t alive = 0;
  for (const Replica& replica : slots_[slot].replicas) {
    if (replica.health == ReplicaHealth::kAlive) ++alive;
  }
  return alive;
}

bool ReplicaManager::ProbeLocked(const Replica& replica) {
  uint8_t probe[8] = {};
  Instruments().probes->Add(1);
  const Status status = qp_.Read(replica.rkey, 0, std::span<uint8_t>(probe, sizeof probe));
  if (!status.ok()) Instruments().probe_misses->Add(1);
  return status.ok();
}

uint32_t ReplicaManager::ApplyThresholdsLocked(uint32_t slot, uint32_t replica) {
  Replica& r = slots_[slot].replicas[replica];
  if (r.health == ReplicaHealth::kDead) return 0;
  if (r.misses >= options_.dead_after_misses) {
    MarkDeadLocked(slot, replica);
    return 1;
  }
  if (r.misses >= options_.suspect_after_misses && r.health == ReplicaHealth::kAlive) {
    r.health = ReplicaHealth::kSuspected;
    Instruments().suspects->Add(1);
    trace_ctx_.Event("replication.suspect", telemetry::TraceEvent::kNoQuery, slot, replica);
    return 1;
  }
  return 0;
}

void ReplicaManager::MarkDeadLocked(uint32_t slot, uint32_t replica) {
  Slot& s = slots_[slot];
  Replica& r = s.replicas[replica];
  if (r.health == ReplicaHealth::kDead) return;
  r.health = ReplicaHealth::kDead;
  Instruments().deaths->Add(1);
  // Revocation is the fencing half of failover: even if the node comes back
  // and a compute instance still holds this rkey + an old epoch, the fabric
  // refuses the access (kFenced) — the stale primary can neither serve reads
  // nor absorb writes.
  fabric_->RevokeRegion(r.rkey);
  trace_ctx_.Event("replication.death", telemetry::TraceEvent::kNoQuery, slot, replica);
  if (replica == s.primary) FailoverLocked(slot);
  PublishGaugesLocked();
}

void ReplicaManager::FailoverLocked(uint32_t slot) {
  Slot& s = slots_[slot];
  uint32_t next = s.primary;
  for (ReplicaHealth want : {ReplicaHealth::kAlive, ReplicaHealth::kSuspected}) {
    for (uint32_t r = 0; r < s.replicas.size(); ++r) {
      if (s.replicas[r].health == want) {
        next = r;
        break;
      }
    }
    if (next != s.primary) break;
  }
  if (next == s.primary) {
    // Every replica of the slot is dead. Leave the primary pointing at the
    // revoked region: accesses fail fenced -> Unavailable, and the compute
    // node's partial_results option decides whether the affected queries
    // degrade or the batch errors.
    return;
  }
  s.primary = next;
  ++s.epoch;
  // Re-fence the survivors at the new epoch: compute nodes still stamping the
  // old epoch get kFenced and are forced through a directory refresh before
  // they can touch any replica again.
  for (const Replica& replica : s.replicas) {
    if (replica.health != ReplicaHealth::kDead) {
      fabric_->SetRegionEpoch(replica.rkey, s.epoch);
    }
  }
  Instruments().failovers->Add(1);
  trace_ctx_.Event("replication.failover", telemetry::TraceEvent::kNoQuery, slot, s.epoch);
}

uint32_t ReplicaManager::Tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_.Advance(options_.probe_interval_ns);
  uint32_t transitions = 0;
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    for (uint32_t r = 0; r < slots_[slot].replicas.size(); ++r) {
      Replica& replica = slots_[slot].replicas[r];
      if (replica.health == ReplicaHealth::kDead) continue;
      if (ProbeLocked(replica)) {
        if (replica.misses > 0 || replica.health == ReplicaHealth::kSuspected) {
          replica.misses = 0;
          if (replica.health == ReplicaHealth::kSuspected) {
            replica.health = ReplicaHealth::kAlive;
            trace_ctx_.Event("replication.recover", telemetry::TraceEvent::kNoQuery, slot, r);
            ++transitions;
          }
        }
      } else {
        ++replica.misses;
        transitions += ApplyThresholdsLocked(slot, r);
      }
    }
  }
  PublishGaugesLocked();
  return transitions;
}

bool ReplicaManager::ReportUnreachable(uint32_t slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  Replica& primary = s.replicas[s.primary];
  if (primary.health == ReplicaHealth::kDead) return false;
  const uint64_t epoch_before = s.epoch;
  ++primary.misses;
  if (ProbeLocked(primary)) {
    // The region answers the manager: the reporter's failure was a stale
    // epoch (post-failover/admission) or a transient drop. Clear the strike —
    // the reporter should refresh its route and retry.
    primary.misses = 0;
    if (primary.health == ReplicaHealth::kSuspected) {
      primary.health = ReplicaHealth::kAlive;
      trace_ctx_.Event("replication.recover", telemetry::TraceEvent::kNoQuery, slot, s.primary);
    }
    PublishGaugesLocked();
    return false;
  }
  ++primary.misses;  // the confirm probe itself missed
  ApplyThresholdsLocked(slot, s.primary);
  PublishGaugesLocked();
  return s.epoch != epoch_before;
}

void ReplicaManager::ReportReplicaFailure(uint32_t slot, uint32_t replica) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size() || replica >= slots_[slot].replicas.size()) return;
  Replica& r = slots_[slot].replicas[replica];
  if (r.health == ReplicaHealth::kDead) return;
  ++r.misses;
  ApplyThresholdsLocked(slot, replica);
  PublishGaugesLocked();
}

Status ReplicaManager::StreamRegionLocked(rdma::RKey src, rdma::RKey dst, uint64_t size) {
  telemetry::TraceScope span(trace_ctx_, "replication.copy");
  const uint64_t chunk_bytes = std::max<uint64_t>(1, options_.rereplicate_chunk_bytes);
  const uint32_t window = std::max<uint32_t>(1, options_.rereplicate_doorbell);
  const uint64_t num_chunks = (size + chunk_bytes - 1) / chunk_bytes;
  std::vector<uint32_t> chunk_crcs(num_chunks, 0);
  std::vector<std::vector<uint8_t>> buffers(window);

  const auto chunk_len = [&](uint64_t chunk) {
    const uint64_t offset = chunk * chunk_bytes;
    return std::min<uint64_t>(chunk_bytes, size - offset);
  };
  const auto drain = [&](const char* phase) -> Status {
    for (const rdma::Completion& c : qp_.Flush()) {
      const Status status = rdma::QueuePair::ToStatus(c);
      if (!status.ok()) {
        return Status(status.code(), std::string("re-replication ") + phase +
                                         " failed: " + std::string(status.message()));
      }
    }
    return Status::Ok();
  };

  // Copy: READ a window of chunks off the source, CRC them host-side, WRITE
  // them to the destination — each phase one doorbell ring.
  for (uint64_t base = 0; base < num_chunks; base += window) {
    const uint32_t batch = static_cast<uint32_t>(std::min<uint64_t>(window, num_chunks - base));
    for (uint32_t i = 0; i < batch; ++i) {
      buffers[i].resize(chunk_len(base + i));
      qp_.PostRead(src, (base + i) * chunk_bytes, buffers[i], /*wr_id=*/base + i);
    }
    DHNSW_RETURN_IF_ERROR(drain("source read"));
    for (uint32_t i = 0; i < batch; ++i) {
      chunk_crcs[base + i] = Crc32c(buffers[i]);
      qp_.PostWrite(dst, (base + i) * chunk_bytes, buffers[i], /*wr_id=*/base + i);
      Instruments().copy_chunks->Add(1);
      Instruments().copied_bytes->Add(buffers[i].size());
    }
    DHNSW_RETURN_IF_ERROR(drain("destination write"));
  }

  // Verify: re-read every destination chunk and check it against the CRC
  // recorded at copy time before the replica is admitted.
  for (uint64_t base = 0; base < num_chunks; base += window) {
    const uint32_t batch = static_cast<uint32_t>(std::min<uint64_t>(window, num_chunks - base));
    for (uint32_t i = 0; i < batch; ++i) {
      buffers[i].resize(chunk_len(base + i));
      qp_.PostRead(dst, (base + i) * chunk_bytes, buffers[i], /*wr_id=*/base + i);
    }
    DHNSW_RETURN_IF_ERROR(drain("verify read"));
    for (uint32_t i = 0; i < batch; ++i) {
      if (Crc32c(buffers[i]) != chunk_crcs[base + i]) {
        return Status::Corruption("re-replication verify failed: chunk " +
                                  std::to_string(base + i) + " CRC mismatch");
      }
    }
  }
  span.set_args(num_chunks, size);
  return Status::Ok();
}

Status ReplicaManager::Rereplicate(uint32_t slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size()) {
    return Status::InvalidArgument("Rereplicate: unknown slot " + std::to_string(slot));
  }
  Slot& s = slots_[slot];
  uint32_t non_dead = 0;
  for (const Replica& replica : s.replicas) {
    if (replica.health != ReplicaHealth::kDead) ++non_dead;
  }
  if (non_dead >= options_.factor) return Status::Ok();
  const Replica& source = s.replicas[s.primary];
  if (source.health == ReplicaHealth::kDead) {
    return Status::Unavailable("Rereplicate: no live replica of slot " + std::to_string(slot) +
                               " to stream from");
  }
  const rdma::MemoryRegion* region = fabric_->FindRegion(source.rkey);
  if (region == nullptr) {
    return Status::Internal("Rereplicate: primary region vanished");
  }
  const uint64_t size = region->size();
  const rdma::NodeId node =
      fabric_->AddNode("memory-node-r" + std::to_string(s.replicas.size()) + "-slot-" +
                       std::to_string(slot));
  DHNSW_ASSIGN_OR_RETURN(const rdma::RKey rkey, fabric_->RegisterMemory(node, size));
  DHNSW_RETURN_IF_ERROR(StreamRegionLocked(source.rkey, rkey, size));
  // Atomic admission: the new copy becomes visible only together with the
  // epoch bump, so no compute node can read it under the old epoch and no
  // write fan-out can miss it under the new one.
  ++s.epoch;
  s.replicas.push_back(Replica{node, rkey, ReplicaHealth::kAlive, 0});
  for (const Replica& replica : s.replicas) {
    if (replica.health != ReplicaHealth::kDead) {
      fabric_->SetRegionEpoch(replica.rkey, s.epoch);
    }
  }
  Instruments().rereplications->Add(1);
  trace_ctx_.Event("replication.admit", telemetry::TraceEvent::kNoQuery, slot, s.epoch);
  PublishGaugesLocked();
  return Status::Ok();
}

Status ReplicaManager::RereplicateAll() {
  const size_t slots = num_slots();
  for (uint32_t slot = 0; slot < slots; ++slot) {
    uint32_t missing = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      uint32_t non_dead = 0;
      for (const Replica& replica : slots_[slot].replicas) {
        if (replica.health != ReplicaHealth::kDead) ++non_dead;
      }
      missing = non_dead < options_.factor ? options_.factor - non_dead : 0;
    }
    for (uint32_t i = 0; i < missing; ++i) {
      DHNSW_RETURN_IF_ERROR(Rereplicate(slot));
    }
  }
  return Status::Ok();
}

std::string ReplicaManager::TopologyText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "replication factor " + std::to_string(options_.factor) + ", " +
                    std::to_string(slots_.size()) + " slot(s)\n";
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const Slot& s = slots_[slot];
    out += "slot " + std::to_string(slot) + ": epoch " + std::to_string(s.epoch) +
           ", primary replica " + std::to_string(s.primary) + "\n";
    for (uint32_t r = 0; r < s.replicas.size(); ++r) {
      const Replica& replica = s.replicas[r];
      out += "  replica " + std::to_string(r) + ": node " + std::to_string(replica.node) + " (" +
             fabric_->NodeName(replica.node) + ") " + std::string(ReplicaHealthName(replica.health));
      if (fabric_->IsRegionRevoked(replica.rkey)) out += " [revoked]";
      if (r == s.primary) out += " *";
      out += "\n";
    }
  }
  return out;
}

void ReplicaManager::PublishGaugesLocked() const {
  uint64_t max_epoch = 0;
  int64_t min_alive = slots_.empty() ? 0 : INT64_MAX;
  for (const Slot& s : slots_) {
    max_epoch = std::max(max_epoch, s.epoch);
    int64_t alive = 0;
    for (const Replica& replica : s.replicas) {
      if (replica.health == ReplicaHealth::kAlive) ++alive;
    }
    min_alive = std::min(min_alive, alive);
  }
  Instruments().epoch->Set(static_cast<int64_t>(max_epoch));
  Instruments().min_alive->Set(min_alive);
}

}  // namespace dhnsw
