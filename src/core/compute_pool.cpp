#include "core/compute_pool.h"

#include <algorithm>
#include <cassert>
#include <latch>
#include <string>
#include <tuple>

#include "common/timer.h"
#include "telemetry/metrics.h"

namespace dhnsw {

namespace {

/// Tenants beyond this many get stats but no dedicated registry counter
/// (instrument names are per-tenant and the registry lives process-wide).
constexpr uint32_t kMaxTenantInstruments = 16;

}  // namespace

struct ComputePool::ShardCall {
  /// Shard s covers queries [Begin(s), Begin(s + 1)).
  size_t Begin(size_t s) const { return s * queries.size() / shards; }

  const VectorSet& queries;
  size_t k;
  uint32_t ef_search;
  size_t shards;
  std::vector<Result<BatchResult>> results;  ///< one per shard, set by its lane
  std::latch done;                           ///< counts shards still to run
};

uint32_t PickLeastLoaded(std::span<const size_t> outstanding,
                         std::span<const std::vector<uint32_t>> recent,
                         std::span<const uint64_t> assigned,
                         std::span<const uint32_t> routes) {
  // Lexicographic: fewest outstanding, most routes held, fewest assigned;
  // the strict comparison keeps the lowest index on a full tie.
  const auto key = [&](uint32_t lane) {
    const auto held = std::count_if(routes.begin(), routes.end(), [&](uint32_t c) {
      return std::find(recent[lane].begin(), recent[lane].end(), c) != recent[lane].end();
    });
    return std::tuple(outstanding[lane], -held, assigned[lane]);
  };
  uint32_t best = 0;
  for (uint32_t i = 1; i < outstanding.size(); ++i) {
    if (key(i) < key(best)) best = i;
  }
  return best;
}

void TouchRecent(std::vector<uint32_t>* recent, std::span<const uint32_t> routes,
                 size_t capacity) {
  for (uint32_t cluster : routes) {
    const auto it = std::find(recent->begin(), recent->end(), cluster);
    if (it != recent->end()) recent->erase(it);
    recent->push_back(cluster);
  }
  if (recent->size() > capacity) {
    recent->erase(recent->begin(),
                  recent->end() - static_cast<std::ptrdiff_t>(capacity));
  }
}

double PoolRunStats::cache_hit_share(size_t node) const noexcept {
  uint64_t hits = 0, lookups = 0;
  for (size_t i = 0; i < per_node_cache_hits.size(); ++i) {
    if (node != SIZE_MAX && i != node) continue;
    hits += per_node_cache_hits[i];
    lookups += per_node_cache_lookups[i];
  }
  return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
}

ComputePool::ComputePool(std::vector<ComputeNode*> nodes, ComputePoolOptions options)
    : options_(options) {
  assert(!nodes.empty());
  options_.num_tenants = std::max<uint32_t>(1, options_.num_tenants);
  options_.admission.node_queue_capacity =
      std::max<size_t>(1, options_.admission.node_queue_capacity);

  telemetry::MetricRegistry& reg = telemetry::DefaultRegistry();
  ops_total_ = reg.GetCounter("dhnsw_pool_ops_total");
  admitted_total_ = reg.GetCounter("dhnsw_pool_admitted_total");
  dropped_total_ = reg.GetCounter("dhnsw_pool_dropped_total");
  dropped_queue_full_total_ = reg.GetCounter("dhnsw_pool_dropped_queue_full_total");
  dropped_tenant_limit_total_ = reg.GetCounter("dhnsw_pool_dropped_tenant_limit_total");
  failures_total_ = reg.GetCounter("dhnsw_pool_op_failures_total");
  latency_us_hist_ = reg.GetHistogram("dhnsw_pool_op_latency_us");
  nodes_gauge_ = reg.GetGauge("dhnsw_pool_nodes");
  nodes_gauge_->Set(static_cast<int64_t>(nodes.size()));
  for (uint32_t t = 0; t < std::min(options_.num_tenants, kMaxTenantInstruments); ++t) {
    tenant_drop_counters_.push_back(reg.GetCounter(
        "dhnsw_pool_tenant" + std::to_string(t) + "_drops_total"));
  }

  assigned_.assign(nodes.size(), 0);
  recent_.resize(nodes.size());
  tenant_inflight_ = std::make_unique<std::atomic<int64_t>[]>(options_.num_tenants);
  for (uint32_t t = 0; t < options_.num_tenants; ++t) tenant_inflight_[t].store(0);

  lanes_.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto lane = std::make_unique<Lane>();
    lane->node = nodes[i];
    lane->depth_gauge = reg.GetGauge(
        "dhnsw_pool_node" + std::to_string(i) + "_queue_depth");
    lane->ops_counter = reg.GetCounter(
        "dhnsw_pool_node" + std::to_string(i) + "_ops_total");
    lane->depth_gauge->Set(0);
    lanes_.push_back(std::move(lane));
  }
  if (options_.trace_capacity > 0) EnableTracing(options_.trace_capacity);
  for (auto& lane : lanes_) {
    lane->thread = std::thread([this, lane = lane.get()] { WorkerLoop(lane); });
  }
}

ComputePool::~ComputePool() {
  for (auto& lane : lanes_) {
    {
      std::lock_guard<std::mutex> lock(lane->mutex);
      lane->stop = true;
    }
    lane->cv_nonempty.notify_all();
    lane->cv_room.notify_all();
  }
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
}

void ComputePool::EnableTracing(size_t capacity) {
  dispatch_trace_.Reserve(capacity);
  for (auto& lane : lanes_) lane->trace.Reserve(capacity);
}

void ComputePool::ClearTraces() {
  dispatch_trace_.Clear();
  for (auto& lane : lanes_) lane->trace.Clear();
}

uint32_t ComputePool::PickNode(std::span<const uint32_t> routes) {
  if (options_.dispatch == DispatchPolicy::kLeastLoaded) {
    std::vector<size_t> outstanding(lanes_.size());
    for (size_t i = 0; i < lanes_.size(); ++i) {
      outstanding[i] = lanes_[i]->outstanding.load(std::memory_order_relaxed);
    }
    return PickLeastLoaded(outstanding, recent_, assigned_, routes);
  }
  uint32_t best = 0;  // kLeastAssigned
  for (uint32_t i = 1; i < lanes_.size(); ++i) {
    if (assigned_[i] < assigned_[best]) best = i;
  }
  return best;
}

void ComputePool::ExecuteOp(Lane* lane, const QueuedOp& item) {
  const WorkloadOp& op = *item.op;
  const auto start = std::chrono::steady_clock::now();
  const uint64_t queue_wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - item.admitted)
          .count());

  telemetry::TraceContext ctx{&lane->trace, nullptr, run_seq_};
  Status status;
  std::vector<Scored> results;
  {
    telemetry::TraceScope span(ctx, "pool.op", static_cast<uint32_t>(item.index));
    span.set_args(static_cast<uint64_t>(op.kind), op.tenant);
    if (op.kind == WorkloadOp::Kind::kSearch) {
      VectorSet one(lane->node->dim());
      one.Append(op.vector);
      const std::span<const std::vector<uint32_t>> routes(&item.routes,
                                                          item.routes.empty() ? 0 : 1);
      auto run =
          lane->node->SearchBatch(one, 0, 1, options_.k, options_.ef_search, routes);
      if (!run.ok()) {
        status = run.status();
      } else {
        const BatchBreakdown& breakdown = run.value().breakdown;
        lane->cache_hits += breakdown.cache_hits;
        lane->cache_lookups += breakdown.cache_hits + breakdown.clusters_loaded;
        status = run.value().statuses.empty() ? Status::Ok() : run.value().statuses[0];
        results = std::move(run.value().results[0]);
      }
      ++lane->searches;
    } else {
      auto run = lane->node->Insert(op.vector, op.global_id);
      status = run.status();
      ++lane->inserts;
    }
  }

  const uint64_t total_wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - item.admitted)
          .count());

  ++lane->ops;
  if (status.ok()) {
    ++lane->ok;
  } else {
    ++lane->failed;
    failures_total_->Add(1);
  }
  const double sojourn_us = static_cast<double>(total_wall_ns) / 1e3;
  lane->latency_us.Add(sojourn_us);
  if (op.tenant < lane->tenant_latency_us.size()) {
    lane->tenant_latency_us[op.tenant].Add(sojourn_us);
  }
  lane->ops_counter->Add(1);
  latency_us_hist_->Record(static_cast<uint64_t>(sojourn_us));

  if (run_outcomes_ != nullptr) {
    OpOutcome& out = (*run_outcomes_)[item.index];
    out.status = std::move(status);
    out.results = std::move(results);
    out.node = lane->index;
    out.queue_wall_ns = queue_wall_ns;
    out.total_wall_ns = total_wall_ns;
  }
  if (op.tenant < options_.num_tenants) {
    tenant_inflight_[op.tenant].fetch_sub(1, std::memory_order_relaxed);
  }
}

void ComputePool::RunShard(Lane* lane, const QueuedOp& item) {
  ShardCall& call = *item.shard;
  const size_t begin = call.Begin(item.index);
  const size_t count = call.Begin(item.index + 1) - begin;
  Result<BatchResult> run =
      lane->node->SearchBatch(call.queries, begin, count, call.k, call.ef_search);
  if (!run.ok() && lane->node->options().partial_results) {
    // The node could not serve its shard at all: each of the shard's
    // queries degrades to an empty result carrying the error.
    BatchResult degraded;
    degraded.results.resize(count);
    degraded.statuses.assign(count, run.status());
    run = std::move(degraded);
  }
  call.results[item.index] = std::move(run);
}

void ComputePool::WorkerLoop(Lane* lane) {
  for (;;) {
    QueuedOp item;
    {
      std::unique_lock<std::mutex> lock(lane->mutex);
      lane->cv_nonempty.wait(lock, [lane] { return lane->stop || !lane->queue.empty(); });
      if (lane->queue.empty()) return;  // stop requested, queue drained
      item = lane->queue.front();
      lane->queue.pop_front();
      lane->depth.store(lane->queue.size(), std::memory_order_relaxed);
      lane->depth_gauge->Set(static_cast<int64_t>(lane->queue.size()));
    }
    lane->cv_room.notify_one();

    if (item.shard != nullptr) {
      RunShard(lane, item);
      lane->outstanding.fetch_sub(1, std::memory_order_relaxed);
      item.shard->done.count_down();  // the caller may free the call now
      continue;
    }
    ExecuteOp(lane, item);
    lane->outstanding.fetch_sub(1, std::memory_order_relaxed);

    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      ++done_count_;
    }
    done_cv_.notify_all();
  }
}

PoolRunStats ComputePool::Run(std::span<const WorkloadOp> ops, PoolRunMode mode,
                              std::vector<OpOutcome>* outcomes) {
  PoolRunStats stats;
  stats.submitted = ops.size();
  stats.per_tenant_latency_us.resize(options_.num_tenants);
  stats.per_tenant_drops.assign(options_.num_tenants, 0);
  stats.per_node_ops.assign(lanes_.size(), 0);
  stats.per_node_cache_hits.assign(lanes_.size(), 0);
  stats.per_node_cache_lookups.assign(lanes_.size(), 0);

  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    assert(!run_active_ && "one Run at a time");
    run_active_ = true;
    done_count_ = 0;
  }
  ++run_seq_;
  std::fill(assigned_.begin(), assigned_.end(), 0);
  for (uint32_t t = 0; t < options_.num_tenants; ++t) tenant_inflight_[t].store(0);
  for (uint32_t i = 0; i < lanes_.size(); ++i) {
    Lane* lane = lanes_[i].get();
    lane->index = i;
    lane->ops = lane->ok = lane->failed = lane->searches = lane->inserts = 0;
    lane->cache_hits = lane->cache_lookups = 0;
    lane->latency_us.Reset();
    lane->tenant_latency_us.assign(options_.num_tenants, LatencyRecorder{});
  }
  if (outcomes != nullptr) outcomes->assign(ops.size(), OpOutcome{});
  run_ops_ = ops;
  run_outcomes_ = outcomes;

  telemetry::TraceContext dispatch_ctx{&dispatch_trace_, nullptr, run_seq_};
  const bool paced = mode == PoolRunMode::kPaced;
  const size_t capacity = options_.admission.node_queue_capacity;
  const size_t tenant_limit = options_.admission.tenant_inflight_limit;
  // kLeastLoaded routes each search once, here, on node 0's meta-HNSW, and
  // the lane searches with those routes. That needs every node to route
  // alike; a pool that mixes b or ef_meta places without routes.
  const ComputeOptions& first = lanes_[0]->node->options();
  const bool route_at_dispatch =
      options_.dispatch == DispatchPolicy::kLeastLoaded && lanes_[0]->node->connected() &&
      std::all_of(lanes_.begin(), lanes_.end(), [&first](const auto& lane) {
        const ComputeOptions& o = lane->node->options();
        return o.clusters_per_query == first.clusters_per_query &&
               o.ef_meta == first.ef_meta;
      });

  WallTimer wall;
  const auto start_tp = std::chrono::steady_clock::now();
  size_t admitted = 0;

  for (size_t i = 0; i < ops.size(); ++i) {
    const WorkloadOp& op = ops[i];
    if (paced) {
      const auto due = start_tp + std::chrono::nanoseconds(op.arrival_ns);
      if (due > std::chrono::steady_clock::now()) std::this_thread::sleep_until(due);
    }
    ops_total_->Add(1);

    const auto drop = [&](Status st, uint64_t* bucket, uint64_t reason) {
      ++*bucket;
      if (op.tenant < stats.per_tenant_drops.size()) ++stats.per_tenant_drops[op.tenant];
      if (op.tenant < tenant_drop_counters_.size()) tenant_drop_counters_[op.tenant]->Add(1);
      dropped_total_->Add(1);
      dispatch_ctx.Event("pool.drop", static_cast<uint32_t>(i), reason, op.tenant);
      if (outcomes != nullptr) {
        OpOutcome& out = (*outcomes)[i];
        out.status = std::move(st);
        out.dropped = true;
      }
    };

    if (op.tenant >= options_.num_tenants) {
      drop(Status::InvalidArgument("pool: tenant out of range"),
           &stats.dropped_invalid, 0);
      continue;
    }
    if (paced && tenant_limit > 0 &&
        tenant_inflight_[op.tenant].load(std::memory_order_relaxed) >=
            static_cast<int64_t>(tenant_limit)) {
      drop(Status::Capacity("pool: tenant inflight limit"),
           &stats.dropped_tenant_limit, 1);
      dropped_tenant_limit_total_->Add(1);
      continue;
    }

    // Stamped before routing, so an op's sojourn includes its routing.
    auto admitted_at = std::chrono::steady_clock::now();
    std::vector<uint32_t> routes;
    if (route_at_dispatch && op.kind == WorkloadOp::Kind::kSearch) {
      telemetry::TraceScope route_span(dispatch_ctx, "pool.route", static_cast<uint32_t>(i));
      routes = lanes_[0]->node->Route(op.vector);
      route_span.set_args(routes.size(), routes.empty() ? 0 : routes.front());
    }
    const uint32_t node = PickNode(routes);
    Lane* lane = lanes_[node].get();
    {
      std::unique_lock<std::mutex> lock(lane->mutex);
      if (paced) {
        if (lane->queue.size() >= capacity) {
          lock.unlock();
          drop(Status::Capacity("pool: node queue full"),
               &stats.dropped_queue_full, 2);
          dropped_queue_full_total_->Add(1);
          continue;
        }
      } else if (lane->queue.size() >= capacity) {
        // Backpressure: the op is admitted once its lane has room.
        lane->cv_room.wait(lock, [lane, capacity] {
          return lane->stop || lane->queue.size() < capacity;
        });
        admitted_at = std::chrono::steady_clock::now();
      }
      TouchRecent(&recent_[node], routes, lane->node->options().cache_capacity);
      lane->outstanding.fetch_add(1, std::memory_order_relaxed);
      lane->queue.push_back(QueuedOp{&op, i, admitted_at, std::move(routes)});
      lane->depth.store(lane->queue.size(), std::memory_order_relaxed);
      lane->depth_gauge->Set(static_cast<int64_t>(lane->queue.size()));
    }
    lane->cv_nonempty.notify_one();

    ++admitted;
    ++assigned_[node];
    tenant_inflight_[op.tenant].fetch_add(1, std::memory_order_relaxed);
    admitted_total_->Add(1);
    dispatch_ctx.Event("pool.dispatch", static_cast<uint32_t>(i), node, op.tenant);
  }

  {
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [this, admitted] { return done_count_ == admitted; });
    run_active_ = false;
  }
  stats.wall_seconds = static_cast<double>(wall.elapsed_ns()) / 1e9;

  stats.admitted = admitted;
  for (uint32_t i = 0; i < lanes_.size(); ++i) {
    Lane* lane = lanes_[i].get();
    stats.completed_ok += lane->ok;
    stats.failed += lane->failed;
    stats.searches += lane->searches;
    stats.inserts += lane->inserts;
    stats.per_node_ops[i] = lane->ops;
    stats.per_node_cache_hits[i] = lane->cache_hits;
    stats.per_node_cache_lookups[i] = lane->cache_lookups;
    stats.latency_us.Merge(lane->latency_us);
    for (uint32_t t = 0; t < options_.num_tenants; ++t) {
      stats.per_tenant_latency_us[t].Merge(lane->tenant_latency_us[t]);
    }
  }
  const uint64_t schedule_span_ns = ops.empty() ? 0 : ops.back().arrival_ns;
  stats.offered_qps =
      paced && schedule_span_ns > 0
          ? static_cast<double>(stats.submitted) * 1e9 / static_cast<double>(schedule_span_ns)
          : (stats.wall_seconds > 0.0
                 ? static_cast<double>(stats.submitted) / stats.wall_seconds
                 : 0.0);
  stats.achieved_qps =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.completed_ok + stats.failed) / stats.wall_seconds
          : 0.0;

  run_ops_ = {};
  run_outcomes_ = nullptr;
  return stats;
}

Result<ShardedResult> ComputePool::SearchSharded(const VectorSet& queries, size_t k,
                                                 uint32_t ef_search) {
  const size_t n = queries.size();
  const size_t shards = std::min(lanes_.size(), n);
  ShardCall call{queries, k, ef_search, shards,
                 std::vector<Result<BatchResult>>(shards, Status::Internal("shard never ran")),
                 std::latch(static_cast<std::ptrdiff_t>(shards))};
  for (size_t s = 0; s < call.shards; ++s) {
    Lane* lane = lanes_[s].get();
    {
      std::lock_guard<std::mutex> lock(lane->mutex);
      lane->outstanding.fetch_add(1, std::memory_order_relaxed);
      lane->queue.push_back(QueuedOp{nullptr, s, {}, {}, &call});
      lane->depth.store(lane->queue.size(), std::memory_order_relaxed);
      lane->depth_gauge->Set(static_cast<int64_t>(lane->queue.size()));
    }
    lane->cv_nonempty.notify_one();
  }
  call.done.wait();

  ShardedResult out;
  out.results.resize(n);
  out.statuses.resize(n);
  out.per_node.resize(lanes_.size());
  for (size_t s = 0; s < call.shards; ++s) {
    if (!call.results[s].ok()) return call.results[s].status();
    BatchResult& shard = call.results[s].value();
    const auto begin = static_cast<std::ptrdiff_t>(call.Begin(s));
    std::move(shard.results.begin(), shard.results.end(), out.results.begin() + begin);
    std::move(shard.statuses.begin(), shard.statuses.end(), out.statuses.begin() + begin);
    out.per_node[s] = shard.breakdown;
  }
  return out;
}

}  // namespace dhnsw
