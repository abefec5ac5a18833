// Per-query trace spans (see DESIGN.md "Telemetry subsystem").
//
// A TraceBuffer is a bounded, pre-allocated event log owned by one compute
// instance (single-writer, like its QueuePair). Spans carry TWO time bases:
//   - sim_start_ns / sim_end_ns: the instance's SimClock — deterministic, so
//     two same-seed chaos runs produce byte-identical traces;
//   - wall_ns: real elapsed time of the span — attributes compute cost
//     (meta descent, decode, sub-HNSW search) exactly like the paper's
//     breakdown tables, but is run-to-run noise.
// The JSONL exporter can omit wall_ns (TraceExportOptions::include_wall =
// false) to produce the deterministic form CI byte-compares.
//
// Appending to a reserved buffer performs zero heap allocations; when the
// buffer is full events are counted in dropped() and discarded, never
// reallocated — the hot-path contract of test_search_alloc.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "common/timer.h"

namespace dhnsw::telemetry {

/// One closed span (or instantaneous event: sim_start_ns == sim_end_ns,
/// wall_ns == 0). `name` must point at a string literal / static storage.
struct TraceEvent {
  static constexpr uint32_t kNoQuery = UINT32_MAX;

  const char* name = "";
  uint32_t batch = 0;             ///< batch sequence number on this instance
  uint32_t query = kNoQuery;      ///< query index within the batch, if any
  uint64_t sim_start_ns = 0;      ///< SimClock at open (deterministic)
  uint64_t sim_end_ns = 0;        ///< SimClock at close (deterministic)
  uint64_t wall_ns = 0;           ///< real duration (non-deterministic)
  uint64_t a = 0;                 ///< span-specific payload (see DESIGN.md)
  uint64_t b = 0;                 ///< span-specific payload
};

class TraceBuffer {
 public:
  TraceBuffer() = default;
  explicit TraceBuffer(size_t capacity) { Reserve(capacity); }

  /// Sets the capacity (allocates now, so steady-state appends never do).
  /// Capacity 0 disables tracing entirely.
  void Reserve(size_t capacity) {
    capacity_ = capacity;
    events_.clear();
    events_.shrink_to_fit();
    events_.reserve(capacity);
    dropped_ = 0;
  }

  bool enabled() const noexcept { return capacity_ > 0; }
  size_t capacity() const noexcept { return capacity_; }
  size_t size() const noexcept { return events_.size(); }
  uint64_t dropped() const noexcept { return dropped_; }
  std::span<const TraceEvent> events() const noexcept { return events_; }

  /// Appends one event; drops (and counts) when disabled or full.
  void Append(const TraceEvent& event) noexcept {
    if (events_.size() >= capacity_) {
      if (enabled()) ++dropped_;
      return;
    }
    events_.push_back(event);
  }

  /// Forgets recorded events; keeps the reservation.
  void Clear() noexcept {
    events_.clear();
    dropped_ = 0;
  }

  /// Transport backend label stamped on every exported span ("tcp",
  /// "verbs"). Empty (the default, and what the simulator keeps) emits no
  /// label field at all, so simulator trace JSONL stays byte-identical to
  /// the pre-transport format.
  void set_transport_label(std::string label) { transport_label_ = std::move(label); }
  const std::string& transport_label() const noexcept { return transport_label_; }

 private:
  std::vector<TraceEvent> events_;
  size_t capacity_ = 0;
  uint64_t dropped_ = 0;
  std::string transport_label_;
};

/// Identifies where spans land and which clock stamps them. Carried from the
/// ComputeNode down to the QueuePair (pool lanes keep their own); copyable,
/// does not own anything. A default-constructed context is disabled and every
/// operation on it is a no-op.
struct TraceContext {
  TraceBuffer* buffer = nullptr;
  const SimClock* clock = nullptr;  ///< may be null (sim timestamps stay 0)
  uint32_t batch = 0;

  bool enabled() const noexcept { return buffer != nullptr && buffer->enabled(); }
  uint64_t now_ns() const noexcept { return clock == nullptr ? 0 : clock->now_ns(); }

  /// Records an instantaneous event.
  void Event(const char* name, uint32_t query = TraceEvent::kNoQuery, uint64_t a = 0,
             uint64_t b = 0) const noexcept {
    Span(name, query, 0, a, b);
  }

  /// Records a span whose work another thread timed (`wall_ns`): the
  /// buffer's single writer appends it after the join, stamped with the
  /// current simulated time. For work that advances no simulated time
  /// (routing, sub-search) that equals what an in-place TraceScope records.
  void Span(const char* name, uint32_t query, uint64_t wall_ns, uint64_t a = 0,
            uint64_t b = 0) const noexcept {
    if (!enabled()) return;
    const uint64_t now = now_ns();
    buffer->Append(TraceEvent{name, batch, query, now, now, wall_ns, a, b});
  }
};

/// RAII span: opens on construction, closes + appends on destruction.
/// Construct with a disabled context for a zero-cost no-op.
class TraceScope {
 public:
  TraceScope(const TraceContext& context, const char* name,
             uint32_t query = TraceEvent::kNoQuery) noexcept
      : context_(context), live_(context.enabled()) {
    if (!live_) return;
    event_.name = name;
    event_.batch = context_.batch;
    event_.query = query;
    event_.sim_start_ns = context_.now_ns();
    timer_.Restart();
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Attaches span-specific payload (bytes moved, cluster id, counts...).
  void set_args(uint64_t a, uint64_t b = 0) noexcept {
    event_.a = a;
    event_.b = b;
  }

  /// Closes + appends the span now; destruction becomes a no-op. For a stage
  /// that must end before a sibling stage opens in the same block.
  void Close() noexcept {
    if (!live_) return;
    live_ = false;
    event_.sim_end_ns = context_.now_ns();
    event_.wall_ns = timer_.elapsed_ns();
    context_.buffer->Append(event_);
  }

  ~TraceScope() { Close(); }

 private:
  TraceContext context_;
  TraceEvent event_;
  WallTimer timer_;
  bool live_;
};

struct TraceExportOptions {
  /// Emit wall_ns fields. Set false for the deterministic form (byte-identical
  /// across same-seed chaos runs).
  bool include_wall = true;
};

/// One JSON object per event, fixed key order, integers only — so equal event
/// sequences serialize to byte-identical text.
std::string TraceToJsonl(const TraceBuffer& buffer, const TraceExportOptions& options = {});

/// TraceToJsonl straight to a file.
Status WriteTraceJsonl(const TraceBuffer& buffer, const std::string& path,
                       const TraceExportOptions& options = {});

}  // namespace dhnsw::telemetry
