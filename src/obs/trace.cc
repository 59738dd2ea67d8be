#include "obs/trace.h"

#ifndef INFOFLOW_NO_METRICS

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "obs/metrics.h"

namespace infoflow::obs {
namespace {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide trace epoch (first use). Never 0, so
/// 0 can mean "span not recording".
std::uint64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch)
                      .count();
  return static_cast<std::uint64_t>(ns) + 1;
}

struct TraceEvent {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  std::uint64_t query_id;
};

/// One recording thread's ring. The owning thread writes under `mutex`
/// (uncontended except during export), the exporter reads under it.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;  // ring once size() == capacity
  std::size_t next = 0;            // overwrite cursor
  std::uint64_t dropped = 0;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::atomic<bool> enabled{false};
  std::atomic<std::size_t> capacity{1 << 14};
  std::mutex registry_mutex;
  /// shared_ptr keeps buffers alive after their thread exits.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

TraceState& State() {
  static TraceState* state = new TraceState();  // never destroyed
  return *state;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto fresh = std::make_shared<ThreadBuffer>();
    TraceState& state = State();
    std::lock_guard<std::mutex> lock(state.registry_mutex);
    fresh->tid = static_cast<std::uint32_t>(state.buffers.size());
    state.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

void RecordEvent(const char* name, std::uint64_t begin_ns,
                 std::uint64_t end_ns, std::uint64_t query_id) {
  ThreadBuffer& buffer = LocalBuffer();
  const std::size_t capacity =
      State().capacity.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() < capacity) {
    buffer.events.push_back({name, begin_ns, end_ns, query_id});
  } else if (!buffer.events.empty()) {
    buffer.events[buffer.next] = {name, begin_ns, end_ns, query_id};
    buffer.next = (buffer.next + 1) % buffer.events.size();
    ++buffer.dropped;
    // Overwrites are otherwise silent truncation of the export; surface
    // them as a counter an operator can alert on.
    static Counter& dropped_total = GetCounter("trace.dropped_spans_total");
    dropped_total.Increment();
  }
}

}  // namespace

void Tracing::Enable(std::size_t events_per_thread) {
  if (events_per_thread == 0) events_per_thread = 1;
  State().capacity.store(events_per_thread, std::memory_order_relaxed);
  NowNs();  // pin the epoch no later than the first enabled span
  State().enabled.store(true, std::memory_order_release);
}

void Tracing::Disable() {
  State().enabled.store(false, std::memory_order_release);
}

bool Tracing::IsEnabled() {
  return State().enabled.load(std::memory_order_acquire);
}

void Tracing::Clear() {
  TraceState& state = State();
  std::lock_guard<std::mutex> registry_lock(state.registry_mutex);
  for (const auto& buffer : state.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->events.clear();
    buffer->next = 0;
    buffer->dropped = 0;
  }
}

std::uint64_t Tracing::DroppedEvents() {
  TraceState& state = State();
  std::lock_guard<std::mutex> registry_lock(state.registry_mutex);
  std::uint64_t total = 0;
  for (const auto& buffer : state.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

namespace {

void AppendEscaped(std::ostringstream& out, const char* text) {
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c == '"' || *c == '\\') out << '\\';
    out << *c;
  }
}

}  // namespace

std::string Tracing::ExportChromeJson() {
  TraceState& state = State();
  // Copy the buffer list so per-buffer locks are not held under the
  // registry lock longer than needed.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(state.registry_mutex);
    buffers = state.buffers;
  }
  std::ostringstream out;
  out.precision(17);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    for (const TraceEvent& event : buffer->events) {
      if (!first) out << ",";
      first = false;
      // Span names are compile-time literals (identifier-ish); escape the
      // two JSON-significant characters anyway.
      out << "{\"name\":\"";
      AppendEscaped(out, event.name);
      out << "\",\"cat\":\"infoflow\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << buffer->tid << ",\"ts\":"
          << static_cast<double>(event.begin_ns - 1) / 1000.0 << ",\"dur\":"
          << static_cast<double>(event.end_ns - event.begin_ns) / 1000.0;
      if (event.query_id != 0) {
        out << ",\"args\":{\"query_id\":" << event.query_id << "}";
      }
      out << "}";
    }
  }
  out << "]}";
  return out.str();
}

TraceSpan::TraceSpan(const char* name) : TraceSpan(name, 0) {}

TraceSpan::TraceSpan(const char* name, std::uint64_t query_id)
    : name_(name), begin_ns_(0), query_id_(query_id) {
  if (Tracing::IsEnabled()) begin_ns_ = NowNs();
}

TraceSpan::~TraceSpan() {
  if (begin_ns_ == 0) return;
  if (!Tracing::IsEnabled()) return;  // disabled mid-span: drop it
  RecordEvent(name_, begin_ns_, NowNs(), query_id_);
}

}  // namespace infoflow::obs

#endif  // INFOFLOW_NO_METRICS
