/// \file trace.h
/// \brief RAII trace spans recorded into per-thread ring buffers, exported
/// as Chrome `chrome://tracing` / Perfetto-compatible JSON.
///
/// A `TraceSpan` stamps a begin time on construction and pushes one
/// complete event (name, begin, duration, thread) on destruction. Events
/// land in a fixed-capacity ring buffer owned by the recording thread, so
/// a long run degrades to "most recent N spans per thread" instead of
/// unbounded memory. Tracing is off until `Tracing::Enable()`; while off, a
/// span costs one relaxed atomic load.
///
/// Span names must be string literals (or otherwise outlive the export):
/// the buffer stores the pointer, not a copy.
///
/// \code
///   obs::Tracing::Enable();
///   {
///     obs::TraceSpan span("multi_chain/estimate_flow");
///     ...work...
///   }
///   WriteFile("trace.json", obs::Tracing::ExportChromeJson());
/// \endcode
///
/// Load the file via chrome://tracing or https://ui.perfetto.dev.
///
/// `INFOFLOW_NO_METRICS` compiles the layer out: `TraceSpan` becomes an
/// empty type and `Tracing` a set of inline no-ops.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace infoflow::obs {

#ifndef INFOFLOW_NO_METRICS

/// \brief Global switch and export surface for span recording.
class Tracing {
 public:
  /// Turns recording on. `events_per_thread` caps each thread's ring buffer
  /// (oldest spans are overwritten past that). Enabling clears nothing:
  /// spans from a previous enabled period are retained until Clear().
  static void Enable(std::size_t events_per_thread = 1 << 14);

  /// Turns recording off; retained events stay exportable.
  static void Disable();

  static bool IsEnabled();

  /// Drops every retained event (all threads).
  static void Clear();

  /// Number of events dropped to ring-buffer overwrites since Clear().
  static std::uint64_t DroppedEvents();

  /// \brief All retained events as a Chrome trace JSON object
  /// (`{"traceEvents": [...]}`, "X" complete events, microsecond
  /// timestamps relative to process start, one tid per recording thread).
  /// Events carrying a nonzero query id export an `"args":{"query_id":N}`
  /// object so one query's spans form a selectable tree in the viewer.
  static std::string ExportChromeJson();
};

/// \brief RAII span: records [construction, destruction) under `name`.
class TraceSpan {
 public:
  /// `name` must outlive the trace export (use a string literal).
  explicit TraceSpan(const char* name);
  /// Same, stamping the span with a query id (0 = unattributed).
  TraceSpan(const char* name, std::uint64_t query_id);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  /// 0 when tracing was disabled at construction (the destructor then
  /// records nothing).
  std::uint64_t begin_ns_;
  std::uint64_t query_id_;
};

#else  // INFOFLOW_NO_METRICS

class Tracing {
 public:
  static void Enable(std::size_t = 0) {}
  static void Disable() {}
  static bool IsEnabled() { return false; }
  static void Clear() {}
  static std::uint64_t DroppedEvents() { return 0; }
  static std::string ExportChromeJson() { return "{\"traceEvents\":[]}"; }
};

class TraceSpan {
 public:
  explicit TraceSpan(const char*) {}
  TraceSpan(const char*, std::uint64_t) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};

#endif  // INFOFLOW_NO_METRICS

}  // namespace infoflow::obs
