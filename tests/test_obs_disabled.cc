/// \file test_obs_disabled.cc
/// \brief Compiled with INFOFLOW_NO_METRICS (its own binary): proves the
/// stub observability API is present, inert, and genuinely free.

#ifndef INFOFLOW_NO_METRICS
#error "this test must be compiled with INFOFLOW_NO_METRICS"
#endif

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace infoflow::obs {
namespace {

// The zero-overhead contract, checked at compile time: the stub span holds
// no state (including via the query_id-tagging constructor), and
// MetricsEnabled() is a constant-false that `if constexpr` can prune whole
// instrumentation blocks with.
static_assert(std::is_empty_v<TraceSpan>);
static_assert(std::is_constructible_v<TraceSpan, const char*, std::uint64_t>);
static_assert(!MetricsEnabled());

TEST(ObsDisabled, CountersAreInert) {
  Counter& c = GetCounter("disabled.counter");
  c.Increment();
  c.Increment(100);
  EXPECT_EQ(c.Value(), 0u);
}

TEST(ObsDisabled, GaugesAreInert) {
  Gauge& g = GetGauge("disabled.gauge");
  g.Set(42.0);
  EXPECT_EQ(g.Value(), 0.0);
}

TEST(ObsDisabled, HistogramsAreInert) {
  Histogram& h = GetHistogram("disabled.hist", {1.0, 2.0});
  h.Record(1.5);
  const std::uint64_t batch[3] = {1, 2, 3};
  h.AddBatch(batch, 3, 9.0);
  EXPECT_TRUE(h.bounds().empty());
  EXPECT_EQ(h.Snapshot().total, 0u);
}

TEST(ObsDisabled, StripReplayInstrumentsAreInert) {
  // The lane-width instruments the strip workspaces, engines and bank
  // register (reach.strip_width gauge, per-width reach.batch_blocks.<W>
  // counters, reach.strip_latency_us histogram, serve.bank.plane_bytes.*
  // gauges) must compile down to the same inert stubs as every other
  // metric.
  Gauge& width = GetGauge("reach.strip_width");
  width.Set(512.0);
  EXPECT_EQ(width.Value(), 0.0);
  for (const char* name : {"reach.batch_blocks.64", "reach.batch_blocks.256",
                           "reach.batch_blocks.512"}) {
    Counter& c = GetCounter(name);
    c.Increment();
    EXPECT_EQ(c.Value(), 0u) << name;
  }
  Histogram& latency = GetHistogram("reach.strip_latency_us", {1.0, 5.0});
  latency.Record(3.0);
  EXPECT_EQ(latency.Snapshot().total, 0u);
  // The bank's per-layout footprint gauges (serve/sample_bank.cc).
  for (const char* name :
       {"serve.bank.plane_bytes.rows", "serve.bank.plane_bytes.64",
        "serve.bank.plane_bytes.256", "serve.bank.plane_bytes.512"}) {
    Gauge& bytes = GetGauge(name);
    bytes.Set(4096.0);
    EXPECT_EQ(bytes.Value(), 0.0) << name;
  }
}

TEST(ObsDisabled, SnapshotIsEmptyButSerializes) {
  GetCounter("disabled.snap").Increment(5);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  // The serializers stay linked so --metrics-json works in both builds.
  EXPECT_EQ(snap.ToJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
  EXPECT_NE(snap.ToCsv().find("kind,name,field,value"), std::string::npos);
}

TEST(ObsDisabled, TracingIsInertAndExportsValidEmptyJson) {
  Tracing::Enable();
  EXPECT_FALSE(Tracing::IsEnabled());
  { TraceSpan span("disabled/span"); }
  { TraceSpan tagged("disabled/tagged", /*query_id=*/42); }
  Tracing::Disable();
  EXPECT_EQ(Tracing::DroppedEvents(), 0u);
  EXPECT_EQ(Tracing::ExportChromeJson(), "{\"traceEvents\":[]}");
}

TEST(ObsDisabled, QuantileHelpersStayLinkedAndDefined) {
  // HistogramSnapshot and its math are real in both builds (the stub
  // registry just never fills one in); p50/p95/p99 derivation must not
  // vanish under NO_METRICS.
  HistogramSnapshot snap;
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  snap.bounds = {10.0};
  snap.counts = {4, 0};
  snap.total = 4;
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 5.0);
  HistogramSnapshot other;
  other.Merge(snap);
  EXPECT_EQ(other.total, 4u);
  EXPECT_GE(LogBuckets(0.1, 100.0, 2).size(), 6u);
  const MetricsSnapshot empty = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(empty.ToPrometheus(), "");
}

}  // namespace
}  // namespace infoflow::obs
