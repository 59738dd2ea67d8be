#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace infoflow::obs {
namespace {

// The registry is process-global and shared with other tests in the binary;
// every test uses unique metric names and tolerates unrelated entries in
// snapshots.

// ----------------------------------------------------------------- counters

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter& c = GetCounter("test.counter.basic");
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Counter, SameNameReturnsSameHandle) {
  Counter& a = GetCounter("test.counter.same");
  Counter& b = GetCounter("test.counter.same");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);
}

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Counter& c = GetCounter("test.counter.concurrent");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

// ------------------------------------------------------------------- gauges

TEST(Gauge, LastWriteWins) {
  Gauge& g = GetGauge("test.gauge.basic");
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.25);
  EXPECT_EQ(g.Value(), 3.25);
  g.Set(-1e300);
  EXPECT_EQ(g.Value(), -1e300);
}

// --------------------------------------------------------------- histograms

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram& h = GetHistogram("test.hist.bounds", {1.0, 10.0, 100.0});
  h.Record(0.5);    // <= 1        -> bucket 0
  h.Record(1.0);    // == bound 0  -> bucket 0 (v <= bounds[i])
  h.Record(1.0001); //             -> bucket 1
  h.Record(10.0);   // == bound 1  -> bucket 1
  h.Record(100.0);  // == bound 2  -> bucket 2
  h.Record(100.5);  // above last  -> overflow bucket 3
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.total, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 100.5);
  EXPECT_DOUBLE_EQ(snap.Mean(), snap.sum / 6.0);
}

TEST(Histogram, AddBatchMatchesEquivalentRecords) {
  Histogram& recorded = GetHistogram("test.hist.recorded", {1.0, 2.0});
  Histogram& batched = GetHistogram("test.hist.batched", {1.0, 2.0});
  recorded.Record(0.5);
  recorded.Record(0.5);
  recorded.Record(1.5);
  recorded.Record(9.0);
  const std::uint64_t counts[3] = {2, 1, 1};
  batched.AddBatch(counts, 3, 0.5 + 0.5 + 1.5 + 9.0);
  const HistogramSnapshot a = recorded.Snapshot();
  const HistogramSnapshot b = batched.Snapshot();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.total, b.total);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
}

TEST(Histogram, AddBatchWithWrongStrideIsDropped) {
  Histogram& h = GetHistogram("test.hist.stride", {1.0, 2.0});
  const std::uint64_t wrong[2] = {5, 5};
  h.AddBatch(wrong, 2, 10.0);  // stride is 3 (2 bounds + overflow)
  EXPECT_EQ(h.Snapshot().total, 0u);
}

TEST(Histogram, ConcurrentRecordsSumExactly) {
  Histogram& h = GetHistogram("test.hist.concurrent", {0.0, 1.0, 2.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>((t + i) % 4));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total, static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t c : snap.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, snap.total);
}

TEST(Histogram, FirstRegistrationBoundsWin) {
  Histogram& a = GetHistogram("test.hist.firstwins", {1.0, 2.0});
  Histogram& b = GetHistogram("test.hist.firstwins", {99.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.bounds(), (std::vector<double>{1.0, 2.0}));
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, SnapshotContainsRegisteredMetrics) {
  GetCounter("test.reg.counter").Increment(7);
  GetGauge("test.reg.gauge").Set(2.5);
  GetHistogram("test.reg.hist", {1.0}).Record(0.5);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(snap.counters.contains("test.reg.counter"));
  EXPECT_EQ(snap.counters.at("test.reg.counter"), 7u);
  ASSERT_TRUE(snap.gauges.contains("test.reg.gauge"));
  EXPECT_EQ(snap.gauges.at("test.reg.gauge"), 2.5);
  ASSERT_TRUE(snap.histograms.contains("test.reg.hist"));
  EXPECT_EQ(snap.histograms.at("test.reg.hist").total, 1u);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsHandles) {
  Counter& c = GetCounter("test.reg.reset.counter");
  Gauge& g = GetGauge("test.reg.reset.gauge");
  Histogram& h = GetHistogram("test.reg.reset.hist", {1.0});
  c.Increment(5);
  g.Set(1.0);
  h.Record(0.5);
  MetricsRegistry::Global().Reset();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(g.Value(), 0.0);
  EXPECT_EQ(h.Snapshot().total, 0u);
  // The handles stay live and writable after Reset.
  c.Increment();
  EXPECT_EQ(c.Value(), 1u);
}

// -------------------------------------------------- JSON / CSV serialization

/// A deliberately minimal recursive-descent JSON parser — just enough to
/// prove the serializers emit well-formed JSON with the expected structure.
/// Numbers are parsed with strtod; objects/arrays recurse; no unicode
/// unescaping (the suite only emits ASCII names).
class MiniJson {
 public:
  struct Value {
    enum class Kind { kNull, kNumber, kString, kArray, kObject } kind =
        Kind::kNull;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::map<std::string, Value> object;
  };

  static bool Parse(const std::string& text, Value* out) {
    MiniJson parser(text);
    if (!parser.ParseValue(out)) return false;
    parser.SkipSpace();
    return parser.pos_ == text.size();
  }

 private:
  explicit MiniJson(const std::string& text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      out->push_back(text_[pos_++]);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  bool ParseValue(Value* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = Value::Kind::kObject;
      SkipSpace();
      if (Consume('}')) return true;
      do {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        if (!ParseValue(&out->object[key])) return false;
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->kind = Value::Kind::kArray;
      SkipSpace();
      if (Consume(']')) return true;
      do {
        Value element;
        if (!ParseValue(&element)) return false;
        out->array.push_back(std::move(element));
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->kind = Value::Kind::kString;
      return ParseString(&out->string);
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->kind = Value::Kind::kNull;
      pos_ += 4;
      return true;
    }
    char* end = nullptr;
    out->number = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    out->kind = Value::Kind::kNumber;
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(MetricsSnapshot, ToJsonParsesBackWithExpectedValues) {
  GetCounter("test.json.counter").Increment(11);
  GetGauge("test.json.gauge").Set(0.75);
  GetHistogram("test.json.hist", {1.0, 2.0}).Record(1.5);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  MiniJson::Value root;
  ASSERT_TRUE(MiniJson::Parse(snap.ToJson(), &root)) << snap.ToJson();
  ASSERT_EQ(root.kind, MiniJson::Value::Kind::kObject);
  const MiniJson::Value& counters = root.object.at("counters");
  EXPECT_EQ(counters.object.at("test.json.counter").number, 11.0);
  const MiniJson::Value& gauges = root.object.at("gauges");
  EXPECT_EQ(gauges.object.at("test.json.gauge").number, 0.75);
  const MiniJson::Value& hist =
      root.object.at("histograms").object.at("test.json.hist");
  ASSERT_EQ(hist.object.at("bounds").array.size(), 2u);
  ASSERT_EQ(hist.object.at("counts").array.size(), 3u);
  EXPECT_EQ(hist.object.at("counts").array[1].number, 1.0);
  EXPECT_EQ(hist.object.at("total").number, 1.0);
}

TEST(MetricsSnapshot, ToJsonEscapesNamesAndHandlesNonFinite) {
  MetricsSnapshot snap;
  snap.counters["with \"quote\" and \\slash\\"] = 1;
  snap.gauges["nan.gauge"] = std::numeric_limits<double>::quiet_NaN();
  snap.gauges["inf.gauge"] = std::numeric_limits<double>::infinity();
  MiniJson::Value root;
  ASSERT_TRUE(MiniJson::Parse(snap.ToJson(), &root)) << snap.ToJson();
  EXPECT_TRUE(
      root.object.at("counters").object.contains("with \"quote\" and \\slash\\"));
  // Non-finite doubles have no JSON literal; they must serialize as null.
  EXPECT_EQ(root.object.at("gauges").object.at("nan.gauge").kind,
            MiniJson::Value::Kind::kNull);
  EXPECT_EQ(root.object.at("gauges").object.at("inf.gauge").kind,
            MiniJson::Value::Kind::kNull);
}

TEST(MetricsSnapshot, ToCsvHasHeaderAndOneRowPerField) {
  MetricsSnapshot snap;
  snap.counters["c"] = 3;
  HistogramSnapshot hist;
  hist.bounds = {1.0, 2.0};
  hist.counts = {1, 0, 2};
  hist.total = 3;
  hist.sum = 10.0;
  snap.histograms["h"] = hist;
  const std::string csv = snap.ToCsv();
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,c,value,3"), std::string::npos);
  // One row per bucket plus sum and count.
  EXPECT_NE(csv.find("histogram,h,le_inf,"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,count,3"), std::string::npos);
}

// ------------------------------------------------------------------ tracing

TEST(Tracing, ExportIsValidChromeJsonWithRecordedSpans) {
  Tracing::Clear();
  Tracing::Enable();
  {
    TraceSpan outer("test/outer");
    TraceSpan inner("test/inner");
  }
  Tracing::Disable();
  const std::string json = Tracing::ExportChromeJson();
  MiniJson::Value root;
  ASSERT_TRUE(MiniJson::Parse(json, &root)) << json;
  const MiniJson::Value& events = root.object.at("traceEvents");
  ASSERT_EQ(events.kind, MiniJson::Value::Kind::kArray);
  int outer_count = 0, inner_count = 0;
  for (const MiniJson::Value& event : events.array) {
    const std::string& name = event.object.at("name").string;
    if (name == "test/outer") ++outer_count;
    if (name == "test/inner") ++inner_count;
    EXPECT_EQ(event.object.at("ph").string, "X");
    EXPECT_GE(event.object.at("ts").number, 0.0);
    EXPECT_GE(event.object.at("dur").number, 0.0);
  }
  EXPECT_EQ(outer_count, 1);
  EXPECT_EQ(inner_count, 1);
  Tracing::Clear();
}

TEST(Tracing, MultipleThreadsGetDistinctTids) {
  Tracing::Clear();
  Tracing::Enable();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] { TraceSpan span("test/threaded"); });
  }
  for (std::thread& t : threads) t.join();
  Tracing::Disable();
  MiniJson::Value root;
  ASSERT_TRUE(MiniJson::Parse(Tracing::ExportChromeJson(), &root));
  std::vector<double> tids;
  for (const MiniJson::Value& event : root.object.at("traceEvents").array) {
    if (event.object.at("name").string == "test/threaded") {
      tids.push_back(event.object.at("tid").number);
    }
  }
  ASSERT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
  Tracing::Clear();
}

TEST(Tracing, DisabledSpansRecordNothing) {
  Tracing::Clear();
  ASSERT_FALSE(Tracing::IsEnabled());
  { TraceSpan span("test/while_disabled"); }
  const std::string json = Tracing::ExportChromeJson();
  EXPECT_EQ(json.find("test/while_disabled"), std::string::npos);
}

TEST(Tracing, RingOverwritesOldestAndCountsDrops) {
  Tracing::Clear();
  Tracing::Enable(/*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("test/overflow");
  }
  Tracing::Disable();
  EXPECT_GE(Tracing::DroppedEvents(), 6u);
  MiniJson::Value root;
  ASSERT_TRUE(MiniJson::Parse(Tracing::ExportChromeJson(), &root));
  std::size_t kept = 0;
  for (const MiniJson::Value& event : root.object.at("traceEvents").array) {
    if (event.object.at("name").string == "test/overflow") ++kept;
  }
  EXPECT_EQ(kept, 4u);
  Tracing::Clear();
  EXPECT_EQ(Tracing::DroppedEvents(), 0u);
}

TEST(Tracing, RingOverwritesBumpTheDroppedSpansCounter) {
  Tracing::Clear();
  // The registry is process-global: assert the delta, not the absolute.
  const std::uint64_t before = GetCounter("trace.dropped_spans_total").Value();
  Tracing::Enable(/*events_per_thread=*/2);
  for (int i = 0; i < 7; ++i) {
    TraceSpan span("test/drop_counter");
  }
  Tracing::Disable();
  const std::uint64_t after = GetCounter("trace.dropped_spans_total").Value();
  EXPECT_EQ(after - before, 5u);  // 7 spans into a 2-slot ring
  Tracing::Clear();
}

TEST(Tracing, SpansExportTheirQueryIdAsArgs) {
  Tracing::Clear();
  Tracing::Enable();
  {
    TraceSpan tagged("test/with_query_id", /*query_id=*/42);
    TraceSpan untagged("test/without_query_id");
  }
  Tracing::Disable();
  MiniJson::Value root;
  ASSERT_TRUE(MiniJson::Parse(Tracing::ExportChromeJson(), &root));
  bool saw_tagged = false, saw_untagged = false;
  for (const MiniJson::Value& event : root.object.at("traceEvents").array) {
    const std::string& name = event.object.at("name").string;
    if (name == "test/with_query_id") {
      saw_tagged = true;
      ASSERT_TRUE(event.object.contains("args"));
      EXPECT_EQ(event.object.at("args").object.at("query_id").number, 42.0);
    }
    if (name == "test/without_query_id") {
      saw_untagged = true;
      // query_id 0 means "unstamped" and must not clutter the export.
      EXPECT_FALSE(event.object.contains("args"));
    }
  }
  EXPECT_TRUE(saw_tagged);
  EXPECT_TRUE(saw_untagged);
  Tracing::Clear();
}

// ----------------------------------------------------- quantiles and merging

TEST(HistogramSnapshot, QuantileInterpolatesWithinBuckets) {
  HistogramSnapshot snap;
  snap.bounds = {10.0, 20.0};
  snap.counts = {10, 10, 0};
  snap.total = 20;
  // Ranks 1..10 live in [0, 10], ranks 11..20 in (10, 20]: the median sits
  // exactly at the first bound and p75 halfway up the second bucket.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 20.0);
  // The first bucket interpolates from 0.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.25), 5.0);
}

TEST(HistogramSnapshot, QuantileEdgeCases) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  HistogramSnapshot overflow;
  overflow.bounds = {1.0};
  overflow.counts = {0, 5};  // everything above the last bound
  overflow.total = 5;
  // Overflow mass has no upper edge; the last finite bound is the best
  // (conservative) answer.
  EXPECT_DOUBLE_EQ(overflow.Quantile(0.99), 1.0);
  // Out-of-range q clamps instead of misbehaving.
  EXPECT_DOUBLE_EQ(overflow.Quantile(-1.0), overflow.Quantile(0.0));
  EXPECT_DOUBLE_EQ(overflow.Quantile(2.0), overflow.Quantile(1.0));
}

TEST(HistogramSnapshot, MergeAddsCountsAndIgnoresMismatchedBounds) {
  HistogramSnapshot a;
  a.bounds = {1.0, 2.0};
  a.counts = {1, 2, 3};
  a.total = 6;
  a.sum = 9.0;
  HistogramSnapshot b = a;
  b.counts = {4, 0, 1};
  b.total = 5;
  b.sum = 4.0;
  a.Merge(b);
  EXPECT_EQ(a.counts, (std::vector<std::uint64_t>{5, 2, 4}));
  EXPECT_EQ(a.total, 11u);
  EXPECT_DOUBLE_EQ(a.sum, 13.0);
  // Mismatched bounds cannot be combined meaningfully; Merge leaves the
  // receiver untouched.
  HistogramSnapshot other;
  other.bounds = {7.0};
  other.counts = {1, 1};
  other.total = 2;
  a.Merge(other);
  EXPECT_EQ(a.total, 11u);
  // Merging into an empty snapshot adopts the other wholesale.
  HistogramSnapshot fresh;
  fresh.Merge(a);
  EXPECT_EQ(fresh.total, 11u);
  EXPECT_EQ(fresh.bounds, a.bounds);
}

TEST(LogBuckets, CoversTheRangeGeometrically) {
  const std::vector<double> edges = LogBuckets(0.1, 1000.0, 1);
  // One edge per decade from 0.1 until the range is covered.
  ASSERT_GE(edges.size(), 5u);
  EXPECT_DOUBLE_EQ(edges[0], 0.1);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_NEAR(edges[i] / edges[i - 1], 10.0, 1e-9);
  }
  EXPECT_GE(edges.back(), 1000.0);
  // Finer per-decade resolution shrinks the ratio accordingly.
  const std::vector<double> fine = LogBuckets(1.0, 10.0, 4);
  ASSERT_GE(fine.size(), 4u);
  EXPECT_NEAR(fine[1] / fine[0], std::pow(10.0, 0.25), 1e-9);
}

// -------------------------------------------------------- Prometheus export

TEST(MetricsSnapshot, ToPrometheusEmitsWellFormedExposition) {
  MetricsSnapshot snap;
  snap.counters["serve.query.count"] = 7;
  snap.gauges["serve.query.latency_ms.flow.p99"] = 12.5;
  HistogramSnapshot hist;
  hist.bounds = {1.0, 2.0};
  hist.counts = {3, 1, 2};
  hist.total = 6;
  hist.sum = 11.0;
  snap.histograms["serve.latency"] = hist;
  const std::string text = snap.ToPrometheus();
  // Dotted registry names map to the [a-zA-Z0-9_:] charset.
  EXPECT_NE(text.find("# TYPE serve_query_count counter"), std::string::npos);
  EXPECT_NE(text.find("serve_query_count 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_query_latency_ms_flow_p99 gauge"),
            std::string::npos);
  EXPECT_NE(text.find("serve_query_latency_ms_flow_p99 12.5"),
            std::string::npos);
  // Histogram buckets are cumulative with a closing +Inf, sum and count.
  EXPECT_NE(text.find("# TYPE serve_latency histogram"), std::string::npos);
  EXPECT_NE(text.find("serve_latency_bucket{le=\"1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("serve_latency_bucket{le=\"2\"} 4"), std::string::npos);
  EXPECT_NE(text.find("serve_latency_bucket{le=\"+Inf\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_sum 11"), std::string::npos);
  EXPECT_NE(text.find("serve_latency_count 6"), std::string::npos);
  // Every line is either a comment or "name[{labels}] value".
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* parse_end = nullptr;
    std::strtod(line.c_str() + space + 1, &parse_end);
    EXPECT_EQ(*parse_end, '\0') << line;
  }
}

}  // namespace
}  // namespace infoflow::obs
