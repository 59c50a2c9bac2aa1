#ifndef GENALG_OBS_METRICS_H_
#define GENALG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace genalg::obs {

/// Process-wide observability: monotonic counters, gauges, and fixed-bucket
/// latency histograms, registered by dotted name (`layer.component.metric`)
/// in one global registry.
///
/// Design rules (see DESIGN.md "Observability"):
///  - Registration (GetCounter / GetGauge / GetHistogram) takes a mutex and
///    may allocate; it happens once per call site, cached in a
///    function-local static. The returned pointer is stable for the life
///    of the process.
///  - The hot path — Add / Set / Record — is lock-free: one relaxed atomic
///    load of the global enable flag plus relaxed fetch_adds. No
///    allocation, ever.
///  - Readers (export, snapshot) see values that are individually exact
///    but not mutually consistent — fine for monitoring, and the reason
///    totals in tests are read after joining the writers.
///  - Counters are monotonic and never reset; benches and tests scope
///    their readings with Snapshot() + MetricsSnapshot::Since().

/// Global kill switch for the metric mutators (spans have their own, see
/// trace.h). Enabled by default; the overhead benchmark flips it to
/// measure the instrumentation tax.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
/// Appends `s` as a quoted, escaped JSON string (metrics and trace export).
void AppendJsonString(std::string* out, std::string_view s);
}  // namespace internal

/// A monotonically increasing counter.
class Counter {
 public:
  void Add(uint64_t n) {
    if (!internal::g_metrics_enabled.load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can move both ways (queue depths, pool occupancy).
class Gauge {
 public:
  void Set(int64_t v) {
    if (!internal::g_metrics_enabled.load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t n) {
    if (!internal::g_metrics_enabled.load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Sub(int64_t n) { Add(-n); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket histogram: bucket upper bounds are chosen at
/// registration and never change, so recording is a binary search over a
/// constant array plus three relaxed fetch_adds (bucket, count, sum) and a
/// CAS loop for the max. Values are unitless; the convention for latency
/// metrics is microseconds and a `_us` name suffix.
class Histogram {
 public:
  /// `bounds` must be strictly ascending; values above the last bound land
  /// in an implicit overflow bucket.
  explicit Histogram(std::vector<uint64_t> bounds);

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  const std::vector<uint64_t>& bounds() const { return bounds_; }
  /// Bucket i counts values <= bounds[i]; the final entry is the overflow
  /// bucket.
  std::vector<uint64_t> BucketCounts() const;
  /// Estimated quantile (0 < q < 1) from the bucket midpoints.
  uint64_t EstimateQuantile(double q) const;

 private:
  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// 1-2-5 decades from 1 us to 10 s — the default latency bucketing.
const std::vector<uint64_t>& DefaultLatencyBoundsUs();

/// One histogram's exported state.
struct HistogramData {
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> buckets;  // bounds.size() + 1 (overflow last).
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
};

/// A point-in-time copy of every metric, and the subtraction that scopes
/// readings to a region of interest.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// Value of a counter (0 when absent) — the common test accessor.
  uint64_t counter(std::string_view name) const;
  int64_t gauge(std::string_view name) const;

  /// This snapshot minus `earlier`: counters and histogram buckets/count/
  /// sum subtract (clamped at 0 for metrics born after `earlier`); gauges
  /// keep their current value (a level, not a rate).
  MetricsSnapshot Since(const MetricsSnapshot& earlier) const;

  std::string ToJson() const;
  std::string ToText() const;
};

/// The process-wide metric registry.
class Registry {
 public:
  /// Never destroyed (leaked on purpose, like ThreadPool::Global), so
  /// metric pointers cached in static locals stay valid through exit.
  static Registry& Global();

  /// Returns the metric registered under `name`, creating it on first
  /// use. Name convention: `layer.component.metric`, e.g.
  /// `udb.pool.hits`. Thread-safe; cache the pointer at hot call sites.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `bounds` applies only on first registration (empty = default
  /// latency buckets); later calls return the existing histogram.
  Histogram* GetHistogram(std::string_view name,
                          std::vector<uint64_t> bounds = {});

  MetricsSnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }
  std::string ToText() const { return Snapshot().ToText(); }

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace genalg::obs

#endif  // GENALG_OBS_METRICS_H_
