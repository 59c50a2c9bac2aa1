#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace genalg::obs {

namespace internal {
std::atomic<bool> g_metrics_enabled{true};

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}
}  // namespace internal

bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Record(uint64_t value) {
  if (!internal::g_metrics_enabled.load(std::memory_order_relaxed)) return;
  // First bucket whose upper bound covers `value`; past-the-end is the
  // overflow bucket.
  size_t idx = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
               bounds_.begin();
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < value && !max_.compare_exchange_weak(
                             prev, value, std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t Histogram::EstimateQuantile(double q) const {
  const auto buckets = BucketCounts();
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0;
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(total));
  if (target >= total) target = total - 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > target) {
      if (i >= bounds_.size()) return max();
      uint64_t lo = i == 0 ? 0 : bounds_[i - 1];
      return lo + (bounds_[i] - lo) / 2;
    }
  }
  return max();
}

const std::vector<uint64_t>& DefaultLatencyBoundsUs() {
  static const std::vector<uint64_t>* bounds = [] {
    auto* b = new std::vector<uint64_t>;
    // 1-2-5 decades: 1us .. 10s.
    for (uint64_t decade = 1; decade <= 1'000'000; decade *= 10) {
      b->push_back(decade);
      b->push_back(2 * decade);
      b->push_back(5 * decade);
    }
    b->push_back(10'000'000);
    return b;
  }();
  return *bounds;
}

namespace {

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  *out += buf;
}

void AppendI64(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  *out += buf;
}

uint64_t SubClamped(uint64_t now, uint64_t then) {
  return now >= then ? now - then : 0;
}

}  // namespace

uint64_t MetricsSnapshot::counter(std::string_view name) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

int64_t MetricsSnapshot::gauge(std::string_view name) const {
  auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0 : it->second;
}

MetricsSnapshot MetricsSnapshot::Since(const MetricsSnapshot& earlier) const {
  MetricsSnapshot out;
  for (const auto& [name, value] : counters) {
    auto it = earlier.counters.find(name);
    out.counters[name] =
        SubClamped(value, it == earlier.counters.end() ? 0 : it->second);
  }
  out.gauges = gauges;
  for (const auto& [name, hist] : histograms) {
    HistogramData d = hist;
    auto it = earlier.histograms.find(name);
    if (it != earlier.histograms.end() &&
        it->second.bounds == hist.bounds) {
      const HistogramData& then = it->second;
      for (size_t i = 0; i < d.buckets.size(); ++i) {
        d.buckets[i] = SubClamped(d.buckets[i], i < then.buckets.size()
                                                    ? then.buckets[i]
                                                    : 0);
      }
      d.count = SubClamped(d.count, then.count);
      d.sum = SubClamped(d.sum, then.sum);
      // max is a high-water mark; keep the current one.
    }
    out.histograms[name] = std::move(d);
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    internal::AppendJsonString(&out, name);
    out += ": ";
    AppendU64(&out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    internal::AppendJsonString(&out, name);
    out += ": ";
    AppendI64(&out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    internal::AppendJsonString(&out, name);
    out += ": {\"count\": ";
    AppendU64(&out, hist.count);
    out += ", \"sum\": ";
    AppendU64(&out, hist.sum);
    out += ", \"max\": ";
    AppendU64(&out, hist.max);
    out += ", \"bounds\": [";
    for (size_t i = 0; i < hist.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      AppendU64(&out, hist.bounds[i]);
    }
    out += "], \"buckets\": [";
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      AppendU64(&out, hist.buckets[i]);
    }
    out += "]}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += name;
    out += " = ";
    AppendU64(&out, value);
    out += "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += name;
    out += " = ";
    AppendI64(&out, value);
    out += " (gauge)\n";
  }
  for (const auto& [name, hist] : histograms) {
    out += name;
    out += ": count=";
    AppendU64(&out, hist.count);
    out += " sum=";
    AppendU64(&out, hist.sum);
    out += " max=";
    AppendU64(&out, hist.max);
    if (hist.count > 0) {
      out += " mean=";
      AppendU64(&out, hist.sum / hist.count);
    }
    out += "\n";
  }
  return out;
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  std::vector<uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = DefaultLatencyBoundsUs();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    out.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    out.gauges[name] = gauge->value();
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramData d;
    d.bounds = hist->bounds();
    d.buckets = hist->BucketCounts();
    d.count = hist->count();
    d.sum = hist->sum();
    d.max = hist->max();
    out.histograms[name] = std::move(d);
  }
  return out;
}

}  // namespace genalg::obs
