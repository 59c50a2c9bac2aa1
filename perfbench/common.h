#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Timing, order statistics, the in-memory span log, and the metric list
// the benchmark prints.

#include <dirent.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Moves the calling thread over every CPU the process may use, one per
/// pass, so a single-threaded measurement weighs each CPU equally: on a
/// shared host the CPUs of one machine can differ in speed by a third.
/// Restore() (also run on destruction) gives the thread back its original
/// affinity; threads it starts while pinned inherit the pin.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Number of passes that visit every CPU once.
  size_t cycle() const { return cpus_.empty() ? 1 : cpus_.size(); }

  void Select(size_t pass) {
    if (cpus_.empty()) return;
    const cpu_set_t one = One(pass);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }

  void Restore() {
    if (cpus_.empty()) return;
    pthread_setaffinity_np(pthread_self(), sizeof(original_), &original_);
  }

  /// Pins every thread of the process, the server's acceptor, session
  /// readers and workers included, to the CPU of `pass`. Threads started
  /// later inherit their creator's pin.
  void SelectAll(size_t pass) {
    if (!cpus_.empty()) SetAll(One(pass));
  }
  void RestoreAll() {
    if (!cpus_.empty()) SetAll(original_);
  }

 private:
  cpu_set_t One(size_t pass) const {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[pass % cpus_.size()], &one);
    return one;
  }

  static void SetAll(const cpu_set_t& mask) {
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) return;
    while (const dirent* entry = readdir(tasks)) {
      if (entry->d_name[0] == '.') continue;
      sched_setaffinity(std::atoi(entry->d_name), sizeof(mask), &mask);
    }
    closedir(tasks);
  }

  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// One timed call into a layer, recorded by the benchmark around a public
/// function. Spans of one request share `request`; `parent` indexes the
/// enclosing span in the same log (-1 for a root).
struct Span {
  const char* name;
  uint64_t request;
  int32_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

/// Spans kept in memory and written out when the run ends. One log per
/// thread; a disabled log records nothing and reads no clock.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int32_t Open(const char* name, uint64_t request, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, request, parent, Now(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = Now();
  }

  /// Moves `other`'s spans into this log, re-basing parent indexes.
  void Absorb(SpanLog&& other) {
    int32_t base = static_cast<int32_t>(spans_.size());
    for (Span span : other.spans_) {
      if (span.parent >= 0) span.parent += base;
      spans_.push_back(span);
    }
    other.spans_.clear();
  }

  double DurationUs(int32_t id) const {
    const Span& span = spans_[static_cast<size_t>(id)];
    return static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
  }

  std::vector<double> DurationsUs(std::string_view name) const {
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) {
        out.push_back(DurationUs(static_cast<int32_t>(i)));
      }
    }
    return out;
  }

  size_t size() const { return spans_.size(); }

  /// One JSON object per line: name, request, parent, start/end in ns
  /// from the run's clock origin.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,"
                   "\"parent\":%d,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.name, static_cast<unsigned long long>(s.request),
                   s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(out) == 0;
  }

 private:
  static int64_t Now() {
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request,
             int32_t parent = -1)
      : log_(log), id_(log->Open(name, request, parent)) {}
  ~ScopedSpan() { log_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Named metrics in print order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using MetricList = std::vector<Metric>;

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
