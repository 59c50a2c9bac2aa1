#ifndef GENALG_OBS_TRACE_H_
#define GENALG_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace genalg::obs {

/// Hierarchical trace spans.
///
/// A `Span` is an RAII timer: construction stamps the start, destruction
/// stamps the duration and hands the finished node to its parent (the
/// enclosing live span on the same thread) or, for a root, to whichever
/// sink is active — a thread-local `SpanCollector` if one is installed,
/// else the global `Tracer` ring buffer when `GENALG_TRACE` enables it.
///
/// When neither sink is active, spans are runtime no-ops: the constructor
/// does one relaxed atomic load plus a thread_local read and the
/// destructor the same — no clock reads, no allocation. That keeps
/// always-on instrumentation affordable on query hot paths.
///
/// Spans are strictly thread-local: a span opened on a pool worker cannot
/// attach to a tree rooted on the submitting thread, so fan-out work
/// traced from worker threads appears as separate root spans (see
/// DESIGN.md "Observability" for the resulting guidance).

/// One finished (or in-flight) node of a span tree.
struct SpanNode {
  std::string name;
  uint64_t start_ns = 0;     // steady_clock, process-relative.
  uint64_t duration_ns = 0;  // 0 while the span is still open.
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<std::unique_ptr<SpanNode>> children;

  /// Value of an attribute, or "" when absent.
  std::string_view attr(std::string_view key) const;
  /// Depth-first count of nodes named `name` (including this one).
  size_t CountNamed(std::string_view name) const;
  /// Sum of direct children's durations — the "accounted" share of this
  /// span's own duration.
  uint64_t ChildDurationNs() const;

  std::string ToText(int indent = 0) const;
  std::string ToJson() const;
};

class SpanCollector;

/// RAII trace span. Construct on the stack; attributes may be attached
/// any time before destruction. Cheap no-op when tracing is off.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// No-op when the span is disabled.
  void SetAttr(std::string_view key, std::string_view value);
  void SetAttr(std::string_view key, int64_t value);
  void SetAttr(std::string_view key, uint64_t value);
  void SetAttr(std::string_view key, double value);

  /// Adds `ns` to the duration the span reports (its start moves back by
  /// as much). For a stage that ran interleaved with others before the
  /// span opened: the caller sums the stage's busy time, then opens the
  /// span. No-op when the span is disabled.
  void AddTime(uint64_t ns);

  bool enabled() const { return node_ != nullptr; }

 private:
  friend class SpanCollector;

  SpanNode* node_ = nullptr;    // Owned by owned_ or by the parent's tree.
  std::unique_ptr<SpanNode> owned_;  // Set only for root spans.
  SpanNode* parent_ = nullptr;
};

/// Scoped sink that captures the span trees rooted while it is installed
/// on this thread. Used by PROFILE: install a collector, run the query,
/// read the tree. Installing a collector masks any enclosing live span,
/// so the profiled region always produces fresh roots, and it forces
/// collection on this thread even when GENALG_TRACE is off.
class SpanCollector {
 public:
  SpanCollector();
  ~SpanCollector();

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// Finished root spans, in completion order.
  const std::vector<std::unique_ptr<SpanNode>>& roots() const {
    return roots_;
  }

 private:
  friend class Span;

  std::vector<std::unique_ptr<SpanNode>> roots_;
  SpanCollector* saved_collector_ = nullptr;
  SpanNode* saved_current_ = nullptr;
};

/// Global trace sink: a bounded ring of recent root span trees, enabled
/// by `GENALG_TRACE=text|json[:path]` (parsed once at first use) or
/// programmatically. On process exit — or on Flush() — retained trees
/// are rendered to stderr or the configured path.
class Tracer {
 public:
  static Tracer& Global();

  enum class Format { kText, kJson };

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void Enable(Format format, std::string path = "");
  void Disable();

  /// Number of retained root trees (oldest evicted beyond the cap).
  size_t retained() const;
  /// Renders and clears the retained trees. Returns the rendered text
  /// (also written to the configured path / stderr when `write_out`).
  std::string Flush(bool write_out = true);

  void Retain(std::unique_ptr<SpanNode> root);

 private:
  Tracer();

  static constexpr size_t kMaxRetained = 256;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  Format format_ = Format::kText;
  std::string path_;  // Empty = stderr.
  std::deque<std::unique_ptr<SpanNode>> ring_;
};

namespace internal {
/// True when any sink could accept a span from this thread — the one
/// relaxed load Span's constructor does first.
extern std::atomic<bool> g_trace_enabled;
/// Counts Span constructions that took the disabled fast path; lets the
/// overhead test confirm the no-op path is exercised.
extern std::atomic<uint64_t> g_disabled_spans;
}  // namespace internal

}  // namespace genalg::obs

#endif  // GENALG_OBS_TRACE_H_
