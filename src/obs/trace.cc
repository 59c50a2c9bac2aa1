#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

namespace genalg::obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
std::atomic<uint64_t> g_disabled_spans{0};
}  // namespace internal

namespace {

// The live-span stack of this thread (innermost open span), and the
// thread's scoped sink, if any. Both are only touched from the owning
// thread; cross-thread publication happens via Tracer's mutex.
thread_local SpanNode* tls_current = nullptr;
thread_local SpanCollector* tls_collector = nullptr;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string_view SpanNode::attr(std::string_view key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return {};
}

size_t SpanNode::CountNamed(std::string_view target) const {
  size_t n = name == target ? 1 : 0;
  for (const auto& child : children) n += child->CountNamed(target);
  return n;
}

uint64_t SpanNode::ChildDurationNs() const {
  uint64_t total = 0;
  for (const auto& child : children) total += child->duration_ns;
  return total;
}

std::string SpanNode::ToText(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += name;
  char buf[48];
  std::snprintf(buf, sizeof(buf), " %.1fus",
                static_cast<double>(duration_ns) / 1e3);
  out += buf;
  for (const auto& [k, v] : attrs) {
    out += ' ';
    out += k;
    out += '=';
    out += v;
  }
  out += '\n';
  for (const auto& child : children) out += child->ToText(indent + 1);
  return out;
}

std::string SpanNode::ToJson() const {
  std::string out = "{\"name\": ";
  internal::AppendJsonString(&out, name);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ", \"duration_ns\": %llu",
                static_cast<unsigned long long>(duration_ns));
  out += buf;
  if (!attrs.empty()) {
    out += ", \"attrs\": {";
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (i > 0) out += ", ";
      internal::AppendJsonString(&out, attrs[i].first);
      out += ": ";
      internal::AppendJsonString(&out, attrs[i].second);
    }
    out += "}";
  }
  if (!children.empty()) {
    out += ", \"children\": [";
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0) out += ", ";
      out += children[i]->ToJson();
    }
    out += "]";
  }
  out += "}";
  return out;
}

Span::Span(std::string_view name) {
  // Fast path: no collector on this thread, no enclosing live span, and
  // the global tracer is off — record nothing but the fact we skipped.
  if (tls_collector == nullptr && tls_current == nullptr &&
      !internal::g_trace_enabled.load(std::memory_order_relaxed)) {
    internal::g_disabled_spans.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  owned_ = std::make_unique<SpanNode>();
  node_ = owned_.get();
  node_->name = name;
  node_->start_ns = NowNs();
  parent_ = tls_current;
  tls_current = node_;
}

Span::~Span() {
  if (node_ == nullptr) return;
  node_->duration_ns = NowNs() - node_->start_ns;
  tls_current = parent_;
  if (parent_ != nullptr) {
    parent_->children.push_back(std::move(owned_));
    return;
  }
  if (tls_collector != nullptr) {
    tls_collector->roots_.push_back(std::move(owned_));
    return;
  }
  Tracer::Global().Retain(std::move(owned_));
}

void Span::SetAttr(std::string_view key, std::string_view value) {
  if (node_ == nullptr) return;
  node_->attrs.emplace_back(std::string(key), std::string(value));
}

void Span::SetAttr(std::string_view key, int64_t value) {
  if (node_ == nullptr) return;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  node_->attrs.emplace_back(std::string(key), buf);
}

void Span::SetAttr(std::string_view key, uint64_t value) {
  if (node_ == nullptr) return;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  node_->attrs.emplace_back(std::string(key), buf);
}

void Span::SetAttr(std::string_view key, double value) {
  if (node_ == nullptr) return;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  node_->attrs.emplace_back(std::string(key), buf);
}

void Span::AddTime(uint64_t ns) {
  if (node_ != nullptr) node_->start_ns -= ns;
}

SpanCollector::SpanCollector() {
  saved_collector_ = tls_collector;
  saved_current_ = tls_current;
  tls_collector = this;
  // Mask any enclosing live span so the collected region roots fresh
  // trees here instead of attaching to (and vanishing into) an outer
  // span owned by someone else.
  tls_current = nullptr;
}

SpanCollector::~SpanCollector() {
  tls_collector = saved_collector_;
  tls_current = saved_current_;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Tracer() {
  // GENALG_TRACE=text | json | text:/path | json:/path
  const char* env = std::getenv("GENALG_TRACE");
  if (env == nullptr || *env == '\0') return;
  std::string spec(env);
  std::string path;
  if (size_t colon = spec.find(':'); colon != std::string::npos) {
    path = spec.substr(colon + 1);
    spec.resize(colon);
  }
  if (spec == "json") {
    Enable(Format::kJson, std::move(path));
  } else if (spec == "text" || spec == "1" || spec == "on") {
    Enable(Format::kText, std::move(path));
  }
}

void Tracer::Enable(Format format, std::string path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    format_ = format;
    path_ = std::move(path);
  }
  enabled_.store(true, std::memory_order_relaxed);
  internal::g_trace_enabled.store(true, std::memory_order_relaxed);
  static bool atexit_registered = [] {
    std::atexit([] { Tracer::Global().Flush(); });
    return true;
  }();
  (void)atexit_registered;
}

void Tracer::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
  internal::g_trace_enabled.store(false, std::memory_order_relaxed);
}

size_t Tracer::retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::string Tracer::Flush(bool write_out) {
  std::deque<std::unique_ptr<SpanNode>> trees;
  Format format;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    trees.swap(ring_);
    format = format_;
    path = path_;
  }
  if (trees.empty()) return "";
  std::string out;
  if (format == Format::kJson) {
    out = "[\n";
    for (size_t i = 0; i < trees.size(); ++i) {
      out += trees[i]->ToJson();
      out += i + 1 < trees.size() ? ",\n" : "\n";
    }
    out += "]\n";
  } else {
    for (const auto& tree : trees) out += tree->ToText();
  }
  if (write_out) {
    if (path.empty()) {
      std::fputs(out.c_str(), stderr);
    } else if (FILE* f = std::fopen(path.c_str(), "a")) {
      std::fputs(out.c_str(), f);
      std::fclose(f);
    }
  }
  return out;
}

void Tracer::Retain(std::unique_ptr<SpanNode> root) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.push_back(std::move(root));
  while (ring_.size() > kMaxRetained) ring_.pop_front();
}

namespace {

// Construct the Tracer at load time so GENALG_TRACE is parsed before the
// first span: the span fast path reads only g_trace_enabled and would
// never touch Tracer::Global() while it is false.
const bool g_tracer_env_parsed = (Tracer::Global(), true);

}  // namespace

}  // namespace genalg::obs
